"""A screen row is the verdict of its pair, bit for bit.

compare_* evaluates exactly the uniform grid (plus any witness eps), the
points the batch screens decide on, so its extremes are the uniform-grid
extremes of the pair.  The classifier relies on this:
it reads the relations of batch_relations straight off the screen.  Both
paths go through the one segment kernel, so the extremes must be equal in
every bit, not just within an ulp, and both apply the one relation rule.

Maximality is read from the ReverseStrict rows of the same screen instead
of a second screen under negate(c); the mirror tests pin down why that is
exact.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fieldorder.classify import (is_local_min_polyorder, minimal_and_maximal,
                                 sample_neighborhood)
from fieldorder.dominance import (EQUIVALENT, INCOMPARABLE, REVERSE_STRICT, REVERSE_WEAK,
                                  STRICTLY_DOMINATES, WEAKLY_DOMINATES_NOT_STRICT,
                                  ToleranceConfig, _profiles, batch_relations,
                                  batch_scalar_steps, batch_vector_extremes, compare_scalar,
                                  compare_vector)
from fieldorder.fields import (Box, SampleSet, ScalarField, VectorField, negate,
                               origin_segment_witnesses, quadratic_form, registry_names,
                               scalar_field, vector_field)
from fieldorder.games import from_symmetric_matrix, hawk_dove, matching_pennies

CFG = ToleranceConfig()


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


def check_vector(c, X, Y, cfg=CFG):
    """Assert screen row == compare extremes on every non-Incomparable pair."""
    mx, mn = batch_vector_extremes(c, X, Y, cfg)
    checked = 0
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare_vector(c, x, y, cfg)
        if v.relation == INCOMPARABLE:
            continue
        assert bits([mx[k], mn[k]]) == bits([v.max_delta, v.min_delta]), (k, v.relation)
        checked += 1
    return checked


def check_scalar(f, X, Y, cfg=CFG):
    smax, smin, total = batch_scalar_steps(f, X, Y, cfg)
    checked = 0
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare_scalar(f, x, y, cfg)
        if v.relation == INCOMPARABLE:
            continue
        want = [smax[k], min(smin[k], total[k])]
        assert bits(want) == bits([v.max_delta, v.min_delta]), (k, v.relation)
        checked += 1
    return checked


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_kernel_is_the_rowwise_matmul(dim):
    # b = 0 makes c(0) = 0, so rows ending at the origin multiply exact zeros
    # by directions of either sign: a matmul turns each -0.0 product into +0.0
    rng = np.random.default_rng(dim)
    _, c = quadratic_form(rng.normal(size=(dim, dim)), np.zeros(dim))
    X = rng.uniform(-1, 1, (40, dim))
    Y = np.where(rng.random((40, 1)) < 0.5, 0.0, rng.uniform(-1, 1, (40, dim)))
    eps = np.linspace(0.0, 1.0, 129)
    got = _profiles(c, X, Y, eps)
    want = [c.values(eps[:, None] * x + (1.0 - eps)[:, None] * y) @ (x - y)
            for x, y in zip(X, Y)]
    assert bits(got) == bits(want)


def _uniform_pairs(rng, lo, hi, n):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return rng.uniform(lo, hi, (n, lo.size)), rng.uniform(lo, hi, (n, lo.size))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_random_quadratic_forms(dim):
    rng = np.random.default_rng(100 + dim)
    checked = 0
    for _ in range(12):
        f, c = quadratic_form(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        X, Y = _uniform_pairs(rng, [-1.0] * dim, [1.0] * dim, 24)
        checked += check_vector(c, X, Y)
        checked += check_scalar(f, X, Y)
    assert checked > 200


@pytest.mark.parametrize("game", [hawk_dove(), matching_pennies(),
                                  from_symmetric_matrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
                                                        label="rock_paper_scissors")],
                         ids=["hawk_dove", "matching_pennies", "rock_paper_scissors"])
def test_games(game):
    rng = np.random.default_rng(7)
    parts = getattr(game.domain, "parts", (game.domain,))
    blocks = [rng.dirichlet(np.ones(s.dim), size=(2, 80)) * s.mass for s in parts]
    X, Y = (np.concatenate([b[i] for b in blocks], axis=1) for i in (0, 1))
    assert check_vector(game, X, Y) > 40


def test_xsininv():
    rng = np.random.default_rng(11)
    X, Y = _uniform_pairs(rng, [-1.0], [2.0], 150)
    # pairs near the catalog points, where the screen decides minimality
    Z = np.array([[1.0 / (n * math.pi)] for n in range(1, 9)])
    X = np.vstack([X, Z, Z * 1.01])
    Y = np.vstack([Y, Z * 1.01, Z])
    assert check_vector(vector_field("xsininv"), X, Y) > 20
    assert check_scalar(scalar_field("xsininv"), X, Y) > 20


# ---------------------------------------------------------------------------
# The relation rule: batch_relations against compare_*, and the mirror
# ---------------------------------------------------------------------------

CONFIGS = [ToleranceConfig(), ToleranceConfig(tau=1e-3, n_eps=65),
           ToleranceConfig(tau=1e-6, n_eps=100)]
CONFIG_IDS = ["default", "tau1e-3_n65", "tau1e-6_n100"]

MIRROR = {STRICTLY_DOMINATES: REVERSE_STRICT, REVERSE_STRICT: STRICTLY_DOMINATES,
          WEAKLY_DOMINATES_NOT_STRICT: REVERSE_WEAK, REVERSE_WEAK: WEAKLY_DOMINATES_NOT_STRICT,
          EQUIVALENT: EQUIVALENT, INCOMPARABLE: INCOMPARABLE}


def reference_relation(hi, lo, drop, rise, tau):
    """The README's rule, spelled out: strict first, then Equivalent, then weak."""
    fw, rw = hi <= tau, lo >= -tau
    if fw and drop < -tau:
        return STRICTLY_DOMINATES
    if rw and rise > tau:
        return REVERSE_STRICT
    if fw and rw:
        return EQUIVALENT
    if fw:
        return WEAKLY_DOMINATES_NOT_STRICT
    if rw:
        return REVERSE_WEAK
    return INCOMPARABLE


def _box_pairs(domain, n, seed):
    rng = np.random.default_rng(seed)
    lo, up = np.asarray(domain.lower), np.asarray(domain.upper)
    X, Y = (lo + rng.random((n, lo.size)) * (up - lo) for _ in range(2))
    # equal endpoints, and pairs sharing a coordinate, reach the tie labels
    X[:4] = Y[:4]
    if lo.size > 1:
        X[4:8, 1:] = Y[4:8, 1:]
    return X, Y


def _game_pairs(field, n, seed):
    rng = np.random.default_rng(seed)
    parts = field.domain.parts
    blocks = [rng.dirichlet(np.ones(s.dim), size=(2, n)) * s.mass for s in parts]
    return tuple(np.concatenate([b[i] for b in blocks], axis=1) for i in (0, 1))


def _cases():
    rng = np.random.default_rng(2024)
    cases = []
    for dim in (1, 2, 3, 4):
        f, c = quadratic_form(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        cases += [(f"quadratic_form{dim}:scalar", f), (f"quadratic_form{dim}:vector", c)]
    for name in registry_names():
        cases += [(f"{name}:scalar", scalar_field(name)), (f"{name}:vector", vector_field(name))]
    rps = from_symmetric_matrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], label="rps")
    for game in (hawk_dove(), matching_pennies(), rps):
        cases.append((game.label, game))
    return cases


CASES = _cases()


def _pairs(field, seed):
    if isinstance(field.domain, Box):
        return _box_pairs(field.domain, 30, seed)
    return _game_pairs(field, 30, seed)


def signless_bits(values):
    """bits with -0.0 read as +0.0: a zero step of g is +0.0 under f and under -f."""
    return bits(np.asarray(values, float) + 0.0)


def _full_grid(field, X, Y, cfg):
    """The screen's statistics from one pass over the full uniform grid,
    independent of the screens' coarse levels."""
    g = _profiles(field, X, Y, np.linspace(0.0, 1.0, cfg.n_eps))
    if isinstance(field, ScalarField):
        d = np.diff(g, axis=1)
        return d.max(axis=1), d.min(axis=1), g[:, -1] - g[:, 0]
    return g.max(axis=1), g.min(axis=1)


def check_screen_against_full_grid(field, X, Y, cfg):
    """Assert the screen's band predicates are the full grid's on every row,
    and its statistics are exact on every row it cannot have dropped (a
    dropped row has a step or delta beyond each band edge)."""
    ref = _full_grid(field, X, Y, cfg)
    if isinstance(field, ScalarField):
        got = batch_scalar_steps(field, X, Y, cfg)
        assert bits(got[2]) == bits(ref[2])
    else:
        got = batch_vector_extremes(field, X, Y, cfg)
    np.testing.assert_array_equal(got[0] > cfg.tau, ref[0] > cfg.tau)
    np.testing.assert_array_equal(got[1] < -cfg.tau, ref[1] < -cfg.tau)
    whole = ~((ref[0] > cfg.tau) & (ref[1] < -cfg.tau))
    assert bits(got[0][whole]) == bits(ref[0][whole])
    assert bits(got[1][whole]) == bits(ref[1][whole])


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_batch_relations_is_the_compare_relation(label, field, cfg):
    X, Y = _pairs(field, seed=len(label))
    scalar = isinstance(field, ScalarField)
    compare = compare_scalar if scalar else compare_vector
    relations = batch_relations(field, X, Y, cfg)
    check_screen_against_full_grid(field, X, Y, cfg)
    reference = _full_grid(field, X, Y, cfg)
    for k, (x, y) in enumerate(zip(X, Y)):
        stats = [float(s[k]) for s in reference]
        hi, lo, drop, rise = ((stats[0], stats[1], stats[2], stats[2]) if scalar
                              else (stats[0], stats[1], stats[1], stats[0]))
        assert relations[k] == reference_relation(hi, lo, drop, rise, cfg.tau), (label, k)
        v = compare(field, x, y, cfg)
        assert bits([v.max_delta, v.min_delta]) == bits([hi, min(lo, drop)]), (label, k)
        assert relations[k] == v.relation, (label, k)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_negated_screen_is_the_mirror(label, field, cfg):
    X, Y = _pairs(field, seed=len(label) + 1)
    neg = negate(field)
    if isinstance(field, ScalarField):
        smax, smin, total = batch_scalar_steps(field, X, Y, cfg)
        got = batch_scalar_steps(neg, X, Y, cfg)
        assert signless_bits(got) == signless_bits([-smin, -smax, -total])
    else:
        mx, mn = batch_vector_extremes(field, X, Y, cfg)
        got = batch_vector_extremes(neg, X, Y, cfg)
        assert signless_bits(got) == signless_bits([-mn, -mx])
    want = [MIRROR[r] for r in batch_relations(field, X, Y, cfg)]
    assert batch_relations(neg, X, Y, cfg).tolist() == want


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_negated_compare_is_the_mirrored_verdict(label, field, cfg):
    X, Y = _pairs(field, seed=len(label) + 2)
    compare = compare_scalar if isinstance(field, ScalarField) else compare_vector
    neg = negate(field)
    for x, y in zip(X[:12], Y[:12]):
        v, w = compare(field, x, y, cfg), compare(neg, x, y, cfg)
        assert w.relation == MIRROR[v.relation]
        assert w.witness_eps_strict == v.witness_eps_strict
        violation = v.witness_eps_violation
        assert w.witness_eps_violation == (violation[::-1] if violation else None)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_weak_not_strict_labels(cfg):
    # g drops by 4 tau at t = 0.5, then climbs back to 0 in steps far under
    # tau: weak dominance without a net drop, the one case the vector
    # order cannot produce
    drop = 4 * cfg.tau
    f = ScalarField(batch=lambda P: np.where(P[:, 0] < 0.5, 0.0, -2 * drop * (1.0 - P[:, 0])),
                    domain=Box((0.0,), (1.0,)), label="sawtooth")
    rng = np.random.default_rng(9)
    X = np.vstack([[1.0], [0.0], rng.random((20, 1))])
    Y = np.vstack([[0.0], [1.0], rng.random((20, 1))])
    relations = batch_relations(f, X, Y, cfg)
    assert relations[:2].tolist() == [WEAKLY_DOMINATES_NOT_STRICT, REVERSE_WEAK]
    assert batch_relations(negate(f), X, Y, cfg).tolist() == [MIRROR[r] for r in relations]
    for k, (x, y) in enumerate(zip(X, Y)):
        v, w = compare_scalar(f, x, y, cfg), compare_scalar(negate(f), x, y, cfg)
        assert w.relation == MIRROR[v.relation]
        assert relations[k] == v.relation, k


@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_maximal_is_minimal_under_negation(label, field):
    # one screen's ReverseStrict rows decide maximality exactly as a second
    # screen under negate(field) would, witness included
    X, _ = _pairs(field, seed=3)
    challengers = SampleSet(X[1:])
    p = X[0]
    minimal, maximal = minimal_and_maximal(field, p, challengers)
    neg_minimal, neg_maximal = minimal_and_maximal(negate(field), p, challengers)
    assert maximal == neg_minimal and minimal == neg_maximal
    for outcome in (minimal, maximal):
        assert outcome.ok == (outcome.witness is None)


def _dip(sign):
    """1-D vector field equal to sign on [0, 1] except -sign on a sliver that
    no point of the default 1025-point grid hits."""
    def batch(P):
        t = P[:, 0]
        return np.where((t > 0.3001) & (t < 0.3002), -sign, sign)[:, None] * 1.0
    return VectorField(batch=batch, domain=Box((0.0,), (1.0,)), label=f"dip{sign:+g}")


@pytest.mark.parametrize("sign, screen_relation", [(1.0, REVERSE_STRICT),
                                                   (-1.0, STRICTLY_DOMINATES)])
def test_segment_witnesses_redecide_both_directions(sign, screen_relation):
    # on the uniform grid, x = 1 against p = 0 is strict one way; the
    # witness eps lands on the sliver and makes the pair Incomparable, which
    # must clear the failed check whichever direction it is
    c, p, challengers = _dip(sign), np.array([0.0]), SampleSet(np.array([[1.0]]))
    assert batch_relations(c, challengers.points, p, CFG).tolist() == [screen_relation]
    failed = [not o.ok for o in minimal_and_maximal(c, p, challengers)]
    assert failed == [screen_relation == STRICTLY_DOMINATES,
                      screen_relation == REVERSE_STRICT]
    c = replace(c, witnesses=lambda xs, ys: (np.arange(len(xs)), np.full((len(xs), 1), 0.30015)))
    cleared = minimal_and_maximal(c, p, challengers)
    assert [o.ok for o in cleared] == [True, True]


# ---------------------------------------------------------------------------
# Witness eps folded into the screen
# ---------------------------------------------------------------------------

def _dip_witnesses(xs, ys):
    """The rows whose segment from y to x crosses the _dip sliver, with the
    eps at which it does."""
    a, b = xs[:, 0], ys[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = (0.30015 - b) / (a - b)
    rows = np.flatnonzero((a != b) & (eps >= 0.0) & (eps <= 1.0))
    return rows, eps[rows, None]


def _origin_pairs():
    rng = np.random.default_rng(23)
    others = np.concatenate([rng.uniform(-1.0, 2.0, 60),
                             [1.0 / (n * math.pi) for n in range(-6, 7) if n],
                             # where FOLD_CONFIGS' grids miss the sign changes
                             np.linspace(0.033, 0.034, 5), np.linspace(1e-3, 1.02e-3, 5),
                             np.geomspace(1e-4, 1e-3, 5), [-2e-3, 0.5e-6]])[:, None]
    zero = np.zeros_like(others)
    X, Y = _uniform_pairs(rng, [-1.0], [2.0], 40)  # no witnesses on these rows
    return np.vstack([others, zero, X]), np.vstack([zero, others, Y])


# configs whose grids the witness eps overrule on some of these rows
FOLD_CONFIGS = CONFIGS[1:] + [ToleranceConfig(n_eps=5)]
FOLD_IDS = CONFIG_IDS[1:] + ["n5"]


def _fold_cases():
    rng = np.random.default_rng(29)
    X, Y = _origin_pairs()
    dip_x, dip_y = _uniform_pairs(rng, [0.0], [1.0], 120)
    dip_x[:4], dip_y[:4] = [[1.0], [0.0], [0.9], [0.1]], [[0.0], [1.0], [0.1], [0.9]]
    return [("xsininv", vector_field("xsininv"), X, Y),
            ("scalar xsininv", scalar_field("xsininv"), X, Y),
            ("dip+", replace(_dip(1.0), witnesses=_dip_witnesses), dip_x, dip_y),
            ("dip-", replace(_dip(-1.0), witnesses=_dip_witnesses), dip_x, dip_y)]


@pytest.mark.parametrize("cfg", FOLD_CONFIGS, ids=FOLD_IDS)
@pytest.mark.parametrize("label, c, X, Y", _fold_cases(),
                         ids=[case[0] for case in _fold_cases()])
def test_folded_relations_equal_compare_with_witness_eps(label, c, X, Y, cfg):
    folded = batch_relations(c, X, Y, cfg)
    plain = batch_relations(replace(c, witnesses=None), X, Y, cfg)
    scalar = isinstance(c, ScalarField)
    compare = compare_scalar if scalar else compare_vector
    if scalar:
        smax, smin, total = stats = batch_scalar_steps(c, X, Y, cfg)
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare(c, x, y, cfg)
        assert folded[k] == v.relation, (k, x, y)
        # no grid here has a coarse certificate, so every scalar row takes
        # its full eps set and gets its comparison's statistics
        if scalar:
            want = [smax[k], min(smin[k], total[k])]
            assert bits(want) == bits([v.max_delta, v.min_delta]), (k, x, y)
    # the witness eps decide rows the uniform grid alone gets wrong, or (a
    # scalar row can stay Incomparable either way) at least move statistics
    moved = (folded != plain).any()
    if scalar:
        moved |= bits(stats) != bits(batch_scalar_steps(replace(c, witnesses=None), X, Y, cfg))
    assert moved


def _vector_fold_cases():
    return [case for case in _fold_cases() if isinstance(case[1], VectorField)]


@pytest.mark.parametrize("label, c, X, Y", _vector_fold_cases(),
                         ids=[case[0] for case in _vector_fold_cases()])
def test_folded_extremes_are_the_compare_extremes(label, c, X, Y):
    mx, mn = batch_vector_extremes(c, X, Y, CFG)
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare_vector(c, x, y, CFG)
        if v.relation != INCOMPARABLE:
            assert bits([mx[k], mn[k]]) == bits([v.max_delta, v.min_delta]), k


@pytest.mark.parametrize("radius", [0.1, 0.01, 0.001])
def test_local_min_folds_origin_witnesses(radius):
    # the origin is a local min when every row (x, origin), swept over the
    # grid plus its witness eps, stays at or above -tau
    c, origin = vector_field("xsininv"), np.array([0.0])
    ball = sample_neighborhood(c.domain, origin, radius, 64, seed=5)
    got = is_local_min_polyorder(c, origin, ball, CFG)
    grid = np.linspace(0.0, 1.0, CFG.n_eps)
    low = np.inf
    for x in ball.points:
        _, extra = origin_segment_witnesses(x[None], origin[None])
        eps = np.concatenate([grid, extra.ravel()])
        delta = c.values(eps[:, None] * x + (1.0 - eps)[:, None] * origin) @ (x - origin)
        low = min(low, float(delta.min()))
    assert got.ok == (low >= -CFG.tau)
    assert got.ok == (got.witness is None)


def test_scalar_screen_asks_the_provider_once_about_every_row():
    # before its coarse certificate, which runs at the default n_eps, the
    # step screen asks once about the whole batch; a witnessed row the
    # certificate cannot stop takes its comparison's eps set
    asked = []

    def provider(xs, ys):
        asked.append(len(xs))
        return origin_segment_witnesses(xs, ys)

    f = replace(scalar_field("xsininv"), witnesses=provider)
    X, Y = _origin_pairs()
    smax, smin, total = batch_scalar_steps(f, X, Y, CFG)
    assert asked == [len(X)]
    rows, _ = origin_segment_witnesses(X, Y)
    assert rows.size == len(X) - 40  # every row but the last 40 ends at 0
    stopped = 0
    for k in rows:
        v = compare_scalar(f, X[k], Y[k], CFG)
        if bits([smax[k], min(smin[k], total[k])]) != bits([v.max_delta, v.min_delta]):
            # a stopped row's coarse steps clear its threshold, 128 tau for
            # 64 grid steps and 2 witness eps
            assert v.relation == INCOMPARABLE, k
            assert smax[k] > 128 * CFG.tau and smin[k] < -128 * CFG.tau, k
            stopped += 1
    assert stopped  # the certificate reads witnessed rows too


def test_certificate_threshold_counts_witness_steps():
    # g rises 65.27 tau over the first coarse step, so it clears 64 tau; but
    # two witness eps split its one steep grid step into thirds, and every
    # step of the row's eps set is then at most tau on the way up.  Only a
    # threshold that counts the witness steps (128 tau) lets the row through
    # to its eps set; it is not Incomparable there
    cfg, h = ToleranceConfig(tau=1e-3), 1.0 / 1024
    b, r, drop = 0.99e-3, 2.9e-3, 0.2
    knots = [0.0, 10 * h, 11 * h, 64 * h, 128 * h, 1.0]
    top = 63 * b + r
    values = [0.0, 10 * b, 10 * b + r, top, top - drop, top - drop]
    f = ScalarField(batch=lambda P: np.interp(P[:, 0], knots, values),
                    domain=Box((0.0,), (1.0,)), label="ramp")
    third = [(10 + 1 / 3) * h, (10 + 2 / 3) * h]
    f = replace(f, witnesses=lambda xs, ys: (np.arange(len(xs)), np.tile(third, (len(xs), 1))))
    x, y = np.array([1.0]), np.array([0.0])
    v = compare_scalar(f, x, y, cfg)
    assert v.relation != INCOMPARABLE
    assert compare_scalar(replace(f, witnesses=None), x, y, cfg).relation == INCOMPARABLE
    assert batch_relations(f, x[None], y[None], cfg).tolist() == [v.relation]
    smax, smin, total = batch_scalar_steps(f, x[None], y[None], cfg)
    assert bits([smax[0], min(smin[0], total[0])]) == bits([v.max_delta, v.min_delta])
