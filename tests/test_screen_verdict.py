"""A screen row is the verdict of its pair, bit for bit.

A pair that is not Incomparable has no adjacent samples with band signs +1
and -1, so compare_* never refines it and its extremes are the uniform-grid
extremes that the batch screens compute.  The classifier relies on this:
it reads the relations of batch_relations straight off the screen.  Both
paths go through the one segment kernel, so the extremes must be equal in
every bit, not just within an ulp, and both apply the one relation rule.

Maximality is read from the ReverseStrict rows of the same screen instead
of a second screen under negate(c); the mirror tests pin down why that is
exact.
"""

import math

import numpy as np
import pytest

from fieldorder.classify import _minimal_and_maximal
from fieldorder.dominance import (EQUIVALENT, INCOMPARABLE, REVERSE_STRICT, REVERSE_WEAK,
                                  STRICTLY_DOMINATES, WEAKLY_DOMINATES_NOT_STRICT,
                                  ToleranceConfig, _profiles, batch_relations,
                                  batch_scalar_steps, batch_vector_extremes, compare_scalar,
                                  compare_vector)
from fieldorder.fields import (Box, SampleSet, ScalarField, VectorField, negate, quadratic_form,
                               registry_names, scalar_field, vector_field)
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
    assert check_vector(game.cost, X, Y) > 40


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
        cases.append((f"game:{game.label}", game.cost))
    return cases


CASES = _cases()


def _pairs(field, seed):
    if isinstance(field.domain, Box):
        return _box_pairs(field.domain, 30, seed)
    return _game_pairs(field, 30, seed)


def signless_bits(values):
    """bits with -0.0 read as +0.0: a zero step of g is +0.0 under f and under -f."""
    return bits(np.asarray(values, float) + 0.0)


def _screen(field, X, Y, cfg, **kw):
    if isinstance(field, ScalarField):
        return batch_scalar_steps(field, X, Y, cfg)
    return batch_vector_extremes(field, X, Y, cfg, **kw)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_batch_relations_is_the_compare_relation(label, field, cfg):
    X, Y = _pairs(field, seed=len(label))
    scalar = isinstance(field, ScalarField)
    compare = compare_scalar if scalar else compare_vector
    relations = batch_relations(field, X, Y, cfg)
    screen = _screen(field, X, Y, cfg, drop_incomparable=True)
    for k, (x, y) in enumerate(zip(X, Y)):
        stats = [float(s[k]) for s in screen]
        hi, lo, drop, rise = ((stats[0], stats[1], stats[2], stats[2]) if scalar
                              else (stats[0], stats[1], stats[1], stats[0]))
        assert relations[k] == reference_relation(hi, lo, drop, rise, cfg.tau), (label, k)
        if scalar and relations[k] == INCOMPARABLE:
            continue  # a scalar Incomparable row may be refined into another relation
        v = compare(field, x, y, cfg)
        if not scalar:  # a vector verdict's extremes are its (hi, lo)
            assert v.relation == reference_relation(v.max_delta, v.min_delta, v.min_delta,
                                                    v.max_delta, cfg.tau)
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
        for drop in (False, True):
            mx, mn = batch_vector_extremes(field, X, Y, cfg, drop_incomparable=drop)
            got = batch_vector_extremes(neg, X, Y, cfg, drop_incomparable=drop)
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
        if relations[k] != INCOMPARABLE:
            assert relations[k] == v.relation, k


@pytest.mark.parametrize("label, field", CASES, ids=[c[0] for c in CASES])
def test_maximal_is_minimal_under_negation(label, field):
    # one screen's ReverseStrict rows decide maximality exactly as a second
    # screen under negate(field) would, witness and eps included
    X, _ = _pairs(field, seed=3)
    challengers = SampleSet(X[1:])
    p = X[0]
    minimal, maximal = _minimal_and_maximal(field, p, challengers)
    neg_minimal, neg_maximal = _minimal_and_maximal(negate(field), p, challengers)
    assert maximal == neg_minimal and minimal == neg_maximal
    for outcome in (minimal, maximal):
        assert outcome.ok or outcome.eps is not None


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
    failed = [not o.ok for o in _minimal_and_maximal(c, p, challengers)]
    assert failed == [screen_relation == STRICTLY_DOMINATES,
                      screen_relation == REVERSE_STRICT]
    cleared = _minimal_and_maximal(c, p, challengers,
                                   segment_witnesses=lambda a, b: (0.30015,))
    assert [o.ok for o in cleared] == [True, True]
