"""Minimal/maximal verdicts against the per-survivor reference loop.

The reference screens the challengers on the uniform grid and then runs a
full compare_* on every screen survivor, one pair at a time; maximality is
minimality under the negated field.  The package decides both directions
from one shared screen instead, and every (ok, witness) must agree.  The
one eps a report prints, classify_point's dominating_witness, must be the
strict-witness eps of the full comparison of the lex-first dominator of
its challengers and ball, with the field's witness eps.  Where the
critical check fails but the minimal or local-minimum check passed, the
halving ladder toward the critical witness joins those challengers.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fieldorder.casestudy import build_catalog, case_challengers
from fieldorder.classify import (classify_point, default_challengers, is_critical_element,
                                 is_local_min_polyorder, minimal_and_maximal,
                                 sample_neighborhood)
from fieldorder.dominance import (STRICTLY_DOMINATES, ToleranceConfig, batch_scalar_steps,
                                  batch_vector_extremes, compare_scalar, compare_vector)
from fieldorder.fields import (Box, SampleSet, ScalarField, SeededRandom, VectorField,
                               negate, quadratic_form, registry_names, require_in_domain,
                               sample_domain, scalar_field, vector_field)
from fieldorder.games import from_symmetric_matrix, hawk_dove, matching_pennies

CFG = ToleranceConfig()
COARSE = ToleranceConfig(n_eps=65)


def _first_dominator(dominators):
    """(ok, witness) of the lex-first dominator, if any."""
    if not dominators:
        return True, None
    return False, sorted(dominators)[0]


def reference_minimal(c, p, challengers, cfg):
    # witness eps can only raise a row's max, so the plain grid keeps every
    # row that may strictly dominate
    p = require_in_domain(c.domain, p)
    X = challengers.points
    mx, _ = batch_vector_extremes(replace(c, witnesses=None), X, p, cfg)
    dominators = []
    for k in np.flatnonzero(mx <= cfg.tau):
        verdict = compare_vector(c, X[k], p, cfg)
        if verdict.relation == STRICTLY_DOMINATES:
            dominators.append(tuple(X[k]))
    return _first_dominator(dominators)


def reference_minimal_scalar(f, p, challengers, cfg):
    # a witness eps splits a step, which can lower the largest one, so every
    # witnessed row is compared as well as the plain grid's candidates
    p = require_in_domain(f.domain, p)
    X = challengers.points
    smax, _, total = batch_scalar_steps(replace(f, witnesses=None), X, p, cfg)
    candidate = (smax <= cfg.tau) & (total < -cfg.tau)
    if f.witnesses is not None:
        candidate[f.witnesses(X, np.broadcast_to(p, X.shape))[0]] = True
    dominators = []
    for k in np.flatnonzero(candidate):
        verdict = compare_scalar(f, X[k], p, cfg)
        if verdict.relation == STRICTLY_DOMINATES:
            dominators.append(tuple(X[k]))
    return _first_dominator(dominators)


def _pair(out):
    return out.ok, out.witness


def assert_vector_matches(c, p, challengers, cfg):
    want_min = reference_minimal(c, p, challengers, cfg)
    want_max = reference_minimal(negate(c), p, challengers, cfg)
    got_min, got_max = minimal_and_maximal(c, p, challengers, cfg)
    assert _pair(got_min) == want_min
    assert _pair(got_max) == want_max
    return got_min, got_max


def assert_scalar_matches(f, p, challengers, cfg):
    want_min = reference_minimal_scalar(f, p, challengers, cfg)
    want_max = reference_minimal_scalar(negate(f), p, challengers, cfg)
    got_min, got_max = minimal_and_maximal(f, p, challengers, cfg)
    assert _pair(got_min) == want_min
    assert _pair(got_max) == want_max
    return got_min, got_max


def assert_report_matches(field, p, challengers, seed, cfg):
    """classify_point prints the lex-first dominator of its challengers and
    ball with the eps of one full comparison of that row."""
    radius = 0.05 * field.domain.diameter()
    rep = classify_point(field, p, challengers, radius, cfg, seed)
    ball = sample_neighborhood(field.domain, p, radius, seed=seed)
    full = challengers.union(ball.points, note="ball")
    minimal = minimal_and_maximal(field, p, full, cfg)[0]
    p = require_in_domain(field.domain, p)
    if not isinstance(field, ScalarField):
        critical = is_critical_element(field, p, full, cfg)
        local_min = is_local_min_polyorder(field, p, ball, cfg)
        if not critical.ok and (minimal.ok or local_min.ok):
            x = np.array(critical.witness)
            ladder = np.array([p + 2.0 ** -j * (x - p) for j in range(1, 53)])
            full = full.union(ladder, note="ladder")
            minimal = minimal_and_maximal(field, p, full, cfg)[0]
    assert rep.challengers_used == full.strategy
    want = None
    if not minimal.ok:
        x = np.array(minimal.witness)
        if isinstance(field, ScalarField):
            verdict = compare_scalar(field, x, p, cfg)
        else:
            verdict = compare_vector(field, x, p, cfg)
        want = (minimal.witness, verdict.witness_eps_strict)
    assert rep.dominating_witness == want
    return rep


def _challengers(domain, seed):
    """Small global challenger set."""
    return default_challengers(domain, seed, grid_n=256, random_n=256)


def _probes(domain, p, seed):
    """Small global challenger set plus a ball around p, as classify_point uses."""
    ball = sample_neighborhood(domain, p, 0.05 * domain.diameter(), 64, seed)
    return _challengers(domain, seed).union(ball.points, note="ball")


def _stock_points(domain):
    pts = sample_domain(domain, SeededRandom(3), 7).points
    return [np.asarray(domain.lower), np.zeros(domain.dim), *pts]


@pytest.mark.parametrize("name", registry_names())
def test_stock_vector_fields(name):
    c = vector_field(name)
    for i, p in enumerate(_stock_points(c.domain)):
        assert_vector_matches(c, p, _probes(c.domain, p, i), CFG)
        assert_report_matches(c, p, _challengers(c.domain, i), i, CFG)


@pytest.mark.parametrize("name", registry_names())
def test_stock_scalar_fields(name):
    f = scalar_field(name)
    for i, p in enumerate(_stock_points(f.domain)):
        assert_scalar_matches(f, p, _probes(f.domain, p, i), CFG)
        assert_report_matches(f, p, _challengers(f.domain, i), i, CFG)


def test_oscillator_with_origin_witnesses():
    c = vector_field("xsininv")
    catalog = build_catalog(5)
    challengers = case_challengers(catalog, grid_n=256)
    for i, x in enumerate([*(e.x for e in catalog.entries), 0.5]):
        assert_vector_matches(c, [x], challengers, CFG)
        assert_report_matches(c, [x], challengers, i, CFG)
    origin = assert_vector_matches(c, [0.0], challengers, CFG)
    assert all(out.ok for out in origin)


def _spike_field(base, height, at=0.3):
    """c = base + height on a spike at `at` too narrow for any uniform grid."""
    def batch(P):
        return base + height * (np.abs(P - at) <= 1e-12)
    return VectorField(batch=batch, domain=Box((-1.0,), (1.0,)), label="spike")


def _spike_witnesses(xs, ys, at=0.3):
    """The rows whose segment from y to x crosses the spike, with the eps
    at which it does."""
    a, b = xs[:, 0], ys[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(a != b, (at - b) / (a - b), -1.0)
    rows = np.flatnonzero((eps > 0.0) & (eps < 1.0))
    return rows, eps[rows, None]


@pytest.mark.parametrize("base, height", [(-1.0, 2.0), (0.0, -1.0), (1.0, -2.0)])
def test_injected_witnesses_decide_pairs_the_grid_misses(base, height):
    # the grid never sees the spike, so only the injected eps can change these
    # verdicts: on base -1 and +1 the spike is a violation that the screen
    # misses, on base 0 it is the only strict drop
    c = _spike_field(base, height)
    spiked = replace(c, witnesses=_spike_witnesses)
    challengers = SampleSet(np.array([[-0.5], [0.2], [0.5], [0.75], [1.0]]))
    changed = 0
    for i, p in enumerate(([0.0], [0.1], [0.6])):
        with_w = assert_vector_matches(spiked, p, challengers, CFG)
        without = assert_vector_matches(c, p, challengers, CFG)
        changed += [_pair(o) for o in with_w] != [_pair(o) for o in without]
        assert_report_matches(spiked, p, challengers, i, CFG)
    assert changed


def _rock_paper_scissors():
    return from_symmetric_matrix([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
                                 label="rock_paper_scissors")


def _off_equilibrium(rng, blocks):
    p = []
    for m in blocks:
        block = [round(float(v), 6) for v in rng.dirichlet(np.ones(m))]
        block[-1] = 1.0 - sum(block[:-1])
        p.extend(block)
    return np.array(p)


@pytest.mark.parametrize("make, equilibrium, blocks", [
    (hawk_dove, [0.5, 0.5], [2]),
    (matching_pennies, [0.5, 0.5, 0.5, 0.5], [2, 2]),
    (_rock_paper_scissors, [1 / 3, 1 / 3, 1 - 2 / 3], [3]),
])
def test_games_on_and_off_equilibrium(make, equilibrium, blocks):
    game = make()
    rng = np.random.default_rng(11)
    points = [np.array(equilibrium)] + [_off_equilibrium(rng, blocks) for _ in range(3)]
    for i, p in enumerate(points):
        assert_vector_matches(game, p, _probes(game.domain, p, i), CFG)
        assert_report_matches(game, p, _challengers(game.domain, i), i, CFG)


def test_rock_paper_scissors_flat_profiles_tie_break_alike():
    # skew-symmetric costs make delta constant along every segment, so the
    # reported eps is a tie-break; it must still come out the same
    game = _rock_paper_scissors()
    p = np.array([0.2, 0.5, 0.3])
    got_min, got_max = assert_vector_matches(game, p, _probes(game.domain, p, 5), CFG)
    assert not got_min.ok and not got_max.ok
    rep = assert_report_matches(game, p, _challengers(game.domain, 5), 5, CFG)
    assert not rep.is_minimal


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
@example(dim=1, seed=2158)  # p beside a critical point: only the ladder finds its dominators
def test_random_quadratic_forms(dim, seed):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(-2.0, 2.0, size=(dim, dim))
    b = rng.uniform(-1.0, 1.0, size=dim)
    f, c = quadratic_form(Q, b)
    p = rng.uniform(-1.0, 1.0, size=dim)
    challengers = default_challengers(f.domain, seed % 1000, grid_n=48, random_n=48)
    assert_vector_matches(c, p, challengers, COARSE)
    assert_scalar_matches(f, p, challengers, COARSE)
    assert_report_matches(c, p, challengers, seed % 1000, COARSE)
    assert_report_matches(f, p, challengers, seed % 1000, COARSE)


def test_duplicate_dominators_report_one_witness():
    # on c(x) = x every challenger in [0, 0.5) strictly dominates 0.5
    c = vector_field("linear")
    challengers = SampleSet(np.array([[0.25], [0.1], [-0.5], [0.1], [0.0], [-0.0], [0.4]]))
    got_min, got_max = assert_vector_matches(c, [0.5], challengers, CFG)
    assert got_min.witness == (0.0,)
    assert got_max.ok
    rep = assert_report_matches(c, [0.5], challengers, 0, CFG)
    assert rep.dominating_witness[0] == (0.0,)
