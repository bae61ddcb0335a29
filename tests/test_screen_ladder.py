"""The coarse-to-fine screens against a plain single-pass screen.

batch_vector_extremes walks the uniform eps grid in disjoint index levels
and stops evaluating a row once it is Incomparable both ways.  The
reference below is the single pass over the full grid that the ladder
replaces.  Band predicates must agree on every row, and rows that are not
Incomparable must carry bit-identical extremes.  batch_scalar_steps'
coarse certificate is checked the same way against a single pass of the
segment kernel over the full grid, with the exact count of the points it
evaluates.  The coverage sweep, which now confirms all window points
through one screen, is checked against its old per-point loop, and the
catalog sweep against a bound on its field work.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder import casestudy
from fieldorder.casestudy import (build_catalog, case_challengers, case_fields,
                                  check_setwise_dominance, classify_catalog,
                                  dominating_minimal_element, nearest_critical_distance,
                                  zero_point)
from fieldorder.dominance import (_LADDER_STRIDES, STRICTLY_DOMINATES, ToleranceConfig,
                                  _broadcast_rows, _eps_levels, _profiles, _relations,
                                  _step_stats, batch_scalar_steps, batch_vector_extremes,
                                  compare_vector)
from fieldorder.errors import DomainViolationError
from fieldorder.fields import (Box, ScalarField, affine_field, quadratic_form, scalar_field,
                               vector_field)
from fieldorder.games import from_symmetric_matrix, hawk_dove, matching_pennies

CFG = ToleranceConfig()
PI = math.pi


def reference_vector_extremes(c, xs, ys, cfg):
    """Single pass over the full uniform grid, every row to the end."""
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    k = max(xs.shape[0], ys.shape[0])
    xs = np.broadcast_to(xs, (k, xs.shape[1]))
    ys = np.broadcast_to(ys, (k, ys.shape[1]))
    dim = xs.shape[1]
    eps = np.linspace(0.0, 1.0, cfg.n_eps)
    e = eps.size
    rows_per_block = max(1, (1 << 21) // e)
    out_max, out_min = np.empty(k), np.empty(k)
    for s in range(0, k, rows_per_block):
        xb, yb = xs[s:s + rows_per_block], ys[s:s + rows_per_block]
        pts = eps[None, :, None] * xb[:, None, :] + (1.0 - eps)[None, :, None] * yb[:, None, :]
        vals = c.values(pts.reshape(-1, dim)).reshape(xb.shape[0], e, dim)
        delta = np.stack([v @ d for v, d in zip(vals, xb - yb)])
        out_max[s:s + rows_per_block] = delta.max(axis=1)
        out_min[s:s + rows_per_block] = delta.min(axis=1)
    return out_max, out_min


def assert_ladder_matches(c, xs, ys, cfg):
    want_max, want_min = reference_vector_extremes(c, xs, ys, cfg)
    got_max, got_min = batch_vector_extremes(c, xs, ys, cfg)
    tau = cfg.tau
    for got, want in [(got_max > tau, want_max > tau), (got_max <= tau, want_max <= tau),
                      (got_min < -tau, want_min < -tau), (got_min >= -tau, want_min >= -tau)]:
        np.testing.assert_array_equal(got, want)
    both = (want_max > tau) & (want_min < -tau)
    np.testing.assert_array_equal(got_max[~both], want_max[~both])
    np.testing.assert_array_equal(got_min[~both], want_min[~both])
    # a dropped row carries the extremes of the levels it saw
    assert np.all(got_max[both] <= want_max[both])
    assert np.all(got_min[both] >= want_min[both])
    return both


@pytest.mark.parametrize("n_eps, sizes", [
    (1025, [17, 48, 960]), (65, [2, 3, 60]), (33, [3, 30]), (17, [2, 15]),
    (129, [3, 6, 120]), (1000, [1000]), (5, [5]), (3, [3]),
])
def test_levels_partition_the_grid(n_eps, sizes):
    levels = _eps_levels(n_eps)
    assert [lv.size for lv in levels] == sizes
    merged = np.sort(np.concatenate(levels))
    np.testing.assert_array_equal(merged, np.linspace(0.0, 1.0, n_eps))
    if len(levels) > 1:
        # the coarsest level is the coarse linspace itself, bit for bit
        np.testing.assert_array_equal(levels[0], np.linspace(0.0, 1.0, sizes[0]))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       n_eps=st.sampled_from([3, 5, 17, 33, 65, 129, 1000, 1025]),
       tau=st.sampled_from([1e-9, 1e-3, 0.1]), rows=st.integers(1, 40),
       one_y=st.booleans())
def test_ladder_on_random_quadratic_forms(dim, seed, n_eps, tau, rows, one_y):
    rng = np.random.default_rng(seed)
    _, c = quadratic_form(rng.uniform(-2.0, 2.0, size=(dim, dim)),
                          rng.uniform(-1.0, 1.0, size=dim))
    xs = rng.uniform(-1.0, 1.0, size=(rows, dim))
    ys = rng.uniform(-1.0, 1.0, size=(1 if one_y else rows, dim))
    xs[0] = ys[0]  # a zero segment sits exactly on the band
    assert_ladder_matches(c, xs, ys, ToleranceConfig(tau=tau, n_eps=n_eps))


def _rock_paper_scissors():
    return from_symmetric_matrix([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
                                 label="rock_paper_scissors")


def _simplex_rows(rng, blocks, count):
    return np.hstack([rng.dirichlet(np.ones(m), size=count) for m in blocks])


@pytest.mark.parametrize("make, blocks", [
    (hawk_dove, [2]), (matching_pennies, [2, 2]), (_rock_paper_scissors, [3]),
])
def test_ladder_on_games(make, blocks):
    rng = np.random.default_rng(5)
    c = make()
    assert_ladder_matches(c, _simplex_rows(rng, blocks, 400), _simplex_rows(rng, blocks, 1), CFG)


@pytest.mark.parametrize("name, dim", [("linear", 1), ("linear", 3), ("mexican_hat", 2)])
def test_ladder_on_stock_fields(name, dim):
    rng = np.random.default_rng(7)
    # mexican_hat is its stock field on [-2, 2]^2, linear c(x) = x on [-1, 1]^dim
    c = (vector_field(name) if name == "mexican_hat"
         else affine_field(np.eye(dim), np.zeros(dim), Box((-1.0,) * dim, (1.0,) * dim), name))
    xs = rng.uniform(-1.0, 1.0, size=(500, dim))
    assert_ladder_matches(c, xs, rng.uniform(-1.0, 1.0, size=(1, dim)), CFG)


def test_ladder_drops_catalog_rows():
    _, c = case_fields()
    challengers = case_challengers(build_catalog(25))
    for x in (zero_point(3), zero_point(-8), 0.0):
        both = assert_ladder_matches(c, challengers.points, [x], CFG)
        assert both.mean() > 0.5


# ---------------------------------------------------------------------------
# The scalar screen's coarse certificate against its single pass
# ---------------------------------------------------------------------------

def _counted(f):
    evaluated = [0]

    def counting(P, batch=f.batch):
        evaluated[0] += P.shape[0]
        return batch(P)

    return dataclasses.replace(f, batch=counting), evaluated


def reference_scalar_steps(f, xs, ys, eps):
    """Step statistics of one plain pass of the segment kernel over eps."""
    xs, ys = _broadcast_rows(xs, ys)
    return _step_stats(_profiles(f, np.ascontiguousarray(xs), np.ascontiguousarray(ys), eps))


def assert_prescreen_matches(f, xs, ys, cfg):
    """Return how many rows the pre-screen certified without the full grid."""
    n, s, tau = cfg.n_eps, _LADDER_STRIDES[0], cfg.tau
    eps = np.linspace(0.0, 1.0, n)
    full = reference_scalar_steps(f, xs, ys, eps)
    counted, evaluated = _counted(f)
    got = batch_scalar_steps(counted, xs, ys, cfg)
    assert (_relations(got[0], got[1], got[2], got[2], tau).tolist()
            == _relations(full[0], full[1], full[2], full[2], tau).tolist())
    np.testing.assert_array_equal(got[2], full[2])
    rows = len(full[0])
    if (n - 1) % s or n - 1 < 2 * s:  # no pre-screen: one plain full pass
        dropped = np.zeros(rows, bool)
        coarse_points = 0
    else:
        # a row drops when its coarse steps clear 64 tau, with the margin,
        # on both sides; it keeps its coarse step extremes
        coarse = reference_scalar_steps(f, xs, ys, eps[::s])
        bound = s * tau * (1.0 + 2.0 ** -50)
        dropped = (coarse[0] > bound) & (coarse[1] < -bound)
        np.testing.assert_array_equal(got[0][dropped], coarse[0][dropped])
        np.testing.assert_array_equal(got[1][dropped], coarse[1][dropped])
        coarse_points = eps[::s].size
    # only a row that is Incomparable both ways may drop, and it still reads
    # past both band edges; every other row has its exact statistics
    both = (full[0] > tau) & (full[1] < -tau)
    assert np.all(both[dropped])
    assert np.all(got[0][dropped] > tau) and np.all(got[1][dropped] < -tau)
    np.testing.assert_array_equal(got[0][~dropped], full[0][~dropped])
    np.testing.assert_array_equal(got[1][~dropped], full[1][~dropped])
    # the coarse pass for every row, then one full pass for each survivor
    assert evaluated[0] == rows * coarse_points + int((~dropped).sum()) * n
    return int(dropped.sum())


SCALAR_FIELDS = ["quadratic", "cubic", "xsininv", "mexican_hat", "linear"]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SCALAR_FIELDS + ["quadratic_form"]), dim=st.integers(1, 4),
       seed=st.integers(0, 2**31 - 1), n_eps=st.sampled_from([3, 65, 129, 193, 1000, 1025]),
       tau=st.sampled_from([1e-9, 1e-3, 0.05]), rows=st.integers(1, 40), one_y=st.booleans())
def test_prescreen_keeps_scalar_relations(name, dim, seed, n_eps, tau, rows, one_y):
    rng = np.random.default_rng(seed)
    if name == "quadratic_form":
        f, _ = quadratic_form(rng.uniform(-2.0, 2.0, size=(dim, dim)),
                              rng.uniform(-1.0, 1.0, size=dim))
        lo, hi = -np.ones(dim), np.ones(dim)
    else:
        f = scalar_field(name)
        lo, hi = np.asarray(f.domain.lower), np.asarray(f.domain.upper)
    xs = rng.uniform(lo, hi, size=(rows, lo.size))
    ys = rng.uniform(lo, hi, size=(1 if one_y else rows, lo.size))
    xs[0] = ys[0]  # a flat segment sits exactly on the band
    assert_prescreen_matches(f, xs, ys, ToleranceConfig(tau=tau, n_eps=n_eps))


def test_prescreen_drops_most_mexican_hat_rows():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2.0, 2.0, size=(400, 2))
    assert assert_prescreen_matches(scalar_field("mexican_hat"), xs, [[0.6, 0.8]], CFG) > 200


def _zigzag(steps):
    """A 1-D field on [0, 1] whose profile from 0 to 1 takes these grid steps.

    Segment points from y = 0 to x = 1 are the grid eps themselves, and
    np.interp returns its table at its nodes exactly.
    """
    eps = np.linspace(0.0, 1.0, steps.size + 1)
    table = np.concatenate([[0.0], np.cumsum(steps)])
    return ScalarField(batch=lambda P: np.interp(P[:, 0], eps, table),
                       domain=Box((0.0,), (1.0,)), label="zigzag")


def _edge_taus(step):
    return [step, np.nextafter(step, 0.0), np.nextafter(step, np.inf)]


def test_prescreen_at_fine_steps_within_an_ulp_of_tau():
    # linear: a monotone profile whose steps of about 0.3/1024 differ only by
    # the rounding of g; tau at the smallest and largest step and next to them
    f = scalar_field("linear")
    steps = np.diff(0.3 * np.linspace(0.0, 1.0, 1025))
    assert steps.max() - steps.min() <= 2 * np.spacing(0.3)
    for tau in _edge_taus(steps.min()) + _edge_taus(steps.max()):
        assert assert_prescreen_matches(f, [[0.3]], [[0.0]], ToleranceConfig(tau=tau)) == 0
    # a zigzag of runs of 64 exact steps of +-step: every coarse step is
    # exactly +-64 step, so the rounding margin decides at the ulp
    step = 3.0 * 2.0 ** -10
    f = _zigzag(step * np.where(np.arange(1024) // 64 % 2 == 0, 1.0, -1.0))
    # tau = step and the ulp above: steps are not above tau, no row may drop;
    # the ulp below: Incomparable, but 64 tau plus the margin is above 64 step
    for tau in _edge_taus(step):
        assert assert_prescreen_matches(f, [[1.0]], [[0.0]], ToleranceConfig(tau=tau)) == 0
    # further below, the coarse steps clear the margin and certify the row
    tau = step * (1.0 - 2.0 ** -45)
    assert assert_prescreen_matches(f, [[1.0]], [[0.0]], ToleranceConfig(tau=tau)) == 1


def test_prescreen_with_a_subnormal_tau():
    # exact subnormal steps of +-4 units: a coarse step is exactly +-256 units
    unit = 2.0 ** -1074
    sign = np.where(np.arange(1024) // 64 % 2 == 0, 1.0, -1.0)
    f = _zigzag(4 * unit * sign)
    # steps of 4 units are not above tau = 4 units, so 64 tau must not drop the row
    assert assert_prescreen_matches(f, [[1.0]], [[0.0]], ToleranceConfig(tau=4 * unit)) == 0
    assert assert_prescreen_matches(f, [[1.0]], [[0.0]], ToleranceConfig(tau=3 * unit)) == 1


@pytest.mark.parametrize("n_eps", [65, 1000])
def test_prescreen_leaves_every_row_whole(n_eps):
    # 65: the two-point coarse grid has one step, which cannot cross both
    # band edges; 1000: 64 does not divide n_eps - 1, so there is no coarse grid
    rng = np.random.default_rng(n_eps)
    f, xs, ys = scalar_field("mexican_hat"), rng.uniform(-2.0, 2.0, size=(200, 2)), [[0.6, 0.8]]
    # no row drops, so every row has exactly the full-grid statistics
    assert assert_prescreen_matches(f, xs, ys, ToleranceConfig(n_eps=n_eps)) == 0


# ---------------------------------------------------------------------------
# Coverage sweep against its per-point loop
# ---------------------------------------------------------------------------

def reference_setwise_dominance(window_hi=2.0, grid_n=2000, cfg=None):
    """The coverage sweep as one compare_vector per window point."""
    cfg = cfg or ToleranceConfig()
    window_lo = -zero_point(1) + 0.01
    f, c = case_fields()
    xs = np.linspace(window_lo, window_hi, grid_n)
    excluded = covered = 0
    failures = []
    max_index = 0
    for x in xs:
        if nearest_critical_distance(float(x)) <= cfg.tau:
            excluded += 1
            continue
        xstar = dominating_minimal_element(float(x))
        if abs(x) < zero_point(1):
            max_index = max(max_index, math.floor(1.0 / (PI * abs(x))) + 1)
        margin = (xstar - float(x)) * f.value(np.array([x]))
        if margin >= -cfg.tau:
            failures.append({"x": float(x), "xstar": xstar, "reason": "margin under tau",
                             "margin": margin})
            continue
        verdict = compare_vector(c, np.array([xstar]), np.array([x]), cfg)
        if verdict.relation == STRICTLY_DOMINATES:
            covered += 1
        else:
            failures.append({"x": float(x), "xstar": xstar, "reason": "confirmation failed",
                             "relation": verdict.relation})
    return {"window": [window_lo, window_hi], "grid_n": grid_n, "total": len(xs),
            "excluded_near_critical": excluded, "skipped_minimal": 0, "covered": covered,
            "coverage_fraction": covered / (len(xs) - excluded) if len(xs) > excluded else 1.0,
            "failures": failures, "max_bracket_index": max_index}


@pytest.mark.parametrize("cfg, reasons", [
    (CFG, {"margin under tau"}),
    # a wide band excludes points and fails margins
    (ToleranceConfig(tau=0.05), {"margin under tau"}),
    # a band below the rounding of sin(n pi) makes segments to the zeros Incomparable
    (ToleranceConfig(tau=1e-30), {"confirmation failed"}),
    (ToleranceConfig(tau=1e-30, n_eps=1000), {"confirmation failed"}),
])
def test_coverage_matches_per_point_loop(cfg, reasons):
    got = check_setwise_dominance(2.0, 2000, cfg).to_dict()
    assert got == reference_setwise_dominance(2.0, 2000, cfg)
    assert {f["reason"] for f in got["failures"]} == reasons


def test_coverage_rejects_window_outside_domain():
    with pytest.raises(DomainViolationError):
        check_setwise_dominance(2.5, 50, CFG)


# ---------------------------------------------------------------------------
# Work-count guard on the catalog sweep
# ---------------------------------------------------------------------------

def test_catalog_evaluates_a_small_share_of_the_grid(monkeypatch):
    f, c = case_fields()
    evaluated = [0]

    def counting(P, batch=c.batch):
        evaluated[0] += P.shape[0]
        return batch(P)

    counted = dataclasses.replace(c, batch=counting)
    monkeypatch.setattr(casestudy, "case_fields", lambda: (f, counted))
    catalog = build_catalog(25)
    challengers = case_challengers(catalog)
    assert classify_catalog(catalog, challengers, CFG).all_agree
    rows = len(challengers) * (len(catalog.entries) + 1)
    assert evaluated[0] <= 0.10 * rows * CFG.n_eps
