"""The coarse-to-fine vector screen against a plain single-pass screen.

batch_vector_extremes walks the uniform eps grid in disjoint index levels
and, when asked for band verdicts only, stops evaluating a row once it is
Incomparable both ways.  The reference below is the single pass over the
full grid that the ladder replaces.  Band predicates must agree on every
row, rows that are not Incomparable must carry bit-identical extremes, and
without band verdicts every row must.  The coverage sweep, which now
confirms all window points through one screen, is checked against its old
per-point loop, and the catalog sweep against a bound on its field work.
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
                                  _eps_levels, batch_vector_extremes, compare_vector)
from fieldorder.errors import DomainViolationError
from fieldorder.fields import Box, quadratic_form, vector_field
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
    np.testing.assert_array_equal(got_max, want_max)
    np.testing.assert_array_equal(got_min, want_min)

    got_max, got_min = batch_vector_extremes(c, xs, ys, cfg, drop_incomparable=True)
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
    levels = _eps_levels(n_eps, _LADDER_STRIDES)
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
    c = make().cost
    assert_ladder_matches(c, _simplex_rows(rng, blocks, 400), _simplex_rows(rng, blocks, 1), CFG)


@pytest.mark.parametrize("name, dim", [("linear", 1), ("linear", 3), ("mexican_hat", 2)])
def test_ladder_on_stock_fields(name, dim):
    rng = np.random.default_rng(7)
    c = vector_field(name, Box((-1.0,) * dim, (1.0,) * dim))
    xs = rng.uniform(-1.0, 1.0, size=(500, dim))
    assert_ladder_matches(c, xs, rng.uniform(-1.0, 1.0, size=(1, dim)), CFG)


def test_ladder_drops_catalog_rows():
    _, c = case_fields()
    challengers = case_challengers(build_catalog(25))
    for x in (zero_point(3), zero_point(-8), 0.0):
        both = assert_ladder_matches(c, challengers.points, [x], CFG)
        assert both.mean() > 0.5


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
    report = classify_catalog(25)
    assert report.all_agree
    catalog = build_catalog(25)
    rows = len(case_challengers(catalog)) * (len(catalog.entries) + 1)
    assert evaluated[0] <= 0.10 * rows * CFG.n_eps
