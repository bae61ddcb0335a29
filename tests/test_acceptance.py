"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from fieldorder.casestudy import (build_catalog, case_challengers, check_setwise_dominance,
                                  classify_catalog, mexican_hat_counterexample,
                                  minimal_candidate_points, origin_atypicality, zero_point)
from fieldorder.classify import (default_challengers, is_critical_element, is_ess,
                                 is_local_min_polyorder, is_nss, is_strict_local_min_scalar,
                                 minimal_and_maximal, sample_neighborhood)
from fieldorder.dominance import (EQUIVALENT, STRICTLY_DOMINATES, ToleranceConfig,
                                  _profiles, batch_scalar_steps, compare_scalar,
                                  compare_vector)
from fieldorder.dynamics import IntegratorConfig, check_setwise_stability
from fieldorder.fields import (Box, Grid, SampleSet, SeededRandom, gradient_field,
                               negate, quadratic_form, sample_domain, scalar_field,
                               vector_field)
from fieldorder.games import hawk_dove, matching_pennies

PI = math.pi
CFG = ToleranceConfig()
FAST = ToleranceConfig(n_eps=257)
ALGEBRA = ToleranceConfig(n_eps=65)


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog_run():
    """The 25-entry catalog sweep with its 4096-point grid, and its wall time."""
    t0 = time.perf_counter()
    catalog = build_catalog(25)
    rep = classify_catalog(catalog, case_challengers(catalog, 4096), CFG)
    return rep, time.perf_counter() - t0


def test_criterion_1_catalog_classification(catalog_run):
    rep, elapsed = catalog_run
    disagreements = [v.entry.n for v in rep.verdicts if not v.agrees]
    ok = (len(rep.verdicts) == 50 and not disagreements
          and rep.origin_minimal and rep.origin_maximal and elapsed < 30.0)
    _criterion(1, "catalog agreement for |n| <= 25 plus origin duality", ok,
               f"50 points, disagreements={disagreements}, {elapsed:.1f}s")


def test_criterion_2_origin_atypicality(catalog_run):
    agreement = catalog_run[0]
    rep = origin_atypicality(agreement.origin_minimal, agreement.origin_maximal, CFG, 42)
    radii = [r["radius"] for r in rep.per_radius]
    ok = radii == [0.1, 0.01, 0.001] and rep.minimal and rep.maximal and all(
        not row["nss"] and not row["ess"] and not row["local_min_polyorder"]
        for row in rep.per_radius)
    _criterion(2, "origin minimal+maximal yet fails nss/ess/local-min at all radii",
               ok, f"radii={radii}")


def test_criterion_3_setwise_local_dominance():
    t0 = time.perf_counter()
    rep = check_setwise_dominance(window_hi=2.0, grid_n=2000, cfg=CFG)
    elapsed = time.perf_counter() - t0
    ok = rep.coverage_fraction >= 0.995 and elapsed < 60.0
    _criterion(3, "non-minimal window points strictly dominated by catalog minima", ok,
               f"coverage={rep.coverage_fraction:.4f}, excluded={rep.excluded_near_critical}, "
               f"uncovered={len(rep.failures)}, {elapsed:.1f}s")


def test_criterion_4_flow_convergence():
    t0 = time.perf_counter()
    flow = negate(vector_field("xsininv"))
    potential = scalar_field("xsininv")
    basin_starts = [0.5 * (zero_point(2 * k) + zero_point(2 * (k + 1))) for k in (1, 2, 3)]
    basin_limits = [zero_point(2 * k + 1) for k in (1, 2, 3)]
    starts = [[0.5], [1.0], [2.0]] + [[x] for x in basin_starts]
    rep = check_setwise_stability(flow, minimal_candidate_points(),
                                  SampleSet(np.array(starts)),
                                  IntegratorConfig(), potential=potential)
    elapsed = time.perf_counter() - t0
    expected = [1 / PI] * 3 + basin_limits
    hits = [t.converged and t.limit_point is not None
            and abs(t.limit_point[0] - want) < 1e-12 and t.final_distance < 1e-4
            for t, want in zip(rep.trials, expected)]
    ok = (all(hits) and rep.lyapunov_monotone
          and rep.max_lyapunov_increase <= 1e-8 and elapsed < 60.0)
    _criterion(4, "flows reach predicted equilibria with nonincreasing potential", ok,
               f"hits={sum(hits)}/6, max_L_increase={rep.max_lyapunov_increase:.2e}, "
               f"{elapsed:.1f}s")


def _simplex_point(domain, rng):
    blocks = [rng.dirichlet(np.ones(s.dim)) * s.mass for s in domain.parts]
    return np.hstack(blocks)


def _vector_pool(rng):
    pool = [vector_field("quadratic"), vector_field("cubic"), vector_field("linear"),
            hawk_dove(), matching_pennies()]
    for dim in (1, 2, 3):
        Q = rng.normal(size=(dim, dim))
        pool.append(quadratic_form(Q + Q.T, rng.normal(size=dim))[1])
    return pool


def _scalar_pool(rng):
    pool = [scalar_field("quadratic"), scalar_field("cubic"), scalar_field("linear"),
            scalar_field("mexican_hat")]
    for dim in (1, 2):
        Q = rng.normal(size=(dim, dim))
        pool.append(quadratic_form(Q + Q.T, rng.normal(size=dim))[0])
    return pool


def _random_point(domain, rng):
    if isinstance(domain, Box):
        lo, up = np.asarray(domain.lower), np.asarray(domain.upper)
        return lo + rng.random(domain.dim) * (up - lo)
    return _simplex_point(domain, rng)


def _realizable_invasion_margin(c, p, X, cfg, top=16):
    """Best strict-dominance certificate induced by sampled invasions of p.

    An invader x with (x - p).c(x... at p) < -tau yields hull dominators
    y_eps = eps*x + (1-eps)*p for as long as delta stays under -tau; the
    dominance certificate of y_eps over p has margin eps * |min delta on the
    prefix|.  When even the best such margin is inside the slack band, no
    challenger set can certify non-minimality at this tau, so the
    minimal=>critical chain is untestable for that point.
    """
    stats = (X - p) @ c.value(p)
    order = np.argsort(stats)
    eps = np.linspace(0.0, 1.0, cfg.n_eps)
    best = 0.0
    for k in order[:top]:
        if stats[k] >= -cfg.tau:
            break
        seg = eps[:, None] * X[k][None, :] + (1.0 - eps)[:, None] * p[None, :]
        delta = c.values(seg) @ (X[k] - p)
        flips = np.flatnonzero(delta > -cfg.tau)
        stop = int(flips[0]) if flips.size else delta.size
        if stop == 0:
            continue
        margins = eps[:stop] * np.maximum.accumulate(-delta[:stop])
        best = max(best, float(margins.max()))
    return best


def test_criterion_5_theorem_property_suite():
    rng = np.random.default_rng(505)
    violations: list[str] = []
    vec_pool, sc_pool = _vector_pool(rng), _scalar_pool(rng)
    challenger_cache: dict[int, SampleSet] = {}

    def challengers_for(field):
        key = id(field.domain)
        if key not in challenger_cache:
            if isinstance(field.domain, Box) and field.domain.dim == 1:
                challenger_cache[key] = sample_domain(field.domain, Grid(256), 42)
            else:
                challenger_cache[key] = sample_domain(field.domain, SeededRandom(256), 42)
        return challenger_cache[key]

    eps = np.linspace(0.0, 1.0, FAST.n_eps)
    trials = 0
    filtered_equiv = filtered_chain = 0
    for trial in range(1050):
        if trial % 3 == 2:
            f = sc_pool[trial % len(sc_pool)]
            p = _random_point(f.domain, rng)
            radius = [0.02, 0.05, 0.1][trial % 3] * f.domain.diameter()
            ball = sample_neighborhood(f.domain, p, radius, 128, seed=trial)
            full = challengers_for(f).union(ball.points)
            strict = is_strict_local_min_scalar(f, p, ball, FAST)
            if strict.ok:
                mini = minimal_and_maximal(f, p, full, FAST)[0]
                if not mini.ok:
                    violations.append(f"scalar strict-local-min not minimal: {f.label} @ {p}")
        else:
            c = vec_pool[trial % len(vec_pool)]
            p = _random_point(c.domain, rng)
            radius = [0.02, 0.05, 0.1][trial % 3] * c.domain.diameter()
            ball = sample_neighborhood(c.domain, p, radius, 128, seed=trial)
            full = challengers_for(c).union(ball.points)
            crit = is_critical_element(c, p, full, FAST)
            mini = minimal_and_maximal(c, p, full, FAST)[0]
            dual = minimal_and_maximal(negate(c), p, full, FAST)[1]
            nss = is_nss(c, p, ball, FAST)
            # is_nss's own statistic: it passes when this is <= tau
            nss_stat = float(np.einsum("kd,kd->k", p - ball.points, c.values(ball.points)).max())
            loc = is_local_min_polyorder(c, p, ball, FAST)
            # the largest delta of the rows (p, x) over the full uniform grid
            # (a screen row that drops keeps only its coarse maximum): p
            # weakly dominates every x exactly when it is <= tau
            loc_stat = float(_profiles(c, p[None], ball.points, eps).max())
            ess = is_ess(c, p, ball, FAST)
            if (mini.ok, mini.witness) != (dual.ok, dual.witness):
                violations.append(f"duality mismatch: {c.label} @ {p}")
            if ess.ok and not mini.ok:
                violations.append(f"ess not minimal: {c.label} @ {p}")
            if (mini.ok or loc.ok) and not crit.ok:
                # only a violation if the invasion actually induces a
                # dominance certificate above the slack band
                if _realizable_invasion_margin(c, p, full.points, FAST) > 10 * FAST.tau:
                    violations.append(f"extreme point not critical: {c.label} @ {p}")
                else:
                    filtered_chain += 1
            if loc.ok != (loc_stat <= FAST.tau):
                violations.append(f"local-min verdict is not the sweep's: {c.label} @ {p}")
            if nss.ok != (nss_stat <= FAST.tau):
                violations.append(f"nss verdict is not its statistic's: {c.label} @ {p}")
            if min(abs(nss_stat), abs(loc_stat)) > 10 * FAST.tau and nss.ok != loc.ok:
                violations.append(f"nss/local-min split: {c.label} @ {p}")
            elif min(abs(nss_stat), abs(loc_stat)) <= 10 * FAST.tau:
                filtered_equiv += 1
        trials += 1
    ok = trials >= 1000 and not violations
    _criterion(5, "zero theorem violations over randomized trials", ok,
               f"trials={trials}, filtered_band={filtered_equiv}, "
               f"filtered_subslack={filtered_chain}, violations={violations[:3]}")


def test_criterion_6_order_algebra():
    rng = np.random.default_rng(606)
    fields = [scalar_field("quadratic"), scalar_field("cubic"), scalar_field("linear"),
              scalar_field("mexican_hat")]
    vfields = [vector_field("quadratic"), vector_field("cubic"), vector_field("linear")]
    violations = []
    units = 0

    for i in range(2500):  # reflexivity, scalar and vector
        f = fields[i % len(fields)]
        p = _random_point(f.domain, rng)
        if compare_scalar(f, p, p, ALGEBRA).relation != EQUIVALENT:
            violations.append(f"scalar reflexivity: {f.label} @ {p}")
        units += 1
        c = vfields[i % len(vfields)]
        q = _random_point(c.domain, rng)
        if compare_vector(c, q, q, ALGEBRA).relation != EQUIVALENT:
            violations.append(f"vector reflexivity: {c.label} @ {q}")
        units += 1

    for i in range(3000):  # antisymmetry of the strict part
        c = vfields[i % len(vfields)]
        x, y = _random_point(c.domain, rng), _random_point(c.domain, rng)
        fwd = compare_vector(c, x, y, ALGEBRA)
        rev = compare_vector(c, y, x, ALGEBRA)
        units += 2
        if fwd.relation == STRICTLY_DOMINATES and rev.relation == STRICTLY_DOMINATES:
            violations.append(f"mutual strict dominance: {c.label} {x} {y}")
        if fwd.relation == STRICTLY_DOMINATES:
            if not (fwd.min_delta < -ALGEBRA.tau and fwd.max_delta <= ALGEBRA.tau):
                violations.append(f"strict verdict stats broken: {c.label}")

    strict_pairs = 0
    for i in range(2500):  # value drop under strict scalar dominance
        f = fields[i % len(fields)]
        x, y = _random_point(f.domain, rng), _random_point(f.domain, rng)
        v = compare_scalar(f, x, y, ALGEBRA)
        units += 1
        if v.relation == STRICTLY_DOMINATES:
            strict_pairs += 1
            if not f.value(x) < f.value(y):
                violations.append(f"strict pair without value drop: {f.label}")

    closed_chains = 0
    for i in range(600):  # acyclicity of verified strict chains
        f = fields[i % 3]  # 1-D fields chain easily
        pts = np.sort(rng.uniform(-1, 1, size=(6, 1)), axis=0)
        pts = pts[np.argsort(f.values(pts))]
        links = [compare_scalar(f, pts[j], pts[j + 1], ALGEBRA).relation for j in range(5)]
        units += 6
        if all(r == STRICTLY_DOMINATES for r in links):
            closed_chains += 1
            if compare_scalar(f, pts[-1], pts[0], ALGEBRA).relation == STRICTLY_DOMINATES:
                violations.append(f"strict chain closed into a cycle: {f.label}")

    ok = units >= 10_000 and strict_pairs > 200 and closed_chains > 100 and not violations
    _criterion(6, "reflexivity, antisymmetry, value drop, acyclicity", ok,
               f"units={units}, strict_pairs={strict_pairs}, chains={closed_chains}, "
               f"violations={violations[:3]}")


def test_criterion_7_gradient_consistency():
    # pairs are excluded when inside the slack band or when the derivative
    # stat falls inside the grid's own derivative resolution (a sub-step
    # ascent is invisible to the step test by construction)
    rng = np.random.default_rng(707)
    eps = np.linspace(0.0, 1.0, FAST.n_eps)
    checked = excluded = disagreements = 0
    for i in range(200):
        dim = 1 + i % 3
        Q = rng.normal(size=(dim, dim))
        f, _ = quadratic_form(Q + Q.T, rng.normal(size=dim))
        c = gradient_field(f, h=1e-5)
        X = rng.uniform(-1, 1, size=(50, dim))
        Y = rng.uniform(-1, 1, size=(50, dim))
        # the largest step of the full grid; the screen's band predicate is
        # its own, though a row it drops keeps only its coarse steps
        smax = np.diff(_profiles(f, X, Y, eps), axis=1).max(axis=1)
        np.testing.assert_array_equal(batch_scalar_steps(f, X, Y, FAST)[0] <= FAST.tau,
                                      smax <= FAST.tau)
        pts = eps[None, :, None] * X[:, None, :] + (1 - eps)[None, :, None] * Y[:, None, :]
        delta = np.einsum("kd,ked->ke", X - Y,
                          c.values(pts.reshape(-1, dim)).reshape(50, eps.size, dim))
        vmax = delta.max(axis=1)
        resolution = np.abs(np.diff(delta, axis=1)).max(axis=1) + FAST.tau * FAST.n_eps
        robust = ((np.abs(smax) > 10 * FAST.tau)
                  & (np.abs(vmax) > np.maximum(10 * FAST.tau, resolution)))
        agree = (smax <= FAST.tau) == (vmax <= FAST.tau)
        disagreements += int(np.sum(~agree & robust))
        checked += int(robust.sum())
        excluded += int((~robust).sum())
    frac_excluded = excluded / (checked + excluded)
    ok = disagreements == 0 and frac_excluded < 0.05
    _criterion(7, "value-route and gradient-route weak dominance agree", ok,
               f"pairs={checked + excluded}, excluded={frac_excluded:.3%}, "
               f"disagreements={disagreements}")


def test_criterion_8_rotated_well_counterexample():
    rep = mexican_hat_counterexample(n_circle=16, cfg=CFG, seed=42)
    per_point = [r.value < 1e-12 and not r.local_min_polyorder
                 and r.chord_eps is not None for r in rep.records]
    ok = (len(rep.records) == 16 and all(per_point)
          and rep.set_is_almost_strictly_minimal)
    _criterion(8, "circle of global minima fails dominance-order local minimality", ok,
               f"confirmed={sum(per_point)}/16, set_check={rep.set_is_almost_strictly_minimal}")


def test_criterion_9_hawk_dove_end_to_end():
    t0 = time.perf_counter()
    game = hawk_dove()
    p = np.array([0.5, 0.5])
    cfg = CFG
    challengers = default_challengers(game.domain, 42)
    ball = sample_neighborhood(game.domain, p, 0.1, 512, 42)
    full = challengers.union(ball.points)
    nash = is_critical_element(game, p, full, cfg)
    nss = is_nss(game, p, ball, cfg)
    ess = is_ess(game, p, ball, cfg)
    mini = minimal_and_maximal(game, p, full, cfg)[0]

    # independent oracle: dense simplex sweep of p.c(x) vs x.c(x)
    sweep = sample_domain(game.domain, Grid(10_000), 42).points
    stats = np.einsum("kd,kd->k", p[None, :] - sweep, game.values(sweep))
    oracle_nss = bool(stats.max() <= cfg.tau)
    off = np.linalg.norm(sweep - p, axis=1) > cfg.tau
    oracle_ess = bool(stats[off].max() < -cfg.tau)
    elapsed = time.perf_counter() - t0
    ok = (nash.ok and nss.ok and ess.ok and mini.ok
          and oracle_nss == nss.ok and oracle_ess == ess.ok and elapsed < 10.0)
    _criterion(9, "hawk-dove center certified nash/nss/ess/minimal with oracle", ok,
               f"oracle_nss={oracle_nss}, oracle_ess={oracle_ess}, {elapsed:.1f}s")
