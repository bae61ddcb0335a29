import math

import numpy as np
import pytest

from fieldorder import casestudy
from fieldorder.casestudy import (MAXIMAL, MINIMAL, build_catalog, case_fields,
                                  check_setwise_dominance, classify_catalog,
                                  dominating_minimal_element, mexican_hat_counterexample,
                                  minimal_candidate_points, nearest_critical_distance,
                                  origin_atypicality, origin_segment_witnesses,
                                  origin_witness, slope_at_zero, zero_point)
from fieldorder.dominance import STRICTLY_DOMINATES, ToleranceConfig, compare_vector
from fieldorder.fields import gradient_fd, scalar_field

PI = math.pi
CFG = ToleranceConfig()


class TestCatalog:
    def test_first_entries(self):
        cat = build_catalog(3)
        by_n = {e.n: e for e in cat.entries}
        assert by_n[1].x == pytest.approx(1 / PI)
        assert by_n[1].fprime == pytest.approx(PI)
        assert by_n[1].kind == MINIMAL
        assert by_n[2].fprime == pytest.approx(-2 * PI)
        assert by_n[2].kind == MAXIMAL
        assert by_n[-2].fprime == pytest.approx(2 * PI)
        assert by_n[-2].kind == MINIMAL
        assert by_n[-1].kind == MAXIMAL

    def test_counts(self):
        assert len(build_catalog(1).entries) == 2
        assert len(build_catalog(25).entries) == 50

    def test_minimal_maximal_split(self):
        cat = build_catalog(6)
        mins = set(e.n for e in cat.entries if e.kind == MINIMAL)
        assert mins == {1, 3, 5, -2, -4, -6}

    def test_slopes_match_finite_differences(self):
        f = scalar_field("xsininv")
        for n in list(range(1, 11)) + list(range(-10, 0)):
            got = gradient_fd(f, [zero_point(n)], 1e-7)[0]
            assert got == pytest.approx(slope_at_zero(n), abs=1e-4)

    def test_bad_nmax(self):
        with pytest.raises(ValueError):
            build_catalog(0)


class TestOriginWitness:
    def test_matches_worked_example(self):
        assert origin_witness(0.5, 1) == pytest.approx(2 / (5 * PI))

    @pytest.mark.parametrize("x", [0.5, -0.5, 2.0, 1e-3, -3e-4, 1 / PI])
    @pytest.mark.parametrize("want", [1, -1])
    def test_postcondition(self, x, want):
        f, _ = case_fields()
        w = origin_witness(x, want)
        assert 0 < abs(w) < abs(x)
        assert w * x > 0  # strictly between 0 and x
        assert math.copysign(1.0, x * f.value(np.array([w]))) == want
        assert abs(abs(math.sin(1.0 / w)) - 1.0) < 1e-12

    def test_half_integer_multiples_are_valid_witnesses_too(self):
        # sin(7 pi / 2) = -1, so 2/(7 pi) certifies the negative sign for x=0.5
        w = 2 / (7 * PI)
        f, _ = case_fields()
        assert 0.5 * f.value(np.array([w])) < 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            origin_witness(0.0, 1)


class TestSegmentWitnesses:
    def test_eps_in_unit_interval_and_signs_differ(self):
        f, c = case_fields()
        for other in (0.5, -0.8, 2.0):
            eps = origin_segment_witnesses([0.0], [other])
            assert len(eps) == 2
            deltas = []
            for e in eps:
                assert 0 < e < 1
                point = (1 - e) * other
                deltas.append((0.0 - other) * f.value(np.array([point])))
            assert max(deltas) > 0 > min(deltas)

    def test_non_origin_pairs_get_nothing(self):
        assert origin_segment_witnesses([0.5], [1.0]) == ()


class TestBracketSelector:
    def test_outer_interval(self):
        assert dominating_minimal_element(1.0) == pytest.approx(1 / PI)

    def test_between_second_and_first_zero(self):
        assert dominating_minimal_element(0.2) == pytest.approx(1 / PI)

    def test_negative_side(self):
        x = -0.5 * (zero_point(1) + zero_point(2))  # between -1/pi and -1/2pi
        assert dominating_minimal_element(x) == pytest.approx(-zero_point(2))

    def test_left_of_outer_maximal_uncovered(self):
        assert dominating_minimal_element(-0.5) is None

    def test_selector_certifies_strict_dominance(self):
        f, c = case_fields()
        for x in (1.0, 0.2, 0.05, -0.1, -0.3, 0.011):
            xstar = dominating_minimal_element(x)
            assert (xstar - x) * f.value(np.array([x])) < -CFG.tau
            verdict = compare_vector(c, np.array([xstar]), np.array([x]), CFG)
            assert verdict.relation == STRICTLY_DOMINATES

    def test_nearest_critical_distance(self):
        assert nearest_critical_distance(zero_point(4)) == 0.0
        assert nearest_critical_distance(0.0) == 0.0
        mid = 0.5 * (zero_point(1) + zero_point(2))
        assert nearest_critical_distance(mid) == pytest.approx(
            min(mid - zero_point(2), zero_point(1) - mid))


class TestAgreement:
    def test_small_catalog_agrees(self):
        rep = classify_catalog(3, CFG, grid_n=1024, seed=1)
        assert rep.all_agree
        assert len(rep.verdicts) == 6
        assert rep.origin_minimal and rep.origin_maximal

    def test_report_serializes(self):
        rep = classify_catalog(1, CFG, grid_n=512, seed=1)
        d = rep.to_dict()
        assert d["all_agree"] is True
        assert len(d["verdicts"]) == 2


class TestOriginAtypicality:
    def test_origin_is_extreme_but_not_local(self):
        rep = origin_atypicality(radii=(0.1, 0.01), cfg=CFG, grid_n=1024, seed=2,
                                 neighborhood_count=256)
        assert rep.minimal and rep.maximal
        for row in rep.per_radius:
            assert not row["nss"] and not row["ess"] and not row["local_min_polyorder"]
        assert rep.confirmed

    @pytest.mark.parametrize("tau, radius", [(1e-3, 0.001), (0.05, 0.01), (0.2, 0.1)])
    def test_radius_at_or_below_tau_raises(self, monkeypatch, tau, radius):
        def sweep(*args, **kwargs):
            raise AssertionError("the radii are checked before any evaluation")

        monkeypatch.setattr(casestudy, "case_fields", sweep)
        with pytest.raises(ValueError, match=f"origin radius {radius} "):
            origin_atypicality(cfg=ToleranceConfig(tau=tau))


class TestDominanceCoverage:
    def test_small_window_sweep(self):
        rep = check_setwise_dominance(2.0, 400, CFG)
        assert rep.coverage_fraction >= 0.995
        assert rep.total == 400

    def test_minimal_points_are_not_challenged(self):
        # a grid aligned to land exactly on 1/3pi must skip it as critical
        hi = 0.4
        lo = 2 * zero_point(3) - hi
        rep = check_setwise_dominance(hi, 3, CFG, window_lo=lo)
        assert rep.excluded_near_critical >= 1

    def test_window_validation(self):
        with pytest.raises(ValueError):
            check_setwise_dominance(0.1, 100, CFG)

    @pytest.mark.parametrize("grid_n", [0, -3, 10**12])
    def test_grid_size_validation(self, grid_n):
        # an empty sweep would read as full coverage
        with pytest.raises(ValueError, match="grid_n must lie in"):
            check_setwise_dominance(2.0, grid_n, CFG)

    def test_failed_pair_reports_its_screen_relation(self, monkeypatch):
        # with 1/pi as every positive point's dominator, the segments from
        # deeper brackets cross zeros of f and fail; each failure reports the
        # relation a full comparison of the pair gives
        monkeypatch.setattr(casestudy, "dominating_minimal_element",
                            lambda x: zero_point(1) if x > 0 else None)
        rep = check_setwise_dominance(2.0, 300, CFG)
        c = case_fields()[1]
        failed = [f for f in rep.failures if f["reason"] == "confirmation failed"]
        assert len(failed) > 5
        for f in failed:
            want = compare_vector(c, [f["xstar"]], [f["x"]], CFG).relation
            assert f["relation"] == want != STRICTLY_DOMINATES


class TestMexicanHat:
    def test_counterexample_confirms(self):
        rep = mexican_hat_counterexample(8, CFG, seed=3)
        assert rep.confirmed
        assert len(rep.records) == 8
        for r in rep.records:
            assert r.value < 1e-12
            assert r.chord_relation == "Incomparable"
            assert r.chord_peak > 10 * CFG.tau
            assert r.chord_eps is not None

    def test_adjacent_quarter_circle_chord_value(self):
        # midpoint of the (1,0)-(0,1) chord sits at radius sqrt(2)/2
        f = scalar_field("mexican_hat")
        mid = np.array([0.5, 0.5])
        assert f.value(mid) == pytest.approx((math.sqrt(2) / 2 - 1) ** 2)
        assert f.value(mid) == pytest.approx(0.0857864376269, abs=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            mexican_hat_counterexample(1, CFG)


def test_minimal_candidates_inside_domain():
    pts = minimal_candidate_points(25)
    f, _ = case_fields()
    assert np.any(pts == 0.0)
    for row in pts:
        assert f.domain.contains(row)
    assert pts.max() == pytest.approx(1 / PI)
