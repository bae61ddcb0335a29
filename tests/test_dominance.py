import dataclasses
import math

import numpy as np
import pytest

from fieldorder.dominance import (EQUIVALENT, INCOMPARABLE, REVERSE_STRICT,
                                  STRICTLY_DOMINATES, ToleranceConfig, batch_relations,
                                  batch_scalar_steps, batch_vector_extremes, compare_scalar,
                                  compare_vector, _profiles, _segment_points, profile)
from fieldorder.errors import DomainViolationError
from fieldorder.fields import (_MAX_GRID_POINTS, quadratic_form, gradient_field,
                               scalar_field, vector_field)

CFG = ToleranceConfig()
FAST = ToleranceConfig(n_eps=129)


class TestSegmentPoints:
    EPS = np.linspace(0.0, 1.0, 9)

    def test_eps_zero_returns_y(self):
        x, y = np.array([[1.0, -2.0]]), np.array([[0.3, 0.7]])
        assert np.array_equal(_segment_points(x, y, self.EPS)[0, 0], y[0])

    def test_eps_one_returns_x_exactly(self):
        x, y = np.array([[1.0, -2.0]]), np.array([[0.3, -0.7]])
        assert np.array_equal(_segment_points(x, y, self.EPS)[0, -1], x[0])

    def test_midpoint_by_symmetry(self):
        x, y = np.array([[2.0, 0.0]]), np.array([[0.0, 2.0]])
        mid = _segment_points(x, y, np.array([0.5]))[0, 0]
        assert np.array_equal(mid, [1.0, 1.0])
        assert np.array_equal(mid, _segment_points(y, x, np.array([0.5]))[0, 0])

    @pytest.mark.parametrize("shared", ["x", "y"])
    def test_a_shared_row_gives_the_points_of_full_rows(self, shared):
        rng = np.random.default_rng(3)
        one, rows = rng.uniform(-1, 1, (1, 3)), rng.uniform(-1, 1, (5, 3))
        full = np.repeat(one, 5, axis=0)
        if shared == "x":
            got, want = _segment_points(one, rows, self.EPS), _segment_points(full, rows, self.EPS)
        else:
            got, want = _segment_points(rows, one, self.EPS), _segment_points(rows, full, self.EPS)
        assert np.array_equal(got, want)


class TestProfiles:
    def test_linear_field_closed_form(self):
        # delta(eps) = (0 - 1) * c(1 - eps) = eps - 1
        c = vector_field("linear")
        eps, delta = profile(c, [0.0], [1.0], CFG)
        assert delta == pytest.approx(eps - 1.0)
        assert delta[0] == pytest.approx(-1.0)
        assert delta[-1] == pytest.approx(0.0)

    def test_equal_points_flat(self):
        c = vector_field("quadratic")
        _, delta = profile(c, [0.3], [0.3], CFG)
        assert np.all(delta == 0.0)

    def test_square_field_closed_form(self):
        # delta(eps) = -0.5 * (0.25 eps^2) = -0.125 eps^2
        c = vector_field("quadratic")
        eps, delta = profile(c, [-0.5], [0.0], CFG)
        assert delta == pytest.approx(-0.125 * eps ** 2)
        assert delta[-1] == pytest.approx(-0.125)

    def test_scalar_square_profile_decreasing(self):
        f = scalar_field("quadratic")
        eps, g = profile(f, [0.0], [1.0], CFG)
        assert g == pytest.approx((1.0 - eps) ** 2)
        assert np.all(np.diff(g) <= 0)

    def test_scalar_cubic_profile(self):
        f = scalar_field("cubic")
        eps, g = profile(f, [-1.0], [0.0], CFG)
        assert g == pytest.approx(-eps ** 3)

    def test_scalar_constant_on_tie(self):
        f = scalar_field("quadratic")
        _, g = profile(f, [0.4], [0.4], CFG)
        assert np.ptp(g) == 0.0

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainViolationError):
            profile(vector_field("quadratic"), [3.0], [0.0], CFG)

    def test_profile_is_the_uniform_grid_across_a_sign_change(self):
        # f flips sign inside [0.1, 1.0]; the profile still holds the grid alone
        c = vector_field("xsininv")
        coarse = ToleranceConfig(n_eps=17)
        eps, delta = profile(c, np.array([1.0]), np.array([0.1]), coarse)
        assert np.array_equal(eps, np.linspace(0.0, 1.0, 17))
        assert delta.max() > coarse.tau and delta.min() < -coarse.tau

    def test_profile_adds_the_witness_eps_to_the_grid(self):
        c = vector_field("xsininv")
        coarse = ToleranceConfig(n_eps=17)
        extra = [0.01, 0.3, 0.5]  # 0.5 is already a grid point
        c = dataclasses.replace(c, witnesses=lambda xs, ys: ([0], [extra]))
        eps, _ = profile(c, [1.0], [0.1], coarse)
        want = np.union1d(np.linspace(0.0, 1.0, 17), extra)
        assert np.array_equal(eps, want)


class TestVectorVerdicts:
    def test_square_left_axis_dominates_origin(self):
        v = compare_vector(vector_field("quadratic"), [-0.5], [0.0], CFG)
        assert v.relation == STRICTLY_DOMINATES
        assert v.witness_eps_strict is not None
        assert v.min_delta < -CFG.tau and v.max_delta <= CFG.tau

    def test_origin_dominates_right_axis(self):
        v = compare_vector(vector_field("quadratic"), [0.0], [0.5], CFG)
        assert v.relation == STRICTLY_DOMINATES

    def test_reflexivity(self):
        v = compare_vector(vector_field("xsininv"), [0.7], [0.7], CFG)
        assert v.relation == EQUIVALENT
        assert abs(v.max_delta) <= CFG.tau and abs(v.min_delta) <= CFG.tau

    def test_reverse_orientation_mirrors(self):
        c = vector_field("quadratic")
        fwd = compare_vector(c, [-0.5], [0.0], CFG)
        rev = compare_vector(c, [0.0], [-0.5], CFG)
        assert fwd.relation == STRICTLY_DOMINATES
        assert rev.relation == REVERSE_STRICT

    def test_incomparable_carries_both_witnesses(self):
        v = compare_vector(vector_field("xsininv"), [1.0], [0.05], CFG)
        assert v.relation == INCOMPARABLE
        assert len(v.witness_eps_violation) == 2

    def test_json_roundtrip(self):
        v = compare_vector(vector_field("quadratic"), [-0.5], [0.0], CFG)
        d = v.to_dict()
        assert d["relation"] == STRICTLY_DOMINATES
        assert d["config"]["tau"] == CFG.tau
        assert set(d) == {"relation", "witness_eps_strict", "witness_eps_violation",
                          "max_delta", "min_delta", "config"}


class TestScalarVerdicts:
    def test_cubic_critical_point_not_minimal(self):
        # the inflection at 0 is strictly dominated from the left
        v = compare_scalar(scalar_field("cubic"), [-1.0], [0.0], CFG)
        assert v.relation == STRICTLY_DOMINATES

    def test_square_descent(self):
        v = compare_scalar(scalar_field("quadratic"), [0.0], [1.0], CFG)
        assert v.relation == STRICTLY_DOMINATES

    def test_tie(self):
        v = compare_scalar(scalar_field("quadratic"), [0.2], [0.2], CFG)
        assert v.relation == EQUIVALENT

    def test_hat_chord_incomparable(self):
        f = scalar_field("mexican_hat")
        v = compare_scalar(f, [1.0, 0.0], [0.0, 1.0], CFG)
        assert v.relation == INCOMPARABLE

    def test_weak_but_not_strict_profile(self):
        # one drop beyond tau, slow sub-tau recovery, net change inside the
        # band: descent acceptable, ascent not, strictness unavailable
        from fieldorder.dominance import WEAKLY_DOMINATES_NOT_STRICT
        from fieldorder.fields import Box, ScalarField
        tau = CFG.tau

        def staircase(P):
            t = P[:, 0]
            return np.select([t < 0.25, t < 0.5, t < 0.75], [0.0, -2.0 * tau, -1.1 * tau],
                             -0.2 * tau)

        f = ScalarField(batch=staircase, domain=Box((0.0,), (1.0,)), label="staircase")
        v = compare_scalar(f, [1.0], [0.0], ToleranceConfig(n_eps=9))
        assert v.relation == WEAKLY_DOMINATES_NOT_STRICT
        assert v.witness_eps_violation is not None

    def test_tent_pair_is_decided_on_the_screen_grid(self):
        # g = 0, 1.5, 0 on three grid points: a rise and a drop beyond tau.
        # Splitting both steps would shrink them into the band (Equivalent);
        # the comparison reads the screen's grid and its relation
        from fieldorder.dominance import batch_relations
        from fieldorder.fields import Box, ScalarField
        f = ScalarField(batch=lambda P: 1.5 - 3.0 * np.abs(P[:, 0] - 0.5),
                        domain=Box((0.0,), (1.0,)), label="tent")
        cfg = ToleranceConfig(tau=1.0, n_eps=3)
        v = compare_scalar(f, [1.0], [0.0], cfg)
        assert (v.relation, v.max_delta, v.min_delta) == (INCOMPARABLE, 1.5, -1.5)
        assert batch_relations(f, [[1.0]], [[0.0]], cfg).tolist() == [INCOMPARABLE]


def _random_quadratic(rng, dim):
    Q = rng.normal(size=(dim, dim))
    return quadratic_form(Q + Q.T, rng.normal(size=dim))


class TestAlgebraicProperties:
    def test_strict_scalar_dominance_lowers_value(self):
        rng = np.random.default_rng(11)
        strict_seen = 0
        for _ in range(300):
            f, _ = _random_quadratic(rng, int(rng.integers(1, 4)))
            x, y = rng.uniform(-1, 1, f.domain.dim), rng.uniform(-1, 1, f.domain.dim)
            v = compare_scalar(f, x, y, FAST)
            if v.relation == STRICTLY_DOMINATES:
                strict_seen += 1
                assert f.value(x) < f.value(y)
        assert strict_seen > 20

    def test_no_mutual_strict_dominance(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            _, c = _random_quadratic(rng, int(rng.integers(1, 4)))
            x, y = rng.uniform(-1, 1, c.domain.dim), rng.uniform(-1, 1, c.domain.dim)
            fwd = compare_vector(c, x, y, FAST)
            rev = compare_vector(c, y, x, FAST)
            assert not (fwd.relation == STRICTLY_DOMINATES
                        and rev.relation == STRICTLY_DOMINATES)

    def test_strict_chains_never_close(self):
        # chains ordered by value with verified strict links cannot cycle
        rng = np.random.default_rng(13)
        closed = 0
        for _ in range(60):
            f = scalar_field("quadratic") if rng.random() < 0.5 else scalar_field("cubic")
            pts = rng.uniform(-1, 1, size=(6, 1))
            pts = pts[np.argsort(f.values(pts))]
            links = [compare_scalar(f, pts[i], pts[i + 1], FAST).relation
                     for i in range(5)]
            if all(r == STRICTLY_DOMINATES for r in links):
                closed += 1
                back = compare_scalar(f, pts[-1], pts[0], FAST)
                assert back.relation != STRICTLY_DOMINATES
        assert closed > 10

    def test_gradient_route_matches_value_route(self):
        # the step test integrates the derivative over grid intervals, so a
        # positive spike narrower than one step is invisible to it; pairs
        # whose derivative stat sits inside that resolution are excluded
        rng = np.random.default_rng(14)
        eps = np.linspace(0.0, 1.0, FAST.n_eps)
        checked = excluded = 0
        for _ in range(40):
            f, _ = _random_quadratic(rng, 2)
            c = gradient_field(f)
            X, Y = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (5, 2))
            # the largest step of the full grid; the screen's band predicate
            # is its own, though a row it drops keeps only its coarse steps
            smax = np.diff(_profiles(f, X, Y, eps), axis=1).max(axis=1)
            np.testing.assert_array_equal(batch_scalar_steps(f, X, Y, FAST)[0] <= FAST.tau,
                                          smax <= FAST.tau)
            pts = eps[None, :, None] * X[:, None, :] + (1 - eps)[None, :, None] * Y[:, None, :]
            delta = np.einsum("kd,ked->ke", X - Y,
                              c.values(pts.reshape(-1, 2)).reshape(5, eps.size, 2))
            vmax = delta.max(axis=1)
            resolution = np.abs(np.diff(delta, axis=1)).max(axis=1) + FAST.tau * FAST.n_eps
            robust = ((np.abs(smax) > 10 * FAST.tau)
                      & (np.abs(vmax) > np.maximum(10 * FAST.tau, resolution)))
            agree = (smax <= FAST.tau) == (vmax <= FAST.tau)
            assert np.all(agree[robust])
            checked += int(robust.sum())
            excluded += int((~robust).sum())
        assert checked > 150
        assert excluded < 0.05 * (checked + excluded)

    def test_doubling_grid_keeps_robust_verdicts(self):
        rng = np.random.default_rng(15)
        for _ in range(80):
            _, c = _random_quadratic(rng, int(rng.integers(1, 3)))
            x, y = rng.uniform(-1, 1, c.domain.dim), rng.uniform(-1, 1, c.domain.dim)
            coarse = compare_vector(c, x, y, ToleranceConfig(n_eps=129))
            if min(abs(coarse.max_delta), abs(coarse.min_delta)) <= 10 * CFG.tau:
                continue
            fine = compare_vector(c, x, y, ToleranceConfig(n_eps=257))
            assert fine.relation == coarse.relation


class TestConfig:
    @pytest.mark.parametrize("kwargs", [{"tau": 0.0}, {"n_eps": 2}, {"tau": math.nan},
                                        {"tau": math.inf}, {"tau": -1e-9},
                                        {"n_eps": _MAX_GRID_POINTS + 1}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)

    def test_grid_cap_is_accepted(self):
        # a config holds no grid, so the largest allowed n_eps allocates nothing
        assert ToleranceConfig(n_eps=_MAX_GRID_POINTS).n_eps == _MAX_GRID_POINTS

    def test_fixed_refinement_depth_is_echoed(self):
        assert CFG.to_dict() == {"tau": 1e-9, "n_eps": 1025, "max_refine_depth": 20}
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["tau", "n_eps"]

    def test_witness_eps_must_be_unit_interval(self):
        for bad in (1.5, -0.5, math.nan):
            c = dataclasses.replace(vector_field("quadratic"),
                                    witnesses=lambda xs, ys: ([0], [[bad]]))
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                compare_vector(c, [0.1], [0.2], CFG)


# (rows, eps) a provider may not return for a two-row batch, or for one row
BAD_WITNESSES = {"missing row": ([3], [[0.37]]), "no rows": ([], [[0.37]]),
                 "short eps": ([0, 1], [[0.37]]), "row past the batch": ([7], [[0.37]]),
                 "negative row": ([-1], [[0.37]]), "repeated row": ([0, 0], [[0.3], [0.4]]),
                 "decreasing rows": ([1, 0], [[0.3], [0.4]]), "flat eps": ([0], [0.37])}


@pytest.mark.parametrize("rows, eps", BAD_WITNESSES.values(), ids=BAD_WITNESSES)
@pytest.mark.parametrize("make", [scalar_field, vector_field], ids=["scalar", "vector"])
def test_witness_rows_must_index_the_batch(make, rows, eps):
    # a provider's rows are strictly increasing rows of the batch, with one
    # eps row each; anything else is refused, never folded into another row
    # or left to fail with an IndexError
    f = dataclasses.replace(make("quadratic"), witnesses=lambda xs, ys: (rows, eps))
    calls = [lambda: profile(f, [0.5], [0.0], CFG),
             lambda: batch_relations(f, [[0.1], [0.2]], [[0.5]], CFG)]
    if make is vector_field:
        calls.append(lambda: batch_vector_extremes(f, [[0.1], [0.2]], [[0.5]], CFG))
    else:
        calls.append(lambda: batch_scalar_steps(f, [[0.1], [0.2]], [[0.5]], CFG))
    for call in calls:
        with pytest.raises(ValueError, match="witness"):
            call()
