import dataclasses
import math

import numpy as np
import pytest

from fieldorder.casestudy import minimal_candidate_points, zero_point
from fieldorder.dynamics import (CONVERGED, LEFT_DOMAIN, MAX_TIME, STEP_UNDERFLOW,
                                 IntegratorConfig, _segment_increments,
                                 check_setwise_stability, integrate)
from fieldorder import dynamics
from fieldorder.errors import DimensionMismatchError, DomainViolationError
from fieldorder.fields import (SampleSet, negate, quadratic_form, scalar_field,
                               vector_field)

PI = math.pi


@pytest.fixture(scope="module")
def decay_flow():
    return negate(vector_field("linear"))


@pytest.fixture(scope="module")
def oscillator_flow():
    return negate(vector_field("xsininv"))


class TestIntegrate:
    def test_exponential_decay_matches_closed_form(self, decay_flow):
        traj = integrate(decay_flow, [1.0], IntegratorConfig(t_max=20.0))
        assert traj.terminated_reason == CONVERGED
        assert abs(traj.final_state[0]) < 1e-6
        i = int(np.searchsorted(traj.times, 1.0))
        assert traj.times[i] == pytest.approx(1.0)
        assert traj.states[i, 0] == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_zero_field_constant(self):
        _, c = quadratic_form(np.zeros((1, 1)), [0.0])
        traj = integrate(c, [0.4], IntegratorConfig(t_max=0.05))
        assert traj.terminated_reason == CONVERGED
        assert np.all(traj.states == 0.4)

    def test_oscillator_reaches_first_zero(self, oscillator_flow):
        traj = integrate(oscillator_flow, [0.5], IntegratorConfig())
        assert traj.terminated_reason == CONVERGED
        assert traj.final_state[0] == pytest.approx(1 / PI, abs=1e-4)

    def test_times_strictly_increase_and_states_stay_inside(self, oscillator_flow):
        traj = integrate(oscillator_flow, [2.0], IntegratorConfig(t_max=10.0))
        assert np.all(np.diff(traj.times) > 0)
        for row in traj.states[:: max(1, len(traj.states) // 50)]:
            assert oscillator_flow.domain.contains_row(row)

    def test_left_domain(self):
        growth = vector_field("linear")  # x' = x blows outward
        traj = integrate(growth, [0.9], IntegratorConfig(t_max=5.0))
        assert traj.terminated_reason == LEFT_DOMAIN
        assert traj.final_state[0] <= 1.0

    def test_step_underflow_near_zero(self, decay_flow, monkeypatch):
        monkeypatch.setattr(dynamics, "CONVERGENCE_EPS", 1e-15)
        monkeypatch.setattr(dynamics, "FLOOR_EPS", 1e-9)
        traj = integrate(decay_flow, [1.0], IntegratorConfig(t_max=50.0))
        assert traj.terminated_reason == STEP_UNDERFLOW

    def test_max_time(self, oscillator_flow):
        traj = integrate(oscillator_flow, [2.0], IntegratorConfig(t_max=0.05))
        assert traj.terminated_reason == MAX_TIME

    def test_outside_domain_rejected(self, oscillator_flow):
        with pytest.raises(DomainViolationError):
            integrate(oscillator_flow, [5.0], IntegratorConfig())

    def test_halving_dt_barely_moves_endpoints(self, oscillator_flow):
        for x0 in (0.5, 1.0, 2.0):
            a = integrate(oscillator_flow, [x0], IntegratorConfig(dt=1e-3))
            b = integrate(oscillator_flow, [x0], IntegratorConfig(dt=5e-4))
            assert abs(a.final_state[0] - b.final_state[0]) < 1e-6

    def test_csv_export(self, decay_flow, tmp_path):
        traj = integrate(decay_flow, [1.0], IntegratorConfig(t_max=0.01))
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            traj.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == len(traj.times) + 1


class TestSegmentIncrements:
    def test_linear_ramp(self):
        # the potential of f(x) = x is x^2 / 2, and the rule is exact on it
        x = np.array([-1.0, -0.3, 0.2, 0.9, 0.5])
        got = _segment_increments(scalar_field("linear"), x[:, None])
        want = (x[1:] ** 2 - x[:-1] ** 2) / 2
        assert got == pytest.approx(want, rel=1e-14, abs=1e-16)

    def test_empty_interval(self):
        x = np.full(4, 1 / PI)
        got = _segment_increments(scalar_field("xsininv"), x[:, None])
        assert np.array_equal(got, np.zeros(3))

    def test_orientation(self):
        # walking the samples backwards negates every increment
        x = np.linspace(1 / PI, 0.5, 9)
        f = scalar_field("xsininv")
        forward = _segment_increments(f, x[:, None])
        backward = _segment_increments(f, x[::-1, None])
        assert np.all(forward > 0)
        assert backward[::-1] == pytest.approx(-forward, rel=1e-12)

    def test_oscillator_against_midpoint_rule(self):
        xs = np.linspace(1 / PI, 0.5, 20_001)
        got = float(_segment_increments(scalar_field("xsininv"), xs[:, None]).sum())
        fine = np.linspace(1 / PI, 0.5, 1_000_001)
        mids = 0.5 * (fine[:-1] + fine[1:])
        brute = float(np.sum(mids * np.sin(1.0 / mids)) * (fine[1] - fine[0]))
        assert got > 0
        assert got == pytest.approx(brute, abs=1e-8)


class TestSetwiseStability:
    def test_decay_to_origin(self, decay_flow):
        ics = SampleSet(np.array([[1.0]]))
        rep = check_setwise_stability(decay_flow, [[0.0]], ics, IntegratorConfig(t_max=20.0))
        assert all(t.converged for t in rep.trials)
        assert rep.trials[0].limit_point == (0.0,)

    def test_oscillator_basins(self, oscillator_flow):
        # x' = -f sends each inter-zero bracket to its odd-indexed zero and
        # the mirrored bracket to its even-indexed zero
        starts, expected = [], []
        for k in (1, 2, 3):
            starts.append([0.5 * (zero_point(2 * k) + zero_point(2 * (k + 1)))])
            expected.append(zero_point(2 * k + 1))
        for k in (1, 2, 3):
            starts.append([-0.5 * (zero_point(2 * k - 1) + zero_point(2 * k + 1))])
            expected.append(-zero_point(2 * k))
        cand = minimal_candidate_points()
        ics = SampleSet(np.array(starts))
        rep = check_setwise_stability(oscillator_flow, cand, ics, IntegratorConfig(),
                                      potential=scalar_field("xsininv"))
        assert all(t.converged for t in rep.trials)
        assert rep.lyapunov_monotone
        for trial, want in zip(rep.trials, expected):
            assert trial.limit_point[0] == pytest.approx(want, abs=1e-4)

    def test_first_basin_goes_to_first_zero_only(self, oscillator_flow):
        ics = SampleSet(np.array([[0.5]]))
        rep = check_setwise_stability(oscillator_flow, minimal_candidate_points(),
                                      ics, IntegratorConfig())
        assert rep.trials[0].limit_point[0] == pytest.approx(1 / PI, abs=1e-6)

    def test_report_carries_each_trajectory(self, oscillator_flow):
        cfg = IntegratorConfig(t_max=5.0)
        ics = SampleSet(np.array([[0.5], [0.2]]))
        rep = check_setwise_stability(oscillator_flow, minimal_candidate_points(), ics, cfg)
        assert len(rep.trajectories) == len(rep.trials) == 2
        for x0, traj, trial in zip(ics, rep.trajectories, rep.trials):
            alone = integrate(oscillator_flow, x0, cfg)
            assert traj.states.tobytes() == alone.states.tobytes()
            assert traj.times.tobytes() == alone.times.tobytes()
            assert traj.terminated_reason == trial.terminated_reason
        assert "trajectories" not in rep.to_dict()

    def test_empty_inputs_rejected(self, decay_flow):
        ics = SampleSet(np.array([[1.0]]))
        with pytest.raises(ValueError):
            check_setwise_stability(decay_flow, [], ics, IntegratorConfig())

    @pytest.mark.parametrize("candidate, error", [
        ([[0.1, 0.2]], DimensionMismatchError),
        ([[[0.1]]], DimensionMismatchError),
        ([[float("nan")]], ValueError),
        ([[float("inf")]], ValueError),
    ], ids=["two_columns", "three_axes", "nan", "inf"])
    def test_bad_candidate_rejected_before_integrating(self, decay_flow, monkeypatch,
                                                      candidate, error):
        def no_flow(*args, **kwargs):
            raise AssertionError("integrated before the candidate was checked")

        monkeypatch.setattr(dynamics, "integrate", no_flow)
        ics = SampleSet(np.array([[1.0]]))
        with pytest.raises(error):
            check_setwise_stability(decay_flow, candidate, ics, IntegratorConfig())

    def test_potential_of_another_dimension_rejected_before_integrating(self, monkeypatch):
        def no_flow(*args, **kwargs):
            raise AssertionError("integrated before the potential was checked")

        monkeypatch.setattr(dynamics, "integrate", no_flow)
        with pytest.raises(DimensionMismatchError, match="potential"):
            check_setwise_stability(negate(vector_field("mexican_hat")), [[0.6, 0.8]],
                                    SampleSet([[0.3, 0.2]]), IntegratorConfig(t_max=5.0),
                                    potential=scalar_field("xsininv"))
        with pytest.raises(DimensionMismatchError, match="potential"):
            check_setwise_stability(negate(vector_field("xsininv")), [[1 / PI]],
                                    SampleSet([[0.5]]), IntegratorConfig(t_max=5.0),
                                    potential=scalar_field("mexican_hat"))


class TestIntegratorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"dt": math.nan}, {"dt": 0.0}, {"t_max": math.inf}, {"t_max": math.nan},
        {"dt": math.inf}, {"dt": -1e-6}, {"t_max": -1.0},
        {"dt": 1.0, "t_max": 1.0},
    ])
    def test_rejects_non_finite_or_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorConfig(**kwargs)

    def test_fixed_method_is_echoed(self):
        cfg = IntegratorConfig()
        assert cfg.to_dict()["method"] == "rk4"
        assert [f.name for f in dataclasses.fields(IntegratorConfig)] == ["dt", "t_max"]

    def test_thresholds_are_echoed_as_before(self):
        # the "integrator" block of every flow report keeps its keys and values
        assert IntegratorConfig(dt=0.01, t_max=2.0).to_dict() == {
            "method": "rk4", "dt": 0.01, "t_max": 2.0,
            "convergence_eps": 1e-6, "floor_eps": 1e-12}
