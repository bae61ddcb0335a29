"""The RK4 loop: integrate steps one start, and check_setwise_stability
runs it once per start.

integrate must give the bit-identical times, states and terminated_reason
of the one-start loop it was written from (``reference`` below: F.value
per stage, np.linalg.norm, the per-point containment rules of
``contains_reference``), with every batch evaluation on one row and one
per stage.  A batch that answers a stage with a non-finite entry, the
wrong shape or another dtype makes integrate raise the error and message
that F.values raises in ``reference``, or step as ``reference`` steps on
the converted answer.  The thresholds are the module constants
dynamics.CONVERGENCE_EPS and FLOOR_EPS, which these tests patch.

integrate steps its state on Python floats and tests it with the domain's
contains_row, so the row test must agree with contains_rows on every row,
and a state that overflows must end the flow as ``reference`` ends it.

A stock field's stages run its row map, which must give the one-row batch
bit for bit (signed zeros included) on every row, and a flow must be the
same whether it steps on the row map or, with ``row=None``, on the batch.
A row map that answers a non-finite entry or the wrong width hands its
stage to the batch, so the flow ends as the batch path ends it.

At dim 1 a flow steps one float and its norms are numpy's one-term dot.
From dim 2 each norm test is decided on a float sum of squares, and
numpy's dot decides every row within the rounding margin of its
threshold, so each decision must be numpy's on any row.  Because the row
and batch paths share one body, the CLI's trajectory.csv of the CI and
benchmark flows is checked against ``reference``, formatted one row at a
time.
"""

import importlib
import io
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder import cli, dynamics, games
from fieldorder.dynamics import (CONVERGED, LEFT_DOMAIN, MAX_TIME, STEP_UNDERFLOW,
                                 IntegratorConfig, check_setwise_stability, integrate)
from fieldorder.errors import DomainViolationError
from fieldorder.fields import (_RECIPROCAL_FLOOR, CONTAINMENT_TOL, Box, Product, SampleSet,
                               Simplex, VectorField, affine_field, field_from_json,
                               gradient_field, negate, quadratic_form, registry_names,
                               scalar_field, vector_field)

BOX2 = Box((-1.0, -1.0), (1.0, 1.0))
TOL = CONTAINMENT_TOL


def contains_reference(domain, p) -> bool:
    """Whether the point p lies in the domain, by the per-point rules that
    contains_rows replaced: a box within TOL of its bounds; a simplex with
    no coordinate below -TOL and a sum within TOL of its mass; a product
    with every block in its simplex.  A p of the wrong shape is outside."""
    p = np.asarray(p, float)
    if isinstance(domain, Box):
        lo, up = np.asarray(domain.lower), np.asarray(domain.upper)
        return p.shape == lo.shape and bool(np.all(p >= lo - TOL) and np.all(p <= up + TOL))
    if p.shape != (domain.dim,):
        return False
    if isinstance(domain, Simplex):
        return bool(np.all(p >= -TOL) and abs(float(p.sum()) - domain.mass) <= TOL)
    ends = np.cumsum([s.dim for s in domain.parts])
    return all(contains_reference(s, p[end - s.dim:end])
               for s, end in zip(domain.parts, ends))


def reference(F, x0, cfg):
    """(times, states, reason) of the one-start RK4 loop, step for step."""
    x = np.array(x0, float)
    dt = cfg.dt
    times, states, reason = [0.0], [x.copy()], MAX_TIME
    for k in range(int(math.floor(cfg.t_max / dt + 1e-9))):
        k1 = F.value(x)
        if float(np.linalg.norm(k1)) < dynamics.CONVERGENCE_EPS:
            reason = CONVERGED
            break
        if float(np.linalg.norm(x)) < dynamics.FLOOR_EPS:
            reason = STEP_UNDERFLOW
            break
        k2 = F.value(x + 0.5 * dt * k1)
        k3 = F.value(x + 0.5 * dt * k2)
        k4 = F.value(x + dt * k3)
        nxt = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not contains_reference(F.domain, nxt):
            reason = LEFT_DOMAIN
            break
        x = nxt
        times.append((k + 1) * dt)
        states.append(x.copy())
    return np.asarray(times), np.vstack(states), reason


def _regimes(P):
    # by x2: rest (x2 < -0.5), fast decay to 0 (x2 < 0), slow drift (x2 < 0.5), growth
    x2 = P[:, 1:2]
    return np.where(x2 < -0.5, 0.0,
                    np.where(x2 < 0.0, -50.0 * P,
                             np.where(x2 < 0.5, np.array([[1e-3, 0.0]]), 5.0 * P)))


REGIMES = VectorField(batch=_regimes, domain=BOX2, label="regimes")
# under this config and these thresholds a REGIMES flow ends Converged,
# StepUnderflow, MaxTime or LeftDomain by the band its x2 starts in
REGIME_CFG = IntegratorConfig(dt=0.01, t_max=1.0)
REGIME_EPS = {"CONVERGENCE_EPS": 1e-12, "FLOOR_EPS": 1e-6}
REGIME_STARTS = np.array([[0.1, -0.8], [0.3, -0.2], [0.2, 0.25], [-0.3, 0.6],
                          [-0.4, -0.6], [0.2, 0.7]])


def patch_thresholds(monkeypatch, thresholds):
    for name, value in thresholds.items():
        monkeypatch.setattr(dynamics, name, value)


def assert_same(traj, times, states, reason):
    assert traj.terminated_reason == reason
    assert traj.times.shape == times.shape and traj.times.tobytes() == times.tobytes()
    assert traj.states.shape == states.shape and traj.states.tobytes() == states.tobytes()


def counted(F):
    """F with a log of the number of rows in every batch it evaluates."""
    rows = []

    def batch(P):
        rows.append(len(P))
        return F.batch(P)

    return VectorField(batch=batch, domain=F.domain, label=F.label), rows


@st.composite
def flow_cases(draw):
    kind = draw(st.sampled_from(["registry", "quadratic_form", "regimes"]))
    if kind == "registry":
        name = draw(st.sampled_from(registry_names()))
        if name == "linear":
            dim = draw(st.integers(1, 3))
            F = affine_field(np.eye(dim), np.zeros(dim), Box((-1.0,) * dim, (1.0,) * dim),
                             "linear")
        else:
            F = vector_field(name)
    elif kind == "quadratic_form":
        dim = draw(st.integers(1, 3))
        entry = st.floats(-3.0, 3.0, allow_subnormal=False)
        Q = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                          min_size=dim, max_size=dim))
        b = draw(st.lists(entry, min_size=dim, max_size=dim))
        F = quadratic_form(Q, b)[1]
    else:
        F = REGIMES
    if draw(st.booleans()):
        F = negate(F)
    lo, up = np.asarray(F.domain.lower), np.asarray(F.domain.upper)
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=lo.size, max_size=lo.size)))
    cfg = IntegratorConfig(dt=draw(st.sampled_from([0.005, 0.01, 0.02])),
                           t_max=draw(st.floats(0.05, 1.0)))
    thresholds = {"CONVERGENCE_EPS": draw(st.sampled_from([1e-9, 1e-3, 0.05, 0.5])),
                  "FLOOR_EPS": draw(st.sampled_from([1e-12, 1e-3, 0.2, 0.5]))}
    return F, lo + u * (up - lo), cfg, thresholds


def stock_game_starts(F, n, seed):
    """n seeded points of a game's product of simplexes."""
    u = np.random.default_rng(seed).dirichlet(np.ones(F.domain.dim), size=n)
    return np.array([np.hstack([s.mass * r[:s.dim] / r[:s.dim].sum()
                                for s in F.domain.parts]) for r in u])


def real_cost_game():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((4, 4))
    C -= C.mean(axis=0)  # c(x) = C x keeps x on the simplex plane
    return games.from_symmetric_matrix(C, label="real"), rng.dirichlet(np.ones(4), size=6)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(case=flow_cases())
    def test_integrate_is_the_reference_loop(self, case):
        # with the field's row map, and on its batch alone (row=None)
        F, x0, cfg, thresholds = case
        with pytest.MonkeyPatch.context() as mp:
            patch_thresholds(mp, thresholds)
            want = reference(F, x0, cfg)
            assert_same(integrate(F, x0, cfg), *want)
            assert_same(integrate(replace(F, row=None), x0, cfg), *want)

    def test_flows_ending_for_every_reason(self, monkeypatch):
        patch_thresholds(monkeypatch, REGIME_EPS)
        reasons = []
        for x0 in REGIME_STARTS:
            traj = integrate(REGIMES, x0, REGIME_CFG)
            assert_same(traj, *reference(REGIMES, x0, REGIME_CFG))
            reasons.append(traj.terminated_reason)
        assert reasons == [CONVERGED, STEP_UNDERFLOW, MAX_TIME, LEFT_DOMAIN,
                           CONVERGED, LEFT_DOMAIN]


class TestOneStartAtATime:
    def test_every_evaluation_holds_one_row(self, monkeypatch):
        patch_thresholds(monkeypatch, REGIME_EPS)
        F, rows = counted(REGIMES)
        for x0 in REGIME_STARTS:
            integrate(F, x0, REGIME_CFG)
        check_setwise_stability(F, [[0.0, 0.0]], SampleSet(REGIME_STARTS), REGIME_CFG)
        assert rows and set(rows) == {1}

    @pytest.mark.parametrize("case", ["xsininv", "hawk_dove", "real_costs"])
    def test_setwise_trajectories_are_integrate_per_start(self, case):
        if case == "xsininv":
            F, starts = negate(vector_field("xsininv")), np.array([[0.5], [0.2], [-0.3]])
            candidate, cfg = [[1 / math.pi]], IntegratorConfig(t_max=0.5)
        elif case == "hawk_dove":
            F = games.hawk_dove()
            starts, candidate = stock_game_starts(F, 4, 5), [[0.5] * F.domain.dim]
            cfg = IntegratorConfig(dt=0.01, t_max=1.0)
        else:
            F, starts = real_cost_game()
            candidate, cfg = [[0.25] * 4], IntegratorConfig(dt=0.01, t_max=2.0)
        rep = check_setwise_stability(F, candidate, SampleSet(starts), cfg)
        assert len(rep.trajectories) == len(starts)
        for x0, traj, trial in zip(starts, rep.trajectories, rep.trials):
            alone = integrate(F, x0, cfg)
            assert_same(traj, alone.times, alone.states, alone.terminated_reason)
            assert_same(alone, *reference(F, x0, cfg))
            assert trial.terminated_reason == traj.terminated_reason

    @pytest.mark.parametrize("bad, error", [([5.0], DomainViolationError),
                                            ([math.nan], ValueError)],
                             ids=["outside", "nan"])
    def test_bad_second_start_refused_before_any_evaluation(self, bad, error):
        ics = SampleSet(np.array([[0.5], bad]))
        with pytest.raises(error):
            check_setwise_stability(NEVER, [[0.0]], ics, IntegratorConfig(t_max=1.0))


# what a faulty batch answers in place of its (1, dim) values v, with j
# the entry a non-finite fault replaces
def _replaced(v, j, x):
    w = np.array(v, float)
    w[0, j] = x
    return w


FAULTS = {
    "nan": lambda v, j: _replaced(v, j, math.nan),
    "+inf": lambda v, j: _replaced(v, j, math.inf),
    "-inf": lambda v, j: _replaced(v, j, -math.inf),
    "1-d": lambda v, j: v[0],
    "wide": lambda v, j: np.hstack([v, v[:, :1]]),
    "0-d": lambda v, j: np.asarray(v[0, j]),
    "int": lambda v, j: v.astype(int),
    "float32": lambda v, j: v.astype(np.float32),
    "list": lambda v, j: v.tolist(),
}
# the faults that F.values converts to float64 rather than refuses
CONVERTED = {"int", "float32", "list"}


def faulty(F, at, fault, j=0):
    """counted(F) whose batch answers its evaluation number at (from 0)
    with FAULTS[fault] of its values."""
    G, rows = counted(F)

    def batch(P):
        v = G.batch(P)
        return FAULTS[fault](np.asarray(v), j) if len(rows) == at + 1 else v

    return VectorField(batch=batch, domain=F.domain, label=F.label), rows


def outcome(run):
    """(result, None) of run(), or (None, the ValueError it raised)."""
    try:
        return run(), None
    except ValueError as err:
        return None, err


FAULT_CFG = IntegratorConfig(dt=0.01, t_max=0.1)
FAULT_FLOWS = [(negate(vector_field("xsininv")), [0.5]),
               (negate(vector_field("mexican_hat")), [0.3, 0.2]),
               (affine_field(-np.eye(3), np.full(3, 0.1), Box((-1.0,) * 3, (1.0,) * 3),
                             "affine3"), [0.5, -0.2, 0.9]),
               (REGIMES, [0.1, -0.8]),  # at rest: Converged on its first evaluation
               (REGIMES, [-0.3, 0.6]),
               (games.hawk_dove(), [0.3, 0.7])]


class TestFaultyBatches:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), flow=st.sampled_from(range(len(FAULT_FLOWS))),
           fault=st.sampled_from(sorted(FAULTS)), step=st.integers(0, 10),
           stage=st.integers(0, 3))
    def test_a_faulty_stage_ends_as_values_ends_it(self, data, flow, fault, step, stage):
        F, x0 = FAULT_FLOWS[flow]
        at, j = 4 * step + stage, data.draw(st.integers(0, F.domain.dim - 1))
        R, ref_rows = faulty(F, at, fault, j)
        want, want_err = outcome(lambda: reference(R, x0, FAULT_CFG))
        G, rows = faulty(F, at, fault, j)
        got, err = outcome(lambda: integrate(G, x0, FAULT_CFG))
        reached = len(ref_rows) > at
        if fault in CONVERTED or not reached:
            assert want_err is None
            assert err is None, err
            assert_same(got, *want)
        else:
            assert want_err is not None
            assert type(err) is type(want_err) and str(err) == str(want_err)
            # the failing evaluation is the last: nothing re-ran the batch
            assert len(rows) == at + 1


class TestOneBatchPerStage:
    def test_calls_by_terminated_reason(self, monkeypatch):
        # n kept steps make 4n calls, plus the first stage of the step that
        # stopped on a norm, or all four stages of the step that left
        patch_thresholds(monkeypatch, REGIME_EPS)
        extra = {CONVERGED: 1, STEP_UNDERFLOW: 1, MAX_TIME: 0, LEFT_DOMAIN: 4}
        reasons = set()
        for x0 in REGIME_STARTS:
            F, rows = counted(REGIMES)
            traj = integrate(F, x0, REGIME_CFG)
            n = len(traj.times) - 1
            assert len(rows) == 4 * n + extra[traj.terminated_reason]
            reasons.add(traj.terminated_reason)
        assert reasons == set(extra)

    @pytest.mark.parametrize("fault", sorted(set(FAULTS) - CONVERTED))
    @pytest.mark.parametrize("at", [0, 6])
    def test_a_failing_batch_runs_once(self, fault, at):
        F, rows = faulty(negate(vector_field("mexican_hat")), at, fault)
        with pytest.raises(ValueError):
            integrate(F, [0.3, 0.2], FAULT_CFG)
        assert rows == [1] * (at + 1)


# a stage value this large overflows 2 k2 and 2 k3 in the final combination
BIG = 0.6 * np.finfo(float).max


class TestOverflowingState:
    """A state whose final combination overflows ends the flow LeftDomain.

    Python floats overflow to inf without a warning, where numpy's array
    arithmetic in ``reference`` warns (and the suite turns warnings into
    errors), so the reference runs with overflow warnings ignored.
    """

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("flip", [False, True], ids=["inf", "nan"])
    def test_overflow_leaves_the_domain(self, dim, flip):
        # k1 = 1 at the start 0.5, whose norms stay finite; right of it the
        # field answers BIG, so the combination is +inf, or with flip -BIG,
        # and BIG left of -1, so k2 = k4 = -BIG, k3 = +BIG and it is NaN
        def batch(P):
            far = np.where(P < -1.0, BIG, -BIG) if flip else BIG
            return np.where((P >= -1.0) & (P <= 0.5), 1.0, far)

        F = VectorField(batch=batch, domain=Box((-1.0,) * dim, (1.0,) * dim), label="big")
        cfg = IntegratorConfig(dt=0.01, t_max=0.1)
        x0 = np.full(dim, 0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference(F, x0, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(F, x0, cfg)
        assert_same(traj, *want)
        assert traj.terminated_reason == LEFT_DOMAIN and len(traj.times) == 1


class TestTermination:
    def test_converged_is_tested_before_step_underflow(self, monkeypatch):
        # |F(x)| = |x| = 1e-10 lies under both thresholds at the start
        patch_thresholds(monkeypatch, {"CONVERGENCE_EPS": 1e-6, "FLOOR_EPS": 1e-9})
        traj = integrate(negate(vector_field("linear")), [1e-10], IntegratorConfig())
        assert traj.terminated_reason == CONVERGED
        assert len(traj.times) == 1

    @staticmethod
    def _straddling(dim, below):
        """A row v whose sqrt(v.dot(v)) lies below (or above) the batched
        np.sqrt(np.add.reduce(v * v)), with the larger of the two."""
        V = np.random.default_rng(7).standard_normal((4000, dim)) / 8.0
        dot = np.array([math.sqrt(v.dot(v)) for v in V])
        red = np.sqrt(np.add.reduce(V * V, axis=1))
        hit = np.flatnonzero(dot < red if below else dot > red)
        if not hit.size:
            pytest.skip("row and batched norms agree on this platform")
        return V[hit[0]], max(dot[hit[0]], red[hit[0]])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("below", [True, False])
    def test_field_norm_is_the_row_dot(self, dim, below, monkeypatch):
        v, eps = self._straddling(dim, below)
        monkeypatch.setattr(dynamics, "CONVERGENCE_EPS", eps)
        F = VectorField(batch=lambda P: np.tile(v, (len(P), 1)),
                        domain=Box((-1.0,) * dim, (1.0,) * dim), label="constant")
        cfg = IntegratorConfig(dt=1e-3, t_max=1.5e-3)
        want = CONVERGED if below else MAX_TIME
        assert integrate(F, np.full(dim, 0.5), cfg).terminated_reason == want

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("below", [True, False])
    def test_state_norm_is_the_row_dot(self, dim, below, monkeypatch):
        x0, floor = self._straddling(dim, below)
        monkeypatch.setattr(dynamics, "FLOOR_EPS", floor)
        F = VectorField(batch=lambda P: np.ones_like(P), label="constant",
                        domain=Box((-1.0,) * dim, (1.0,) * dim))
        # one step: a second would test the moved state
        cfg = IntegratorConfig(dt=1e-3, t_max=1.5e-3)
        want = STEP_UNDERFLOW if below else MAX_TIME
        assert integrate(F, x0, cfg).terminated_reason == want


def _never(P):
    raise AssertionError("evaluated a flow that should have been refused")


NEVER = VectorField(batch=_never, domain=Box((-1.0,), (1.0,)), label="never")


class TestSizeCap:
    def test_one_step_over_the_cap(self):
        # a flow of dim 1 holds (n_steps + 1) * 2 * 8 bytes
        n_steps = dynamics._MAX_TRAJECTORY_BYTES // 16
        with pytest.raises(ValueError, match="cap"):
            integrate(NEVER, [0.5], IntegratorConfig(dt=1.0, t_max=float(n_steps)))

    @pytest.mark.parametrize("cfg", [IntegratorConfig(t_max=1e12),
                                     IntegratorConfig(dt=1e-10, t_max=1e300)],
                             ids=["tmax_1e12", "steps_overflow"])
    def test_far_over_the_cap(self, cfg):
        with pytest.raises(ValueError, match="cap"):
            integrate(NEVER, [0.5], cfg)

    def test_the_cap_holds_per_start(self, monkeypatch):
        # a flow of dim 1 and 100 steps holds 101 * 2 * 8 = 1616 bytes: the
        # cap fits three such flows, and seven starts run one at a time
        cfg = IntegratorConfig(dt=0.01, t_max=1.0)
        F = negate(vector_field("xsininv"))
        ics = SampleSet(np.linspace(-0.9, 0.9, 7)[:, None])
        whole = check_setwise_stability(F, [[1 / math.pi]], ics, cfg)
        monkeypatch.setattr(dynamics, "_MAX_TRAJECTORY_BYTES", 3 * 1616 + 5)
        capped = check_setwise_stability(F, [[1 / math.pi]], ics, cfg)
        assert len(capped.trajectories) == 7
        for a, b in zip(capped.trajectories, whole.trajectories):
            assert_same(a, b.times, b.states, b.terminated_reason)

    def test_cli_exits_2(self, capsys):
        code = cli.main(["--json", "flow", "--field", "neg:linear", "--x0", "0.5",
                         "--tmax", "1e12"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "cap" in out.err


# ---------------------------------------------------------------------------
# contains_rows
# ---------------------------------------------------------------------------


def _near(draw, edge):
    """A coordinate within a few ulps of edge - TOL, edge or edge + TOL, or
    a few TOL from edge."""
    if draw(st.booleans()):
        c = edge + draw(st.sampled_from([-1.0, 0.0, 1.0])) * TOL
        for _ in range(draw(st.integers(0, 3))):
            c = np.nextafter(c, draw(st.sampled_from([-np.inf, np.inf])))
        return float(c)
    return edge + draw(st.sampled_from([-2.0, -0.5, 0.5, 2.0])) * TOL


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 3))
    lo = draw(st.lists(st.floats(-2.0, 1.0), min_size=dim, max_size=dim))
    width = draw(st.lists(st.sampled_from([0.0, 1e-12, 0.5, 2.0]), min_size=dim,
                          max_size=dim))
    box = Box(tuple(lo), tuple(a + w for a, w in zip(lo, width)))
    rows = [[_near(draw, draw(st.sampled_from([a, b])))
             for a, b in zip(box.lower, box.upper)] for _ in range(draw(st.integers(1, 8)))]
    return box, np.array(rows)


def _simplex_rows(draw, s, n):
    rows = []
    for _ in range(n):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=s.dim, max_size=s.dim)))
        p = s.mass * w / w.sum() if w.sum() > 0 else s.barycenter()
        j = draw(st.integers(0, s.dim - 1))
        # push the sum near mass - TOL, mass or mass + TOL, or one coordinate near 0
        p[j] += _near(draw, 0.0) if draw(st.booleans()) else -p[j] + _near(draw, 0.0)
        rows.append(p)
    return np.array(rows)


@st.composite
def simplexes(draw):
    s = Simplex(draw(st.sampled_from([1.0, 0.3, 2.5])), draw(st.integers(1, 12)))
    return s, _simplex_rows(draw, s, draw(st.integers(1, 8)))


@st.composite
def products(draw):
    parts = tuple(Simplex(draw(st.sampled_from([1.0, 0.3])), draw(st.integers(1, 4)))
                  for _ in range(draw(st.integers(1, 3))))
    n = draw(st.integers(1, 8))
    return Product(parts), np.hstack([_simplex_rows(draw, s, n) for s in parts])


def _with_nonfinite(data, P):
    """P with a drawn set of entries replaced by +inf, -inf or NaN."""
    P = P.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, P.shape[0] - 1)), data.draw(st.integers(0, P.shape[1] - 1))
        P[i, j] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return P


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from([boxes, simplexes, products]))
def test_contains_rows_is_contains_per_row(data, kind):
    domain, P = data.draw(kind())
    P = _with_nonfinite(data, P)
    with np.errstate(invalid="ignore"):  # a simplex sums inf and -inf
        got = domain.contains_rows(P)
        want = [contains_reference(domain, p) for p in P]
        assert [domain.contains_row(p) for p in P] == want
        assert [domain.contains_row(p.tolist()) for p in P] == want
    assert got.dtype == bool and got.shape == (len(P),)
    assert got.tolist() == want
    # a row narrower or wider than the domain is outside
    width = data.draw(st.integers(1, domain.dim + 2).filter(lambda w: w != domain.dim))
    W = np.hstack([P, P])[:, :width]
    assert domain.contains_rows(W).tolist() == [False] * len(W)
    assert [domain.contains_row(w.tolist()) for w in W] == [False] * len(W)


@pytest.mark.parametrize("domain", [BOX2, Simplex(1.0, 2), Product((Simplex(1.0, 2),))],
                         ids=["box", "simplex", "product"])
def test_contains_rows_of_the_wrong_width(domain):
    P = np.full((3, 3), 0.25)
    assert (domain.contains_rows(P).tolist() == [domain.contains_row(p) for p in P]
            == [contains_reference(domain, p) for p in P] == [False] * 3)


# ---------------------------------------------------------------------------
# stock batches
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).smallest_subnormal
XSININV_SPECIALS = [0.0, -0.0, _RECIPROCAL_FLOOR, -_RECIPROCAL_FLOOR,
                    float(np.nextafter(_RECIPROCAL_FLOOR, 0.0)), _TINY, -_TINY,
                    1e-310, -1e-310, 1 / math.pi, -1.0, 2.0]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.one_of(st.floats(-1.0, 2.0), st.sampled_from(XSININV_SPECIALS)),
                     min_size=1, max_size=12))
def test_xsininv_vector_batch_is_the_scalar_column(rows):
    P = np.array(rows)[:, None]
    got = vector_field("xsininv").batch(P)
    want = scalar_field("xsininv").batch(P)[:, None]
    assert got.shape == want.shape == P.shape
    assert got.tobytes() == want.tobytes()


def _masked_mexican_hat_grad(P):
    """2 (r - 1) x / r with the divide masked to r > 0 on every batch."""
    r = np.sqrt(P[:, 0] * P[:, 0] + P[:, 1] * P[:, 1])
    return P * np.divide(2.0 * (r - 1.0), r, out=np.zeros_like(r), where=r > 0)[:, None]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(st.floats(-2.0, 2.0), st.just(0.0), st.just(-0.0)),
                              min_size=2, max_size=2), min_size=1, max_size=12))
def test_mexican_hat_grad_is_the_masked_divide(rows):
    P = np.array(rows)
    got = vector_field("mexican_hat").batch(P)
    assert got.tobytes() == _masked_mexican_hat_grad(P).tobytes()


# ---------------------------------------------------------------------------
# row maps
# ---------------------------------------------------------------------------

_FLOOR_BELOW = float(np.nextafter(_RECIPROCAL_FLOOR, 0.0))
_FLOOR_ABOVE = float(np.nextafter(_RECIPROCAL_FLOOR, 1.0))
# as Python floats, which is what integrate hands a row map
ROW_SPECIALS = [float(v) for v in (
    0.0, -0.0, _RECIPROCAL_FLOOR, -_RECIPROCAL_FLOOR, _FLOOR_BELOW, -_FLOOR_BELOW, _FLOOR_ABOVE,
    -_FLOOR_ABOVE, _TINY, -_TINY, 1e-310, -1e-310, 1e-160, 1e300, -1e300, 1 / math.pi, -1.0,
    2.0)]
row_entries = st.one_of(st.floats(), st.sampled_from(ROW_SPECIALS))


def _hexes(row):
    return [float.hex(v) for v in row]


def assert_row_is_batch(F, r):
    """F.row(r) is F's one-row batch on r, bit for bit, as Python floats."""
    with np.errstate(all="ignore"):
        want = F.batch(np.array([r], float))[0].tolist()
    got = F.row(list(r))
    assert type(got) is list and all(type(v) is float for v in got), got
    # on a host whose numpy float64 sin is not libm's, xsininv fails here
    assert _hexes(got) == _hexes(want), (F.label, r)


def _with_negations(F):
    return [F, negate(F), negate(negate(F))]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(row_entries, min_size=1, max_size=6))
def test_xsininv_row_is_its_batch(rows):
    for F in _with_negations(vector_field("xsininv")):
        for t in rows:
            assert_row_is_batch(F, [t])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(st.tuples(row_entries, row_entries),
                               st.sampled_from([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                                                (-0.0, -0.0), (1e-320, -1e-320)])),
                     min_size=1, max_size=6))
def test_mexican_hat_row_is_its_batch(rows):
    for F in _with_negations(vector_field("mexican_hat")):
        for r in rows:
            assert_row_is_batch(F, list(r))


finite_entries = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(ROW_SPECIALS))


@settings(max_examples=200, deadline=None)
@given(a=finite_entries, b=finite_entries, json_form=st.booleans(),
       rows=st.lists(row_entries, min_size=1, max_size=6))
def test_one_dim_affine_row_is_its_batch(a, b, json_form, rows):
    if json_form:  # the gradient (Q + Q')/2 x + b of a 1-D JSON quadratic
        F = field_from_json({"Q": [[a]], "b": [b]})[1]
    else:
        F = affine_field([[a]], [b], Box((-1.0,), (1.0,)), "affine1")
    for G in _with_negations(F):
        for t in rows:
            assert_row_is_batch(G, [t])


def _seeded_rows(dim, n=6000):
    """n seeded rows of width dim: half uniform on [-2, 2], half of random
    sign and a log-uniform magnitude over most of the float range, where
    a last-bit slip of a one-ulp pow or divide shows within a few
    thousand rows."""
    rng = np.random.default_rng(29)
    wide = np.copysign(np.exp(rng.uniform(-700.0, 700.0, (n // 2, dim))),
                       rng.standard_normal((n // 2, dim)))
    return np.vstack([rng.uniform(-2.0, 2.0, (n - n // 2, dim)), wide]).tolist()


@pytest.mark.parametrize("build", [
    lambda: vector_field("xsininv"),
    lambda: vector_field("mexican_hat"),
    lambda: affine_field([[0.7853981633974483]], [-0.1], Box((-1.0,), (1.0,)), "affine1"),
], ids=["xsininv", "mexican_hat", "affine1"])
def test_row_maps_on_a_seeded_sweep(build):
    F = negate(build())
    for r in _seeded_rows(F.domain.dim):
        assert_row_is_batch(F, r)


@pytest.mark.parametrize("build", [
    lambda: vector_field("quadratic"),
    lambda: vector_field("cubic"),
    lambda: affine_field(np.eye(2), np.zeros(2), BOX2, "affine2"),
    lambda: quadratic_form(np.eye(3), np.zeros(3))[1],
    games.hawk_dove,
    lambda: gradient_field(scalar_field("quadratic")),
    lambda: REGIMES,
], ids=["quadratic", "cubic", "affine2", "quadratic_form3", "hawk_dove", "gradient",
        "user_batch"])
def test_other_fields_have_no_row_map(build):
    for F in _with_negations(build()):
        assert F.row is None


@pytest.mark.parametrize("name", ["xsininv", "mexican_hat", "linear"])
def test_stock_fields_have_row_maps(name):
    for F in _with_negations(vector_field(name)):
        assert F.row is not None


# ---------------------------------------------------------------------------
# the row path and the batch path
# ---------------------------------------------------------------------------


class TestRowPath:
    @staticmethod
    def _counted_paths(F):
        """F whose row map and batch count their calls."""
        calls = {"row": 0, "batch": 0}
        row, batch = F.row, F.batch

        def counted_row(r):
            calls["row"] += 1
            return row(r)

        def counted_batch(P):
            calls["batch"] += 1
            return batch(P)

        return replace(F, row=counted_row, batch=counted_batch), calls

    # (field, start, config, thresholds) of a stock flow ending each way
    ENDINGS = {
        CONVERGED: (negate(vector_field("xsininv")), [0.5], IntegratorConfig(dt=0.01),
                    {"CONVERGENCE_EPS": 1e-4}),
        STEP_UNDERFLOW: (negate(vector_field("linear")), [0.5],
                         IntegratorConfig(dt=0.01, t_max=1.0),
                         {"CONVERGENCE_EPS": 1e-12, "FLOOR_EPS": 0.3}),
        MAX_TIME: (negate(vector_field("mexican_hat")), [0.3, 0.2],
                   IntegratorConfig(dt=0.01, t_max=0.5), {}),
        LEFT_DOMAIN: (affine_field([[3.0]], [0.1], Box((-1.0,), (1.0,)), "growth"), [0.2],
                      IntegratorConfig(dt=0.01, t_max=2.0), {}),
    }

    @pytest.mark.parametrize("reason", list(ENDINGS))
    def test_a_stock_flow_runs_only_its_row_map(self, reason, monkeypatch):
        # n kept steps make 4n row calls, plus the first stage of the step
        # that stopped on a norm, or all four stages of the step that left
        F, x0, cfg, thresholds = self.ENDINGS[reason]
        patch_thresholds(monkeypatch, thresholds)
        G, calls = self._counted_paths(F)
        traj = integrate(G, x0, cfg)
        assert traj.terminated_reason == reason
        n = len(traj.times) - 1
        extra = {CONVERGED: 1, STEP_UNDERFLOW: 1, MAX_TIME: 0, LEFT_DOMAIN: 4}[reason]
        assert n > 0
        assert calls == {"row": 4 * n + extra, "batch": 0}
        assert_same(traj, *reference(F, x0, cfg))

    ROW_FAULTS = {
        "nan": lambda v, j: v[:j] + [math.nan] + v[j + 1:],
        "+inf": lambda v, j: v[:j] + [math.inf] + v[j + 1:],
        "-inf": lambda v, j: v[:j] + [-math.inf] + v[j + 1:],
        "short": lambda v, j: v[:-1],
        "wide": lambda v, j: v + v[:1],
    }
    # what the batch answers at the same stage when it fails too
    BATCH_FAULTS = {"nan": "nan", "+inf": "+inf", "-inf": "-inf", "short": "1-d", "wide": "wide"}
    ROW_FLOWS = [(negate(vector_field("xsininv")), [0.5]),
                 (negate(vector_field("mexican_hat")), [0.3, 0.2]),
                 (negate(vector_field("linear")), [-0.9]),
                 (negate(field_from_json({"Q": [[1.5]], "b": [-0.2]})[1]), [0.7])]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), flow=st.sampled_from(range(len(ROW_FLOWS))),
           fault=st.sampled_from(sorted(ROW_FAULTS)), step=st.integers(0, 10),
           stage=st.integers(0, 3), batch_fails=st.booleans())
    def test_a_faulty_row_ends_as_the_batch_path_ends(self, data, flow, fault, step,
                                                      stage, batch_fails):
        F, x0 = self.ROW_FLOWS[flow]
        at, j = 4 * step + stage, data.draw(st.integers(0, F.domain.dim - 1))
        calls = []
        row = F.row

        def faulty_row(r):
            calls.append("row")
            v = row(r)
            return self.ROW_FAULTS[fault](v, j) if calls.count("row") == at + 1 else v

        # when the batch fails at that stage too, here it is its first call,
        # and on the batch path its call number at
        batch_fault = self.BATCH_FAULTS[fault]
        batch = faulty(F, 0, batch_fault, j)[0].batch if batch_fails else F.batch

        def logged_batch(P):
            calls.append("batch")
            return batch(P)

        G = replace(F, row=faulty_row, batch=logged_batch)
        got, err = outcome(lambda: integrate(G, x0, FAULT_CFG))
        R = faulty(F, at, batch_fault, j)[0] if batch_fails else replace(F, row=None)
        want, want_err = outcome(lambda: integrate(R, x0, FAULT_CFG))
        if want_err is None:
            assert err is None, err
            assert_same(got, want.times, want.states, want.terminated_reason)
        else:
            assert type(err) is type(want_err) and str(err) == str(want_err)
        # the batch ran once, for the faulty stage, and only when it was reached
        reached = calls.count("row") > at
        assert calls.count("batch") == int(reached)
        if reached:
            assert calls[at + 1] == "batch"
        if batch_fails and reached:
            assert want_err is not None and err is not None

    @settings(max_examples=60, deadline=None)
    @given(fault=st.sampled_from(sorted(ROW_FAULTS)), step=st.integers(0, 10),
           stage=st.integers(0, 3))
    def test_a_faulty_inner_row_under_negate(self, fault, step, stage):
        # the fault sits in the row map that negate wraps: the negated
        # answer is as wide and as non-finite, so the stage hands it to
        # the batch, and the flow ends as the batch path ends
        F, x0, at = vector_field("xsininv"), [0.5], 4 * step + stage
        calls = []

        def faulty_row(r):
            calls.append("row")
            v = F.row(r)
            return self.ROW_FAULTS[fault](v, 0) if calls.count("row") == at + 1 else v

        def logged_batch(P):
            calls.append("batch")
            return F.batch(P)

        G = negate(replace(F, row=faulty_row, batch=logged_batch))
        got, err = outcome(lambda: integrate(G, x0, FAULT_CFG))
        want, want_err = outcome(lambda: integrate(replace(negate(F), row=None), x0, FAULT_CFG))
        assert err is None and want_err is None, (err, want_err)
        assert_same(got, want.times, want.states, want.terminated_reason)
        reached = calls.count("row") > at
        assert calls.count("batch") == int(reached)
        if reached:
            assert calls[at + 1] == "batch"


WIDE_BOX1 = Box((-1.7976931348623157e308,), (1.7976931348623157e308,))


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, 1e154, 1.4e154, 1e200,
                                    -1e200, 1.7976931348623157e308])))
def test_one_dim_norm_is_the_one_term_dot(a):
    # the 1-D body's norms are numpy's dot of one term: each flow stops on
    # its first evaluation exactly when that dot lies below the threshold,
    # tested at the dot itself and one ulp above it; a*a underflows below
    # |a| of about 1e-162 and overflows to inf from about 1.34e154, in both
    u = np.array([a])
    with np.errstate(all="ignore"):
        want, norm = math.sqrt(u.dot(u)), float(np.linalg.norm(u))
    assert float.hex(want) == float.hex(norm)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.5e-3)
    field_a = VectorField(batch=lambda P: np.full_like(P, a), domain=WIDE_BOX1, label="a")
    ones = VectorField(batch=np.ones_like, domain=WIDE_BOX1, label="ones")
    for b in (want, math.nextafter(want, math.inf)):
        with pytest.MonkeyPatch.context() as mp:
            # |F(x)| of field_a is |a|, and no state norm is below a floor of 0
            patch_thresholds(mp, {"CONVERGENCE_EPS": b, "FLOOR_EPS": 0.0})
            stopped = integrate(field_a, [0.5], cfg).terminated_reason
            assert (stopped == CONVERGED) == (want < b)
            # |F(x)| = 1 of ones is above 1e-6, and the state norm is |a|
            patch_thresholds(mp, {"CONVERGENCE_EPS": 1e-6, "FLOOR_EPS": b})
            stopped = integrate(ones, [a], cfg).terminated_reason
            assert (stopped == STEP_UNDERFLOW) == (want < b)


# ---------------------------------------------------------------------------
# norm tests from dim 2: a float sum of squares, numpy's dot within the margin
# ---------------------------------------------------------------------------

def _ulps(x, k):
    """x moved k ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# as Python floats, the entries and thresholds integrate tests
NORM_SPECIALS = [0.0, -0.0, float(_TINY), -float(_TINY), 1e-310, 2.2250738585072014e-308, 1e-160, -1e-160,
                 1e-6, 1e154, -1.4e154, 1e200, 1.7976931348623157e308, math.inf, -math.inf,
                 math.nan]
BOUND_SPECIALS = [1e-6, 1e-12, float(_TINY), 1e-310, 1e-160, 1e-300, 1e154, 1.4e154, 1e300,
                  1.7976931348623157e308, 0.0, -0.0, -1.0, math.inf, math.nan]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), dim=st.integers(2, 8),
       kind=st.sampled_from(["drawn", "scaled_to_the_bound", "bound_at_the_norm"]))
def test_norm_below_is_the_row_dot(data, dim, kind):
    """_norm_below(b, dim)(v) is sqrt(u.dot(u)) < b for u = np.array(v)."""
    row = st.lists(st.one_of(st.floats(), st.sampled_from(NORM_SPECIALS)),
                   min_size=dim, max_size=dim)
    if kind == "drawn":
        v, b = data.draw(row), data.draw(st.one_of(st.floats(), st.sampled_from(BOUND_SPECIALS)))
    elif kind == "scaled_to_the_bound":
        # |v| = b (1 + m u) with m across the margin and past it on both sides
        b = data.draw(st.one_of(st.floats(1e-300, 1e300), st.sampled_from(BOUND_SPECIALS[:9])))
        w = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        if not np.linalg.norm(w) > 1e-3:
            w[0] = 1.0
        m = data.draw(st.integers(-20 * (dim + 2), 20 * (dim + 2)))
        v = (w * (b * (1.0 + m * 2.0 ** -53) / np.linalg.norm(w))).tolist()
    else:
        # b within a few ulps of the dot's norm, on either side
        v = data.draw(row)
        with np.errstate(all="ignore"):
            u = np.array(v)
            b = _ulps(math.sqrt(u.dot(u)), data.draw(st.integers(-3, 3)))
    u = np.array(v, float)
    with np.errstate(all="ignore"):
        want = math.sqrt(u.dot(u)) < b
        got = dynamics._norm_below(b, dim)(v)
    assert type(got) is bool and got == want, (v, b)


def _counted_norm(monkeypatch):
    """A log of the rows dynamics._norm is asked for."""
    rows, norm = [], dynamics._norm

    def counted(v):
        rows.append(list(v))
        return norm(v)

    monkeypatch.setattr(dynamics, "_norm", counted)
    return rows


MARGIN_FLOWS = [(negate(vector_field("mexican_hat")), [0.3, 0.2]),
                FAULT_FLOWS[2],  # 3-D affine, on its batch
                (real_cost_game()[0], real_cost_game()[1][0]),  # on a simplex, 4-D
                (REGIMES, [-0.3, 0.6])]


class TestNormMargin:
    @pytest.mark.parametrize("flow", range(len(MARGIN_FLOWS)))
    @pytest.mark.parametrize("which", ["field", "state"])
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_a_norm_within_the_margin_is_numpys(self, flow, which, ulps, monkeypatch):
        # the threshold sits within two ulps of the least norm of the first
        # four states or of their fields, so the flow tests a norm in the
        # margin, which numpy's dot decides, before it can stop on any other
        F, x0 = MARGIN_FLOWS[flow]
        patch_thresholds(monkeypatch, {"CONVERGENCE_EPS": 0.0, "FLOOR_EPS": 0.0})
        first = reference(F, x0, FAULT_CFG)[1][:4]
        assert len(first) == 4
        b = _ulps(min(float(np.linalg.norm(F.value(x) if which == "field" else x))
                      for x in first), ulps)
        monkeypatch.setattr(dynamics, "CONVERGENCE_EPS" if which == "field" else "FLOOR_EPS", b)
        want = reference(F, x0, FAULT_CFG)
        rows = _counted_norm(monkeypatch)
        assert_same(integrate(F, x0, FAULT_CFG), *want)
        assert rows
        if ulps > 0:
            assert want[2] == (CONVERGED if which == "field" else STEP_UNDERFLOW)

    def test_a_stock_flow_decides_its_norms_on_floats(self, monkeypatch):
        rows = _counted_norm(monkeypatch)
        traj = integrate(negate(vector_field("mexican_hat")), [0.3, 0.2])
        assert traj.terminated_reason == CONVERGED and len(traj.times) > 1000
        assert rows == []


# ---------------------------------------------------------------------------
# trajectory.csv
# ---------------------------------------------------------------------------

def reference_csv(times, states) -> str:
    """trajectory.csv of times and states one row at a time: the header,
    then each row's time and coordinates as %.17g, joined by commas."""
    dim = states.shape[1]
    lines = ["t," + ",".join(f"x{j + 1}" for j in range(dim))]
    lines += [",".join("%.17g" % v for v in [t, *r])
              for t, r in zip(times.tolist(), states.tolist())]
    return "\n".join(lines) + "\n"


csv_entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1e-310, -1e-310,
                                         2.2250738585072014e-308, 1e300, -1e300, 0.1]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), n=st.integers(1, 30))
def test_write_csv_is_the_per_row_format(data, dim, n):
    times = np.array(data.draw(st.lists(csv_entries, min_size=n, max_size=n)))
    states = np.array(data.draw(st.lists(st.lists(csv_entries, min_size=dim, max_size=dim),
                                         min_size=n, max_size=n)))
    buf = io.StringIO()
    dynamics.Trajectory(times, states, MAX_TIME).write_csv(buf)
    assert buf.getvalue() == reference_csv(times, states)


# ---------------------------------------------------------------------------
# CLI flows against the reference loop
# ---------------------------------------------------------------------------

# the flows that the CI step "Flows step the same on the row maps as on the
# batches" runs
CI_ROW_FLOWS = [["--field", "neg:xsininv", "--candidate", "auto", "--x0", "0.5"],
                ["--field", "neg:mexican_hat", "--x0", "0.3,0.2"],
                ["--field", "neg:linear", "--x0", "0.5"],
                ["--field", "neg:xsininv", "--x0", "2.0"],
                ["--field", "neg:linear", "--x0=-0.9"],
                ["--field", "neg:mexican_hat", "--x0=-1.5,0.7"]]
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
BENCH_FLOWS = 11


@pytest.fixture(scope="module")
def bench_flow_argvs(tmp_path_factory):
    """The argvs of the casestudy benchmark's flow ops at its default seed."""
    if not os.path.isfile(os.path.join(PERFBENCH, "workloads.py")):
        pytest.skip("no perfbench/ next to the tests")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        run, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    inputs = str(tmp_path_factory.mktemp("casestudy"))
    workloads.write_inputs("casestudy", run.DEFAULT_SEED, inputs)
    return [op["argv"] for op in workloads.read_ops(inputs) if op["argv"][0] == "flow"]


def assert_cli_flow_is_the_reference(argv, out_dir, capsys):
    """The trajectory.csv that cli.main writes for a flow argv is the
    reference loop's, formatted one row at a time."""
    assert cli.main(["--json", "--out-dir", str(out_dir), *argv]) == 0
    capsys.readouterr()
    args = cli.build_parser().parse_args(argv)
    F = cli._resolve(args.field, "vector")[0]
    times, states, _ = reference(F, args.x0, IntegratorConfig(dt=args.dt, t_max=args.tmax))
    with open(out_dir / "trajectory.csv") as fh:
        got = fh.read().split("\n")
    want = reference_csv(times, states).split("\n")
    # the first line that differs, not a diff of two megabytes of text
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None and len(got) == len(want), (argv, bad, len(got), len(want))


class TestCliFlowsAreTheReference:
    @pytest.mark.parametrize("argv", CI_ROW_FLOWS, ids=[" ".join(a) for a in CI_ROW_FLOWS])
    def test_ci_row_path_flows(self, argv, tmp_path, capsys):
        assert_cli_flow_is_the_reference(["flow", *argv], tmp_path, capsys)

    def test_the_benchmark_has_its_flows(self, bench_flow_argvs):
        assert len(bench_flow_argvs) == BENCH_FLOWS

    @pytest.mark.parametrize("i", range(BENCH_FLOWS))
    def test_benchmark_flows(self, i, bench_flow_argvs, tmp_path, capsys):
        assert_cli_flow_is_the_reference(bench_flow_argvs[i], tmp_path, capsys)
