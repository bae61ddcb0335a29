"""Flows x' = F(x), Lyapunov integrals, and setwise stability certificates.

Integration is classical fixed-step RK4: the fields are cheap and exact
reproducibility matters more than adaptivity here.  One kernel steps an
(n, dim) array of states, one validated F.values call per stage on the rows
still live; integrate is its one-row case and check_setwise_stability runs
all its starts in one call.  A row stops when the field norm drops below
the convergence threshold, else when the state norm falls under the floor
(the non-Lipschitz pocket around an oscillatory origin, surfaced rather
than hidden), else when the next state would leave the domain; rows left
when time runs out stop with MaxTime.  Each norm is sqrt(row.dot(row)) of
its own row, never a batched reduction.  Every field in the package
evaluates a row independently of its batch, so a row flows bit for bit the
same in a batch as alone.  Starts whose states and times could exceed a
fixed byte cap run in groups under it; a single start over the cap is
refused before it starts.

For a one-dimensional field f, the potential L(x) is the integral of f
from a reference point; along trajectories of x' = -f(x), dL/dt = -f(x)^2
<= 0 on true solutions.  check_setwise_stability checks that L never rises
by more than LYAPUNOV_SLACK between consecutive trajectory samples, each
increment by two-panel Simpson over its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .fields import SampleSet, ScalarField, VectorField, as_point, require_in_domain

MAX_TIME = "MaxTime"
CONVERGED = "Converged"
LEFT_DOMAIN = "LeftDomain"
STEP_UNDERFLOW = "StepUnderflow"

# cap on the bytes of states and times one kernel call may hold, counted
# before it starts: a default flow of one start holds a few megabytes
_MAX_TRAJECTORY_BYTES = 1 << 29
# largest rise of the potential between trajectory samples that still
# counts as nonincreasing
LYAPUNOV_SLACK = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_max: float = 200.0
    convergence_eps: float = 1e-6
    floor_eps: float = 1e-12

    def __post_init__(self):
        params = (self.dt, self.t_max, self.convergence_eps, self.floor_eps)
        if not all(math.isfinite(v) and v > 0 for v in params):
            raise ValueError("all integrator parameters must be finite and positive")
        if self.dt >= self.t_max:
            raise ValueError("dt must be smaller than t_max")

    def to_dict(self) -> dict:
        return {"method": "rk4", "dt": self.dt, "t_max": self.t_max,
                "convergence_eps": self.convergence_eps, "floor_eps": self.floor_eps}


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    terminated_reason: str
    config: IntegratorConfig

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def write_csv(self, fh) -> None:
        dim = self.states.shape[1]
        fh.write("t," + ",".join(f"x{j + 1}" for j in range(dim)) + "\n")
        line = ",".join(["%.17g"] * (dim + 1)) + "\n"
        fh.write("".join([line % tuple(r)
                          for r in np.column_stack([self.times, self.states]).tolist()]))


def _rk4(F: VectorField, starts: np.ndarray, cfg: IntegratorConfig) -> tuple[Trajectory, ...]:
    """Fixed-step RK4 flows of x' = F(x) from every row of starts, run side by side.

    Each stage evaluates all live rows in one F.values call.  A row stops at
    the first of Converged, StepUnderflow and LeftDomain that holds, tested
    in that order; a row still live after t_max stops with MaxTime.  Each
    norm is sqrt(row.dot(row)), what np.linalg.norm computes on one row: a
    batched reduction can differ in the last bit and move a stop by a step.
    Where F evaluates each row independently of the others in its batch,
    as every field in the package does, each row's trajectory is bit for
    bit the one it has when integrated alone.

    Starts whose states and times would together exceed the byte cap run
    in groups that fit it; a single start over the cap is refused.
    """
    n, dim = starts.shape
    dt = cfg.dt
    span = cfg.t_max / dt + 1e-9
    n_steps = int(math.floor(min(span, _MAX_TRAJECTORY_BYTES)))
    row_bytes = (n_steps + 1) * (dim + 1) * 8
    if row_bytes > _MAX_TRAJECTORY_BYTES:
        raise ValueError(f"a flow of {span:.6g} steps would hold more than the cap of "
                         f"{_MAX_TRAJECTORY_BYTES} bytes of states and times; "
                         "use a larger dt or a smaller t_max")
    group = _MAX_TRAJECTORY_BYTES // row_bytes
    if n > group:
        return sum((_rk4(F, starts[i:i + group], cfg) for i in range(0, n, group)), ())
    buf = np.empty((n_steps + 1, n, dim))
    buf[0] = starts
    ends = [n_steps + 1] * n
    reasons = [MAX_TIME] * n
    rows = np.arange(n)
    x = buf[0]
    values, inside = F.values, F.domain.contains_rows
    eps, floor = cfg.convergence_eps, cfg.floor_eps
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(n_steps):
        k1 = values(x)
        keep = None
        for i, (v, p) in enumerate(zip(k1, x)):
            if math.sqrt(v.dot(v)) < eps:
                reasons[rows[i]] = CONVERGED
            elif math.sqrt(p.dot(p)) < floor:
                reasons[rows[i]] = STEP_UNDERFLOW
            else:
                continue
            ends[rows[i]] = k + 1
            if keep is None:
                keep = np.ones(len(rows), bool)
            keep[i] = False
        if keep is not None:
            rows, x, k1 = rows[keep], x[keep], k1[keep]
            if not len(rows):
                break
        k2 = values(x + half * k1)
        k3 = values(x + half * k2)
        k4 = values(x + dt * k3)
        nxt = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok = inside(nxt)
        if not ok.all():
            for r in rows[~ok]:
                reasons[r] = LEFT_DOMAIN
                ends[r] = k + 1
            rows, nxt = rows[ok], nxt[ok]
            if not len(rows):
                break
        if len(rows) == n:
            buf[k + 1] = nxt
        else:
            buf[k + 1, rows] = nxt
        x = nxt
    return tuple(Trajectory(np.arange(m) * dt, buf[:m, i].copy(), reasons[i], cfg)
                 for i, m in enumerate(ends))


def integrate(F: VectorField, x0, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Fixed-step RK4 flow of x' = F(x) starting at x0, fully deterministic.

    The one-row case of the kernel that check_setwise_stability runs on all
    its starts at once.
    """
    return _rk4(F, require_in_domain(F.domain, x0)[None, :], cfg or IntegratorConfig())[0]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _segment_increments(f: ScalarField, states: np.ndarray) -> np.ndarray:
    """L increments between consecutive 1-D samples via two-panel Simpson.

    Steps are tiny (|dx| <= dt * max|f|), where the rule is far more accurate
    than the LYAPUNOV_SLACK it feeds.
    """
    x = states[:, 0]
    a, b = x[:-1], x[1:]
    offsets = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    nodes = a[:, None] + (b - a)[:, None] * offsets[None, :]
    vals = f.values(nodes.reshape(-1, 1)).reshape(nodes.shape)
    weights = np.array([1.0, 4.0, 2.0, 4.0, 1.0]) / 12.0
    return (b - a) * (vals @ weights)


# ---------------------------------------------------------------------------
# Setwise stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    x0: tuple[float, ...]
    final_distance: float
    limit_point: tuple[float, ...] | None
    converged: bool
    terminated_reason: str
    final_time: float

    def to_dict(self) -> dict:
        return {"x0": list(self.x0), "final_distance": self.final_distance,
                "limit_point": list(self.limit_point) if self.limit_point else None,
                "converged": self.converged, "terminated_reason": self.terminated_reason,
                "final_time": self.final_time}


@dataclass(frozen=True)
class SetStabilityReport:
    candidate_set: tuple[tuple[float, ...], ...]
    trials: tuple[TrialRecord, ...]
    lyapunov_monotone: bool | None
    max_lyapunov_increase: float
    # one per trial, for callers that also export the paths; not serialized
    trajectories: tuple[Trajectory, ...] = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"candidate_set": [list(p) for p in self.candidate_set],
                "trials": [t.to_dict() for t in self.trials],
                "lyapunov_monotone": self.lyapunov_monotone,
                "max_lyapunov_increase": self.max_lyapunov_increase}


def check_setwise_stability(F: VectorField, candidate, initial_conditions: SampleSet,
                            cfg: IntegratorConfig | None = None,
                            potential: ScalarField | None = None) -> SetStabilityReport:
    """Integrate from each start and certify convergence into the candidate set.

    When a 1-D potential is supplied, the report also states whether its
    value never increased by more than LYAPUNOV_SLACK between consecutive
    trajectory samples.
    """
    cfg = cfg or IntegratorConfig()
    C = np.atleast_2d(np.asarray(candidate, float))
    if C.size == 0:
        raise ValueError("candidate set is empty")
    if C.ndim != 2 or C.shape[1] != F.domain.dim:
        raise DimensionMismatchError(f"candidate points must be rows of dimension {F.domain.dim}")
    if not np.all(np.isfinite(C)):
        raise ValueError("candidate points must be finite")
    if len(initial_conditions) == 0:
        raise ValueError("no initial conditions given")
    trials = []
    trajectories = []
    monotone: bool | None = None
    max_increase = 0.0
    if potential is not None and potential.domain.dim == 1:
        monotone = True
    starts = np.array([require_in_domain(F.domain, x0) for x0 in initial_conditions])
    for x0, traj in zip(initial_conditions, _rk4(F, starts, cfg)):
        trajectories.append(traj)
        dists = np.linalg.norm(traj.final_state[None, :] - C, axis=1)
        j = int(np.argmin(dists))
        final_distance = float(dists[j])
        converged = traj.terminated_reason == CONVERGED and final_distance <= cfg.convergence_eps
        if monotone is not None and traj.states.shape[0] > 1:
            inc = float(_segment_increments(potential, traj.states).max())
            max_increase = max(max_increase, inc)
            monotone = monotone and inc <= LYAPUNOV_SLACK
        trials.append(TrialRecord(
            x0=tuple(as_point(x0)), final_distance=final_distance,
            limit_point=tuple(C[j]) if converged else None, converged=converged,
            terminated_reason=traj.terminated_reason, final_time=traj.final_time))
    return SetStabilityReport(tuple(tuple(r) for r in C), tuple(trials),
                              monotone, max_increase, tuple(trajectories))
