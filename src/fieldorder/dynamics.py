"""Flows x' = F(x), Lyapunov integrals, and setwise stability certificates.

Integration is classical fixed-step RK4: the fields are cheap and exact
reproducibility matters more than adaptivity here.  integrate is the one
step loop: it steps one state, evaluates each stage through
fields.row_values (which raises what F.values raises), and
check_setwise_stability calls it once per start.  A one-row step is mostly
interpreter overhead, so the state is Python floats, and the stages step
it coordinate by coordinate in numpy's left-to-right order: IEEE + and *
round the same in CPython as in numpy, so the bytes are those of the array
arithmetic.  The body is chosen by the dimension alone: at dim 1 it steps
one float, and a norm is sqrt(a*a), numpy's dot of one term; from dim 2 it
steps a list, and a norm test is decided on the float sum of squares,
which lies within a proven rounding margin of numpy's dot (it may fuse
multiply and add, or sum in another order), so only a norm within that
margin of its threshold runs the dot itself.  A field with a row map (the
stock x sin(1/x) and mexican-hat fields, every 1-D affine map, and their
negations) steps on that map; any other field runs its batch on the one
row.  A flow stops when the field norm drops below CONVERGENCE_EPS, else
when the state norm falls under FLOOR_EPS (the non-Lipschitz pocket
around an oscillatory origin, surfaced rather than hidden), else when the
next state would leave the domain (its contains_row); a flow still
running when time runs out stops with MaxTime.  A flow whose states and
times could exceed a fixed byte cap is refused before it starts.

For a one-dimensional field f, the potential L(x) is the integral of f
from a reference point; along trajectories of x' = -f(x), dL/dt = -f(x)^2
<= 0 on true solutions.  check_setwise_stability checks that L never rises
by more than LYAPUNOV_SLACK between consecutive trajectory samples, each
increment by two-panel Simpson over its step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError
from .fields import SampleSet, ScalarField, VectorField, require_in_domain, row_values

MAX_TIME = "MaxTime"
CONVERGED = "Converged"
LEFT_DOMAIN = "LeftDomain"
STEP_UNDERFLOW = "StepUnderflow"

# a flow converges once |F(x)| falls below this, and a trial converges when
# it also ends this close to a candidate point
CONVERGENCE_EPS = 1e-6
# a flow whose state norm falls below this stops with StepUnderflow
FLOOR_EPS = 1e-12
# cap on the bytes of states and times one flow may hold, counted before it
# starts: a default flow holds a few megabytes
_MAX_TRAJECTORY_BYTES = 1 << 29
# largest rise of the potential between trajectory samples that still
# counts as nonincreasing
LYAPUNOV_SLACK = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_max: float = 200.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.dt, self.t_max)):
            raise ValueError("all integrator parameters must be finite and positive")
        if self.dt >= self.t_max:
            raise ValueError("dt must be smaller than t_max")

    def to_dict(self) -> dict:
        return {"method": "rk4", "dt": self.dt, "t_max": self.t_max,
                "convergence_eps": CONVERGENCE_EPS, "floor_eps": FLOOR_EPS}


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    terminated_reason: str

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def write_csv(self, fh) -> None:
        """A header, then one "t,x1,..." line per state, each entry %.17g,
        all rows formatted by one % operation."""
        n, dim = self.states.shape
        line = ",".join(["%.17g"] * (dim + 1)) + "\n"
        flat = np.column_stack([self.times, self.states]).ravel().tolist()
        fh.write("t," + ",".join(f"x{j + 1}" for j in range(dim)) + "\n")
        fh.write((line * n) % tuple(flat))


def _norm(v: list) -> float:
    """|v| as sqrt(v.dot(v)) of the ndarray row, which is np.linalg.norm's."""
    u = np.array(v)
    return math.sqrt(u.dot(u))


# the unit roundoff and the least subnormal of float64
_U = 2.0 ** -53
_TINY = 2.0 ** -1074


def _norm_below(b: float, dim: int) -> Callable[[list], bool]:
    """The test _norm(v) < b on rows v of dim floats, decided on q, the
    float sum of the squares of v: True where q < lo, False where
    hi < q < inf, and _norm decides a q in between or a q that is not
    finite, so every answer is numpy's.

    Let s be the exact sum of squares, E = dim * 2**-1074 and
    g = dim*u / (1 - dim*u), with u = 2**-53.  Each rounding of a product,
    a sum or a fused multiply-add is z(1 + d) + e with |d| <= u, and
    |e| <= 2**-1075 only where an inexact result is subnormal (a subnormal
    sum is exact).  A square passes through at most dim roundings on its
    way into any summation tree, and at most dim of them are products or
    fused, so q, numpy's dot p, and any other order, with FMA or without,
    lie within g*s + E of s (Higham's relative bound, plus one underflow
    term per square).  sqrt is correctly rounded and monotone, so for a
    normal b, p <= b*b*(1 - 4u) gives sqrt(p) <= b*(1 - 2u) <= pred(b),
    numpy's True, and p >= b*b gives sqrt(p) >= b, numpy's False.  With
    c = 8*(dim + 2)*u and lo = b*b*(1 - c) - 4E, hi = b*b*(1 + c) + 4E as
    rounded here, q < lo gives p <= (q + E)(1 + g)/(1 - g) + E
    <= b*b*(1 - 4u), and hi < q < inf gives p >= (q - E)(1 - g)/(1 + g)
    - E >= b*b: c covers 2g + 4u and the three roundings of each bound,
    and 4E the underflow of b*b and of the bounds (below about 2**-537,
    which takes in every subnormal b, b*b is 0, so lo < 0 and no row is
    True on q).  A finite hi keeps
    every sum below it from overflowing.  A b that is not positive and
    finite, or an hi that is not finite, leaves every row to _norm.
    """
    inf = math.inf
    lo, hi, c = -1.0, inf, 8 * (dim + 2) * _U
    if 0.0 < b < inf and c < 2.0 ** -20:
        t, pad = b * b, 4 * dim * _TINY
        if t * (1.0 + c) + pad < inf:
            lo, hi = t * (1.0 - c) - pad, t * (1.0 + c) + pad

    def below(v: list) -> bool:
        q = 0.0
        for vi in v:
            q += vi * vi
        if q < lo:
            return True
        if hi < q < inf:
            return False
        return _norm(v) < b

    return below


def integrate(F: VectorField, x0, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Fixed-step RK4 flow of x' = F(x) starting at x0, fully deterministic.

    Each stage maps the state through row_values, F's row map or else its
    batch once on the one row, and raises what F.values would raise.  The
    stage inputs x + dt/2 k1, x + dt/2 k2, x + dt k3 and the next state
    x + dt/6 (k1 + 2 k2 + 2 k3 + k4) are formed coordinate by coordinate,
    each as numpy would round it; a state that overflows is inf or NaN,
    with no warning, and leaves the domain.  At dim 1 the state is one
    float x, a stage is stage([x])[0], and each norm is sqrt(a*a), which
    is numpy's dot of one term.  From dim 2 the state is a list of floats,
    and each norm test is _norm_below's: decided on the float sum of
    squares, with _norm (sqrt(v.dot(v)) of an ndarray row) deciding only
    the rows within a rounding margin of the threshold, so every test
    answers as np.linalg.norm of the row would.  The flow stops at the
    first of Converged, StepUnderflow and LeftDomain that holds, tested in
    that order; a flow still running after t_max stops with MaxTime.  The
    states go into one array of doubles, which becomes the trajectory's
    states without a copy.  A flow whose states and times would exceed
    the byte cap is refused before F is evaluated.
    """
    cfg = cfg or IntegratorConfig()
    p = require_in_domain(F.domain, x0)
    dt, dim = cfg.dt, p.size
    span = cfg.t_max / dt + 1e-9
    n_steps = int(math.floor(min(span, _MAX_TRAJECTORY_BYTES)))
    if (n_steps + 1) * (dim + 1) * 8 > _MAX_TRAJECTORY_BYTES:
        raise ValueError(f"a flow of {span:.6g} steps would hold more than the cap of "
                         f"{_MAX_TRAJECTORY_BYTES} bytes of states and times; "
                         "use a larger dt or a smaller t_max")
    states = array("d", p.tolist())
    stage, inside = row_values(F), F.domain.contains_row
    eps, floor = CONVERGENCE_EPS, FLOOR_EPS
    half, sixth, sqrt = 0.5 * dt, dt / 6.0, math.sqrt
    reason = MAX_TIME
    if dim == 1:
        x, append = states[0], states.append
        for _ in range(n_steps):
            a = stage([x])[0]
            if sqrt(a * a) < eps:
                reason = CONVERGED
                break
            if sqrt(x * x) < floor:
                reason = STEP_UNDERFLOW
                break
            b = stage([x + half * a])[0]
            c = stage([x + half * b])[0]
            d = stage([x + dt * c])[0]
            x = x + sixth * (a + 2.0 * b + 2.0 * c + d)
            if not inside([x]):
                reason = LEFT_DOMAIN
                break
            append(x)
    else:
        xs, extend = p.tolist(), states.extend
        converged, underflow = _norm_below(eps, dim), _norm_below(floor, dim)
        for _ in range(n_steps):
            a = stage(xs)
            if converged(a):
                reason = CONVERGED
                break
            if underflow(xs):
                reason = STEP_UNDERFLOW
                break
            b = stage([xi + half * ai for xi, ai in zip(xs, a)])
            c = stage([xi + half * bi for xi, bi in zip(xs, b)])
            d = stage([xi + dt * ci for xi, ci in zip(xs, c)])
            xs = [xi + sixth * (ai + 2.0 * bi + 2.0 * ci + di)
                  for xi, ai, bi, ci, di in zip(xs, a, b, c, d)]
            if not inside(xs):
                reason = LEFT_DOMAIN
                break
            extend(xs)
    end = len(states) // dim
    return Trajectory(np.arange(end) * dt, np.frombuffer(states).reshape(end, dim), reason)


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

    The candidate set, the potential's dimension (F's) and every start are
    checked before integrate runs once per start.  When F and its
    potential are 1-D, the report also states whether the potential never
    increased by more than LYAPUNOV_SLACK between consecutive trajectory
    samples.
    """
    cfg = cfg or IntegratorConfig()
    C = np.atleast_2d(np.asarray(candidate, float))
    if C.size == 0:
        raise ValueError("candidate set is empty")
    if C.ndim != 2 or C.shape[1] != F.domain.dim:
        raise DimensionMismatchError(f"candidate points must be rows of dimension {F.domain.dim}")
    if not np.all(np.isfinite(C)):
        raise ValueError("candidate points must be finite")
    if potential is not None and potential.domain.dim != F.domain.dim:
        raise DimensionMismatchError(f"potential {potential.label} is on dimension "
                                     f"{potential.domain.dim}, not {F.domain.dim}")
    if len(initial_conditions) == 0:
        raise ValueError("no initial conditions given")
    starts = [require_in_domain(F.domain, x0) for x0 in initial_conditions]
    trials = []
    trajectories = []
    monotone: bool | None = None
    max_increase = 0.0
    if potential is not None and potential.domain.dim == 1:
        monotone = True
    for x0 in starts:
        traj = integrate(F, x0, cfg)
        trajectories.append(traj)
        dists = np.linalg.norm(traj.final_state[None, :] - C, axis=1)
        j = int(np.argmin(dists))
        final_distance = float(dists[j])
        converged = traj.terminated_reason == CONVERGED and final_distance <= CONVERGENCE_EPS
        if monotone is not None and traj.states.shape[0] > 1:
            inc = float(_segment_increments(potential, traj.states).max())
            max_increase = max(max_increase, inc)
            monotone = monotone and inc <= LYAPUNOV_SLACK
        trials.append(TrialRecord(
            x0=tuple(x0.tolist()), final_distance=final_distance,
            limit_point=tuple(C[j].tolist()) if converged else None, converged=converged,
            terminated_reason=traj.terminated_reason, final_time=traj.final_time))
    return SetStabilityReport(tuple(map(tuple, C.tolist())), tuple(trials),
                              monotone, max_increase, tuple(trajectories))
