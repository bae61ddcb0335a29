"""Point and set classification against the solution-concept hierarchy.

Global concepts sweep a challenger SampleSet (is anything strictly better
than p anywhere?), local concepts sweep a deterministic sample of the ball
around p intersected with the domain.  Every verdict is a certificate
relative to the probe sets and the tolerance configuration, both of which
are echoed in the report.

There is one function per check; one that applies to both kinds of field
takes either.  The order checks (minimal_and_maximal,
is_local_min_polyorder) read the relations of one uniform-grid screen of
their probes against p (dominance.batch_relations, with the field's
witness eps folded in) and run no comparison; every other check is one
per-sample statistic, which one rule (_decide) turns into an outcome.
classify_point runs that screen once, over the challengers and the ball
together, and reads all three order checks off it.  Every check that
takes a probe set refuses one that is empty, of the wrong width or
outside the domain.

The inclusion chains that must hold on shared probe sets (ess implies nss
and minimal, minimal implies critical, local minimum implies critical,
strict local minimum implies scalar minimality) are asserted by
classify_point; a breach raises InvariantBreachError.  Where the critical
check fails but the minimal or the local-minimum check passed, the points
that improve on p may lie closer to p than any sample; classify_point
then adds the halving ladder from p toward the critical witness to its
probes and decides again before it asserts the chains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dominance import (EQUIVALENT, REVERSE_STRICT, REVERSE_WEAK, STRICTLY_DOMINATES,
                        ToleranceConfig, batch_relations, compare_scalar, compare_vector)
from .errors import DimensionMismatchError, DomainViolationError, InvariantBreachError
from .fields import (_MAX_GRID_POINTS, Box, Domain, Grid, Product, SampleSet, ScalarField,
                     SeededRandom, Simplex, VectorField, require_in_domain, sample_domain)

# ball samples span this many decades of radii so that violations living at
# small scales are probed without drowning in sub-tau hairline comparisons
_RADIUS_DECADES = 2.5
# seeded samples of every neighborhood ball
_BALL_COUNT = 512
# cap on the bytes of the pairwise difference arrays of a set check,
# counted before the check starts
_MAX_SET_BYTES = 1 << 29
# rungs of the halving ladder toward a critical witness: one per bit of a
# double's fraction
_LADDER_RUNGS = 52


@dataclass(frozen=True)
class CheckOutcome:
    """Boolean verdict plus the probe that decided it: witness is the
    failing sample, None when the check passed."""

    ok: bool
    witness: tuple[float, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Probe-set construction
# ---------------------------------------------------------------------------

def _tangentize(domain: Domain, dirs: np.ndarray) -> np.ndarray:
    """Project directions onto the mass-preserving tangent space of simplex parts."""
    if isinstance(domain, (Simplex, Product)):
        parts = domain.parts if isinstance(domain, Product) else (domain,)
        k = 0
        for s in parts:
            block = dirs[:, k:k + s.dim]
            dirs[:, k:k + s.dim] = block - block.mean(axis=1, keepdims=True)
            k += s.dim
    return dirs


def _feasible_steps(domain: Domain, center: np.ndarray, steps: np.ndarray) -> np.ndarray:
    if isinstance(domain, Box):
        return domain.clip(center[None, :] + steps)
    # shrink each step so no coordinate goes negative (mass is preserved by
    # construction); shrinking stays inside the ball
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(steps < 0, center[None, :] / np.maximum(-steps, 1e-300), np.inf)
    scale = np.clip(ratio.min(axis=1), 0.0, 1.0)
    return center[None, :] + steps * scale[:, None]


def _axis_probes(domain: Domain, center: np.ndarray, radius: float) -> np.ndarray:
    dim = center.size
    dirs = np.vstack([np.eye(dim), -np.eye(dim)])
    dirs = _tangentize(domain, dirs.copy())
    norms = np.linalg.norm(dirs, axis=1)
    good = norms > 1e-12
    dirs = dirs[good] / norms[good][:, None]
    return _feasible_steps(domain, center, dirs * radius)


def require_radius(radius: float) -> None:
    """Raise ValueError unless a ball radius is finite and positive."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")


def sample_neighborhood(domain: Domain, center, radius: float, count: int = _BALL_COUNT,
                        seed: int = 0) -> SampleSet:
    """Deterministic sample of ball(center, radius) intersected with the domain.

    Radii are log-spread over a few decades below `radius` and directions are
    seeded; for simplex domains directions live in the mass-preserving
    tangent space.  Axis (resp. tangent-basis) probes at full radius are
    always included.  The center itself is excluded.
    """
    center = require_in_domain(domain, center)
    require_radius(radius)
    if not 1 <= count <= _MAX_GRID_POINTS:
        raise ValueError(f"count must lie in [1, {_MAX_GRID_POINTS}]")
    rng = np.random.default_rng(seed)
    dirs = _tangentize(domain, rng.normal(size=(count, center.size)))
    norms = np.linalg.norm(dirs, axis=1)
    good = norms > 1e-12
    dirs = dirs[good] / norms[good][:, None]
    radii = radius * 10.0 ** (-_RADIUS_DECADES * rng.random(dirs.shape[0]))
    pts = _feasible_steps(domain, center, dirs * radii[:, None])
    pts = np.vstack([pts, _axis_probes(domain, center, radius)])
    pts = pts[np.linalg.norm(pts - center, axis=1) > 0]
    if pts.shape[0] == 0:
        raise ValueError("no neighborhood samples inside the domain ball")
    return SampleSet(pts, strategy=f"ball(radius={radius:g}, count={count})")


def default_challengers(domain: Domain, seed: int = 42, grid_n: int = 2048,
                        random_n: int = 4096) -> SampleSet:
    """Default global challenger set: 1-D grid, otherwise seeded points + extremes.

    A box's 2^dim corners are counted before they are built and must not
    exceed the grid cap (so dim <= 20).
    """
    if isinstance(domain, Box):
        if domain.dim == 1:
            return sample_domain(domain, Grid(grid_n), seed)
        if 2 ** domain.dim > _MAX_GRID_POINTS:
            raise ValueError(f"a {domain.dim}-dim box has more than {_MAX_GRID_POINTS} "
                             "corners to challenge with")
        base = sample_domain(domain, SeededRandom(random_n), seed)
        corners = np.array(list(itertools.product(*zip(domain.lower, domain.upper))), float)
        return base.union(corners, note="corners")
    return sample_domain(domain, SeededRandom(random_n), seed)


# ---------------------------------------------------------------------------
# Critical elements and dominance-order extremes
# ---------------------------------------------------------------------------

def _probe_points(field, samples: SampleSet,
                 empty: str = "no samples in the neighborhood ball") -> np.ndarray:
    """The points of a caller's probe set: ValueError(empty) when there are
    none, DimensionMismatchError when they are not as wide as the field's
    domain and DomainViolationError naming the first row outside it."""
    X = samples.points
    if len(X) == 0:
        raise ValueError(empty)
    domain = field.domain
    if X.shape[1] != domain.dim:
        raise DimensionMismatchError(f"probe points have {X.shape[1]} coordinates, but field "
                                     f"{field.label} takes {domain.dim}")
    outside = np.flatnonzero(~domain.contains_rows(X))
    if outside.size:
        raise DomainViolationError(f"probe point {X[outside[0]].tolist()} outside domain "
                                   f"{domain} of field {field.label}")
    return X


def _decide(stats: np.ndarray, X: np.ndarray, passes, pick=np.argmax) -> CheckOutcome:
    """The outcome of a per-sample check: the sample pick(stats) selects
    decides, and it is the witness when passes(its stat) is false."""
    k = int(pick(stats))
    if passes(float(stats[k])):
        return CheckOutcome(True)
    return CheckOutcome(False, witness=tuple(X[k]))


def is_critical_element(c: VectorField, p, challengers: SampleSet,
                        cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Whether no challenger direction strictly improves on p at p itself:
    (x - p) . c(p) >= -tau for every challenger x."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    X = _probe_points(c, challengers, "challenger set is empty")
    stats = (X - p) @ c.value(p)
    return _decide(stats, X, lambda s: s >= -cfg.tau, np.argmin)


def _first_failure(X: np.ndarray, bad: np.ndarray) -> CheckOutcome:
    """A failed outcome whose witness is the lexicographically smallest row
    of X that bad flags, or a passed one when bad flags none."""
    rows = np.flatnonzero(bad)
    if rows.size == 0:
        return CheckOutcome(True)
    return CheckOutcome(False, witness=tuple(X[rows[np.lexsort(X[rows].T[::-1])[0]]]))


def _not_weakly_dominated(relations: np.ndarray) -> np.ndarray:
    """The screen rows (x, p) whose x p does not weakly dominate: all but
    ReverseStrict, ReverseWeak and Equivalent."""
    return ~np.isin(relations, (REVERSE_STRICT, REVERSE_WEAK, EQUIVALENT))


def minimal_and_maximal(field, p, challengers: SampleSet,
                        cfg: ToleranceConfig | None = None) -> tuple[CheckOutcome, CheckOutcome]:
    """(minimal, maximal) outcomes of p against the challengers, from one screen.

    p is minimal when no challenger row (x, p) is StrictlyDominates and
    maximal when none is ReverseStrict (exactly minimality under -field).
    The witness of a failed check is its lex-smallest dominator (resp.
    dominated challenger).
    """
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    X = _probe_points(field, challengers, "challenger set is empty")
    relations = batch_relations(field, X, p, cfg)
    return (_first_failure(X, relations == STRICTLY_DOMINATES),
            _first_failure(X, relations == REVERSE_STRICT))


# ---------------------------------------------------------------------------
# Neighborhood (local) concepts
# ---------------------------------------------------------------------------

def _off_point(X: np.ndarray, p: np.ndarray, tau: float) -> np.ndarray:
    """The samples farther than tau from p."""
    off = np.linalg.norm(X - p, axis=1) > tau
    if not off.any():
        raise ValueError("all neighborhood samples coincide with the point")
    return X[off]


def is_nss(c: VectorField, p, neighborhood_samples: SampleSet,
           cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Neutral stability: p . c(x) <= x . c(x) + tau on the sampled ball."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    X = _probe_points(c, neighborhood_samples)
    stats = np.einsum("kd,kd->k", p[None, :] - X, c.values(X))
    return _decide(stats, X, lambda s: s <= cfg.tau)


def is_ess(c: VectorField, p, neighborhood_samples: SampleSet,
           cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Evolutionary stability: p . c(x) < x . c(x) - tau for sampled x != p."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    X = _off_point(_probe_points(c, neighborhood_samples), p, cfg.tau)
    stats = np.einsum("kd,kd->k", p[None, :] - X, c.values(X))
    return _decide(stats, X, lambda s: s < -cfg.tau)


def is_local_min_polyorder(field, p, neighborhood_samples: SampleSet,
                           cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Whether p weakly dominates every sampled neighbor along its segment.

    p weakly dominates x exactly when the screen row (x, p) is
    ReverseStrict, ReverseWeak or Equivalent (README "Notes on semantics"
    ties this to a sweep of the rows (p, x)); the lex-smallest neighbor it
    does not is the witness.
    """
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    X = _probe_points(field, neighborhood_samples)
    return _first_failure(X, _not_weakly_dominated(batch_relations(field, X, p, cfg)))


def is_strict_local_min_scalar(f: ScalarField, p, neighborhood_samples: SampleSet,
                               cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """f(p) < f(x) - tau for every sampled x != p."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(f.domain, p)
    X = _off_point(_probe_points(f, neighborhood_samples), p, cfg.tau)
    stats = f.values(X) - f.value(p)
    return _decide(stats, X, lambda s: s > cfg.tau, np.argmin)


# ---------------------------------------------------------------------------
# Set-valued concepts
# ---------------------------------------------------------------------------

def _candidate_matrix(candidate) -> np.ndarray:
    C = np.atleast_2d(np.asarray(candidate, float))
    if C.size == 0:
        raise ValueError("candidate set is empty")
    return C


def _require_set_size(m: int, dim: int) -> None:
    """Raise ValueError when a set check of m candidates in dim dimensions
    would hold a pairwise difference array over _MAX_SET_BYTES: the
    (m, m, dim) one of the set tolerance or the (ball, m, dim) one of a
    member's neighborhood ball, whose samples are at most _BALL_COUNT plus
    2 dim axis probes."""
    rows = max(m, _BALL_COUNT + 2 * dim)
    if rows * m * dim * 8 > _MAX_SET_BYTES:
        raise ValueError(f"a set check of {m} candidates in {dim} dimensions would hold "
                         f"more than {_MAX_SET_BYTES} bytes of pairwise differences")


def _set_tolerance(C: np.ndarray, cfg: ToleranceConfig) -> float:
    """Distance below which a sample counts as lying on the candidate set.

    A finite discretization cannot certify strict inequalities for points
    closer to the true set than its own mesh, so tau is widened to half the
    largest nearest-neighbor gap (plus sqrt(tau) to absorb the band where
    quadratic growth off the set dips under tau).
    """
    if C.shape[0] == 1:
        gap = 0.0
    else:
        d2 = np.sum((C[:, None, :] - C[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        gap = float(np.sqrt(d2.min(axis=1)).max())
    return max(cfg.tau, 0.51 * gap + math.sqrt(cfg.tau))


def _set_check(domain: Domain, candidate, radius: float, cfg: ToleranceConfig | None,
               seed: int, stats_of) -> CheckOutcome:
    """Sample each member's neighborhood and require stats_of(member, X) to
    stay <= tau on the candidate set and < -tau off it; the worst bad
    sample is the witness.  The set's size is checked before any work."""
    cfg = cfg or ToleranceConfig()
    C = _candidate_matrix(candidate)
    _require_set_size(len(C), C.shape[-1])
    tol = _set_tolerance(C, cfg)
    for i, xstar in enumerate(C):
        X = sample_neighborhood(domain, xstar, radius, seed=seed + i).points
        stats = stats_of(xstar, X)
        d2 = np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=-1)
        off_set = np.sqrt(d2.min(axis=1)) > tol
        bad = ~np.where(off_set, stats < -cfg.tau, stats <= cfg.tau)
        if bad.any():
            k = int(np.argmax(np.where(bad, stats, -np.inf)))
            return CheckOutcome(False, witness=tuple(X[k]))
    return CheckOutcome(True)


def is_ess_set(c: VectorField, candidate, radius: float,
               cfg: ToleranceConfig | None = None, seed: int = 0) -> CheckOutcome:
    """Evolutionarily-stable-set check on a finite discretization.

    Every member must weakly resist invasion by its sampled neighborhood,
    strictly so for samples farther than the set tolerance from the
    candidate list.
    """
    return _set_check(c.domain, candidate, radius, cfg, seed,
                      lambda xstar, X: np.einsum("kd,kd->k", xstar[None, :] - X, c.values(X)))


def is_almost_strictly_minimal_set(f: ScalarField, candidate, radius: float,
                                   cfg: ToleranceConfig | None = None,
                                   seed: int = 0) -> CheckOutcome:
    """Scalar analogue of is_ess_set: on-set values tie, nearby off-set values exceed."""
    return _set_check(f.domain, candidate, radius, cfg, seed,
                      lambda xstar, X: f.value(xstar) - f.values(X))


# ---------------------------------------------------------------------------
# Aggregate classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    kind: str  # "scalar" | "vector"
    point: tuple[float, ...]
    is_minimal: bool
    is_maximal: bool
    is_critical: bool | None
    is_nss: bool | None
    is_local_min_polyorder: bool
    is_ess: bool | None
    is_strict_local_min: bool | None
    dominating_witness: tuple[tuple[float, ...], float | None] | None
    challengers_used: str
    neighborhood_radius: float
    seed: int
    config: ToleranceConfig
    analytic_witnesses: bool = False

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "point": list(self.point),
            "is_minimal": self.is_minimal,
            "is_maximal": self.is_maximal,
            "is_local_min_polyorder": self.is_local_min_polyorder,
            "dominating_witness": ([list(self.dominating_witness[0]), self.dominating_witness[1]]
                                   if self.dominating_witness else None),
            "challengers_used": self.challengers_used,
            "neighborhood_radius": self.neighborhood_radius,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "analytic_witnesses": self.analytic_witnesses,
        }
        if self.kind == "vector":
            d.update(is_critical=self.is_critical, is_nss=self.is_nss, is_ess=self.is_ess)
        else:
            d.update(is_strict_local_min=self.is_strict_local_min)
        return d


def _order_outcomes(X: np.ndarray, relations: np.ndarray,
                    in_ball: np.ndarray) -> tuple[CheckOutcome, CheckOutcome, CheckOutcome]:
    """(minimal, maximal, local minimum) of p from the screen relations of
    the probe rows X against p; the local minimum reads the rows in_ball."""
    return (_first_failure(X, relations == STRICTLY_DOMINATES),
            _first_failure(X, relations == REVERSE_STRICT),
            _first_failure(X[in_ball], _not_weakly_dominated(relations[in_ball])))


def _halving_ladder(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows p + 2^-j (x - p), j = 1.._LADDER_RUNGS: points of the
    segment from p to x, so inside every (convex) domain, halving their
    distance to p at each rung."""
    steps = 0.5 ** np.arange(1, _LADDER_RUNGS + 1)
    return p + steps[:, None] * (x - p)


def _chain(condition: bool, message: str):
    if not condition:
        raise InvariantBreachError(message)


def classify_point(field, p, challengers: SampleSet | None = None,
                   radius: float | None = None, cfg: ToleranceConfig | None = None,
                   seed: int = 42) -> ClassificationReport:
    """Run every applicable check with shared probe sets and assert the
    theorem inclusion chains before returning.

    A ScalarField gives a "scalar" report, any other field a "vector" one.
    A one-point domain is refused, then the caller's challenger set and
    the radius are checked, before any probe is built.  A failed minimality check reports its dominator with
    the strict-witness eps of one full comparison of that row.

    When the critical check fails but the minimal or the local-minimum
    check passed, the halving ladder from p toward the critical witness
    joins the challengers (challengers_used names it), and its rows within
    the radius of p join the ball; every check but the critical one is
    decided again on the enlarged probes.  A chain that still breaks
    raises.
    """
    kind = "scalar" if isinstance(field, ScalarField) else "vector"
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    if field.domain.diameter() == 0:  # no ball and no challenger can differ from p
        raise ValueError(f"field {field.label!r}: its domain {field.domain} is one point, "
                         "so there is nothing to classify it against")
    if challengers is not None:
        _probe_points(field, challengers, "challenger set is empty")
    radius = radius if radius is not None else 0.05 * field.domain.diameter()
    neighborhood = sample_neighborhood(field.domain, p, radius, seed=seed)
    if challengers is None:
        challengers = default_challengers(field.domain, seed)
    # global sweeps see the local probes too, so the chains are checked on
    # comparable evidence
    full = challengers.union(neighborhood.points, note="ball")

    # one screen decides minimal, maximal and local-min: union stacks the
    # ball's rows last
    X = full.points
    relations = batch_relations(field, X, p, cfg)
    in_ball = np.arange(len(X)) >= len(challengers)
    minimal, maximal, local_min = _order_outcomes(X, relations, in_ball)
    critical = nss = ess = strict_min = None
    if kind == "vector":
        critical = is_critical_element(field, p, full, cfg)
        if not critical.ok and (minimal.ok or local_min.ok):
            # the points that improve on p toward the critical witness may
            # all lie closer to p than the samples: screen the ladder too
            ladder = _halving_ladder(p, np.asarray(critical.witness))
            dist = np.linalg.norm(ladder - p, axis=1)
            near = (dist > 0) & (dist <= radius)
            full = full.union(ladder, note="ladder")
            neighborhood = neighborhood.union(ladder[near], note="ladder")
            X = full.points
            relations = np.concatenate([relations, batch_relations(field, ladder, p, cfg)])
            in_ball = np.concatenate([in_ball, near])
            minimal, maximal, local_min = _order_outcomes(X, relations, in_ball)
        nss = is_nss(field, p, neighborhood, cfg)
        ess = is_ess(field, p, neighborhood, cfg)
        _chain(not ess.ok or nss.ok, "ess held but nss failed on the same samples")
        _chain(not ess.ok or minimal.ok, "ess held but a strict dominator was found")
        _chain(not minimal.ok or critical.ok, "minimal point failed the critical-element check")
        _chain(not local_min.ok or critical.ok, "local minimum failed the critical-element check")
    else:
        strict_min = is_strict_local_min_scalar(field, p, neighborhood, cfg)
        _chain(not strict_min.ok or minimal.ok,
               "strict local minimum was strictly dominated by a challenger")
    dominating_witness = None
    if not minimal.ok:
        x = np.asarray(minimal.witness)
        compare = compare_scalar if kind == "scalar" else compare_vector
        verdict = compare(field, x, p, cfg)
        dominating_witness = (minimal.witness, verdict.witness_eps_strict)
    ok = lambda outcome: None if outcome is None else outcome.ok
    return ClassificationReport(
        kind=kind, point=tuple(p),
        is_minimal=minimal.ok, is_maximal=maximal.ok, is_critical=ok(critical),
        is_nss=ok(nss), is_local_min_polyorder=local_min.ok, is_ess=ok(ess),
        is_strict_local_min=ok(strict_min),
        dominating_witness=dominating_witness,
        challengers_used=full.strategy, neighborhood_radius=radius, seed=seed,
        config=cfg, analytic_witnesses=field.witnesses is not None)
