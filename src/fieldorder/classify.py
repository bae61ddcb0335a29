"""Point and set classification against the solution-concept hierarchy.

Global concepts sweep a challenger SampleSet (is anything strictly better
than p anywhere?), local concepts sweep a deterministic sample of the ball
around p intersected with the domain.  Every verdict is a certificate
relative to the probe sets and the tolerance configuration, both of which
are echoed in the report.

Minimality and maximality are decided together from the relations of one
uniform-grid screen of the challengers against p (dominance.batch_relations):
p is minimal when no row is StrictlyDominates and maximal when no row is
ReverseStrict.  Full comparisons run only for pairs that gain analytic
extra eps and for the one reported row of each failed check.

The inclusion chains that must hold on shared probe sets (ess implies nss
and minimal, minimal implies critical, local minimum implies critical,
strict local minimum implies scalar minimality) are asserted by
classify_point; a breach raises InvariantBreachError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dominance import (INCOMPARABLE, REVERSE_STRICT, STRICTLY_DOMINATES, ToleranceConfig,
                        _profiles, batch_relations, batch_scalar_steps, batch_vector_extremes,
                        compare_scalar, compare_vector)
from .errors import InvariantBreachError
from .fields import (Box, Domain, Grid, Product, SampleSet, ScalarField, SeededRandom,
                     Simplex, VectorField, require_in_domain, sample_domain)

# ball samples span this many decades of radii so that violations living at
# small scales are probed without drowning in sub-tau hairline comparisons
_RADIUS_DECADES = 2.5


@dataclass(frozen=True)
class CheckOutcome:
    """Boolean verdict plus the probe that decided it."""

    ok: bool
    witness: tuple[float, ...] | None = None
    eps: float | None = None
    stat: float | None = None

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


def sample_neighborhood(domain: Domain, center, radius: float, count: int = 512,
                        seed: int = 0) -> SampleSet:
    """Deterministic sample of ball(center, radius) intersected with the domain.

    Radii are log-spread over a few decades below `radius` and directions are
    seeded; for simplex domains directions live in the mass-preserving
    tangent space.  Axis (resp. tangent-basis) probes at full radius are
    always included.  The center itself is excluded.
    """
    center = require_in_domain(domain, center)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if count < 1:
        raise ValueError("count must be positive")
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
    return SampleSet(pts, strategy=f"ball(radius={radius:g}, count={count})", seed=seed)


def default_challengers(domain: Domain, seed: int = 42, grid_n: int = 2048,
                        random_n: int = 4096) -> SampleSet:
    """Default global challenger set: 1-D grid, otherwise seeded points + extremes."""
    if isinstance(domain, Box):
        if domain.dim == 1:
            return sample_domain(domain, Grid(grid_n), seed)
        base = sample_domain(domain, SeededRandom(random_n), seed)
        corners = np.array(list(itertools.product(*zip(domain.lower, domain.upper))), float)
        return base.union(corners, note="corners")
    return sample_domain(domain, SeededRandom(random_n), seed)


# ---------------------------------------------------------------------------
# Critical elements and dominance-order extremes
# ---------------------------------------------------------------------------

def is_critical_element(c: VectorField, p, challengers: SampleSet,
                        cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Whether no challenger direction strictly improves on p at p itself:
    (x - p) . c(p) >= -tau for every challenger x."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    if len(challengers) == 0:
        raise ValueError("challenger set is empty")
    stats = (challengers.points - p) @ c.value(p)
    k = int(np.argmin(stats))
    stat = float(stats[k])
    if stat >= -cfg.tau:
        return CheckOutcome(True, stat=stat)
    return CheckOutcome(False, witness=tuple(challengers.points[k]), stat=stat)


def _minimal_and_maximal(field, p, challengers: SampleSet,
                         cfg: ToleranceConfig | None = None,
                         segment_witnesses=None) -> tuple[CheckOutcome, CheckOutcome]:
    """(minimal, maximal) outcomes of p against the challengers, from one screen.

    p is minimal when no challenger row is StrictlyDominates and maximal
    when none is ReverseStrict.  A row that is not Incomparable on the
    screen is never refined, so its screen relation is its verdict, unless
    segment_witnesses adds eps values to its grid: only those pairs get a
    full comparison.  The eps reported for the lex-smallest dominator (resp.
    dominated challenger) comes from one comparison on its row.
    """
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    X = challengers.points
    if X.shape[0] == 0:
        raise ValueError("challenger set is empty")
    compare = compare_scalar if isinstance(field, ScalarField) else compare_vector
    relations = batch_relations(field, X, p, cfg)
    verdicts = {}
    for k in np.flatnonzero(relations != INCOMPARABLE) if segment_witnesses is not None else ():
        extra = tuple(segment_witnesses(X[k], p))
        if extra:
            verdicts[k] = compare(field, X[k], p, cfg, extra_eps=extra)
            relations[k] = verdicts[k].relation

    def outcome(relation: str) -> CheckOutcome:
        rows = np.flatnonzero(relations == relation)
        if rows.size == 0:
            return CheckOutcome(True)
        k = rows[np.lexsort(X[rows].T[::-1])[0]]
        verdict = verdicts[k] if k in verdicts else compare(field, X[k], p, cfg)
        return CheckOutcome(False, witness=tuple(X[k]), eps=verdict.witness_eps_strict)

    return outcome(STRICTLY_DOMINATES), outcome(REVERSE_STRICT)


def is_minimal(c: VectorField, p, challengers: SampleSet,
               cfg: ToleranceConfig | None = None,
               segment_witnesses=None) -> CheckOutcome:
    """Whether no challenger strictly dominates p.

    One vectorized uniform-grid screen gives every challenger its relation
    to p.  segment_witnesses(x, p), when given, supplies extra eps values
    for specific pairs (used for analytically known oscillation witnesses);
    only those pairs are compared in full.  The witness is the
    lex-smallest dominator, with the eps of its full comparison.
    """
    return _minimal_and_maximal(c, p, challengers, cfg, segment_witnesses)[0]


def is_maximal(c: VectorField, p, challengers: SampleSet,
               cfg: ToleranceConfig | None = None,
               segment_witnesses=None) -> CheckOutcome:
    """Whether p strictly dominates no challenger; exactly minimality under -c."""
    return _minimal_and_maximal(c, p, challengers, cfg, segment_witnesses)[1]


def is_minimal_scalar(f: ScalarField, p, challengers: SampleSet,
                      cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Whether no challenger strictly dominates p in the scalar order."""
    return _minimal_and_maximal(f, p, challengers, cfg)[0]


def is_maximal_scalar(f: ScalarField, p, challengers: SampleSet,
                      cfg: ToleranceConfig | None = None) -> CheckOutcome:
    return _minimal_and_maximal(f, p, challengers, cfg)[1]


# ---------------------------------------------------------------------------
# Neighborhood (local) concepts
# ---------------------------------------------------------------------------

def _require_samples(samples: SampleSet):
    if len(samples) == 0:
        raise ValueError("no samples in the neighborhood ball")
    return samples.points


def is_nss(c: VectorField, p, radius: float, neighborhood_samples: SampleSet,
           cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Neutral stability: p . c(x) <= x . c(x) + tau on the sampled ball."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    X = _require_samples(neighborhood_samples)
    stats = np.einsum("kd,kd->k", p[None, :] - X, c.values(X))
    k = int(np.argmax(stats))
    stat = float(stats[k])
    if stat <= cfg.tau:
        return CheckOutcome(True, stat=stat)
    return CheckOutcome(False, witness=tuple(X[k]), stat=stat)


def is_ess(c: VectorField, p, radius: float, neighborhood_samples: SampleSet,
           cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Evolutionary stability: p . c(x) < x . c(x) - tau for sampled x != p."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(c.domain, p)
    X = _require_samples(neighborhood_samples)
    off = np.linalg.norm(X - p, axis=1) > cfg.tau
    if not off.any():
        raise ValueError("all neighborhood samples coincide with the point")
    X = X[off]
    stats = np.einsum("kd,kd->k", p[None, :] - X, c.values(X))
    k = int(np.argmax(stats))
    stat = float(stats[k])
    if stat < -cfg.tau:
        return CheckOutcome(True, stat=stat)
    return CheckOutcome(False, witness=tuple(X[k]), stat=stat)


def _local_min_polyorder(field, p, neighborhood_samples: SampleSet,
                         cfg: ToleranceConfig | None, segment_witnesses=None) -> CheckOutcome:
    """No screen row of p against the neighbors (vector: max delta, also over
    the segment_witnesses eps; scalar: largest step) exceeds tau.  The worst
    row is compared in full for its violation eps."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    X = _require_samples(neighborhood_samples)
    if isinstance(field, ScalarField):
        stats, compare = batch_scalar_steps(field, p, X, cfg)[0], compare_scalar
    else:
        stats, compare = batch_vector_extremes(field, p, X, cfg)[0], compare_vector
    extras = {}
    for k, x in enumerate(X if segment_witnesses is not None else ()):
        extra = tuple(segment_witnesses(p, x))
        if extra:
            extras[k] = extra
            delta = _profiles(field, p[None, :], x[None, :], np.asarray(extra, float))
            stats[k] = max(stats[k], float(delta.max()))
    k = int(np.argmax(stats))
    stat = float(stats[k])
    if stat <= cfg.tau:
        return CheckOutcome(True, stat=stat)
    verdict = compare(field, p, X[k], cfg, extra_eps=extras.get(k, ()))
    eps = verdict.witness_eps_violation[0] if verdict.witness_eps_violation else None
    return CheckOutcome(False, witness=tuple(X[k]), eps=eps, stat=stat)


def is_local_min_polyorder_vector(c: VectorField, p, radius: float,
                                  neighborhood_samples: SampleSet,
                                  cfg: ToleranceConfig | None = None,
                                  segment_witnesses=None) -> CheckOutcome:
    """Whether p weakly dominates every sampled neighbor along segments."""
    return _local_min_polyorder(c, p, neighborhood_samples, cfg, segment_witnesses)


def is_local_min_polyorder_scalar(f: ScalarField, p, radius: float,
                                  neighborhood_samples: SampleSet,
                                  cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Whether every sampled neighbor is reached from p by a weak-descent path."""
    return _local_min_polyorder(f, p, neighborhood_samples, cfg)


def is_strict_local_min_scalar(f: ScalarField, p, radius: float,
                               neighborhood_samples: SampleSet,
                               cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """f(p) < f(x) - tau for every sampled x != p."""
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(f.domain, p)
    X = _require_samples(neighborhood_samples)
    off = np.linalg.norm(X - p, axis=1) > cfg.tau
    if not off.any():
        raise ValueError("all neighborhood samples coincide with the point")
    X = X[off]
    stats = f.values(X) - f.value(p)
    k = int(np.argmin(stats))
    stat = float(stats[k])
    if stat > cfg.tau:
        return CheckOutcome(True, stat=stat)
    return CheckOutcome(False, witness=tuple(X[k]), stat=stat)


# ---------------------------------------------------------------------------
# Set-valued concepts
# ---------------------------------------------------------------------------

def _candidate_matrix(candidate) -> np.ndarray:
    C = np.atleast_2d(np.asarray(candidate, float))
    if C.size == 0:
        raise ValueError("candidate set is empty")
    return C


def _set_tolerance(C: np.ndarray, cfg: ToleranceConfig, set_tol: float | None) -> float:
    """Distance below which a sample counts as lying on the candidate set.

    A finite discretization cannot certify strict inequalities for points
    closer to the true set than its own mesh, so the default widens tau to
    half the largest nearest-neighbor gap (plus sqrt(tau) to absorb the band
    where quadratic growth off the set dips under tau).
    """
    if set_tol is not None:
        return set_tol
    if C.shape[0] == 1:
        gap = 0.0
    else:
        d2 = np.sum((C[:, None, :] - C[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        gap = float(np.sqrt(d2.min(axis=1)).max())
    return max(cfg.tau, 0.51 * gap + math.sqrt(cfg.tau))


def _set_check(domain: Domain, candidate, radius: float, cfg: ToleranceConfig | None,
               samples_per_point: int, seed: int, set_tol: float | None,
               stats_of) -> CheckOutcome:
    """Sample each member's neighborhood and require stats_of(member, X) to
    stay <= tau on the candidate set and < -tau off it; the worst bad
    sample is the witness."""
    cfg = cfg or ToleranceConfig()
    C = _candidate_matrix(candidate)
    tol = _set_tolerance(C, cfg, set_tol)
    for i, xstar in enumerate(C):
        X = sample_neighborhood(domain, xstar, radius, samples_per_point, seed + i).points
        stats = stats_of(xstar, X)
        d2 = np.sum((X[:, None, :] - C[None, :, :]) ** 2, axis=-1)
        off_set = np.sqrt(d2.min(axis=1)) > tol
        bad = ~np.where(off_set, stats < -cfg.tau, stats <= cfg.tau)
        if bad.any():
            k = int(np.argmax(np.where(bad, stats, -np.inf)))
            return CheckOutcome(False, witness=tuple(X[k]), stat=float(stats[k]))
    return CheckOutcome(True)


def is_ess_set(c: VectorField, candidate, radius: float,
               cfg: ToleranceConfig | None = None, samples_per_point: int = 512,
               seed: int = 0, set_tol: float | None = None) -> CheckOutcome:
    """Evolutionarily-stable-set check on a finite discretization.

    Every member must weakly resist invasion by its sampled neighborhood,
    strictly so for samples farther than the set tolerance from the
    candidate list.
    """
    return _set_check(c.domain, candidate, radius, cfg, samples_per_point, seed, set_tol,
                      lambda xstar, X: np.einsum("kd,kd->k", xstar[None, :] - X, c.values(X)))


def is_almost_strictly_minimal_set(f: ScalarField, candidate, radius: float,
                                   cfg: ToleranceConfig | None = None,
                                   samples_per_point: int = 512, seed: int = 0,
                                   set_tol: float | None = None) -> CheckOutcome:
    """Scalar analogue of is_ess_set: on-set values tie, nearby off-set values exceed."""
    return _set_check(f.domain, candidate, radius, cfg, samples_per_point, seed, set_tol,
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


def _chain(condition: bool, message: str):
    if not condition:
        raise InvariantBreachError(message)


def classify_point(kind: str, field, p, challengers: SampleSet | None = None,
                   radius: float | None = None, cfg: ToleranceConfig | None = None,
                   seed: int = 42, neighborhood_count: int = 512,
                   segment_witnesses=None) -> ClassificationReport:
    """Run every applicable check with shared probe sets and assert the
    theorem inclusion chains before returning."""
    if kind not in ("scalar", "vector"):
        raise ValueError("kind must be 'scalar' or 'vector'")
    cfg = cfg or ToleranceConfig()
    p = require_in_domain(field.domain, p)
    radius = radius if radius is not None else 0.05 * field.domain.diameter()
    challengers = challengers or default_challengers(field.domain, seed)
    neighborhood = sample_neighborhood(field.domain, p, radius, neighborhood_count, seed)
    # global sweeps see the local probes too, so the chains are checked on
    # comparable evidence
    full = challengers.union(neighborhood.points, note="ball")

    if kind == "vector":
        critical = is_critical_element(field, p, full, cfg)
        minimal, maximal = _minimal_and_maximal(field, p, full, cfg, segment_witnesses)
        nss = is_nss(field, p, radius, neighborhood, cfg)
        local_min = is_local_min_polyorder_vector(field, p, radius, neighborhood, cfg,
                                                  segment_witnesses)
        ess = is_ess(field, p, radius, neighborhood, cfg)
        _chain(not ess.ok or nss.ok, "ess held but nss failed on the same samples")
        _chain(not ess.ok or minimal.ok, "ess held but a strict dominator was found")
        _chain(not minimal.ok or critical.ok, "minimal point failed the critical-element check")
        _chain(not local_min.ok or critical.ok, "local minimum failed the critical-element check")
        report = ClassificationReport(
            kind="vector", point=tuple(p),
            is_minimal=minimal.ok, is_maximal=maximal.ok, is_critical=critical.ok,
            is_nss=nss.ok, is_local_min_polyorder=local_min.ok, is_ess=ess.ok,
            is_strict_local_min=None,
            dominating_witness=(minimal.witness, minimal.eps) if not minimal.ok else None,
            challengers_used=full.strategy, neighborhood_radius=radius, seed=seed,
            config=cfg, analytic_witnesses=segment_witnesses is not None)
        return report

    minimal, maximal = _minimal_and_maximal(field, p, full, cfg)
    strict_min = is_strict_local_min_scalar(field, p, radius, neighborhood, cfg)
    local_min = is_local_min_polyorder_scalar(field, p, radius, neighborhood, cfg)
    _chain(not strict_min.ok or minimal.ok,
           "strict local minimum was strictly dominated by a challenger")
    return ClassificationReport(
        kind="scalar", point=tuple(p),
        is_minimal=minimal.ok, is_maximal=maximal.ok, is_critical=None,
        is_nss=None, is_local_min_polyorder=local_min.ok, is_ess=None,
        is_strict_local_min=strict_min.ok,
        dominating_witness=(minimal.witness, minimal.eps) if not minimal.ok else None,
        challengers_used=full.strategy, neighborhood_radius=radius, seed=seed,
        config=cfg, analytic_witnesses=False)
