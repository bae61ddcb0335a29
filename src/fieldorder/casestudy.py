"""Analytic oracles for the oscillatory benchmark f(x) = x sin(1/x).

Viewed as a 1-D vector field, f vanishes at 0 and at z_n = 1/(n pi) for
every nonzero integer n, with slope f'(z_n) = n pi (-1)^(n+1) there.  Each
nonzero critical point is isolated, so its slope sign decides its order
class: positive slope means minimal, negative means maximal.  The origin is
an accumulation point of both families; along any segment ending at 0 the
sign of x f(y) keeps flipping, so 0 is incomparable with every other point
(hence both minimal and maximal) without being a local extremum of the
order.  Generic grid sweeps cannot see those flips once they drop below
grid resolution, so the stock fields carry exact sub-grid witnesses
w = 1/(k pi + pi/2), where sin(1/w) = +-1 (fields.origin_witness), which
every screen and comparison folds into a segment that ends at the origin.

Also here: the coverage sweep showing every non-minimal point of a window
is strictly dominated by the bracketing minimal critical point (the
decision inequality is (x* - x) f(x) < 0 plus whole-segment confirmation),
and the rotated-well counterexample where a circle of global scalar minima
fails the local-minimum test of the dominance order.
The study is fixed: the stock box [-1, 2], the 25-entry catalog, the
radii ORIGIN_RADII and the window start -1/pi + 0.01.  The CLI sets the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classify import (_BALL_COUNT, _require_set_size, is_almost_strictly_minimal_set,
                       is_ess, is_local_min_polyorder, is_nss, is_strict_local_min_scalar,
                       minimal_and_maximal, sample_neighborhood)
from .dominance import STRICTLY_DOMINATES, ToleranceConfig, batch_relations, compare_scalar
from .fields import (_MAX_GRID_POINTS, DEFAULT_CASESTUDY_BOX, Grid, SampleSet, ScalarField,
                     VectorField, origin_witness, require_in_domain, sample_domain,
                     scalar_field, vector_field)

PI = math.pi

MINIMAL = "Minimal"
MAXIMAL = "Maximal"


def zero_point(n: int) -> float:
    """The n-th nonzero critical point 1/(n pi)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return 1.0 / (n * PI)


def slope_at_zero(n: int) -> float:
    """Closed-form f'(1/(n pi)) = n pi (-1)^(n+1): sin vanishes, cos is (-1)^n."""
    if n == 0:
        raise ValueError("n must be nonzero")
    return n * PI if n % 2 else -n * PI


def kind_of(n: int) -> str:
    return MINIMAL if slope_at_zero(n) > 0 else MAXIMAL


@dataclass(frozen=True)
class CatalogEntry:
    n: int
    x: float
    fprime: float
    kind: str

    def to_dict(self) -> dict:
        return {"n": self.n, "x": self.x, "fprime": self.fprime, "kind": self.kind}


@dataclass(frozen=True)
class CriticalCatalog:
    n_max: int
    entries: tuple[CatalogEntry, ...]

    def minimal_points(self) -> list[float]:  # the origin is minimal and maximal
        return sorted([e.x for e in self.entries if e.kind == MINIMAL] + [0.0])

    def to_dict(self) -> dict:
        # includes_origin is always true; still written because catalog.json is pinned
        return {"n_max": self.n_max, "includes_origin": True,
                "entries": [e.to_dict() for e in self.entries]}


def build_catalog(n_max: int) -> CriticalCatalog:
    """All critical points 1/(n pi) for 1 <= |n| <= n_max with their order class."""
    if not 1 <= n_max <= _MAX_GRID_POINTS // 2:
        raise ValueError(f"n_max must lie in [1, {_MAX_GRID_POINTS // 2}]")
    ns = [n for n in range(-n_max, n_max + 1) if n != 0]
    entries = tuple(CatalogEntry(n, zero_point(n), slope_at_zero(n), kind_of(n)) for n in ns)
    return CriticalCatalog(n_max=n_max, entries=entries)


# ---------------------------------------------------------------------------
# Oscillation-aware challenger sets and bracketing selectors
# ---------------------------------------------------------------------------

def case_fields() -> tuple[ScalarField, VectorField]:
    return scalar_field("xsininv"), vector_field("xsininv")


def case_challengers(catalog: CriticalCatalog, grid_n: int = 4096) -> SampleSet:
    """Stock-box grid challengers augmented with catalog points, the origin,
    and analytic origin-witness points."""
    domain = DEFAULT_CASESTUDY_BOX
    base = sample_domain(domain, Grid(grid_n))
    extra = [[0.0]] + [[e.x] for e in catalog.entries]
    for bound in (domain.lower[0], domain.upper[0]):
        extra.extend([[origin_witness(bound, 1)], [origin_witness(bound, -1)]])
    return base.union(np.asarray(extra, float), note="analytic")


def nearest_critical_distance(x: float) -> float:
    """Distance from x to the nearest critical point of the benchmark field."""
    best = abs(x)
    if x != 0.0:
        guess = 1.0 / (PI * abs(x))
        for n in (math.floor(guess), math.ceil(guess), round(guess)):
            if n >= 1:
                best = min(best, abs(abs(x) - zero_point(n)))
    return best


def dominating_minimal_element(x: float) -> float | None:
    """The minimal critical point that dominates x, per the bracketing rule.

    For x beyond the outermost positive zero this is 1/pi; inside (0, 1/pi)
    it is the odd-indexed zero bracketing x; mirrored with even indices on
    the negative side.  It doubles as the attractor of x' = -f(x) for the
    same brackets.  Returns None at 0 and left of -1/pi, where only
    maximal points live.
    """
    if x == 0.0:
        return None
    if x > zero_point(1):
        return zero_point(1)
    n = math.floor(1.0 / (PI * abs(x)))
    if x > 0:
        return zero_point(n) if n % 2 else zero_point(n + 1)
    if abs(x) > zero_point(1):
        return None
    return -zero_point(n) if n % 2 == 0 else -zero_point(n + 1)


# ---------------------------------------------------------------------------
# Catalog vs numeric classifier agreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntryVerdict:
    entry: CatalogEntry
    got_minimal: bool
    got_maximal: bool

    @property
    def agrees(self) -> bool:
        want_min = self.entry.kind == MINIMAL
        return self.got_minimal == want_min and self.got_maximal == (not want_min)

    def to_dict(self) -> dict:
        return {**self.entry.to_dict(), "got_minimal": self.got_minimal,
                "got_maximal": self.got_maximal, "agrees": self.agrees}


@dataclass(frozen=True)
class CatalogAgreementReport:
    verdicts: tuple[EntryVerdict, ...]
    origin_minimal: bool
    origin_maximal: bool
    challengers_used: str

    @property
    def all_agree(self) -> bool:
        return all(v.agrees for v in self.verdicts) and self.origin_minimal and self.origin_maximal

    def to_dict(self) -> dict:
        return {"verdicts": [v.to_dict() for v in self.verdicts],
                "origin_minimal": self.origin_minimal, "origin_maximal": self.origin_maximal,
                "all_agree": self.all_agree, "challengers_used": self.challengers_used}


def classify_catalog(catalog: CriticalCatalog, challengers: SampleSet,
                     cfg: ToleranceConfig) -> CatalogAgreementReport:
    """Classify every catalog point, and the origin, numerically against
    the challengers and compare with the oracle.

    One uniform-grid screen per point serves both directions: each
    challenger's screen relation to the point says whether it dominates the
    point, is dominated by it, or neither.  The origin's outcome is the one
    casestudy passes to origin_atypicality.
    """
    _, c = case_fields()
    verdicts = []
    for entry in catalog.entries:
        got_min, got_max = minimal_and_maximal(c, [entry.x], challengers, cfg)
        verdicts.append(EntryVerdict(entry, got_min.ok, got_max.ok))
    o_min, o_max = minimal_and_maximal(c, [0.0], challengers, cfg)
    return CatalogAgreementReport(tuple(verdicts), o_min.ok, o_max.ok, challengers.strategy)


@dataclass(frozen=True)
class OriginAtypicalityReport:
    minimal: bool
    maximal: bool
    per_radius: tuple[dict, ...]  # radius -> nss/ess/local_min booleans

    @property
    def confirmed(self) -> bool:
        return (self.minimal and self.maximal
                and all(not r["nss"] and not r["ess"] and not r["local_min_polyorder"]
                        for r in self.per_radius))

    def to_dict(self) -> dict:
        return {"minimal": self.minimal, "maximal": self.maximal,
                "per_radius": list(self.per_radius), "confirmed": self.confirmed}


# radii of the origin's neighborhood balls
ORIGIN_RADII = (0.1, 0.01, 0.001)


def require_origin_radii(cfg: ToleranceConfig) -> None:
    """Raise ValueError unless every radius of ORIGIN_RADII exceeds tau.

    The ball checks drop samples within tau of the origin, so a ball of
    radius <= tau has no samples left to check.
    """
    for radius in ORIGIN_RADII:
        if not radius > cfg.tau:
            raise ValueError(f"origin radius {radius} must exceed tau = {cfg.tau}")


def origin_atypicality(minimal: bool, maximal: bool, cfg: ToleranceConfig,
                       seed: int) -> OriginAtypicalityReport:
    """Certify that the origin is minimal and maximal yet locally nothing.

    minimal and maximal are the origin's outcome in a screen against its
    challengers (casestudy passes classify_catalog's); the origin is not
    screened here.  The 512 neighborhood samples at every
    radius of ORIGIN_RADII are augmented with the exact witness points
    below that radius at which x f(x) takes each sign, so the local
    refusals never depend on a lucky draw.
    """
    require_origin_radii(cfg)
    _, c = case_fields()
    origin = np.array([0.0])
    rows = []
    for radius in ORIGIN_RADII:
        ball = sample_neighborhood(c.domain, origin, radius, seed=seed)
        exact = np.array([[origin_witness(radius, 1)], [origin_witness(radius, -1)],
                          [origin_witness(-radius, 1)], [origin_witness(-radius, -1)]])
        ball = ball.union(exact, note="witness")
        nss = is_nss(c, origin, ball, cfg)
        ess = is_ess(c, origin, ball, cfg)
        local_min = is_local_min_polyorder(c, origin, ball, cfg)
        rows.append({"radius": radius, "nss": nss.ok, "ess": ess.ok,
                     "local_min_polyorder": local_min.ok})
    return OriginAtypicalityReport(minimal, maximal, tuple(rows))


# ---------------------------------------------------------------------------
# Setwise local dominance sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceCoverageReport:
    window: tuple[float, float]
    grid_n: int
    total: int
    excluded_near_critical: int
    covered: int
    failures: tuple[dict, ...]
    max_bracket_index: int

    @property
    def coverage_fraction(self) -> float:
        tested = self.total - self.excluded_near_critical
        return self.covered / tested if tested else 1.0

    def to_dict(self) -> dict:
        return {"window": list(self.window), "grid_n": self.grid_n, "total": self.total,
                "excluded_near_critical": self.excluded_near_critical,
                # always 0; still written because dominance.json bytes are pinned
                "skipped_minimal": 0, "covered": self.covered,
                "coverage_fraction": self.coverage_fraction,
                "failures": list(self.failures), "max_bracket_index": self.max_bracket_index}


def check_setwise_dominance(window_hi: float = 2.0, grid_n: int = 2000,
                            cfg: ToleranceConfig | None = None) -> DominanceCoverageReport:
    """For every non-minimal point of the window [-1/pi + 0.01, window_hi],
    certify strict dominance by the bracketing minimal critical point.

    Points within tau of a critical point are excluded (f vanishes there and
    the decision inequality cannot clear the slack); the bracketing index
    grows as needed near the origin, where the display catalog truncates but
    the closed form keeps working.  Every window point is checked against
    the box before anything is screened; its dominator lies in [-1/pi,
    1/pi].  One uniform-grid screen decides all pairs at once.  A point
    fails with "margin under tau", or with "confirmation failed" and the
    screen relation of its pair, which is the pair's verdict.  grid_n must
    lie in [1, _MAX_GRID_POINTS].  No pair ends at the origin (it is a
    critical point, and every dominator is nonzero), so the screen drops
    the field's origin witnesses and never asks for them.
    """
    cfg = cfg or ToleranceConfig()
    if not 1 <= grid_n <= _MAX_GRID_POINTS:
        raise ValueError(f"grid_n must lie in [1, {_MAX_GRID_POINTS}]")
    if not (math.isfinite(window_hi) and window_hi > zero_point(1)):
        raise ValueError("window_hi must be finite and exceed the outermost minimal point, "
                         f"got {window_hi}")
    window_lo = -zero_point(1) + 0.01  # just right of the outermost maximal point
    f, c = case_fields()
    xs = np.linspace(window_lo, window_hi, grid_n)
    outside = ~c.domain.contains_rows(xs[:, None])
    if outside.any():
        require_in_domain(c.domain, xs[outside][:1])  # raises, naming the first
    # (x, xstar, margin) of each window point not within tau of a critical point
    rows: list[tuple[float, float, float]] = []
    max_index = 0
    for x, fx in zip(xs.tolist(), f.values(xs[:, None]).tolist()):
        if nearest_critical_distance(x) <= cfg.tau:
            continue
        xstar = dominating_minimal_element(x)
        if abs(x) < zero_point(1):
            max_index = max(max_index, math.floor(1.0 / (PI * abs(x))) + 1)
        rows.append((x, xstar, (xstar - x) * fx))
    pairs = np.array([(xstar, x) for x, xstar, margin in rows if margin < -cfg.tau])
    relations = iter(batch_relations(replace(c, witnesses=None), pairs[:, :1], pairs[:, 1:], cfg)
                     if len(pairs) else ())
    covered, failures = 0, []
    for x, xstar, margin in rows:
        if margin >= -cfg.tau:
            failures.append({"x": x, "xstar": xstar, "reason": "margin under tau",
                             "margin": margin})
        elif (relation := next(relations)) == STRICTLY_DOMINATES:
            covered += 1
        else:
            failures.append({"x": x, "xstar": xstar, "reason": "confirmation failed",
                             "relation": str(relation)})
    return DominanceCoverageReport(
        window=(window_lo, window_hi), grid_n=grid_n, total=len(xs),
        excluded_near_critical=len(xs) - len(rows), covered=covered,
        failures=tuple(failures), max_bracket_index=max_index)


# ---------------------------------------------------------------------------
# Rotated-well counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CirclePointRecord:
    point: tuple[float, float]
    witness: tuple[float, float]
    value: float
    strict_local_min: bool
    local_min_polyorder: bool
    chord_relation: str
    chord_eps: float | None
    chord_peak: float

    def to_dict(self) -> dict:
        return {"point": list(self.point), "witness": list(self.witness),
                "value": self.value, "strict_local_min": self.strict_local_min,
                "local_min_polyorder": self.local_min_polyorder,
                "chord_relation": self.chord_relation, "chord_eps": self.chord_eps,
                "chord_peak": self.chord_peak}


@dataclass(frozen=True)
class MexicanHatReport:
    records: tuple[CirclePointRecord, ...]
    set_is_almost_strictly_minimal: bool
    radius: float

    @property
    def confirmed(self) -> bool:
        return (self.set_is_almost_strictly_minimal
                and all(r.value < 1e-12 and not r.strict_local_min
                        and not r.local_min_polyorder for r in self.records))

    def to_dict(self) -> dict:
        return {"records": [r.to_dict() for r in self.records],
                "set_is_almost_strictly_minimal": self.set_is_almost_strictly_minimal,
                "radius": self.radius, "confirmed": self.confirmed}


def mexican_hat_counterexample(n_circle: int = 16, cfg: ToleranceConfig | None = None,
                               seed: int = 42) -> MexicanHatReport:
    """Global minima on the unit circle of the rotated well are not local
    minima of the scalar dominance order.

    Each circle point is paired with a nearby circle point inside its ball;
    the chord between them leaves the circle, so the profile rises strictly
    in the interior and weak descent fails in both directions.  Every ball
    has radius 0.05 times the domain's diameter.  The circle is checked
    against the set-check byte cap before it is built.
    """
    if n_circle < 2:
        raise ValueError("need at least two circle points")
    _require_set_size(n_circle, 2)
    cfg = cfg or ToleranceConfig()
    f = scalar_field("mexican_hat")
    radius = 0.05 * f.domain.diameter()
    angles = 2.0 * PI * np.arange(n_circle) / n_circle
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    phi = 0.9 * min(radius, 1.0)  # witness stays inside the ball and on the circle
    records = []
    for i, theta in enumerate(angles):
        p = circle[i]
        q = np.array([math.cos(theta + phi), math.sin(theta + phi)])
        ball = sample_neighborhood(f.domain, p, radius, _BALL_COUNT, seed + i).union(
            q[None, :], note="circle_witness")
        strict = is_strict_local_min_scalar(f, p, ball, cfg)
        local_min = is_local_min_polyorder(f, p, ball, cfg)
        chord = compare_scalar(f, p, q, cfg)
        eps = chord.witness_eps_violation[0] if chord.witness_eps_violation else None
        midpoint = 0.5 * (p + q)
        records.append(CirclePointRecord(
            point=(float(p[0]), float(p[1])), witness=(float(q[0]), float(q[1])),
            value=f.value(p), strict_local_min=strict.ok, local_min_polyorder=local_min.ok,
            chord_relation=chord.relation, chord_eps=eps,
            chord_peak=f.value(midpoint)))
    set_check = is_almost_strictly_minimal_set(f, circle, radius, cfg, seed=seed)
    return MexicanHatReport(tuple(records), set_check.ok, radius)


def minimal_candidate_points() -> np.ndarray:
    """Minimal points of the 25-entry catalog, origin included, as dynamics
    candidates."""
    return np.asarray(build_catalog(25).minimal_points(), float)[:, None]
