"""Analytic oracles for the oscillatory benchmark f(x) = x sin(1/x).

Viewed as a 1-D vector field, f vanishes at 0 and at z_n = 1/(n pi) for
every nonzero integer n, with slope f'(z_n) = n pi (-1)^(n+1) there.  Each
nonzero critical point is isolated, so its slope sign decides its order
class: positive slope means minimal, negative means maximal.  The origin is
an accumulation point of both families; along any segment ending at 0 the
sign of x f(y) keeps flipping, so 0 is incomparable with every other point
(hence both minimal and maximal) without being a local extremum of the
order.  Generic grid sweeps cannot see those flips once they drop below
grid resolution, so this module supplies exact sub-grid witnesses
w = 1/(k pi + pi/2), where sin(1/w) = +-1, which the screens fold into
every segment that ends at the origin.

Also here: the coverage sweep showing every non-minimal point of a window
is strictly dominated by the bracketing minimal critical point (the
decision inequality is (x* - x) f(x) < 0 plus whole-segment confirmation),
and the rotated-well counterexample where a circle of global scalar minima
fails the local-minimum test of the dominance order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import (_minimal_and_maximal, is_almost_strictly_minimal_set, is_ess,
                       is_local_min_polyorder_scalar, is_local_min_polyorder_vector,
                       is_nss, is_strict_local_min_scalar, sample_neighborhood)
from .dominance import STRICTLY_DOMINATES, ToleranceConfig, batch_relations, compare_scalar
from .fields import (_MAX_GRID_POINTS, Domain, Grid, SampleSet, ScalarField, VectorField,
                     require_in_domain, sample_domain, scalar_field, vector_field)

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
    includes_origin: bool = True  # the origin is both minimal and maximal

    def minimal_points(self) -> list[float]:
        pts = [e.x for e in self.entries if e.kind == MINIMAL]
        if self.includes_origin:
            pts.append(0.0)
        return sorted(pts)

    def to_dict(self) -> dict:
        return {"n_max": self.n_max, "includes_origin": self.includes_origin,
                "entries": [e.to_dict() for e in self.entries]}


def build_catalog(n_max: int) -> CriticalCatalog:
    """All critical points 1/(n pi) for 1 <= |n| <= n_max with their order class."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ns = [n for n in range(-n_max, n_max + 1) if n != 0]
    entries = tuple(CatalogEntry(n, zero_point(n), slope_at_zero(n), kind_of(n)) for n in ns)
    return CriticalCatalog(n_max=n_max, entries=entries)


# ---------------------------------------------------------------------------
# Origin witnesses
# ---------------------------------------------------------------------------

def origin_witness(x: float, want_sign: int) -> float:
    """A point w strictly between 0 and x with sign(x * f(w)) = want_sign.

    Choosing w = sign(x)/(k pi + pi/2) gives sin(1/w) = (+-1)^... exactly
    +-1; since x and w share a sign, sign(x f(w)) = sign(sin(1/w)), which
    the parity of k controls.  The smallest admissible k of the right
    parity is used.
    """
    if x == 0:
        raise ValueError("x must be nonzero")
    if want_sign not in (1, -1):
        raise ValueError("want_sign must be +1 or -1")
    ax = abs(x)
    k = max(0, math.floor((1.0 / ax - PI / 2.0) / PI) + 1)
    # sin(1/w) = (-1)^k for w > 0 and (-1)^(k+1) for w < 0
    want_even = (want_sign == 1) if x > 0 else (want_sign == -1)
    if (k % 2 == 0) != want_even:
        k += 1
    w = math.copysign(1.0 / (k * PI + PI / 2.0), x)
    while abs(w) >= ax:
        k += 2
        w = math.copysign(1.0 / (k * PI + PI / 2.0), x)
    return w


def origin_segment_witnesses(a, b, atol: float = 1e-12):
    """Extra eps values for a comparison whose segment ends at the origin.

    The segment is eps*a + (1-eps)*b.  When one endpoint is (numerically)
    the origin, returns the two eps locations where x f takes each sign,
    with x the other endpoint; otherwise returns ().
    """
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    if a.size != 1 or b.size != 1:
        return ()
    a0, b0 = float(a[0]), float(b[0])
    if abs(a0) <= atol and abs(b0) > atol:
        return tuple(1.0 - origin_witness(b0, s) / b0 for s in (1, -1))
    if abs(b0) <= atol and abs(a0) > atol:
        return tuple(origin_witness(a0, s) / a0 for s in (1, -1))
    return ()


# ---------------------------------------------------------------------------
# Oscillation-aware challenger sets and bracketing selectors
# ---------------------------------------------------------------------------

def case_fields(domain: Domain | None = None) -> tuple[ScalarField, VectorField]:
    return scalar_field("xsininv", domain), vector_field("xsininv", domain)


def case_challengers(domain: Domain, catalog: CriticalCatalog, grid_n: int = 4096,
                     seed: int = 42) -> SampleSet:
    """Grid challengers augmented with catalog points, the origin, and
    analytic origin-witness points."""
    base = sample_domain(domain, Grid(grid_n), seed)
    extra = [[0.0]] + [[e.x] for e in catalog.entries if domain.contains([e.x])]
    for bound in (domain.lower[0], domain.upper[0]):
        if abs(bound) > 0:
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
    same brackets.  Returns None left of -1/pi, where only maximal points
    live.
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


def classify_catalog(n_max: int = 25, cfg: ToleranceConfig | None = None,
                     grid_n: int = 4096, seed: int = 42,
                     domain: Domain | None = None) -> CatalogAgreementReport:
    """Classify every catalog point numerically and compare with the oracle.

    One uniform-grid screen per point serves both directions: each
    challenger's screen relation to the point says whether it dominates the
    point, is dominated by it, or neither.
    """
    cfg = cfg or ToleranceConfig()
    f, c = case_fields(domain)
    catalog = build_catalog(n_max)
    challengers = case_challengers(c.domain, catalog, grid_n, seed)
    verdicts = []
    for entry in catalog.entries:
        got_min, got_max = _minimal_and_maximal(c, [entry.x], challengers, cfg,
                                                origin_segment_witnesses)
        verdicts.append(EntryVerdict(entry, got_min.ok, got_max.ok))
    o_min, o_max = _minimal_and_maximal(c, [0.0], challengers, cfg, origin_segment_witnesses)
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


def require_origin_radii(radii, cfg: ToleranceConfig) -> None:
    """Raise ValueError unless every radius exceeds tau.

    The ball checks drop samples within tau of the origin, so a ball of
    radius <= tau has no samples left to check.
    """
    for radius in radii:
        if not radius > cfg.tau:
            raise ValueError(f"origin radius {radius} must exceed tau = {cfg.tau}")


def origin_atypicality(radii=ORIGIN_RADII, cfg: ToleranceConfig | None = None,
                       grid_n: int = 4096, seed: int = 42,
                       neighborhood_count: int = 512,
                       domain: Domain | None = None) -> OriginAtypicalityReport:
    """Certify that the origin is minimal and maximal yet locally nothing.

    Neighborhood samples at every radius are augmented with the exact
    witness points below that radius at which x f(x) takes each sign, so
    the local refusals never depend on a lucky draw.
    """
    cfg = cfg or ToleranceConfig()
    require_origin_radii(radii, cfg)
    _, c = case_fields(domain)
    catalog = build_catalog(25)
    challengers = case_challengers(c.domain, catalog, grid_n, seed)
    origin = np.array([0.0])
    minimal, maximal = _minimal_and_maximal(c, origin, challengers, cfg,
                                            origin_segment_witnesses)
    rows = []
    for radius in radii:
        ball = sample_neighborhood(c.domain, origin, radius, neighborhood_count, seed)
        exact = np.array([[origin_witness(radius, 1)], [origin_witness(radius, -1)],
                          [origin_witness(-radius, 1)], [origin_witness(-radius, -1)]])
        ball = ball.union(exact, note="witness")
        nss = is_nss(c, origin, radius, ball, cfg)
        ess = is_ess(c, origin, radius, ball, cfg)
        local_min = is_local_min_polyorder_vector(c, origin, radius, ball, cfg,
                                                  origin_segment_witnesses)
        rows.append({"radius": radius, "nss": nss.ok, "ess": ess.ok,
                     "local_min_polyorder": local_min.ok})
    return OriginAtypicalityReport(minimal.ok, maximal.ok, tuple(rows))


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
                            cfg: ToleranceConfig | None = None,
                            window_lo: float | None = None,
                            domain: Domain | None = None) -> DominanceCoverageReport:
    """For every non-minimal window point, certify strict dominance by the
    bracketing minimal critical point.

    Points within tau of a critical point are excluded (f vanishes there and
    the decision inequality cannot clear the slack); the bracketing index
    grows as needed near the origin, where the display catalog truncates but
    the closed form keeps working.  Every window point and its dominator are
    checked against the domain before anything is screened.  One
    uniform-grid screen decides all pairs at once, and a pair it does not
    confirm reports its screen relation (refinement never changes a vector
    relation, so that is the pair's verdict).  grid_n must lie in
    [1, _MAX_GRID_POINTS].
    """
    cfg = cfg or ToleranceConfig()
    if not 1 <= grid_n <= _MAX_GRID_POINTS:
        raise ValueError(f"grid_n must lie in [1, {_MAX_GRID_POINTS}]")
    if window_lo is None:
        window_lo = -zero_point(1) + 0.01
    if window_hi <= zero_point(1):
        raise ValueError("window_hi must exceed the outermost minimal point")
    f, c = case_fields(domain)
    xs = np.linspace(window_lo, window_hi, grid_n)
    excluded = covered = 0
    max_index = 0
    # per window point, in window order: its failure record, or its screen row
    slots: list[dict | int] = []
    pairs: list[tuple[float, float]] = []
    for x in xs:
        x = float(x)
        require_in_domain(c.domain, [x])
        if nearest_critical_distance(x) <= cfg.tau:
            excluded += 1
            continue
        xstar = dominating_minimal_element(x)
        if xstar is None:
            slots.append({"x": x, "reason": "no bracketing minimal element"})
            continue
        require_in_domain(c.domain, [xstar])
        if abs(x) < zero_point(1):
            max_index = max(max_index, math.floor(1.0 / (PI * abs(x))) + 1)
        margin = (xstar - x) * f.value(np.array([x]))
        if margin >= -cfg.tau:
            slots.append({"x": x, "xstar": xstar, "reason": "margin under tau",
                          "margin": margin})
            continue
        slots.append(len(pairs))
        pairs.append((xstar, x))
    if pairs:
        P = np.asarray(pairs)
        relations = batch_relations(c, P[:, :1], P[:, 1:], cfg)
    failures = []
    for slot in slots:
        if isinstance(slot, dict):
            failures.append(slot)
        elif relations[slot] == STRICTLY_DOMINATES:
            covered += 1
        else:
            xstar, x = pairs[slot]
            failures.append({"x": x, "xstar": xstar, "reason": "confirmation failed",
                             "relation": str(relations[slot])})
    return DominanceCoverageReport(
        window=(window_lo, window_hi), grid_n=grid_n, total=len(xs),
        excluded_near_critical=excluded, covered=covered,
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
                               radius: float | None = None, seed: int = 42) -> MexicanHatReport:
    """Global minima on the unit circle of the rotated well are not local
    minima of the scalar dominance order.

    Each circle point is paired with a nearby circle point inside its ball;
    the chord between them leaves the circle, so the profile rises strictly
    in the interior and weak descent fails in both directions.
    """
    if n_circle < 2:
        raise ValueError("need at least two circle points")
    cfg = cfg or ToleranceConfig()
    f = scalar_field("mexican_hat")
    radius = radius if radius is not None else 0.05 * f.domain.diameter()
    angles = 2.0 * PI * np.arange(n_circle) / n_circle
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    phi = 0.9 * min(radius, 1.0)  # witness stays inside the ball and on the circle
    records = []
    for i, theta in enumerate(angles):
        p = circle[i]
        q = np.array([math.cos(theta + phi), math.sin(theta + phi)])
        ball = sample_neighborhood(f.domain, p, radius, 512, seed + i).union(
            q[None, :], note="circle_witness")
        strict = is_strict_local_min_scalar(f, p, radius, ball, cfg)
        local_min = is_local_min_polyorder_scalar(f, p, radius, ball, cfg)
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


def minimal_candidate_points(n_max: int = 25, domain: Domain | None = None) -> np.ndarray:
    """Truncated minimal set (origin included) as dynamics candidates."""
    catalog = build_catalog(n_max)
    dom = domain or scalar_field("xsininv").domain
    pts = [x for x in catalog.minimal_points() if dom.contains([x])]
    return np.asarray(pts, float)[:, None]
