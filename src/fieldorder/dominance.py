"""Pairwise dominance relations between points of a field.

Two points x, y are compared along the straight segment y_eps =
eps*x + (1-eps)*y (eps=0 is y, eps=1 is x).

Vector fields: x weakly dominates y when the projection of c never points
toward x along the segment, i.e. delta(eps) = (x - y) . c(y_eps) <= 0 for
all eps.  Strict dominance additionally needs a point with delta < 0.
Scalar fields: x weakly dominates y when g(eps) = f(y_eps) is nonincreasing
in eps; strict dominance additionally needs a net drop f(y) - f(x) > 0.

The "for all eps" quantifier is undecidable for black-box evaluators, so a
verdict is a certificate relative to a tolerance configuration: a uniform
eps grid, bisection refinement around sign changes, and a slack band tau
inside which values count as ties.  Both directions of a comparison are
decided from one sweep of the shared segment (the reverse relation sees
-delta, resp. the reversed profile), which makes antisymmetry structural.

Every segment evaluation goes through one primitive, _profiles, which
builds the segment points of many (x, y) rows and evaluates the field once.
Vector rows are reduced with the arithmetic of a one-row values @ (x - y):
a stacked matmul for dim > 1, and for dim 1 the product plus 0.0 (a matmul
accumulates from +0.0, which turns a -0.0 product into +0.0; a stacked
matmul at dim 1 gives the same bits, several times slower).  So a screen
row and a single comparison of the same pair see the same bits.

Refinement bisects between adjacent samples (scalar: adjacent steps) whose
band signs are +1 and -1, at most MAX_REFINE_DEPTH times; only a single
comparison refines.  Added points only widen vector extremes, so it never
changes a vector relation (a split scalar step can shrink, so a scalar
relation can change).

One rule, _relations, turns a profile's band statistics into a relation,
for a single comparison and for the batch screens at the bottom of this
module (batch_relations) alike.  A row that is not Incomparable on the
uniform grid has no adjacent band signs +1 and -1, so it is never refined:
its screen relation is its verdict, and callers read it off the screen.
Analytic witness eps of a pair (segment_witnesses) are folded into its
vector screen row, so the screen decides those pairs too.

The vector screen walks the uniform grid coarse to fine, in disjoint
levels of grid indices: every 64th point, then the rest of every 16th
point, then everything else (a stride is used only when it divides
n_eps - 1).  The levels are index subsets of the one linspace array, so
their union is the full grid bit for bit, and a row's extremes are the
running max/min over the levels.  Extra points can only push a max up and
a min down, so a row whose coarse levels already reach above +tau and
below -tau is Incomparable in both directions on the full grid.  Callers
that read only the relation (batch_relations) may ask the screen to stop
evaluating such rows; every other row, and every row when they do not ask,
gets its exact full-grid extremes.  The scalar screen stays a single pass:
a coarse step is a sum of fine steps, not one of them, so step extremes do
not nest.

A vector field with affine parts c(p) = A p + b (matrix games, gradients
of quadratic forms, "linear", and their negations) has an exact profile
that is affine in eps, so its extremes over the segment are its endpoint
values.  batch_relations evaluates such rows at eps 0 and 1 only and
settles every row whose endpoint extremes clear the band edges +-tau by
more than twice a rigorous rounding bound (_affine_rounding_bound); there
the uniform-grid screen is certain to reach the same band predicates.
The few rows left open go through the screen as before, so every relation
is exactly the screen's.  Single comparisons, the extremes screens and the
local-min check do not use the certificate and still walk the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .fields import _MAX_GRID_POINTS, ScalarField, VectorField, require_in_domain

STRICTLY_DOMINATES = "StrictlyDominates"
WEAKLY_DOMINATES_NOT_STRICT = "WeaklyDominatesNotStrict"
INCOMPARABLE = "Incomparable"
REVERSE_STRICT = "ReverseStrict"
REVERSE_WEAK = "ReverseWeak"
EQUIVALENT = "Equivalent"

# bisection rounds of a single comparison; one value everywhere, so not a setting
MAX_REFINE_DEPTH = 20


@dataclass(frozen=True)
class ToleranceConfig:
    """Grid resolution and slack band for quantifier sweeps."""

    tau: float = 1e-9
    n_eps: int = 1025

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not 3 <= self.n_eps <= _MAX_GRID_POINTS:
            raise ValueError(f"n_eps must lie in [3, {_MAX_GRID_POINTS}]")

    def to_dict(self) -> dict:
        return {"tau": self.tau, "n_eps": self.n_eps, "max_refine_depth": MAX_REFINE_DEPTH}


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one pairwise comparison, with witnesses and the config used.

    max_delta/min_delta are the extreme decision statistics over the refined
    grid (vector: extremes of delta; scalar: largest consecutive rise and the
    more negative of largest consecutive drop and total change).
    """

    relation: str
    witness_eps_strict: float | None
    witness_eps_violation: tuple[float, ...] | None
    max_delta: float
    min_delta: float
    config: ToleranceConfig

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "witness_eps_strict": self.witness_eps_strict,
            "witness_eps_violation": (list(self.witness_eps_violation)
                                      if self.witness_eps_violation is not None else None),
            "max_delta": self.max_delta,
            "min_delta": self.min_delta,
            "config": self.config.to_dict(),
        }


def _profiles(field, xs: np.ndarray, ys: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(k, e) segment profiles of the rows (xs[i], ys[i]) at the e values eps.

    Scalar fields give g = f(eps x + (1-eps) y); vector fields give
    delta = (x - y) . c(eps x + (1-eps) y), bit-identical to a one-row
    ``values @ (x - y)`` (see the module docstring).
    """
    k, dim = xs.shape
    pts = eps[None, :, None] * xs[:, None, :] + (1.0 - eps)[None, :, None] * ys[:, None, :]
    vals = field.values(pts.reshape(-1, dim))
    if isinstance(field, ScalarField):
        return vals.reshape(k, -1)
    direction = xs - ys
    if dim == 1:
        delta = vals.reshape(k, -1) * direction
        delta += 0.0
        return delta
    return np.matmul(vals.reshape(k, -1, dim), direction[:, :, None])[:, :, 0]


def _band_sign(v: np.ndarray, tau: float) -> np.ndarray:
    return (v > tau).astype(np.int8) - (v < -tau).astype(np.int8)


def _extra_eps(extra_eps: Iterable[float]) -> np.ndarray:
    extra = np.asarray(list(extra_eps), float)
    if np.any((extra < 0) | (extra > 1)):
        raise ValueError("extra eps values must lie in [0, 1]")
    return extra


def _base_eps(cfg: ToleranceConfig, extra_eps: Iterable[float]) -> np.ndarray:
    eps = np.linspace(0.0, 1.0, cfg.n_eps)
    extra = _extra_eps(extra_eps)
    return np.unique(np.concatenate([eps, extra])) if extra.size else eps


def _endpoints(field, x, y):
    x = require_in_domain(field.domain, x)
    y = require_in_domain(field.domain, y)
    if x.shape != y.shape:
        raise DimensionMismatchError("compared points differ in dimension")
    return x, y


def _refined_profile(field, x, y, cfg: ToleranceConfig | None,
                     extra_eps: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(eps, profile) on the uniform grid plus extra_eps, refined near band-sign flips."""
    cfg = cfg or ToleranceConfig()
    x, y = _endpoints(field, x, y)
    xs, ys = x[None, :], y[None, :]
    scalar = isinstance(field, ScalarField)
    eps = _base_eps(cfg, extra_eps)
    vals = _profiles(field, xs, ys, eps)[0]
    for _ in range(MAX_REFINE_DEPTH):
        s = _band_sign(np.diff(vals) if scalar else vals, cfg.tau)
        flip = np.flatnonzero(s[:-1] * s[1:] == -1)
        if not flip.size:
            break
        if scalar:
            # an extremum hides near every flip: split both adjacent steps
            flip = np.union1d(flip, flip + 1)
        mids = 0.5 * (eps[flip] + eps[flip + 1])
        idx = np.searchsorted(eps, mids)
        eps = np.insert(eps, idx, mids)
        vals = np.insert(vals, idx, _profiles(field, xs, ys, mids)[0])
    return eps, vals


def segment_profile(c: VectorField, x, y, cfg: ToleranceConfig | None = None,
                    extra_eps: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """delta(eps) = (x - y) . c(eps*x + (1-eps)*y), sorted by eps, refined near sign changes."""
    return _refined_profile(c, x, y, cfg, extra_eps)


def scalar_profile(f: ScalarField, x, y, cfg: ToleranceConfig | None = None,
                   extra_eps: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
    """g(eps) = f(eps*x + (1-eps)*y), sorted by eps, refined where monotonicity flips."""
    return _refined_profile(f, x, y, cfg, extra_eps)


def _relations(hi, lo, drop, rise, tau: float) -> np.ndarray:
    """The relation of x to y from band statistics of their profile, rowwise.

    x weakly dominates y when hi <= tau, and strictly when drop < -tau as
    well; y weakly dominates x when lo >= -tau, and strictly when rise > tau
    as well.  Vector rows pass (max, min, min, max) of delta, scalar rows
    (largest step, smallest step, total change, total change) of g.  The
    first matching label wins, in the order of the select below.
    """
    fw, rw = hi <= tau, lo >= -tau
    return np.select([fw & (drop < -tau), rw & (rise > tau), fw & rw, fw, rw],
                     [STRICTLY_DOMINATES, REVERSE_STRICT, EQUIVALENT,
                      WEAKLY_DOMINATES_NOT_STRICT, REVERSE_WEAK], INCOMPARABLE)


def _verdict(eps: np.ndarray, profile: np.ndarray, cfg: ToleranceConfig,
             scalar: bool) -> DominanceVerdict:
    stats = np.diff(profile) if scalar else profile
    imax, imin = int(np.argmax(stats)), int(np.argmin(stats))
    hi, lo = float(stats[imax]), float(stats[imin])
    if scalar:
        drop = rise = float(profile[-1] - profile[0])  # f(x) - f(y)
        at = lambda i: float(0.5 * (eps[i] + eps[i + 1]))
    else:
        drop, rise = lo, hi
        at = lambda i: float(eps[i])
    relation = str(_relations(hi, lo, drop, rise, cfg.tau))
    strict = {STRICTLY_DOMINATES: at(imin), REVERSE_STRICT: at(imax)}.get(relation)
    violation = {WEAKLY_DOMINATES_NOT_STRICT: (at(imin),), REVERSE_WEAK: (at(imax),),
                 INCOMPARABLE: (at(imax), at(imin))}.get(relation)
    return DominanceVerdict(relation, strict, violation, hi, min(lo, drop), cfg)


def compare_vector(c: VectorField, x, y, cfg: ToleranceConfig | None = None,
                   extra_eps: Sequence[float] = ()) -> DominanceVerdict:
    """Decide the dominance relation between x and y under the vector field c.

    StrictlyDominates means x strictly dominates y (delta <= tau everywhere
    with some delta < -tau); ReverseStrict is the mirror statement.  For
    vector fields the weak-not-strict labels cannot occur: weakness in both
    directions collapses the whole profile into the tau band, i.e.
    Equivalent.
    """
    cfg = cfg or ToleranceConfig()
    eps, delta = segment_profile(c, x, y, cfg, extra_eps)
    return _verdict(eps, delta, cfg, scalar=False)


def compare_scalar(f: ScalarField, x, y, cfg: ToleranceConfig | None = None,
                   extra_eps: Sequence[float] = ()) -> DominanceVerdict:
    """Decide the dominance relation between x and y under the scalar field f.

    x weakly dominates y when every consecutive grid difference of g is at
    most tau (nonincreasing within slack); strictness additionally requires
    f(y) - f(x) > tau.  A nonincreasing profile fails to be nondecreasing
    exactly when it loses height overall, which is why the net drop decides
    strictness.
    """
    cfg = cfg or ToleranceConfig()
    eps, g = scalar_profile(f, x, y, cfg, extra_eps)
    return _verdict(eps, g, cfg, scalar=True)


# ---------------------------------------------------------------------------
# Vectorized screens over many pairs (uniform grid, no refinement)
# ---------------------------------------------------------------------------

# float64 bytes of segment points per screen block: 2**21 points at dim 1
_BLOCK_BYTES = 1 << 24
# coarse-to-fine strides of the vector screen's index levels, coarsest first
_LADDER_STRIDES = (64, 16)


def _broadcast_rows(xs, ys):
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    k = max(xs.shape[0], ys.shape[0])
    if xs.shape[0] == 1:
        xs = np.broadcast_to(xs, (k, xs.shape[1]))
    if ys.shape[0] == 1:
        ys = np.broadcast_to(ys, (k, ys.shape[1]))
    if xs.shape != ys.shape:
        raise DimensionMismatchError("xs and ys rows do not broadcast")
    return xs, ys


def _eps_levels(n_eps: int, strides: Sequence[int]) -> list[np.ndarray]:
    """The uniform grid split into disjoint index levels, coarsest first.

    Level i holds the points on every strides[i]-th index not in an earlier
    level; a stride that does not divide n_eps - 1 is skipped, and the last
    level holds everything left.
    """
    eps = np.linspace(0.0, 1.0, n_eps)
    idx = np.arange(n_eps)
    taken = np.zeros(n_eps, bool)
    levels = []
    for stride in strides:
        if (n_eps - 1) % stride == 0:
            level = (idx % stride == 0) & ~taken
            levels.append(eps[level])
            taken |= level
    levels.append(eps[~taken])
    return levels


def _blocks(rows: np.ndarray, n_points: int, dim: int) -> Iterator[np.ndarray]:
    """rows in consecutive blocks of at most _BLOCK_BYTES of segment points each."""
    step = max(1, _BLOCK_BYTES // (8 * n_points * dim))
    for s in range(0, rows.size, step):
        yield rows[s:s + step]


def batch_vector_extremes(c: VectorField, xs, ys, cfg: ToleranceConfig, *,
                          drop_incomparable: bool = False,
                          segment_witnesses=None) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise (max, min) of delta(eps) = (x_k - y_k) . c(eps x_k + (1-eps) y_k).

    Uniform-grid screen without refinement.  Adding grid points can only
    grow the max and shrink the min, so any row with max > tau is already
    certified as not weakly dominating.

    By default the screen is one pass over the full grid and every row gets
    its exact extremes.  With drop_incomparable, the grid is walked in
    disjoint coarse-to-fine index levels (see the module docstring) and a
    row stops being evaluated once it has max > tau and min < -tau.  Such a
    row returns its partial extremes, which already satisfy both of those
    predicates, so the four band predicates of every row are exactly those
    of the full grid; rows that are never dropped get their exact full-grid
    extremes.  Every (row, eps) point is evaluated at most once either way.

    segment_witnesses(x_k, y_k), when given, names extra eps values of a
    row (analytic sub-grid witnesses), one _profiles call per row; they are
    folded into the extremes of every row that is not dropped.  Such a row
    has the extremes of compare_vector(..., extra_eps=...) whenever that
    comparison does not refine, and its relation always.
    """
    xs, ys = _broadcast_rows(xs, ys)
    k, dim = xs.shape
    tau = cfg.tau
    levels = _eps_levels(cfg.n_eps, _LADDER_STRIDES if drop_incomparable else ())
    out_max, out_min = np.full(k, -np.inf), np.full(k, np.inf)
    live = np.arange(k)
    for level, eps in enumerate(levels):
        if level:
            live = live[~((out_max[live] > tau) & (out_min[live] < -tau))]
        for rows in _blocks(live, eps.size, dim):
            delta = _profiles(c, xs[rows], ys[rows], eps)
            out_max[rows] = np.maximum(out_max[rows], delta.max(axis=1))
            out_min[rows] = np.minimum(out_min[rows], delta.min(axis=1))
    for row in live if segment_witnesses is not None else ():
        extra = _extra_eps(segment_witnesses(xs[row], ys[row]))
        if extra.size:
            delta = _profiles(c, xs[row:row + 1], ys[row:row + 1], extra)
            out_max[row] = max(out_max[row], delta.max())
            out_min[row] = min(out_min[row], delta.min())
    return out_max, out_min


def batch_scalar_steps(f: ScalarField, xs, ys,
                       cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rowwise (max step, min step, total change) of g(eps) = f(eps x + (1-eps) y)."""
    xs, ys = _broadcast_rows(xs, ys)
    k, dim = xs.shape
    eps = np.linspace(0.0, 1.0, cfg.n_eps)
    smax, smin, total = np.empty(k), np.empty(k), np.empty(k)
    for rows in _blocks(np.arange(k), eps.size, dim):
        g = _profiles(f, xs[rows], ys[rows], eps)
        d = np.diff(g, axis=1)
        smax[rows] = d.max(axis=1)
        smin[rows] = d.min(axis=1)
        total[rows] = g[:, -1] - g[:, 0]
    return smax, smin, total


def batch_relations(field, xs, ys, cfg: ToleranceConfig, segment_witnesses=None) -> np.ndarray:
    """Rowwise relation of x_k to y_k, read off the uniform-grid screen.

    Uses the rule of compare_vector/compare_scalar on the screen statistics:
    vector rows come from batch_vector_extremes with drop_incomparable (the
    rule reads only the band predicates) and segment_witnesses folded in,
    scalar rows from batch_scalar_steps.  A row that is not Incomparable is
    never refined, so its relation is that of compare_* with the same extra
    eps; a vector row that is Incomparable stays so under refinement, a
    scalar one may not.  The step screen cannot fold witness eps (a witness
    splits a step), so scalar fields with segment_witnesses raise ValueError.

    A vector field with affine parts first has every row decided from its
    two endpoint values (see _affine_endpoints); only the rows that
    certificate leaves open go through the screen.  The relation of every
    row equals the screen's either way.
    """
    if isinstance(field, ScalarField):
        if segment_witnesses is not None:
            raise ValueError("the scalar step screen cannot fold segment witnesses")
        smax, smin, total = batch_scalar_steps(field, xs, ys, cfg)
        return _relations(smax, smin, total, total, cfg.tau)
    if field.affine is None:
        mx, mn = batch_vector_extremes(field, xs, ys, cfg, drop_incomparable=True,
                                       segment_witnesses=segment_witnesses)
    else:
        xs, ys = _broadcast_rows(xs, ys)
        mx, mn, settled = _affine_endpoints(field, xs, ys, cfg.tau)
        rest = np.flatnonzero(~settled)
        if rest.size:
            mx[rest], mn[rest] = batch_vector_extremes(
                field, xs[rest], ys[rest], cfg, drop_incomparable=True,
                segment_witnesses=segment_witnesses)
    return _relations(mx, mn, mn, mx, cfg.tau)


# ---------------------------------------------------------------------------
# Endpoint certificate for affine fields
# ---------------------------------------------------------------------------

# unit roundoff of float64, and the absolute error bound of a product that
# underflows (half the smallest subnormal, rounded up to it)
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1074


def _affine_rounding_bound(c: VectorField, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per-row E with |computed delta(eps) - exact delta(eps)| <= E at every eps in [0, 1].

    For c(p) = A p + b with d = x - y, s = |x| + |y| and n = dim, every
    value _profiles computes for the row, at any eps in [0, 1] and in any
    batch, obeys |computed - exact| <= E with

        E = 4 (2n + 8) (u |d|'(|A| s + |b|) + eta (|d|'(|A| 1 + 1) + 1)),

    |.| taken componentwise, u = 2**-53 and eta = 2**-1074.  With the
    standard model fl(a op b) = (a op b)(1 + t) + e, |t| <= u, where only a
    product can underflow (|e| <= eta), and g_k = k u / (1 - k u):

    * the segment point p^ = fl(fl(eps x) + fl(fl(1 - eps) y)) has
      |p^ - p| <= g_3 s + 3 eta, and |p| <= s for eps in [0, 1];
    * c^ = fl(A p^ + b), summed in any order (BLAS blocking and FMA
      included), has |c^ - c(p)| <= g_(n+4) (|A| s + |b|) + eta (4 |A| 1 + 2n);
    * d^ = fl(x - y) has |d^ - d| <= u |d|;
    * the reduction fl(d^' c^) (a stacked matmul, or a product plus 0.0 at
      n = 1) adds g_n |d^|' |c^| + 2n eta.

    Together |computed - exact| <= g_(2n+6) |d|'(|A| s + |b|) + (2n + 6) eta
    (|d|'(|A| 1 + 1) + 1), to first order in u.  The factor 2n + 8 over
    2n + 6 absorbs the higher-order terms, and the leading 4 absorbs the
    rounding of E itself (a sum of nonnegative terms, so at most a relative
    g_(2n+3) low).  An overflow makes E infinite or NaN, which settles no
    row.
    """
    A, b = c.affine
    n = xs.shape[1]
    absA = np.abs(A)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.abs(xs - ys)
        w = np.einsum("ki,ki->k", d, (np.abs(xs) + np.abs(ys)) @ absA.T + np.abs(b))
        z = d @ (absA.sum(axis=1) + 1.0) + 1.0
        return 4.0 * (2 * n + 8) * (_UNIT_ROUNDOFF * w + _UNDERFLOW * z)


def _affine_endpoints(c: VectorField, xs: np.ndarray,
                      ys: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max, min, settled) of each row's delta at eps 0 and 1, for an affine c.

    For c(p) = A p + b the exact profile delta(eps) = d'(A y + b) + eps d'A d
    is affine in eps, so its extremes over [0, 1] are its endpoint values.
    Every value the uniform-grid screen computes for the row (grid points,
    which include eps 0 and 1, and witness eps in [0, 1]) and both values
    computed here lie within E of that exact profile
    (_affine_rounding_bound).  So the screen's max and this max differ by
    at most 2E, and likewise the mins.  A row is settled when
    |max - tau| > 2E and |min + tau| > 2E: its band predicates, and so its
    relation, are then exactly those of the full screen.  Other rows must
    be screened.
    """
    k, dim = xs.shape
    ends = np.array([0.0, 1.0])
    out_max, out_min = np.empty(k), np.empty(k)
    for rows in _blocks(np.arange(k), ends.size, dim):
        delta = _profiles(c, xs[rows], ys[rows], ends)
        out_max[rows] = delta.max(axis=1)
        out_min[rows] = delta.min(axis=1)
    slack = 2.0 * _affine_rounding_bound(c, xs, ys)
    settled = (np.abs(out_max - tau) > slack) & (np.abs(out_min + tau) > slack)
    return out_max, out_min, settled
