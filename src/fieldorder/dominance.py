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
eps grid, plus any analytic witness eps, and a slack band tau inside which
values count as ties.  Both directions of a comparison are decided from
one sweep of the shared segment (the reverse relation sees -delta, resp.
the reversed profile), which makes antisymmetry structural.

Every segment evaluation goes through one primitive, _profiles, which
builds the segment points of many (x, y) rows and evaluates the field once.
A side that every row shares (the point p of a screen) stays one row: its
products with eps are formed once and added into the other side's, with
the same bits as the side repeated per row.  Vector rows are reduced with
the arithmetic of a one-row values @ (x - y): a stacked matmul for
dim > 1, and for dim 1 the product plus 0.0 (a matmul accumulates from
+0.0, which turns a -0.0 product into +0.0; a stacked matmul at dim 1
gives the same bits, several times slower).  So a screen row and a single
comparison of the same pair see the same bits at dim <= 7, and at any dim
when both use the same eps set: from dim 8 the BLAS product can round a
row differently by its position in the grid and by the grid's length.

A single comparison reads one profile: the uniform grid plus the witness
eps of its pair.  A field's analytic sub-grid witnesses come from its
batch provider, field.witnesses(xs, ys) -> (rows, eps): rows are the
strictly increasing indices of the (xs, ys) rows that have witnesses, and
eps holds one row of extra eps in [0, 1] for each.  Every screen asks it
once and folds those eps in, so it decides a pair on the points the pair's
comparison evaluates.  One rule, _relations, turns band statistics into a
relation for a comparison and a screen (batch_relations) alike, so a
screen row's relation is the verdict of its pair, from the same bits at
dim <= 7, and callers read it off the screen.

The vector screen walks the uniform grid coarse to fine, in disjoint
levels of grid indices: every 64th point, then the rest of every 16th
point, then everything else (a stride is used only when it divides
n_eps - 1).  The levels are index subsets of the one linspace array, so
their union is the full grid bit for bit, and a row's extremes are the
running max/min over the levels.  Extra points can only push a max up and
a min down, so a row whose coarse levels already reach above +tau and
below -tau is Incomparable in both directions on the full grid, and the
screen stops evaluating it; every other row gets its exact full-grid
extremes.  Scalar step extremes do not nest (a coarse step is a sum of
fine steps, not one of them), so the scalar screen reads its one coarse
level, every 64th point, as a certificate instead (batch_scalar_steps).

Every screen runs in blocks of rows holding at most _BLOCK_BYTES of
segment points.  The field's temporaries are about as large again each, so
the bound is chosen small enough that a block's working set stays in a
core's cache instead of streaming through memory and touching freshly
mapped pages; a measured sweep set it.

A vector field with affine parts c(p) = A p + b (matrix games, gradients
of quadratic forms, "linear", and their negations) has a profile affine in
eps, so batch_relations first settles its rows from the two endpoint
values wherever that provably gives the screen's relation (_affine_endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError
from .fields import _MAX_GRID_POINTS, ScalarField, VectorField, require_in_domain

STRICTLY_DOMINATES = "StrictlyDominates"
WEAKLY_DOMINATES_NOT_STRICT = "WeaklyDominatesNotStrict"
INCOMPARABLE = "Incomparable"
REVERSE_STRICT = "ReverseStrict"
REVERSE_WEAK = "ReverseWeak"
EQUIVALENT = "Equivalent"


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
        # max_refine_depth echoes a bisection refinement that no longer runs;
        # still written because the verdict and manifest bytes are pinned
        return {"tau": self.tau, "n_eps": self.n_eps, "max_refine_depth": 20}


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one pairwise comparison, with witnesses and the config used.

    max_delta/min_delta are the extreme decision statistics over the uniform
    grid plus any witness eps (vector: extremes of delta; scalar: largest
    consecutive rise and the more negative of largest consecutive drop and
    total change).
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


def _scaled(w: np.ndarray, side: np.ndarray) -> np.ndarray:
    """(k, e, dim) products w[e] * side[k, d], one coordinate at a time.

    w is one (e,) eps set shared by every row, or a (k, e) set per row;
    either way each element is the one product fl(w * side[k, d]).  Each
    multiply runs along eps, a loop as long as the grid; one broadcast
    multiply would run its inner loop over the dim coordinates instead.
    """
    w = np.atleast_2d(w)
    dim = side.shape[1]
    out = np.empty((max(w.shape[0], side.shape[0]), w.shape[1], dim))
    for d in range(dim):
        np.multiply(w, side[:, d, None], out=out[:, :, d])
    return out


def _segment_points(xs: np.ndarray, ys: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(k, e, dim) points eps*x + (1-eps)*y of the rows (xs[i], ys[i]).

    eps is one (e,) set, or a (k, e) set per row.  Either side may be one
    row that every row shares.  With one eps set, its products with eps are
    formed once, as an (e, dim) array, and added into the other side's
    products in place, so a block holds one full-size array.  Each point is
    fl(fl(eps x) + fl((1 - eps) y)) whichever side is the single row, since
    floating-point addition is commutative.
    """
    ex, ey = _scaled(eps, xs), _scaled(1.0 - eps, ys)
    if xs.shape[0] == 1:
        return np.add(ey, ex, out=ey)
    return np.add(ex, ey, out=ex)


def _deltas(vals: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """(k, e) products of (k, e, dim) field values with the (k, dim) directions x - y."""
    k, e, dim = vals.shape
    if dim == 1:
        delta = vals.reshape(k, e) * direction
        delta += 0.0
        return delta
    return np.matmul(vals, direction[:, :, None])[:, :, 0]


def _profiles(field, xs: np.ndarray, ys: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(k, e) segment profiles of the rows (xs[i], ys[i]) at the e values eps,
    or at eps[i] for a (k, e) set per row.

    Scalar fields give g = f(eps x + (1-eps) y); vector fields give
    delta = (x - y) . c(eps x + (1-eps) y), bit-identical to a one-row
    ``values @ (x - y)`` over the same eps, and at dim <= 7 over any eps
    set holding the same points (see the module docstring).  Either side
    may be a single (1, dim) row shared by every row; the profile is
    bitwise that of the side repeated k times (_segment_points), and a row
    with its own eps has the bits of a one-row call over them.
    """
    pts = _segment_points(xs, ys, eps)
    k, e, dim = pts.shape
    vals = field.values(pts.reshape(-1, dim))
    if isinstance(field, ScalarField):
        return vals.reshape(k, e)
    return _deltas(vals.reshape(k, e, dim), xs - ys)


def _witnesses(field, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, eps) of field.witnesses on the rows (xs, ys), none without a
    provider.  ValueError unless rows are strictly increasing rows of the
    batch, eps is (len(rows), m) and every eps lies in [0, 1]."""
    if field.witnesses is None:
        return np.empty(0, np.intp), np.empty((0, 0))
    rows, eps = field.witnesses(xs, ys)
    rows, eps = np.asarray(rows, np.intp), np.asarray(eps, float)
    if not (rows.ndim == 1 and eps.ndim == 2 and len(eps) == rows.size
            and np.all(np.diff(rows) > 0) and np.all((rows >= 0) & (rows < len(xs)))):
        raise ValueError(f"witness rows {rows.tolist()} must be strictly increasing rows of a "
                         f"{len(xs)}-row batch, each with one row of eps (got {eps.shape})")
    if not np.all((eps >= 0) & (eps <= 1)):  # NaN fails both
        raise ValueError("witness eps values must lie in [0, 1]")
    return rows, eps


def _joined(eps: np.ndarray, extra: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The grid eps joined with each row of witness eps extra, sorted with
    repeats dropped (np.unique's construction, row by row), grouped by
    length: (indices into extra, (g, e) eps sets)."""
    both = np.sort(np.hstack([np.broadcast_to(eps, (len(extra), eps.size)), extra]), axis=1)
    keep = np.ones(both.shape, bool)
    keep[:, 1:] = both[:, 1:] != both[:, :-1]
    lengths = keep.sum(axis=1)
    for e in np.unique(lengths):
        group = np.flatnonzero(lengths == e)
        yield group, both[group][keep[group]].reshape(group.size, e)


def _endpoints(field, x, y):
    x = require_in_domain(field.domain, x)
    y = require_in_domain(field.domain, y)
    if x.shape != y.shape:
        raise DimensionMismatchError("compared points differ in dimension")
    return x, y


def profile(field, x, y, cfg: ToleranceConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(eps, profile) of the segment from y to x, sorted by eps.

    The profile is delta(eps) = (x - y) . c(eps*x + (1-eps)*y) for a vector
    field and g(eps) = f(eps*x + (1-eps)*y) for a scalar one, on the uniform
    grid plus the eps field.witnesses gives the row (x, y).
    """
    cfg = cfg or ToleranceConfig()
    x, y = _endpoints(field, x, y)
    xs, ys = x[None, :], y[None, :]
    eps = np.linspace(0.0, 1.0, cfg.n_eps)
    _, extra = _witnesses(field, xs, ys)
    if extra.size:
        eps = next(_joined(eps, extra))[1][0]
    return eps, _profiles(field, xs, ys, eps)[0]


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


def compare_vector(c: VectorField, x, y, cfg: ToleranceConfig | None = None) -> DominanceVerdict:
    """Decide the dominance relation between x and y under the vector field c.

    StrictlyDominates means x strictly dominates y (delta <= tau everywhere
    with some delta < -tau); ReverseStrict is the mirror statement.  For
    vector fields the weak-not-strict labels cannot occur: weakness in both
    directions collapses the whole profile into the tau band, i.e.
    Equivalent.
    """
    cfg = cfg or ToleranceConfig()
    eps, delta = profile(c, x, y, cfg)
    return _verdict(eps, delta, cfg, scalar=False)


def compare_scalar(f: ScalarField, x, y, cfg: ToleranceConfig | None = None) -> DominanceVerdict:
    """Decide the dominance relation between x and y under the scalar field f.

    x weakly dominates y when every consecutive grid difference of g is at
    most tau (nonincreasing within slack); strictness additionally requires
    f(y) - f(x) > tau.  A nonincreasing profile fails to be nondecreasing
    exactly when it loses height overall, which is why the net drop decides
    strictness.
    """
    cfg = cfg or ToleranceConfig()
    eps, g = profile(f, x, y, cfg)
    return _verdict(eps, g, cfg, scalar=True)


# ---------------------------------------------------------------------------
# Vectorized screens over many pairs
# ---------------------------------------------------------------------------

# float64 bytes of segment points per screen block (32,768 points at dim 1),
# the one memory bound of every screen and certificate block
_BLOCK_BYTES = 1 << 18
# coarse-to-fine strides of the vector screen's index levels, coarsest first;
# the scalar screen's one coarse level is the first
_LADDER_STRIDES = (64, 16)


def _broadcast_rows(xs, ys):
    """xs and ys as (k, dim) float arrays; a one-row side becomes a stride-0 view."""
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


def _rows(side: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """side[rows], or the one row of a side whose rows all share it (stride 0)."""
    return side[:1] if side.strides[0] == 0 else side[rows]


def _eps_levels(n_eps: int) -> list[np.ndarray]:
    """The uniform grid split into disjoint index levels, coarsest first.

    Level i holds the points on every _LADDER_STRIDES[i]-th index not in an
    earlier level; a stride that does not divide n_eps - 1 is skipped, and
    the last level holds everything left.
    """
    eps = np.linspace(0.0, 1.0, n_eps)
    idx = np.arange(n_eps)
    taken = np.zeros(n_eps, bool)
    levels = []
    for stride in _LADDER_STRIDES:
        if (n_eps - 1) % stride == 0:
            level = (idx % stride == 0) & ~taken
            levels.append(eps[level])
            taken |= level
    levels.append(eps[~taken])
    return levels


def _blocks(rows: np.ndarray, n_points: int, dim: int) -> Iterator[np.ndarray]:
    """rows in consecutive blocks of at most _BLOCK_BYTES of segment points each.

    A block always holds at least one row, so a row of more than
    _BLOCK_BYTES of points makes a block of its own that exceeds the bound.
    """
    step = max(1, _BLOCK_BYTES // (8 * n_points * dim))
    for s in range(0, rows.size, step):
        yield rows[s:s + step]


def batch_vector_extremes(c: VectorField, xs, ys,
                          cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise (max, min) of delta(eps) = (x_k - y_k) . c(eps x_k + (1-eps) y_k).

    Uniform-grid screen.  Adding grid points can only grow the max and
    shrink the min, so any row with max > tau is already certified as not
    weakly dominating.

    The grid is walked in disjoint coarse-to-fine index levels (see the
    module docstring), and a row stops being evaluated once it has
    max > tau and min < -tau.  Such a row returns its partial extremes,
    which already satisfy both of those predicates, so the four band
    predicates of every row are exactly those of the full grid; rows that
    are never dropped get their exact full-grid extremes.  Every (row, eps)
    point is evaluated at most once.

    c.witnesses, when set, is called once, on the rows that are not
    dropped, and the eps it names are evaluated in blocks and folded into
    those rows' extremes.  Such a row has the extremes and the relation of
    compare_vector, bit for bit at dim <= 7 (see the module docstring).
    """
    xs, ys = _broadcast_rows(xs, ys)
    k, dim = xs.shape
    tau = cfg.tau
    out_max, out_min = np.full(k, -np.inf), np.full(k, np.inf)

    def fold(rows, delta):
        out_max[rows] = np.maximum(out_max[rows], delta.max(axis=1))
        out_min[rows] = np.minimum(out_min[rows], delta.min(axis=1))

    live = np.arange(k)
    for level, eps in enumerate(_eps_levels(cfg.n_eps)):
        if level:
            live = live[~((out_max[live] > tau) & (out_min[live] < -tau))]
        for rows in _blocks(live, eps.size, dim):
            fold(rows, _profiles(c, _rows(xs, rows), _rows(ys, rows), eps))
    if c.witnesses is not None and live.size:
        found, eps = _witnesses(c, xs[live], ys[live])
        if eps.size:
            witnessed = live[found]
            for block in _blocks(np.arange(witnessed.size), eps.shape[1], dim):
                rows = witnessed[block]
                fold(rows, _profiles(c, _rows(xs, rows), _rows(ys, rows), eps[block]))
    return out_max, out_min


def _step_stats(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rowwise (max step, min step, total change) of (k, e) profiles g."""
    d = np.diff(g, axis=1)
    return d.max(axis=1), d.min(axis=1), g[:, -1] - g[:, 0]


def batch_scalar_steps(f: ScalarField, xs, ys,
                       cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rowwise (max step, min step, total change) of g(eps) = f(eps x + (1-eps) y).

    f.witnesses is asked once, about every row; a row's eps set is the
    uniform grid plus its witness eps, as in its comparison.  When
    s = _LADDER_STRIDES[0] (a power of two) divides n_eps - 1 and the coarse
    grid eps[::s] has at least two steps (one step cannot cross both band
    edges), every row is first evaluated on that coarse grid, the same bits
    as those points of its eps set.  A row with a coarse step above T and
    one below -T is Incomparable on its eps set (see below).  It stops
    there and returns its coarse step extremes, which satisfy max step >
    tau and min step < -tau, and its exact total change (the coarse grid
    holds both ends).  Every other row takes one pass over its eps set
    (_joined for a witnessed row) and gets its comparison's statistics; it
    so evaluates its coarse points twice, the one cost the pre-screen adds.

    The certificate.  A coarse step spans s grid steps, which m witness eps
    split into at most s + m steps of the eps set; let P be s for a row
    without witnesses and the least power of two >= s + m for a row with m.
    Let E = g[i+s] - g[i] exactly, the sum of those exact steps D_j.  The
    computed coarse step is C = fl(E) = E(1 + d) with |d| <= u = 2**-53 (a
    difference of two floats that lands in the subnormal range is exact),
    and a computed step is fl(D_j) >= D_j(1 - u) for D_j > 0.  The threshold
    is T = fl(x), x = P tau (1 + 2**-50): P tau is exact for a power of two
    P, subnormal tau included, so T rounds once, and a float C > fl(x) has
    C > x under round to nearest (no float lies in (fl(x), x]).  Then E >=
    C / (1 + u) > P tau (1 + 2**-50) / (1 + u), some D_j >= E / P, and
    fl(D_j) > tau (1 + 8u)(1 - u) / (1 + u) > tau.  So the eps set has a
    step above tau; the mirror argument gives one below -tau when C < -T.
    An overflow makes T infinite, which certifies no row.
    """
    xs, ys = _broadcast_rows(xs, ys)
    k, dim = xs.shape
    n, s = cfg.n_eps, _LADDER_STRIDES[0]
    eps = np.linspace(0.0, 1.0, n)
    smax, smin, total = np.empty(k), np.empty(k), np.empty(k)
    found, extra = _witnesses(f, xs, ys)
    live, plain = np.ones(k, bool), np.ones(k, bool)
    plain[found] = False
    if (n - 1) % s == 0 and n - 1 >= 2 * s:
        for rows in _blocks(np.arange(k), (n - 1) // s + 1, dim):
            g = _profiles(f, _rows(xs, rows), _rows(ys, rows), eps[::s])
            smax[rows], smin[rows], total[rows] = _step_stats(g)
        steps = np.where(plain, s, 1 << (s + extra.shape[1] - 1).bit_length())
        bound = steps * cfg.tau * (1.0 + 2.0 ** -50)
        live = (smax <= bound) | (smin >= -bound)
    for rows in _blocks(np.flatnonzero(live & plain), n, dim):
        g = _profiles(f, _rows(xs, rows), _rows(ys, rows), eps)
        smax[rows], smin[rows], total[rows] = _step_stats(g)
    for block in _blocks(np.flatnonzero(live[found]), n + extra.shape[1], dim):
        for group, grids in _joined(eps, extra[block]):
            rows = found[block[group]]
            g = _profiles(f, _rows(xs, rows), _rows(ys, rows), grids)
            smax[rows], smin[rows], total[rows] = _step_stats(g)
    return smax, smin, total


def batch_relations(field, xs, ys, cfg: ToleranceConfig) -> np.ndarray:
    """Rowwise relation of x_k to y_k, read off the uniform-grid screen.

    Uses the rule of compare_vector/compare_scalar on the band predicates
    of batch_vector_extremes or batch_scalar_steps, with the field's
    witness eps folded in, so every row's relation is that of compare_*
    (see the module docstring for dim >= 8).  A vector field with affine
    parts first settles what rows it can from their two endpoint values
    (_affine_endpoints), and screens the rest.
    """
    if isinstance(field, ScalarField):
        smax, smin, total = batch_scalar_steps(field, xs, ys, cfg)
        return _relations(smax, smin, total, total, cfg.tau)
    if field.affine is None:
        mx, mn = batch_vector_extremes(field, xs, ys, cfg)
    else:
        xs, ys = _broadcast_rows(xs, ys)
        mx, mn, settled = _affine_endpoints(field, xs, ys, cfg.tau)
        rest = np.flatnonzero(~settled)
        if rest.size:
            mx[rest], mn[rest] = batch_vector_extremes(field, _rows(xs, rest),
                                                       _rows(ys, rest), cfg)
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
    value _profiles or _affine_endpoints computes for the row obeys
    |computed - exact| <= E, at any eps in [0, 1], in any batch, at any
    position of a grid row and whether or not a side is one shared row,
    with

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
    computed here (the segment kernel at eps 0 and 1, whose points are
    built as every grid builds them, and an affine batch gives a row the
    same bits in any batch) lie within E of that exact profile
    (_affine_rounding_bound).  So the screen's max and this max differ by
    at most 2E, and likewise the mins.  A row is settled when
    |max - tau| > 2E and |min + tau| > 2E: its band predicates, and so its
    relation, are then exactly those of the full screen.  Other rows must
    be screened.  Rows are certified in blocks of two points each
    (_blocks), so the temporaries stay within the screen's memory bound.
    """
    k = xs.shape[0]
    out_max, out_min, settled = np.empty(k), np.empty(k), np.empty(k, bool)
    for rows in _blocks(np.arange(k), 2, xs.shape[1]):
        bx, by = xs[rows], ys[rows]
        ends = _profiles(c, bx, by, np.array([0.0, 1.0]))
        mx, mn = ends.max(axis=1), ends.min(axis=1)
        slack = 2.0 * _affine_rounding_bound(c, bx, by)
        out_max[rows], out_min[rows] = mx, mn
        settled[rows] = (np.abs(mx - tau) > slack) & (np.abs(mn + tau) > slack)
    return out_max, out_min, settled
