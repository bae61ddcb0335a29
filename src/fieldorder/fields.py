"""Domains, points, and evaluatable fields.

Points are plain 1-D float64 numpy arrays (``as_point`` validates and
freezes them).  Domains are closed convex sets of three kinds: axis-aligned
boxes, mass simplexes ``{x >= 0, sum(x) = mass}``, and products of
simplexes.  A scalar or vector field is one deterministic batch map over a
domain, so that sweep code evaluates thousands of segment points in one
numpy call.  Two places call it, and both check each answer through
``_checked``.  ``values`` checks that the points are as wide as the
domain, the shape of every batch and that every value is finite, raising
``DimensionMismatchError`` or ``ValueError``; ``value`` is its one-row
case.  ``row_values``, the integrator's stage evaluator, maps one state
row of Python floats to the field's row of Python floats.  The closed-form
stock vector fields and every 1-D affine map carry ``row``, an exact
one-row map on floats that gives bit for bit the row their batch gives.
``row_values`` takes that answer when it is as wide as the domain and
finite; otherwise it runs the batch on the one row, checks it in place,
and passes any answer it rejects to ``_checked``, so it raises what
``values`` raises.  A domain's
``contains_row`` tests one such row as ``contains_rows`` would.  Every
affine map is built by ``affine_field``, whose rows do not depend on
their batch.

All objects are immutable after construction and all operations are pure,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import le
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DomainViolationError

CONTAINMENT_TOL = 1e-12
# cap on the points of any Grid sample, counted before the grid is built
_MAX_GRID_POINTS = 2_000_000


def as_point(coords) -> np.ndarray:
    """Validate coords as a finite 1-D point and return a frozen copy."""
    p = np.atleast_1d(np.asarray(coords, dtype=np.float64)).copy()
    if p.ndim != 1 or p.size == 0:
        raise DimensionMismatchError(f"point must be a nonempty 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point has non-finite coordinates: {p}")
    p.setflags(write=False)
    return p


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class _RowContainment:
    """A domain's point test is the one-row case of its contains_rows: a
    point is in the domain when its only row is."""

    def contains_row(self, r: Sequence[float]) -> bool:
        """Whether the one row r (a sequence of floats) lies in the domain,
        as contains_rows decides it."""
        return bool(self.contains_rows(np.array([r], float))[0])


@dataclass(frozen=True)
class Box(_RowContainment):
    """Axis-aligned box [lower, upper], closed and convex."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo, up = np.asarray(self.lower, float), np.asarray(self.upper, float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionMismatchError("box bounds must be 1-D and of equal length")
        if not np.all(lo <= up):
            raise ValueError("box requires lower <= upper componentwise")
        # the bounds contains_rows compares against, computed once, and the
        # same floats as lists for contains_row, which the integrator calls
        # every step
        lo, up = _frozen(lo - CONTAINMENT_TOL), _frozen(up + CONTAINMENT_TOL)
        object.__setattr__(self, "_bounds", (lo, up))
        object.__setattr__(self, "_row_bounds", (lo.tolist(), up.tolist()))

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains_rows(self, P) -> np.ndarray:
        """Whether each row of P lies in the box within CONTAINMENT_TOL."""
        P = np.asarray(P, float)
        lo, up = self._bounds
        if P.shape[1:] != lo.shape:
            return np.zeros(len(P), bool)
        return ((P >= lo) & (P <= up)).all(axis=1)

    def contains_row(self, r: Sequence[float]) -> bool:
        """contains_rows of the one row r, on Python floats: the same two
        comparisons per coordinate, mapped over the cached bound lists, so
        NaN is outside."""
        lo, up = self._row_bounds
        return len(r) == len(lo) and all(map(le, lo, r)) and all(map(le, r, up))

    def clip(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, np.asarray(self.lower), np.asarray(self.upper))

    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.upper) - np.asarray(self.lower)))


@dataclass(frozen=True)
class Simplex(_RowContainment):
    """The set {x in R^dim : x >= 0, sum(x) = mass}."""

    mass: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("simplex mass must be finite and positive")
        if self.dim < 1:
            raise ValueError("simplex dim must be >= 1")

    def contains_rows(self, P) -> np.ndarray:
        """Whether each row of P is >= -CONTAINMENT_TOL with a sum within
        CONTAINMENT_TOL of mass."""
        P = np.asarray(P, float)
        if P.shape[1:] != (self.dim,):
            return np.zeros(len(P), bool)
        return ((P >= -CONTAINMENT_TOL).all(axis=1)
                & (np.abs(P.sum(axis=1) - self.mass) <= CONTAINMENT_TOL))

    def diameter(self) -> float:
        # distance between two vertices
        return self.mass * math.sqrt(2.0) if self.dim > 1 else 0.0

    def vertices(self) -> np.ndarray:
        return self.mass * np.eye(self.dim)

    def barycenter(self) -> np.ndarray:
        return np.full(self.dim, self.mass / self.dim)


@dataclass(frozen=True)
class Product(_RowContainment):
    """Cartesian product of simplexes (strategy-profile spaces)."""

    parts: tuple[Simplex, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("product domain needs at least one part")

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.parts)

    def contains_rows(self, P) -> np.ndarray:
        """Whether each block of each row of P lies in its simplex."""
        P = np.asarray(P, float)
        if P.shape[1:] != (self.dim,):
            return np.zeros(len(P), bool)
        ok, k = np.ones(len(P), bool), 0
        for s in self.parts:
            ok &= s.contains_rows(P[:, k:k + s.dim])
            k += s.dim
        return ok

    def diameter(self) -> float:
        return math.sqrt(sum(s.diameter() ** 2 for s in self.parts))


Domain = Union[Box, Simplex, Product]


def require_in_domain(domain: Domain, p) -> np.ndarray:
    p = as_point(p)
    if not domain.contains_row(p.tolist()):
        raise DomainViolationError(f"point {p.tolist()} outside domain {domain}")
    return p


# ---------------------------------------------------------------------------
# Sampling strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    n_per_axis: int


@dataclass(frozen=True)
class SeededRandom:
    count: int


Strategy = Union[Grid, SeededRandom]


@dataclass(frozen=True)
class SampleSet:
    """A deterministic finite stand-in for 'for all x in X' quantifiers."""

    points: np.ndarray = field(repr=False)  # (n, dim), read-only
    strategy: str = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(np.atleast_2d(self.points)))

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def union(self, extra: np.ndarray, note: str = "extra") -> "SampleSet":
        extra = np.atleast_2d(np.asarray(extra, float))
        pts = np.vstack([self.points, extra])
        return SampleSet(pts, strategy=f"{self.strategy}+{note}({extra.shape[0]})")


def _simplex_grid_size(s: Simplex, n: int) -> int:
    return math.comb(n - 2 + s.dim, s.dim - 1) if n >= 2 else 1


def _simplex_grid(s: Simplex, n: int) -> np.ndarray:
    # all compositions of (n - 1) levels into s.dim coordinates
    if n < 2:
        return s.barycenter()[None, :]
    rows = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], n - 1, s.dim)
    return np.asarray(rows, float) * (s.mass / (n - 1))


def _cartesian(blocks: Sequence[np.ndarray]) -> np.ndarray:
    out = blocks[0]
    for b in blocks[1:]:
        out = np.hstack([
            np.repeat(out, b.shape[0], axis=0),
            np.tile(b, (out.shape[0], 1)),
        ])
    return out


def sample_domain(domain: Domain, strategy: Strategy, seed: int = 0) -> SampleSet:
    """Deterministic sample of a domain; equal arguments give bit-identical output."""
    rng = np.random.default_rng(seed)
    if isinstance(domain, Simplex):  # sampled exactly as its one-part product
        domain = Product((domain,))
    if isinstance(strategy, Grid):
        n = strategy.n_per_axis
        if n < 1:
            raise ValueError("grid size must be positive")
        if isinstance(domain, Box):
            size = n ** domain.dim
        else:
            size = math.prod(_simplex_grid_size(s, n) for s in domain.parts)
        if size > _MAX_GRID_POINTS:
            raise ValueError("grid too large for this dimension")
        if isinstance(domain, Box):
            axes = [np.linspace(lo, up, n) for lo, up in zip(domain.lower, domain.upper)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=-1)
        else:
            pts = _cartesian([_simplex_grid(s, n) for s in domain.parts])
        return SampleSet(pts, strategy=f"grid(n_per_axis={n})")

    if isinstance(strategy, SeededRandom):
        count = strategy.count
        if not 1 <= count <= _MAX_GRID_POINTS:
            raise ValueError(f"sample count must lie in [1, {_MAX_GRID_POINTS}]")
        if isinstance(domain, Box):
            lo, up = np.asarray(domain.lower), np.asarray(domain.upper)
            pts = lo + rng.random((count, domain.dim)) * (up - lo)
        else:
            vertices = _cartesian([s.vertices() for s in domain.parts])
            bary = np.hstack([s.barycenter() for s in domain.parts])[None, :]
            fixed = np.vstack([vertices, bary])
            if count <= fixed.shape[0]:
                pts = fixed[:count]
            else:
                blocks = [rng.dirichlet(np.ones(s.dim), size=count - fixed.shape[0]) * s.mass
                          for s in domain.parts]
                pts = np.vstack([fixed, np.hstack(blocks)])
        return SampleSet(pts, strategy=f"seeded(count={count})")

    raise TypeError(f"unknown sampling strategy: {strategy!r}")


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Deterministic f: X -> R given by one batch map (n, dim) -> (n,).

    witnesses, when set, is the batch provider of exact sub-grid eps on
    the field's segments, which every comparison and screen of the field
    folds in (see dominance); only scalar_field, vector_field and negate
    set it.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    label: str
    witnesses: Callable | None = field(default=None, compare=False, repr=False)

    def value(self, p) -> float:
        return float(self.values(np.asarray(p, float).reshape(1, -1))[0])

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = _points(self, pts)
        return _checked(self, pts, np.asarray(self.batch(pts), float), (pts.shape[0],))


@dataclass(frozen=True)
class VectorField:
    """Deterministic c: X -> R^dim given by one batch map (n, dim) -> (n, dim).

    affine, when set, is the exact (A, b) with c(x) = A x + b that batch
    evaluates in floating point; the dominance screens use it to certify
    rows from two segment points.  Only affine_field and negate set it.
    witnesses is the witness provider, as for ScalarField.  row, when set,
    maps one point r, a list of Python floats, to the list that
    batch(np.array([r]))[0].tolist() is, bit for bit signed zeros
    included, on every row; the integrator's stages read it through
    row_values.  Only vector_field, affine_field (at dim 1) and negate set
    it.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    label: str
    affine: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False,
                                                         repr=False)
    witnesses: Callable | None = field(default=None, compare=False, repr=False)
    row: Callable[[list], list] | None = field(default=None, compare=False, repr=False)

    def value(self, p) -> np.ndarray:
        return self.values(np.asarray(p, float).reshape(1, -1))[0]

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = _points(self, pts)
        return _checked(self, pts, np.asarray(self.batch(pts), float), pts.shape)


AnyField = Union[ScalarField, VectorField]


def _points(f: AnyField, pts) -> np.ndarray:
    """pts as an (n, dim) float array for f's domain, else DimensionMismatchError."""
    pts = np.atleast_2d(np.asarray(pts, float))
    if pts.ndim != 2 or pts.shape[1] != f.domain.dim:
        raise DimensionMismatchError(f"field {f.label!r} on a {f.domain.dim}-D domain "
                                     f"got points of shape {pts.shape}")
    return pts


def _checked(f: AnyField, pts: np.ndarray, vals: np.ndarray, shape: tuple) -> np.ndarray:
    """vals, once its shape and finiteness are verified for the whole batch."""
    if vals.shape != shape:
        raise DimensionMismatchError(
            f"field {f.label!r} returned shape {vals.shape} for points of shape {pts.shape}")
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals.reshape(pts.shape[0], -1)).all(axis=1)
        raise ValueError(f"field {f.label!r} returned non-finite value at "
                         f"{pts[np.argmax(bad)].tolist()}")
    return vals


def row_values(f: VectorField) -> Callable[[list], list]:
    """f.values for one flow's states, from a row of floats to a row of floats.

    The returned stage takes a state r, a list of Python floats as wide as
    f's domain.  When f has a row map, the stage returns its answer if it
    is as wide as the domain and every entry is finite.  Otherwise, and
    whenever that check fails, it runs f's batch once on np.array([r]) and
    accepts an answer k of that shape whose entries are all finite,
    returning k's row as Python floats, the list its finiteness check
    read.  Any other answer goes to _checked, which raises the error that
    values raises, with the same message, without running the batch again.
    """
    batch, row, width, isfinite = f.batch, f.row, f.domain.dim, math.isfinite

    def batch_stage(r: list) -> list:
        p = np.array([r], float)
        k = np.asarray(batch(p), float)
        out = k[0].tolist() if k.shape == p.shape else None
        if out is None or not all(map(isfinite, out)):
            _checked(f, p, k, p.shape)  # raises: the wrong shape or a non-finite entry
        return out

    if row is None:
        return batch_stage

    def stage(r: list) -> list:
        out = row(r)
        if len(out) == width and all(map(isfinite, out)):
            return out
        return batch_stage(r)

    return stage


def affine_field(A, b, domain: Domain, label: str) -> VectorField:
    """The vector field c(x) = A x + b: the one constructor of an affine map.

    affine holds read-only copies of (A, b), and the batch evaluates them,
    so no caller array can change the map afterwards.  Each row is one
    einsum row over C-ordered points: unlike a BLAS matmul, a row's value
    then depends neither on how many rows share its batch nor on their
    layout, so value(p) is bitwise a row of values.  At dim 1 the field
    also has the row map of that einsum on floats.
    """
    A, b, n = _frozen(np.array(A, np.float64)), _frozen(np.array(b, np.float64)), domain.dim
    if A.shape != (n, n) or b.shape != (n,):
        raise DimensionMismatchError(f"an affine map on a {n}-D domain needs an {n}x{n} A "
                                     f"and {n} b entries, got {A.shape} and {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("an affine map has non-finite entries")

    def batch(P):
        out = np.einsum("nj,ij->ni", np.ascontiguousarray(P), A)
        out += b
        return out

    row = None
    if n == 1:
        a0, b0 = float(A[0, 0]), float(b[0])

        # einsum adds its one product to +0.0, so a -0.0 product is +0.0
        def row(r):
            return [(0.0 + r[0] * a0) + b0]

    return VectorField(batch=batch, domain=domain, label=label, affine=(A, b), row=row)


def negate(f: AnyField) -> AnyField:
    """Field with all values negated; negate(negate(f)) evaluates bit-identically to f.

    Negation is exact, so the affine parts and the row map of a vector
    field negate with it.  The row map negates a one-entry answer, the
    answer on a 1-D domain, without a comprehension, and any other answer
    entry by entry, so an answer of the wrong width or with a non-finite
    entry reaches row_values' check as wide and as non-finite as it was.
    Witness eps depend only on a segment's geometry, so it keeps them.
    """
    batch = f.batch
    label = f.label[4:] if f.label.startswith("neg:") else f"neg:{f.label}"
    if isinstance(f, ScalarField):
        return ScalarField(batch=lambda P: -batch(P), domain=f.domain, label=label,
                           witnesses=f.witnesses)
    affine = None if f.affine is None else tuple(_frozen(-m) for m in f.affine)
    row = None
    if f.row is not None:
        inner = f.row

        def row(r):
            out = inner(r)
            return [-out[0]] if len(out) == 1 else [-v for v in out]

    return VectorField(batch=lambda P: -batch(P), domain=f.domain, label=label,
                       affine=affine, witnesses=f.witnesses, row=row)


# ---------------------------------------------------------------------------
# Finite-difference gradients
# ---------------------------------------------------------------------------

def _fd_gradient(f: ScalarField, pts: np.ndarray, h: float) -> np.ndarray:
    """Gradient of f at the rows of pts by finite differences.

    Central differences, one-sided along an axis where a step of h would
    leave the box; f is only evaluated inside the box (within
    CONTAINMENT_TOL), so a box thinner than h raises DomainViolationError.
    """
    grad = np.empty_like(pts)
    box = f.domain if isinstance(f.domain, Box) else None
    for j in range(pts.shape[1]):
        hi, lo = pts.copy(), pts.copy()
        hi[:, j] += h
        lo[:, j] -= h
        one_sided = False
        if box is not None:
            over = hi[:, j] > box.upper[j] + CONTAINMENT_TOL
            under = lo[:, j] < box.lower[j] - CONTAINMENT_TOL
            if (over & under).any():
                raise DomainViolationError(f"box thinner than h along axis {j}")
            # a one-sided difference steps from the point itself
            hi[over, j] = pts[over, j]
            lo[under, j] = pts[under, j]
            one_sided = over | under
        grad[:, j] = (f.values(hi) - f.values(lo)) / np.where(one_sided, h, 2 * h)
    return grad


def gradient_field(f: ScalarField, h: float = 1e-5) -> VectorField:
    """Vector field backed by finite differences of f with step h (see _fd_gradient)."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError("step h must be finite and positive")
    return VectorField(batch=lambda P: _fd_gradient(f, P, h), domain=f.domain,
                       label=f"grad:{f.label}")


# ---------------------------------------------------------------------------
# Built-in field registry
# ---------------------------------------------------------------------------

# the smallest |t| whose reciprocal is a finite double
_RECIPROCAL_FLOOR = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))


def _xsininv_1d(t: np.ndarray) -> np.ndarray:
    """t sin(1/t), and 0 (the continuous extension at 0) wherever 1/t is not
    finite: at t = 0 and for |t| < 1/DBL_MAX, where that is off by < |t|."""
    live = np.abs(t) >= _RECIPROCAL_FLOOR
    # the usual case needs no masked copy and scatter, which on the
    # screens' large batches set the peak memory of a run
    if np.count_nonzero(live) == live.size:
        return t * np.sin(1.0 / t)
    out = np.zeros_like(t)
    tl = t[live]
    out[live] = tl * np.sin(1.0 / tl)
    return out


def _xsininv_row(r: list) -> list:
    """_xsininv_1d of the one row r, on floats: math.sin is the libm sin
    that numpy's float64 sin calls."""
    t = r[0]
    return [t * math.sin(1.0 / t) if abs(t) >= _RECIPROCAL_FLOOR else 0.0]


# a segment endpoint within this of 0 is the origin, for its witnesses
_ORIGIN_ATOL = 1e-12


def origin_witness(x: float, want_sign: int) -> float:
    """A point w strictly between 0 and x with sign(x * f(w)) = want_sign.

    For f(t) = t sin(1/t), choosing w = sign(x)/(k pi + pi/2) gives
    sin(1/w) = +-1 exactly; since x and w share a sign, sign(x f(w)) =
    sign(sin(1/w)), which the parity of k controls.  The smallest
    admissible k of the right parity is used.
    """
    if x == 0 or math.isnan(x):
        raise ValueError(f"x must be a nonzero number, got {x}")
    if want_sign not in (1, -1):
        raise ValueError("want_sign must be +1 or -1")
    return float(_origin_witnesses(np.array([x], float), want_sign)[0])


def _origin_witnesses(x: np.ndarray, want_sign: int) -> np.ndarray:
    """origin_witness of each nonzero entry of x, elementwise."""
    ax, pi = np.abs(x), math.pi
    k = np.maximum(0.0, np.floor((1.0 / ax - pi / 2.0) / pi) + 1.0)
    # sin(1/w) = (-1)^k for w > 0 and (-1)^(k+1) for w < 0
    want_even = (x > 0) == (want_sign == 1)
    k += (k % 2 == 0) != want_even
    w = np.copysign(1.0 / (k * pi + pi / 2.0), x)
    while (far := np.abs(w) >= ax).any():
        k[far] += 2
        w[far] = np.copysign(1.0 / (k[far] * pi + pi / 2.0), x[far])
    return w


def origin_segment_witnesses(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Witness eps of the rows of a batch whose segment ends at the origin:
    the witness provider of the stock x sin(1/x) fields.

    Row k's segment is eps*xs[k] + (1-eps)*ys[k], for (k, 1) arrays xs and
    ys.  A row with one endpoint at the origin (within _ORIGIN_ATOL) and
    the other, x, off it gets the two eps where x f takes each sign.
    Returns (rows, eps) with eps of shape (len(rows), 2); at any dim but 1
    no row has witnesses.
    """
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if xs.shape[1] != 1:
        return np.empty(0, np.intp), np.empty((0, 2))
    ax, ay = np.abs(xs[:, 0]), np.abs(ys[:, 0])
    near_x, near_y = ax <= _ORIGIN_ATOL, ay <= _ORIGIN_ATOL
    rows = np.flatnonzero((near_x & (ay > _ORIGIN_ATOL)) | (near_y & (ax > _ORIGIN_ATOL)))
    at_x = near_x[rows]
    x = np.where(at_x, ys[rows, 0], xs[rows, 0])  # the endpoint off the origin
    w = np.stack([_origin_witnesses(x, s) / x for s in (1, -1)], axis=1)
    return rows, np.where(at_x[:, None], 1.0 - w, w)  # eps runs from y to x


def _box1(lo: float, hi: float) -> Box:
    return Box((lo,), (hi,))


def _radius(P: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: the squared columns summed in column order.

    That is np.linalg.norm(P, axis=1) bit for bit at dim <= 7, where numpy
    sums a row in order too; from dim 8 its unrolled sum may round apart.
    Each column sum is an elementwise loop over the rows, where a reduce
    over short rows runs its inner loop dim elements at a time.
    """
    sq = P * P
    r = sq[:, 0]
    for d in range(1, P.shape[1]):
        r = r + sq[:, d]
    return np.sqrt(r, out=r)


def _cube(P: np.ndarray) -> np.ndarray:
    """x * x * x of the first coordinate, in IEEE products (numpy's power
    rounds by the SIMD loop it dispatches to)."""
    t = P[:, 0]
    out = t * t
    out *= t
    return out


DEFAULT_CASESTUDY_BOX = _box1(-1.0, 2.0)
MEXICAN_HAT_BOX = Box((-2.0, -2.0), (2.0, 2.0))

# name -> (default domain builder, scalar batch over (n, dim) -> (n,))
_SCALAR_REGISTRY: dict[str, tuple[Callable[[], Domain], Callable[[np.ndarray], np.ndarray]]] = {
    "quadratic": (lambda: _box1(-1.0, 1.0), lambda P: P[:, 0] ** 2),
    "cubic": (lambda: _box1(-1.0, 1.0), _cube),
    # continuous extension at the origin: value 0 (the derivative is undefined there)
    "xsininv": (lambda: DEFAULT_CASESTUDY_BOX, lambda P: _xsininv_1d(P[:, 0])),
    "mexican_hat": (lambda: MEXICAN_HAT_BOX, lambda P: (_radius(P) - 1.0) ** 2),
    "linear": (lambda: _box1(-1.0, 1.0), lambda P: P.sum(axis=1)),
}


def _mexican_hat_grad(P: np.ndarray) -> np.ndarray:
    """2 (r - 1) x / r, and 0 at the origin (r = 0)."""
    r = _radius(P)
    # with no origin row the divide needs no mask (a row holding a NaN
    # keeps one either way)
    if np.count_nonzero(r) == r.size:
        scale = 2.0 * (r - 1.0) / r
    else:
        scale = np.divide(2.0 * (r - 1.0), r, out=np.zeros_like(r), where=r > 0)
    return P * scale[:, None]


def _mexican_hat_row(r: list) -> list:
    """_mexican_hat_grad of the one row r, on floats in the same order:
    the squares summed in column order, and a scale of 0 at the origin."""
    s = r[0] * r[0]
    for c in r[1:]:
        s = s + c * c
    rad = math.sqrt(s)
    scale = 2.0 * (rad - 1.0) / rad if rad != 0.0 else 0.0
    return [c * scale for c in r]


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_SCALAR_REGISTRY))


def scalar_field(name: str) -> ScalarField:
    """Named built-in scalar field on its stock domain."""
    if name not in _SCALAR_REGISTRY:
        raise ValueError(f"unknown field {name!r}; known: {registry_names()}")
    default_domain, batch = _SCALAR_REGISTRY[name]
    witnesses = origin_segment_witnesses if name == "xsininv" else None
    return ScalarField(batch=batch, domain=default_domain(), label=name, witnesses=witnesses)


def vector_field(name: str) -> VectorField:
    """Named built-in vector field on its stock domain.

    One-dimensional scalar names double as 1-D vector fields (the same map
    read as c: R -> R).  "linear" is c(x) = x and "mexican_hat" is the
    closed-form radial gradient of its scalar form.  A scalar name's
    vector field keeps its witnesses.  "xsininv", "mexican_hat" and
    "linear" (through affine_field) carry row maps.
    """
    if name == "linear":
        return affine_field(np.eye(1), np.zeros(1), _box1(-1.0, 1.0), "linear")
    if name == "mexican_hat":
        return VectorField(batch=_mexican_hat_grad, domain=MEXICAN_HAT_BOX, label="mexican_hat",
                           row=_mexican_hat_row)
    if name in ("quadratic", "cubic", "xsininv"):
        sf = scalar_field(name)
        sbatch = sf.batch
        if name == "xsininv":  # elementwise, so its (n, 1) batch is itself
            batch, row = _xsininv_1d, _xsininv_row
        else:
            batch, row = (lambda P: sbatch(P)[:, None]), None
        return VectorField(batch=batch, domain=sf.domain, label=name, witnesses=sf.witnesses,
                           row=row)
    raise ValueError(f"unknown field {name!r}; known: {registry_names()}")


def quadratic_form(Q, b) -> tuple[ScalarField, VectorField]:
    """f(x) = x'Qx/2 + b'x on [-1, 1]^n and its exact gradient field (Q+Q')x/2 + b,
    labelled "custom_quadratic" and "grad:custom_quadratic"."""
    Q, b = np.array(Q, float), np.array(b, float)  # private copies for f's batch
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatchError("Q must be square")
    if b.shape != (Q.shape[0],):
        raise DimensionMismatchError("b must match Q's dimension")
    # a non-finite entry of Q, or an overflow of (Q + Q')/2, leaves S
    # non-finite, and affine_field rejects it without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        S = 0.5 * (Q + Q.T)
    dom = Box(tuple([-1.0] * len(b)), tuple([1.0] * len(b)))
    grad = affine_field(S, b, dom, "grad:custom_quadratic")

    # row-wise einsums, as in affine_field: value(p) is bitwise a row of values
    def fbatch(P: np.ndarray) -> np.ndarray:
        P = np.ascontiguousarray(P)
        return (0.5 * np.einsum("ni,ni->n", P, np.einsum("ij,nj->ni", Q, P))
                + np.einsum("ni,i->n", P, b))

    return ScalarField(batch=fbatch, domain=dom, label="custom_quadratic"), grad


def field_from_json(source) -> tuple[ScalarField, VectorField]:
    """Load a custom quadratic from {"Q": [[...]], "b": [...]} (dict or file path)."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict) or "Q" not in source or "b" not in source:
        raise ValueError('custom field descriptor must be {"Q": [[...]], "b": [...]}')
    return quadratic_form(source["Q"], source["b"])
