"""Domains, points, and evaluatable fields.

Points are plain 1-D float64 numpy arrays (``as_point`` validates and
freezes them).  Domains are closed convex sets of three kinds: axis-aligned
boxes, mass simplexes ``{x >= 0, sum(x) = mass}``, and products of
simplexes.  A scalar or vector field is one deterministic batch map over a
domain, so that sweep code evaluates thousands of segment points in one
numpy call.  ``values`` is the only place that calls it: it checks the
shape of every batch and that every value is finite, raising
``DimensionMismatchError`` or ``ValueError``.  ``value`` is its one-row
case.

All objects are immutable after construction and all operations are pure,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
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

@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower, upper], closed and convex."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo, up = np.asarray(self.lower, float), np.asarray(self.upper, float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionMismatchError("box bounds must be 1-D and of equal length")
        if not np.all(lo <= up):
            raise ValueError("box requires lower <= upper componentwise")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def contains(self, p, tol: float = CONTAINMENT_TOL) -> bool:
        p = np.asarray(p, float)
        lo, up = np.asarray(self.lower), np.asarray(self.upper)
        return p.shape == lo.shape and bool(np.all(p >= lo - tol) and np.all(p <= up + tol))

    def clip(self, p: np.ndarray) -> np.ndarray:
        return np.clip(p, np.asarray(self.lower), np.asarray(self.upper))

    def diameter(self) -> float:
        return float(np.linalg.norm(np.asarray(self.upper) - np.asarray(self.lower)))


@dataclass(frozen=True)
class Simplex:
    """The set {x in R^dim : x >= 0, sum(x) = mass}."""

    mass: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("simplex mass must be finite and positive")
        if self.dim < 1:
            raise ValueError("simplex dim must be >= 1")

    def contains(self, p, tol: float = CONTAINMENT_TOL) -> bool:
        p = np.asarray(p, float)
        if p.shape != (self.dim,):
            return False
        return bool(np.all(p >= -tol) and abs(float(p.sum()) - self.mass) <= tol)

    def diameter(self) -> float:
        # distance between two vertices
        return self.mass * math.sqrt(2.0) if self.dim > 1 else 0.0

    def vertices(self) -> np.ndarray:
        return self.mass * np.eye(self.dim)

    def barycenter(self) -> np.ndarray:
        return np.full(self.dim, self.mass / self.dim)


@dataclass(frozen=True)
class Product:
    """Cartesian product of simplexes (strategy-profile spaces)."""

    parts: tuple[Simplex, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("product domain needs at least one part")

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.parts)

    def split(self, p: np.ndarray) -> list[np.ndarray]:
        out, k = [], 0
        for s in self.parts:
            out.append(np.asarray(p)[k:k + s.dim])
            k += s.dim
        return out

    def contains(self, p, tol: float = CONTAINMENT_TOL) -> bool:
        p = np.asarray(p, float)
        if p.shape != (self.dim,):
            return False
        return all(s.contains(block, tol) for s, block in zip(self.parts, self.split(p)))

    def diameter(self) -> float:
        return math.sqrt(sum(s.diameter() ** 2 for s in self.parts))


Domain = Union[Box, Simplex, Product]


def require_in_domain(domain: Domain, p, tol: float = CONTAINMENT_TOL) -> np.ndarray:
    p = as_point(p)
    if not domain.contains(p, tol):
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


@dataclass(frozen=True)
class Explicit:
    points: tuple[tuple[float, ...], ...]


Strategy = Union[Grid, SeededRandom, Explicit]


@dataclass(frozen=True)
class SampleSet:
    """A deterministic finite stand-in for 'for all x in X' quantifiers."""

    points: np.ndarray = field(repr=False)  # (n, dim), read-only
    strategy: str = "explicit"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(np.atleast_2d(self.points)))

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self):
        return iter(self.points)

    def union(self, extra: np.ndarray, note: str = "extra") -> "SampleSet":
        extra = np.atleast_2d(np.asarray(extra, float))
        pts = np.vstack([self.points, extra])
        return SampleSet(pts, strategy=f"{self.strategy}+{note}({extra.shape[0]})", seed=self.seed)


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
    if isinstance(strategy, Explicit):
        pts = np.atleast_2d(np.asarray(strategy.points, float))
        for row in pts:
            require_in_domain(domain, row)
        return SampleSet(pts, strategy="explicit", seed=seed)

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
        return SampleSet(pts, strategy=f"grid(n_per_axis={n})", seed=seed)

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
        return SampleSet(pts, strategy=f"seeded(count={count})", seed=seed)

    raise TypeError(f"unknown sampling strategy: {strategy!r}")


# ---------------------------------------------------------------------------
# Segment parametrization
# ---------------------------------------------------------------------------

def segment_point(x, y, eps: float) -> np.ndarray:
    """Point eps*x + (1-eps)*y on the segment from y (eps=0) to x (eps=1)."""
    x, y = as_point(x), as_point(y)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"segment endpoints differ in dim: {x.shape} vs {y.shape}")
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return _frozen(eps * x + (1.0 - eps) * y)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarField:
    """Deterministic f: X -> R given by one batch map (n, dim) -> (n,)."""

    batch: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    label: str

    def value(self, p) -> float:
        return float(self.values(np.asarray(p, float).reshape(1, -1))[0])

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        return _checked(self, pts, np.asarray(self.batch(pts), float), (pts.shape[0],))


@dataclass(frozen=True)
class VectorField:
    """Deterministic c: X -> R^dim given by one batch map (n, dim) -> (n, dim).

    affine, when set, is the exact (A, b) with c(x) = A x + b that batch
    evaluates in floating point (any summation order); the dominance
    screens use it to certify rows from two segment points.  Only the
    constructors that build such a map set it (see affine_parts).
    """

    batch: Callable[[np.ndarray], np.ndarray]
    domain: Domain
    label: str
    affine: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False,
                                                         repr=False)

    def value(self, p) -> np.ndarray:
        return self.values(np.asarray(p, float).reshape(1, -1))[0]

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        return _checked(self, pts, np.asarray(self.batch(pts), float), pts.shape)


AnyField = Union[ScalarField, VectorField]


def _checked(f: AnyField, pts: np.ndarray, vals: np.ndarray, shape: tuple) -> np.ndarray:
    """vals, once its shape and finiteness are verified for the whole batch."""
    if pts.ndim != 2 or vals.shape != shape:
        raise DimensionMismatchError(
            f"field {f.label!r} returned shape {vals.shape} for points of shape {pts.shape}")
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals.reshape(pts.shape[0], -1)).all(axis=1)
        raise ValueError(f"field {f.label!r} returned non-finite value at "
                         f"{pts[np.argmax(bad)].tolist()}")
    return vals


def affine_parts(A, b) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 copies of the (A, b) of c(x) = A x + b, checked for shape.

    A constructor evaluates its batch with these copies, so no caller array
    can change the map after its parts are recorded.
    """
    A, b = _frozen(np.array(A, np.float64)), _frozen(np.array(b, np.float64))
    if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise DimensionMismatchError("an affine map needs a square A and a matching b")
    return A, b


def negate(f: AnyField) -> AnyField:
    """Field with all values negated; negate(negate(f)) evaluates bit-identically to f.

    Negation is exact, so the affine parts of a vector field negate with it.
    """
    batch = f.batch
    label = f.label[4:] if f.label.startswith("neg:") else f"neg:{f.label}"
    neg = type(f)(batch=lambda P: -batch(P), domain=f.domain, label=label)
    if isinstance(f, VectorField) and f.affine is not None:
        A, b = f.affine
        neg = replace(neg, affine=affine_parts(-A, -b))
    return neg


# ---------------------------------------------------------------------------
# Finite-difference gradients
# ---------------------------------------------------------------------------

def _fd_gradient(f: ScalarField, pts: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, one-sided flags) of f at the rows of pts by finite differences.

    Central differences, one-sided along an axis where a step of h would
    leave the box; f is only evaluated inside the box (within
    CONTAINMENT_TOL), so a box thinner than h raises DomainViolationError.
    """
    grad = np.empty_like(pts)
    flags = np.zeros(pts.shape, bool)
    box = f.domain if isinstance(f.domain, Box) else None
    for j in range(pts.shape[1]):
        hi, lo = pts.copy(), pts.copy()
        hi[:, j] += h
        lo[:, j] -= h
        if box is not None:
            over = hi[:, j] > box.upper[j] + CONTAINMENT_TOL
            under = lo[:, j] < box.lower[j] - CONTAINMENT_TOL
            if (over & under).any():
                raise DomainViolationError(f"box thinner than h along axis {j}")
            # a one-sided difference steps from the point itself
            hi[over, j] = pts[over, j]
            lo[under, j] = pts[under, j]
            flags[:, j] = over | under
        grad[:, j] = (f.values(hi) - f.values(lo)) / np.where(flags[:, j], h, 2 * h)
    return grad, flags


def gradient_fd(f: ScalarField, p, h: float = 1e-5, return_flags: bool = False):
    """Central finite-difference gradient, one-sided at box boundaries.

    Bitwise one row of gradient_field(f, h).  When return_flags is true,
    also returns a bool array marking the components where a one-sided
    difference was used.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    grad, flags = _fd_gradient(f, as_point(p)[None, :], h)
    return (grad[0], flags[0]) if return_flags else grad[0]


def gradient_field(f: ScalarField, h: float = 1e-5) -> VectorField:
    """Vector field backed by finite differences of f (see gradient_fd)."""
    if h <= 0:
        raise ValueError("step h must be positive")
    return VectorField(batch=lambda P: _fd_gradient(f, P, h)[0], domain=f.domain,
                       label=f"grad:{f.label}")


# ---------------------------------------------------------------------------
# Built-in field registry
# ---------------------------------------------------------------------------

# the smallest |t| whose reciprocal is a finite double
_RECIPROCAL_FLOOR = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))


def _xsininv_1d(t: np.ndarray) -> np.ndarray:
    """t sin(1/t), and 0 (the continuous extension at 0) wherever 1/t is not
    finite: at t = 0 and for |t| < 1/DBL_MAX, where that is off by < |t|."""
    out = np.zeros_like(t)
    live = np.abs(t) >= _RECIPROCAL_FLOOR
    tl = t[live]
    out[live] = tl * np.sin(1.0 / tl)
    return out


def _box1(lo: float, hi: float) -> Box:
    return Box((lo,), (hi,))


DEFAULT_CASESTUDY_BOX = _box1(-1.0, 2.0)
MEXICAN_HAT_BOX = Box((-2.0, -2.0), (2.0, 2.0))

# name -> (default domain builder, scalar batch over (n, dim) -> (n,))
_SCALAR_REGISTRY: dict[str, tuple[Callable[[], Domain], Callable[[np.ndarray], np.ndarray]]] = {
    "quadratic": (lambda: _box1(-1.0, 1.0), lambda P: P[:, 0] ** 2),
    "cubic": (lambda: _box1(-1.0, 1.0), lambda P: P[:, 0] ** 3),
    # continuous extension at the origin: value 0 (the derivative is undefined there)
    "xsininv": (lambda: DEFAULT_CASESTUDY_BOX, lambda P: _xsininv_1d(P[:, 0])),
    "mexican_hat": (lambda: MEXICAN_HAT_BOX,
                    lambda P: (np.linalg.norm(P, axis=1) - 1.0) ** 2),
    "linear": (lambda: _box1(-1.0, 1.0), lambda P: P.sum(axis=1)),
}


def _mexican_hat_grad(P: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(P, axis=1)
    scale = np.zeros_like(r)
    nz = r > 0
    scale[nz] = 2.0 * (r[nz] - 1.0) / r[nz]
    return P * scale[:, None]


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(_SCALAR_REGISTRY))


def scalar_field(name: str, domain: Domain | None = None) -> ScalarField:
    """Named built-in scalar field; optional domain override."""
    if name not in _SCALAR_REGISTRY:
        raise ValueError(f"unknown field {name!r}; known: {registry_names()}")
    default_domain, batch = _SCALAR_REGISTRY[name]
    dom = domain or default_domain()
    return ScalarField(batch=batch, domain=dom, label=name)


def vector_field(name: str, domain: Domain | None = None) -> VectorField:
    """Named built-in vector field.

    One-dimensional scalar names double as 1-D vector fields (the same map
    read as c: R -> R).  "linear" is c(x) = x in any dimension and
    "mexican_hat" is the closed-form radial gradient of its scalar form.
    """
    if name == "linear":
        dom = domain or _box1(-1.0, 1.0)
        n = dom.dim
        return VectorField(batch=lambda P: P.copy(), domain=dom, label="linear",
                           affine=affine_parts(np.eye(n), np.zeros(n)))
    if name == "mexican_hat":
        dom = domain or MEXICAN_HAT_BOX
        return VectorField(batch=_mexican_hat_grad, domain=dom, label="mexican_hat")
    if name in ("quadratic", "cubic", "xsininv"):
        sf = scalar_field(name, domain)
        sbatch = sf.batch
        return VectorField(batch=lambda P: sbatch(P)[:, None], domain=sf.domain, label=name)
    raise ValueError(f"unknown field {name!r}; known: {registry_names()}")


def quadratic_form(Q, b, domain: Domain | None = None,
                   label: str = "quadratic_form") -> tuple[ScalarField, VectorField]:
    """f(x) = x'Qx/2 + b'x and its exact gradient field (Q+Q')x/2 + b."""
    Q = np.asarray(Q, float)
    b = np.asarray(b, float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatchError("Q must be square")
    if b.shape != (Q.shape[0],):
        raise DimensionMismatchError("b must match Q's dimension")
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(b))):
        raise ValueError("Q and b must be finite")
    with np.errstate(over="ignore"):
        S = 0.5 * (Q + Q.T)
    if not np.all(np.isfinite(S)):
        raise ValueError("(Q + Q')/2 overflows to a non-finite value")
    S, b = affine_parts(S, b)
    dom = domain or Box(tuple([-1.0] * len(b)), tuple([1.0] * len(b)))

    # row-wise einsums: unlike a BLAS matmul, a row's value does not depend
    # on how many rows share its batch, so value(p) is bitwise a row of values
    def fbatch(P: np.ndarray) -> np.ndarray:
        return (0.5 * np.einsum("ni,ni->n", P, np.einsum("ij,nj->ni", Q, P))
                + np.einsum("ni,i->n", P, b))

    def gbatch(P: np.ndarray) -> np.ndarray:
        return np.einsum("ij,nj->ni", S, P) + b

    return (ScalarField(batch=fbatch, domain=dom, label=label),
            VectorField(batch=gbatch, domain=dom, label=f"grad:{label}", affine=(S, b)))


def field_from_json(source) -> tuple[ScalarField, VectorField]:
    """Load a custom quadratic from {"Q": [[...]], "b": [...]} (dict or file path)."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict) or "Q" not in source or "b" not in source:
        raise ValueError('custom field descriptor must be {"Q": [[...]], "b": [...]}')
    return quadratic_form(source["Q"], source["b"], label="custom_quadratic")
