"""The segment kernel with one shared side is the kernel with both sides materialized.

Every screen has one side that is a single point p.  _profiles then forms
that side's products with eps once and adds them into the other side's, in
place, and the batch screens pass the shared side as one row instead of
copying it per row.  The points are the same elementwise roundings, added
in the other order, so every profile must equal, bit for bit, the one of
the side repeated k times, as the kernel built it before: three full-size
temporaries, eps*x + (1-eps)*y, at dims 1 to 8.  A set of eps per row
(the witness eps a screen evaluates for several rows at once) must give
each row the profile of a one-row call over its own eps.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from fieldorder.dominance import (ToleranceConfig, _profiles, batch_scalar_steps,
                                  batch_vector_extremes)
from fieldorder.fields import (Box, ScalarField, VectorField, quadratic_form, registry_names,
                               scalar_field, vector_field)


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


def materialized_profiles(field, X, Y, eps):
    """The kernel on (k, dim) sides as written before the shared-row path."""
    k, dim = X.shape
    pts = eps[None, :, None] * X[:, None, :] + (1.0 - eps)[None, :, None] * Y[:, None, :]
    vals = field.values(pts.reshape(-1, dim))
    if isinstance(field, ScalarField):
        return vals.reshape(k, -1)
    direction = X - Y
    if dim == 1:
        return vals.reshape(k, -1) * direction + 0.0
    return np.matmul(vals.reshape(k, -1, dim), direction[:, :, None])[:, :, 0]


def _wavy(dim):
    """A row-independent nonlinear scalar field and vector field on [-1, 1]^dim."""
    box = Box((-1.0,) * dim, (1.0,) * dim)
    scalar = ScalarField(batch=lambda P: np.sin(3.0 * P).sum(axis=1) + P[:, 0] ** 3,
                         domain=box, label=f"wavy{dim}")
    vector = VectorField(batch=lambda P: np.sin(3.0 * P) + P[:, ::-1] ** 2,
                         domain=box, label=f"wavy{dim}")
    return scalar, vector


def _field(rng, dim, kind, vector):
    if kind == "quadratic_form":
        f, c = quadratic_form(rng.normal(size=(dim, dim)), rng.normal(size=dim))
    elif kind == "registry":
        names = [n for n in registry_names() if scalar_field(n).domain.dim == dim]
        if not names:
            return _field(rng, dim, "wavy", vector)
        name = names[int(rng.integers(len(names)))]
        f, c = scalar_field(name), vector_field(name)
    else:
        f, c = _wavy(dim)
    return c if vector else f


def _points(rng, field, n, neg_zero):
    lo, up = np.asarray(field.domain.lower), np.asarray(field.domain.upper)
    P = lo + rng.random((n, lo.size)) * (up - lo)
    if neg_zero:
        # -0.0 entries, and +0.0 ones, where the sign of a zero product shows
        P[rng.random(P.shape) < 0.4] = -0.0
        P[rng.random(P.shape) < 0.1] = 0.0
    return P


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 8),
       kind=st.sampled_from(["quadratic_form", "registry", "wavy"]), vector=st.booleans(),
       k=st.integers(1, 12), n_eps=st.sampled_from([3, 5, 17, 65, 1025]),
       extra=st.lists(st.floats(0.0, 1.0), max_size=4), neg_zero=st.booleans())
def test_shared_sides_equal_materialized_sides(seed, dim, kind, vector, k, n_eps, extra,
                                               neg_zero):
    rng = np.random.default_rng(seed)
    field = _field(rng, dim, kind, vector)
    dim = field.domain.dim
    X, Y = _points(rng, field, k, neg_zero), _points(rng, field, k, neg_zero)
    x, y = X[:1], Y[:1]
    eps = np.unique(np.concatenate([np.linspace(0.0, 1.0, n_eps), extra]))
    rep = lambda row: np.repeat(row, k, axis=0)
    assert bits(_profiles(field, X, Y, eps)) == bits(materialized_profiles(field, X, Y, eps))
    assert bits(_profiles(field, x, Y, eps)) == bits(materialized_profiles(field, rep(x), Y, eps))
    assert bits(_profiles(field, X, y, eps)) == bits(materialized_profiles(field, X, rep(y), eps))
    assert bits(_profiles(field, x, y, eps)) == bits(materialized_profiles(field, x, y, eps))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 7),
       kind=st.sampled_from(["quadratic_form", "registry", "wavy"]), vector=st.booleans(),
       k=st.integers(1, 12), m=st.integers(1, 4), neg_zero=st.booleans())
def test_eps_per_row_equal_one_row_calls(seed, dim, kind, vector, k, m, neg_zero):
    rng = np.random.default_rng(seed)
    field = _field(rng, dim, kind, vector)
    X = _points(rng, field, k, neg_zero)
    Y = _points(rng, field, k, neg_zero)
    eps = rng.random((k, m))
    eps[rng.random((k, m)) < 0.2] = 0.0
    eps[rng.random((k, m)) < 0.2] = 1.0
    # dims 1 to 7, where a row's matmul does not depend on its batch
    for xs, ys in ((X, Y), (X[:1], Y), (X, Y[:1])):
        got = _profiles(field, xs, ys, eps)
        want = [_profiles(field, xs[min(i, len(xs) - 1)][None], ys[min(i, len(ys) - 1)][None],
                          eps[i])[0] for i in range(k)]
        assert bits(got) == bits(want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 8), vector=st.booleans(),
       k=st.integers(1, 40), n_eps=st.sampled_from([3, 17, 65, 1025]), neg_zero=st.booleans(),
       p_first=st.booleans())
def test_screens_of_a_shared_point_equal_the_repeated_point(seed, dim, vector, k, n_eps,
                                                            neg_zero, p_first):
    # the screens pass a one-row side on to the kernel as one row in every block
    rng = np.random.default_rng(seed)
    field = _field(rng, dim, "wavy" if dim > 2 else "registry", vector)
    X = _points(rng, field, k, neg_zero)
    p = _points(rng, field, 1, neg_zero)[0]
    P = np.repeat(p[None], k, axis=0)
    cfg = ToleranceConfig(tau=1e-6, n_eps=n_eps)
    screen = batch_vector_extremes if vector else batch_scalar_steps
    shared = screen(field, p, X, cfg) if p_first else screen(field, X, p, cfg)
    full = screen(field, P, X, cfg) if p_first else screen(field, X, P, cfg)
    assert bits(shared) == bits(full)
