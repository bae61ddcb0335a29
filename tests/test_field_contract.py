"""The evaluator contract: a field is one batch map, checked once per batch.

``values`` rejects a batch of the wrong shape (DimensionMismatchError) or
with any non-finite entry (ValueError), and ``value`` is its one-row case.
Because the integrator steps through ``value`` and the screens sweep through
``values``, ``value(p)`` must equal the matching row of a multi-row
``values`` call bit for bit, so both evaluate the same field.

A vector field's affine parts (A, b), which the dominance screens trust
to certify rows, must be the map its batch evaluates: every value within
the rounding of an (n + 1)-term sum of A p + b, computed exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder.errors import DimensionMismatchError
from fieldorder.fields import (Box, Product, ScalarField, VectorField, gradient_field,
                               negate, quadratic_form, registry_names, scalar_field,
                               vector_field)
from fieldorder.games import from_bimatrix, from_symmetric_matrix, hawk_dove, matching_pennies

BOX = Box((-1.0, -1.0), (1.0, 1.0))
PTS = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])


def _scalar(batch):
    return ScalarField(batch=batch, domain=BOX, label="bad")


def _vector(batch):
    return VectorField(batch=batch, domain=BOX, label="bad")


def _spoiled(value, out, P):
    """out with `value` in the rows whose x1 > 0.2 (row 1 of PTS)."""
    out = np.array(out, float)
    out[P[:, 0] > 0.2] = value
    return out


SCALAR_OUT = {
    "nan": (lambda P: _spoiled(np.nan, P.sum(axis=1), P), ValueError),
    "inf": (lambda P: _spoiled(np.inf, P.sum(axis=1), P), ValueError),
    "-inf": (lambda P: _spoiled(-np.inf, P.sum(axis=1), P), ValueError),
    "column": (lambda P: P.sum(axis=1)[:, None], DimensionMismatchError),
    "extra_row": (lambda P: np.append(P.sum(axis=1), 0.0), DimensionMismatchError),
    "zero_dim": (lambda P: np.float64(1.0), DimensionMismatchError),
}

VECTOR_OUT = {
    "nan": (lambda P: _spoiled(np.nan, P.copy(), P), ValueError),
    "inf": (lambda P: _spoiled(np.inf, P.copy(), P), ValueError),
    "-inf": (lambda P: _spoiled(-np.inf, P.copy(), P), ValueError),
    "flat": (lambda P: P.sum(axis=1), DimensionMismatchError),
    "wide": (lambda P: np.hstack([P, P]), DimensionMismatchError),
    "missing_row": (lambda P: P[1:], DimensionMismatchError),
}


@pytest.mark.parametrize("kind, name", [("scalar", n) for n in sorted(SCALAR_OUT)]
                         + [("vector", n) for n in sorted(VECTOR_OUT)])
def test_bad_batch_output_raises_from_value_and_values(kind, name):
    batch, error = (SCALAR_OUT if kind == "scalar" else VECTOR_OUT)[name]
    field = (_scalar if kind == "scalar" else _vector)(batch)
    with pytest.raises(error, match=r"\[0.3, -0.4\]" if error is ValueError else "shape"):
        field.values(PTS)
    with pytest.raises(error):
        field.value(PTS[1])
    if error is ValueError:
        # only the spoiled point is rejected
        assert np.all(np.isfinite(field.value(PTS[0])))
        assert np.all(np.isfinite(field.values(PTS[[0, 2]])))


def test_well_formed_batch_passes_through():
    f = _scalar(lambda P: P.sum(axis=1))
    assert f.values(PTS).tolist() == PTS.sum(axis=1).tolist()
    assert f.value([0.25, 0.5]) == 0.75
    assert f.values(np.empty((0, 2))).shape == (0,)
    c = _vector(lambda P: -P)
    assert c.value([0.25, 0.5]).tolist() == [-0.25, -0.5]


def _rock_paper_scissors():
    return from_symmetric_matrix([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
                                 label="rock_paper_scissors")


def _fields():
    out = {}
    for name in registry_names():
        for f in (scalar_field(name), vector_field(name)):
            out[f"{type(f).__name__}:{name}"] = f
            out[f"{type(f).__name__}:neg:{name}"] = negate(f)
    rng = np.random.default_rng(5)
    for dim in range(1, 5):
        sf, vf = quadratic_form(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        out[f"quadratic_form:{dim}"], out[f"grad:quadratic_form:{dim}"] = sf, vf
    out["gradient_field:mexican_hat"] = gradient_field(scalar_field("mexican_hat"))
    out["gradient_field:xsininv"] = gradient_field(scalar_field("xsininv"))
    for game in (hawk_dove(), matching_pennies(), _rock_paper_scissors()):
        out[f"game:{game.label}"] = game.cost
    return out


FIELDS = _fields()


def _domain_points(domain, unit: np.ndarray) -> np.ndarray:
    """Map rows of [0, 1]^dim onto the domain (boxes affinely, simplexes by normalizing)."""
    if isinstance(domain, Box):
        lo, up = np.asarray(domain.lower), np.asarray(domain.upper)
        return lo + unit * (up - lo)
    parts = domain.parts if isinstance(domain, Product) else (domain,)
    blocks, k = [], 0
    for s in parts:
        w = unit[:, k:k + s.dim] + 1e-3
        blocks.append(s.mass * w / w.sum(axis=1, keepdims=True))
        k += s.dim
    return np.hstack(blocks)


def _bits(v) -> bytes:
    return np.asarray(v, np.float64).tobytes()


@given(st.sampled_from(sorted(FIELDS)), st.data())
@settings(max_examples=300, deadline=None)
def test_value_is_bitwise_a_row_of_values(key, data):
    field = FIELDS[key]
    dim = field.domain.dim
    rows = data.draw(st.integers(2, 40))
    unit = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
                              min_size=rows, max_size=rows))
    pts = _domain_points(field.domain, np.asarray(unit, float))
    batch = field.values(pts)
    for i, p in enumerate(pts):
        assert _bits(field.value(p)) == _bits(batch[i]), (key, p.tolist())


def _random_affine_fields():
    rng = np.random.default_rng(11)
    out = {}
    for m in range(2, 7):
        C = rng.normal(size=(m, m)) * 10.0 ** (m - 4)
        out[f"symmetric:{m}"] = from_symmetric_matrix(C).cost
        m2 = 7 - m
        out[f"bimatrix:{m}x{m2}"] = from_bimatrix(rng.normal(size=(m, m2)),
                                                  rng.normal(size=(m, m2)) * 1e3).cost
        spread = 10.0 ** rng.uniform(-3, 3, size=(m, m))
        out[f"grad:quadratic_form:spread:{m}"] = quadratic_form(
            rng.normal(size=(m, m)) * spread, rng.normal(size=m) * 1e2)[1]
    for dim in range(1, 5):
        out[f"linear:{dim}"] = vector_field("linear", Box((-1.0,) * dim, (1.0,) * dim))
    out.update({f"neg:{k}": negate(f) for k, f in list(out.items())})
    return out


AFFINE_FIELDS = {**{k: f for k, f in FIELDS.items() if getattr(f, "affine", None) is not None},
                 **_random_affine_fields()}


def test_only_affine_constructors_mark_a_field():
    marked = {k for k, f in FIELDS.items() if getattr(f, "affine", None) is not None}
    assert marked == {"VectorField:linear", "VectorField:neg:linear",
                      "game:hawk_dove", "game:matching_pennies", "game:rock_paper_scissors",
                      *(f"grad:quadratic_form:{dim}" for dim in range(1, 5))}


@pytest.mark.parametrize("key", sorted(AFFINE_FIELDS))
def test_affine_mark_agrees_with_batch(key):
    field = AFFINE_FIELDS[key]
    A, b = field.affine
    n = A.shape[0]
    assert field.domain.dim == n and not A.flags.writeable and not b.flags.writeable
    rng = np.random.default_rng(sum(map(ord, key)))
    pts = _domain_points(field.domain, rng.random((12, n)))
    got = field.values(pts)
    u, eta = Fraction(2) ** -53, Fraction(2) ** -1074
    Af = [[Fraction(v) for v in row] for row in A.tolist()]
    bf = [Fraction(v) for v in b.tolist()]
    for p, row in zip(pts.tolist(), got.tolist()):
        p = [Fraction(v) for v in p]
        for i in range(n):
            exact = sum(a * pj for a, pj in zip(Af[i], p)) + bf[i]
            size = sum(abs(a * pj) for a, pj in zip(Af[i], p)) + abs(bf[i])
            assert abs(Fraction(row[i]) - exact) <= (n + 2) * u * size + 2 * n * eta, (key, i)
