from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder.errors import DimensionMismatchError, DomainViolationError
from fieldorder.fields import (Box, Grid, Product, SeededRandom, Simplex, affine_field,
                               field_from_json, gradient_field, negate,
                               origin_segment_witnesses, quadratic_form, registry_names,
                               sample_domain, scalar_field, vector_field)
from fieldorder.fields import _radius, _simplex_grid, _simplex_grid_size


class TestConvexity:
    @given(st.floats(-1, 1), st.floats(-1, 2), st.floats(-1, 1), st.floats(-1, 2))
    @settings(max_examples=60, deadline=None)
    def test_convexity_closure_in_box(self, x0, x1, y0, y1):
        # 101-point eps grid stays inside the box that holds the endpoints
        box = Box((-1.0, -1.0), (1.0, 2.0))
        x, y = np.array([x0, x1]), np.array([y0, y1])
        for eps in np.linspace(0, 1, 101):
            assert box.contains_row(eps * x + (1 - eps) * y)

    def test_simplex_segment_stays_on_mass_plane(self):
        s = Simplex(2.0, 3)
        x, y = np.array([2.0, 0.0, 0.0]), np.array([0.5, 0.5, 1.0])
        for eps in np.linspace(0, 1, 101):
            assert s.contains_row(eps * x + (1 - eps) * y)


class TestGradientField:
    def test_parabola(self):
        f = replace(scalar_field("quadratic"), domain=Box((-5.0,), (5.0,)))
        assert gradient_field(f, 1e-5).value([3.0]) == pytest.approx([6.0], abs=1e-6)

    def test_linear_plane_exact(self):
        f, _ = quadratic_form(np.zeros((2, 2)), [1.0, 2.0])
        assert gradient_field(f, 1e-5).value([0.0, 0.0]) == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_oscillator_closed_form(self):
        # f'(x) = sin(1/x) - cos(1/x)/x gives f'(1/pi) = pi
        f = scalar_field("xsininv")
        assert gradient_field(f, 1e-7).value([1 / np.pi]) == pytest.approx([np.pi], abs=1e-4)

    def test_one_sided_at_boundary(self):
        # x = 1 is the upper face of [-1, 1]: the difference steps back from it
        f, h = scalar_field("quadratic"), 1e-5
        grad = gradient_field(f, h).value([1.0])
        assert grad[0] == (f.value([1.0]) - f.value([1.0 - h])) / h
        assert grad == pytest.approx([2.0], abs=1e-4)

    @pytest.mark.parametrize("h", [0.0, -1e-5, float("nan"), float("inf"), float("-inf")])
    def test_bad_step_rejected(self, h):
        # refused when the field is built, before f is evaluated anywhere
        with pytest.raises(ValueError, match="finite and positive"):
            gradient_field(scalar_field("quadratic"), h)

    def test_quadratics_match_exact_gradient(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            Q = rng.normal(size=(dim, dim))
            Q = Q + Q.T
            b = rng.normal(size=dim)
            f, grad = quadratic_form(Q, b)
            p = rng.uniform(-0.9, 0.9, dim)
            assert gradient_field(f, 1e-5).value(p) == pytest.approx(grad.value(p), abs=1e-8)

    def test_batch_gradient_field_matches_pointwise(self):
        f = scalar_field("mexican_hat")
        g = gradient_field(f)
        pts = np.array([[0.5, 0.5], [1.0, 0.0], [-0.3, 1.2]])
        batch = g.values(pts)
        for row, expect in zip(pts, batch):
            assert g.value(row) == pytest.approx(expect)

    @pytest.mark.parametrize("name", registry_names())
    def test_value_is_a_row_of_values(self, name):
        # 200 interior points plus the two box corners; along an axis where
        # a step of h leaves the box, the component is the one-sided
        # difference from the point itself, bit for bit
        f, h = scalar_field(name), 1e-3
        g = gradient_field(f, h)
        lo, up = np.asarray(f.domain.lower), np.asarray(f.domain.upper)
        rng = np.random.default_rng(5)
        pts = lo + rng.random((200, lo.size)) * (up - lo)
        pts[:40] = np.where(rng.random((40, lo.size)) < 0.5, lo, up) \
            + rng.uniform(-h, h, (40, lo.size)) * 0.9
        pts = np.vstack([f.domain.clip(pts), lo, up])
        batch = g.values(pts)
        one_sided = 0
        for row, want in zip(pts, batch):
            grad = g.value(row)
            assert grad.tobytes() == want.tobytes()
            for j, step in enumerate(np.eye(row.size) * h):
                if row[j] + h > up[j]:
                    assert grad[j] == (f.value(row) - f.value(row - step)) / h
                elif row[j] - h < lo[j]:
                    assert grad[j] == (f.value(row + step) - f.value(row)) / h
                else:
                    continue
                one_sided += 1
        assert one_sided >= 40

    def test_box_thinner_than_step_rejected(self):
        # no side of [0, 1e-6] is a step of 1e-5 from 5e-7: f must not be
        # evaluated outside the box, so the gradient refuses
        f = replace(scalar_field("quadratic"), domain=Box((0.0,), (1e-6,)))
        with pytest.raises(DomainViolationError, match="thinner"):
            gradient_field(f, 1e-5).value([5e-7])
        with pytest.raises(DomainViolationError, match="thinner"):
            gradient_field(f, 1e-5).values(np.array([[5e-7]]))


class TestSampling:
    def test_box_grid_with_endpoints(self):
        got = sample_domain(Box((-1.0,), (1.0,)), Grid(3), 0)
        assert sorted(p[0] for p in got.points) == [-1.0, 0.0, 1.0]

    def test_simplex_grid_mass_constraint(self):
        got = sample_domain(Simplex(1.0, 2), Grid(3), 0)
        rows = sorted(map(tuple, got.points))
        assert rows == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_simplex_random_properties(self):
        s = Simplex(1.0, 3)
        got = sample_domain(s, SeededRandom(100), 7)
        assert len(got) == 100
        assert np.all(got.points >= 0)
        assert np.allclose(got.points.sum(axis=1), 1.0, atol=1e-12)

    def test_random_includes_vertices_and_barycenter(self):
        got = sample_domain(Simplex(1.0, 3), SeededRandom(100), 7).points
        for v in np.eye(3):
            assert any(np.allclose(v, row) for row in got[:4])
        assert any(np.allclose(np.full(3, 1 / 3), row) for row in got[:4])

    def test_determinism_bit_identical(self):
        a = sample_domain(Simplex(1.0, 4), SeededRandom(64), 3).points
        b = sample_domain(Simplex(1.0, 4), SeededRandom(64), 3).points
        assert a.tobytes() == b.tobytes()

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            sample_domain(Box((-1.0,), (1.0,)), SeededRandom(0), 0)

    @pytest.mark.parametrize("dom", [Box((0.0,) * 2, (1.0,) * 2), Simplex(1.0, 3),
                                     Product((Simplex(1.0, 2), Simplex(1.0, 2)))])
    def test_oversize_random_count_rejected_before_drawing(self, dom):
        # the seeded sampler has the grid's point cap
        with pytest.raises(ValueError, match="sample count must lie in"):
            sample_domain(dom, SeededRandom(10 ** 12), 0)

    @pytest.mark.parametrize("mass", [0.0, -1.0, float("nan"), float("inf")])
    def test_simplex_mass_must_be_finite_and_positive(self, mass):
        with pytest.raises(ValueError, match="finite and positive"):
            Simplex(mass, 2)

    def test_product_sampling_respects_masses(self):
        dom = Product((Simplex(1.0, 2), Simplex(2.0, 3)))
        got = sample_domain(dom, SeededRandom(50), 1).points
        assert np.allclose(got[:, :2].sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(got[:, 2:].sum(axis=1), 2.0, atol=1e-12)
        for row in got:
            assert dom.contains_row(row)

    @pytest.mark.parametrize("dom", [
        Box((0.0,) * 3, (1.0,) * 3),
        Simplex(1.0, 5),
        Product((Simplex(1.0, 2), Simplex(1.0, 2))),
    ])
    def test_oversize_grid_rejected_before_building(self, dom):
        # counted up front: the 5-simplex grid would have ~4e14 points
        with pytest.raises(ValueError, match="grid too large"):
            sample_domain(dom, Grid(10 ** 4), 0)

    @pytest.mark.parametrize("dom, n, size", [
        (Simplex(1.0, 3), 5, 15),
        (Simplex(1.0, 4), 1, 1),
        (Product((Simplex(1.0, 2), Simplex(2.0, 3))), 4, 40),
    ])
    def test_grid_sizes_match_count(self, dom, n, size):
        assert len(sample_domain(dom, Grid(n), 0)) == size

    @pytest.mark.parametrize("strategy", [Grid(1), Grid(4), SeededRandom(3), SeededRandom(40)],
                             ids=repr)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("mass", [1.0, 2.5])
    def test_simplex_samples_as_one_part_product(self, mass, dim, strategy):
        s = Simplex(mass, dim)
        got = sample_domain(s, strategy, 11)
        want = sample_domain(Product((s,)), strategy, 11)
        assert got.points.tobytes() == want.points.tobytes()
        assert got.strategy == want.strategy
        assert all(s.contains_row(row) for row in got.points)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_simplex_grid_size_counts_compositions(self, dim, n):
        s = Simplex(1.0, dim)
        assert _simplex_grid_size(s, n) == len(_simplex_grid(s, n))


class TestFields:
    def test_registry_defaults(self):
        assert scalar_field("xsininv").value([0.0]) == 0.0
        assert scalar_field("xsininv").value([1 / np.pi]) == pytest.approx(0.0, abs=1e-15)
        assert scalar_field("mexican_hat").value([1.0, 0.0]) == pytest.approx(0.0)
        plane = affine_field(np.eye(2), np.zeros(2), Box((-1, -1), (1, 1)), "linear")
        assert plane.value([0.3, -0.2]) == pytest.approx([0.3, -0.2])
        # the default box is 1-D, so a 2-D point is rejected before the batch runs
        with pytest.raises(DimensionMismatchError, match="1-D domain"):
            vector_field("linear").value([0.3, -0.2])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            scalar_field("nope")

    def test_xsininv_where_the_reciprocal_overflows(self):
        # 1/t overflows below 1/DBL_MAX; f keeps its continuous extension 0
        # there, with no overflow warning, and is t sin(1/t) just above
        edge = np.nextafter(1.0 / np.finfo(float).max, 1.0)  # 1/edge is finite
        below = np.nextafter(edge, 0.0)
        t = np.array([[2.2e-311], [-5e-324], [0.0], [below], [-below], [edge], [1e-300]])
        for field in (scalar_field("xsininv"), vector_field("xsininv")):
            got = np.ravel(field.values(t))
            assert got[:5].tolist() == [0.0] * 5
            assert got[5] == edge * np.sin(1.0 / edge) and np.isfinite(1.0 / edge)
            assert got[6] == 1e-300 * np.sin(1.0 / 1e-300)

    def test_double_negation_bit_exact(self):
        c = vector_field("xsininv")
        cc = negate(negate(c))
        pts = np.linspace(-1, 2, 57)[:, None]
        assert c.values(pts).tobytes() == cc.values(pts).tobytes()
        assert cc.label == "xsininv"

    @pytest.mark.parametrize("make", [scalar_field, vector_field], ids=["scalar", "vector"])
    def test_witnesses_belong_to_the_stock_field(self, make):
        # only the oscillator has witness eps; negation keeps them, since
        # they depend only on a segment's geometry
        f = make("xsininv")
        assert f.witnesses is origin_segment_witnesses
        assert negate(f).witnesses is negate(negate(f)).witnesses is origin_segment_witnesses
        assert f == replace(f, witnesses=None)  # not part of equality, like affine
        for name in set(registry_names()) - {"xsininv"}:
            assert make(name).witnesses is None
        assert gradient_field(scalar_field("xsininv")).witnesses is None

    def test_negate_keeps_signed_zeros(self):
        # the first component cancels to +0.0, so -f gives -0.0 there; an
        # affine field rebuilt from (-A, -b) would give +0.0 instead
        f = affine_field([[1.0, -1.0], [0.0, 1.0]], [0.0, 0.0], Box((-1.0, -1.0), (1.0, 1.0)),
                         "skew")
        P = np.array([[0.5, 0.5]])
        got, want = negate(f).values(P), -f.values(P)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got).tolist() == [[True, True]]

    def test_vector_view_of_scalar_names(self):
        c = vector_field("quadratic")
        assert c.value([0.5]) == pytest.approx([0.25])

    def test_mexican_hat_gradient_closed_form(self):
        c = vector_field("mexican_hat")
        p = np.array([2.0, 0.0])
        assert c.value(p) == pytest.approx([2.0, 0.0])  # 2(r-1) * p/r at r=2

    def test_quadratic_descriptor_roundtrip(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text('{"Q": [[2.0]], "b": [0.0]}')
        f, grad = field_from_json(str(path))
        assert f.value([3.0]) == pytest.approx(9.0)
        assert grad.value([3.0]) == pytest.approx([6.0])

    def test_bad_descriptor(self):
        with pytest.raises(ValueError):
            field_from_json({"Q": [[1.0]]})

    @pytest.mark.parametrize("Q, b", [([[np.nan]], [0.0]), ([[1.0]], [np.inf]),
                                      ([[1.0, -np.inf], [0.0, 1.0]], [0.0, 0.0])])
    def test_non_finite_quadratic_rejected(self, Q, b):
        with pytest.raises(ValueError, match="finite"):
            quadratic_form(Q, b)
        with pytest.raises(ValueError, match="finite"):
            field_from_json({"Q": Q, "b": b})

    @pytest.mark.parametrize("Q", [[[1.5e308]], [[1.0, 1.7e308], [1.7e308, 1.0]]])
    def test_overflowing_symmetrization_rejected_at_load(self, Q):
        # every entry is finite, but (Q + Q')/2 overflows; no numpy warning
        # may escape (warnings are errors under the test configuration)
        with pytest.raises(ValueError, match="non-finite"):
            quadratic_form(Q, [0.0] * len(Q))
        with pytest.raises(ValueError, match="non-finite"):
            field_from_json({"Q": Q, "b": [0.0] * len(Q)})


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


class TestKernels:
    """The stock fields' batch kernels are plain IEEE arithmetic, with the
    bits of the numpy expressions they replace."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_radius_is_the_linalg_norm(self, dim):
        rng = np.random.default_rng(dim)
        rows = 20000
        # entries of every scale from zero through subnormal squares to 1e150
        scale = 10.0 ** rng.choice([-310.0, -160.0, -3.0, 0.0, 3.0, 150.0], size=(rows, dim))
        P = rng.normal(size=(rows, dim)) * scale * 10.0 ** rng.uniform(-2, 2, (rows, 1))
        P[rng.random(P.shape) < 0.1] = 0.0
        P[0] = 0.0
        assert bits(_radius(P)) == bits(np.linalg.norm(P, axis=1))
        # one row alone, as a flow evaluates it
        assert bits(_radius(P[1:2])) == bits(np.linalg.norm(P[1:2], axis=1))

    def test_cubic_is_the_product(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 50000) * 10.0 ** rng.choice([-200.0, -5.0, 0.0], 50000)
        x[:4] = [0.0, -0.0, 1.0, -1.0]
        got = scalar_field("cubic").values(x[:, None])
        assert bits(got) == bits(x * x * x)
