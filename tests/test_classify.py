from dataclasses import replace

import numpy as np
import pytest

from fieldorder import classify
from fieldorder.classify import (classify_point, default_challengers,
                                 is_almost_strictly_minimal_set, is_critical_element,
                                 is_ess, is_ess_set, is_local_min_polyorder, is_nss,
                                 is_strict_local_min_scalar, minimal_and_maximal,
                                 sample_neighborhood)
from fieldorder.dominance import ToleranceConfig, compare_scalar, compare_vector
from fieldorder.errors import DimensionMismatchError, DomainViolationError
from fieldorder.fields import (Box, Product, SampleSet, ScalarField, Simplex, negate,
                               scalar_field, vector_field)
from fieldorder.casestudy import case_challengers, build_catalog

CFG = ToleranceConfig()


@pytest.fixture(scope="module")
def square():
    return vector_field("quadratic")


@pytest.fixture(scope="module")
def square_challengers(square):
    return default_challengers(square.domain, 42)


class TestCriticalElement:
    def test_square_origin_is_critical(self, square, square_challengers):
        assert is_critical_element(square, [0.0], square_challengers, CFG).ok

    def test_oscillator_zero_is_critical(self):
        c = vector_field("xsininv")
        ch = default_challengers(c.domain, 42)
        assert is_critical_element(c, [1 / np.pi], ch, CFG).ok

    def test_identity_interior_point_not_critical(self):
        c = vector_field("linear")
        ch = default_challengers(c.domain, 42)
        out = is_critical_element(c, [0.5], ch, CFG)
        assert not out.ok
        assert out.witness == (-1.0,)

    def test_empty_challengers_rejected(self, square):
        empty = SampleSet(np.empty((0, 1)))
        with pytest.raises(ValueError):
            is_critical_element(square, [0.0], empty, CFG)


class TestMinimalMaximal:
    def test_square_origin_neither(self, square, square_challengers):
        mini = minimal_and_maximal(square, [0.0], square_challengers, CFG)[0]
        assert not mini.ok
        assert mini.witness[0] < 0  # any left-axis point dominates
        assert not minimal_and_maximal(square, [0.0], square_challengers, CFG)[1].ok

    def test_oscillator_first_zero_minimal(self):
        c = vector_field("xsininv")
        ch = case_challengers(build_catalog(5))
        p = np.array([1 / np.pi])
        assert minimal_and_maximal(c, p, ch, CFG)[0].ok
        assert not minimal_and_maximal(c, p, ch, CFG)[1].ok

    def test_oscillator_second_zero_maximal(self):
        c = vector_field("xsininv")
        ch = case_challengers(build_catalog(5))
        p = np.array([1 / (2 * np.pi)])
        assert not minimal_and_maximal(c, p, ch, CFG)[0].ok
        assert minimal_and_maximal(c, p, ch, CFG)[1].ok

    def test_duality_is_bit_exact(self, square, square_challengers):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = rng.uniform(-1, 1, 1)
            a = minimal_and_maximal(square, p, square_challengers, CFG)[0]
            b = minimal_and_maximal(negate(square), p, square_challengers, CFG)[1]
            assert (a.ok, a.witness) == (b.ok, b.witness)

    def test_scalar_minimality(self, square_challengers):
        f = scalar_field("quadratic")
        assert minimal_and_maximal(f, [0.0], square_challengers, CFG)[0].ok
        out = minimal_and_maximal(scalar_field("cubic"), [0.0], square_challengers, CFG)[0]
        assert not out.ok


class TestLocalConcepts:
    def test_identity_origin_full_house(self):
        c = vector_field("linear")
        ball = sample_neighborhood(c.domain, [0.0], 0.1, 256, 5)
        assert is_nss(c, [0.0], ball, CFG).ok
        assert is_ess(c, [0.0], ball, CFG).ok
        assert is_local_min_polyorder(c, [0.0], ball, CFG).ok

    def test_square_origin_locally_nothing(self, square):
        ball = sample_neighborhood(square.domain, [0.0], 0.1, 256, 5)
        nss = is_nss(square, [0.0], ball, CFG)
        assert not nss.ok
        assert nss.witness[0] < 0
        assert not is_ess(square, [0.0], ball, CFG).ok
        assert not is_local_min_polyorder(square, [0.0], ball, CFG).ok

    def test_trivial_neighborhood_is_local_min(self, square):
        ball = SampleSet(np.array([[0.0]]))
        assert is_local_min_polyorder(square, [0.0], ball, CFG).ok

    def test_square_scalar_strict_local_min(self):
        f = scalar_field("quadratic")
        ball = sample_neighborhood(f.domain, [0.0], 0.1, 256, 5)
        assert is_strict_local_min_scalar(f, [0.0], ball, CFG).ok

    def test_cubic_scalar_not_strict_local_min(self):
        f = scalar_field("cubic")
        ball = sample_neighborhood(f.domain, [0.0], 0.1, 256, 5)
        assert not is_strict_local_min_scalar(f, [0.0], ball, CFG).ok

    def test_hat_circle_point_not_strict_local_min(self):
        f = scalar_field("mexican_hat")
        p = np.array([1.0, 0.0])
        q = np.array([np.cos(0.1), np.sin(0.1)])
        ball = sample_neighborhood(f.domain, p, 0.2, 256, 5).union(q[None, :])
        assert not is_strict_local_min_scalar(f, p, ball, CFG).ok
        assert not is_local_min_polyorder(f, p, ball, CFG).ok

    def test_no_samples_rejected(self, square):
        empty = SampleSet(np.empty((0, 1)))
        with pytest.raises(ValueError):
            is_nss(square, [0.0], empty, CFG)


class TestSetConcepts:
    def test_singleton_reduces_to_ess(self):
        from fieldorder.games import hawk_dove
        g = hawk_dove()
        assert is_ess_set(g, [[0.5, 0.5]], 0.1, CFG).ok
        # members of a passing candidate set must themselves be minimal
        ch = default_challengers(g.domain, 13)
        assert minimal_and_maximal(g, [0.5, 0.5], ch, CFG)[0].ok

    def test_square_origin_fails_set_check(self, square):
        out = is_ess_set(square, [[0.0]], 0.1, CFG)
        assert not out.ok

    def test_radial_gradient_circle_is_not_invasion_proof(self):
        # points just inside the circle and slightly rotated invade their
        # anchor: 2(r-1)(cos(theta) - r) > 0 on a sliver with r < 1
        c = vector_field("mexican_hat")
        angles = 2 * np.pi * np.arange(16) / 16
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        out = is_ess_set(c, circle, 0.28, CFG)
        assert not out.ok
        x = np.array(out.witness)
        assert ((circle - x) @ c.value(x)).max() > 10 * CFG.tau

    def test_circle_is_almost_strictly_minimal_for_values(self):
        f = scalar_field("mexican_hat")
        angles = 2 * np.pi * np.arange(16) / 16
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert is_almost_strictly_minimal_set(f, circle, 0.28, CFG).ok

    def test_value_checks_on_singletons(self):
        assert is_almost_strictly_minimal_set(scalar_field("quadratic"), [[0.0]], 0.1, CFG).ok
        assert not is_almost_strictly_minimal_set(scalar_field("cubic"), [[0.0]], 0.1, CFG).ok

    def test_empty_candidate_rejected(self, square):
        with pytest.raises(ValueError):
            is_ess_set(square, [], 0.1, CFG)

    def test_oversize_candidate_set_rejected_before_any_work(self, monkeypatch):
        # 20,000 planar candidates would need a 6.4 GB (m, m, dim) array
        def work(*args, **kwargs):
            raise AssertionError("the set check started before its size was checked")

        monkeypatch.setattr(classify, "_set_tolerance", work)
        monkeypatch.setattr(classify, "sample_neighborhood", work)
        angles = 2 * np.pi * np.arange(20_000) / 20_000
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        with pytest.raises(ValueError, match="bytes of pairwise differences"):
            is_ess_set(vector_field("mexican_hat"), circle, 0.28, CFG)


class TestNeighborhoodSampler:
    def test_box_samples_inside_ball_and_domain(self):
        dom = Box((-1.0, -1.0), (1.0, 1.0))
        got = sample_neighborhood(dom, [0.9, 0.0], 0.3, 128, 9)
        center = np.array([0.9, 0.0])
        assert np.all(np.linalg.norm(got.points - center, axis=1) <= 0.3 + 1e-12)
        for row in got.points:
            assert dom.contains_row(row)

    def test_simplex_samples_keep_mass(self):
        dom = Product((Simplex(1.0, 2), Simplex(1.0, 2)))
        p = np.array([0.5, 0.5, 0.5, 0.5])
        got = sample_neighborhood(dom, p, 0.2, 128, 9)
        assert np.allclose(got.points[:, :2].sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(got.points[:, 2:].sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        dom = Box((-1.0,), (1.0,))
        a = sample_neighborhood(dom, [0.0], 0.1, 64, 4).points
        b = sample_neighborhood(dom, [0.0], 0.1, 64, 4).points
        assert a.tobytes() == b.tobytes()

    def test_center_excluded(self):
        dom = Box((-1.0,), (1.0,))
        got = sample_neighborhood(dom, [0.0], 0.1, 64, 4)
        assert np.all(np.abs(got.points) > 0)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.inf, -np.inf, np.nan])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            sample_neighborhood(Box((-1.0,), (1.0,)), [0.0], radius)

    @pytest.mark.parametrize("count", [0, 10**12])
    def test_count_outside_the_grid_cap_rejected(self, count):
        # checked before a single direction is drawn
        with pytest.raises(ValueError, match="count must lie in"):
            sample_neighborhood(Box((-1.0, -1.0), (1.0, 1.0)), [0.0, 0.0], 0.1, count)


class TestClassifyPoint:
    def test_square_vector_report(self, square):
        rep = classify_point(square, [0.0], radius=0.1, seed=7)
        assert rep.is_critical and not rep.is_minimal and not rep.is_maximal
        assert not rep.is_nss and not rep.is_ess and not rep.is_local_min_polyorder
        assert rep.dominating_witness is not None

    def test_oscillator_first_zero_report(self):
        c = vector_field("xsininv")
        ch = case_challengers(build_catalog(5), grid_n=2048)
        rep = classify_point(c, [1 / np.pi], challengers=ch, radius=0.1, seed=7)
        assert rep.is_critical and rep.is_minimal and not rep.is_maximal
        assert rep.is_nss and rep.is_ess
        assert rep.analytic_witnesses

    def test_square_scalar_report(self):
        f = scalar_field("quadratic")
        rep = classify_point(f, [0.0], radius=0.1, seed=7)
        assert rep.is_minimal and rep.is_strict_local_min
        assert rep.dominating_witness is None

    def test_report_serializes(self, square):
        rep = classify_point(square, [0.0], radius=0.1, seed=7)
        d = rep.to_dict()
        assert d["kind"] == "vector"
        assert d["is_critical"] is True
        assert "is_strict_local_min" not in d

    @pytest.mark.parametrize("make, kind, keys", [
        (scalar_field, "scalar", {"is_strict_local_min"}),
        (vector_field, "vector", {"is_critical", "is_nss", "is_ess"}),
    ], ids=["scalar", "vector"])
    def test_kind_comes_from_the_field(self, make, kind, keys):
        rep = classify_point(make("quadratic"), [0.0], radius=0.1, seed=7)
        d = rep.to_dict()
        assert rep.kind == d["kind"] == kind
        others = {"is_strict_local_min", "is_critical", "is_nss", "is_ess"} - keys
        assert keys <= d.keys() and not others & d.keys()

    @pytest.mark.parametrize("make", [scalar_field, vector_field], ids=["scalar", "vector"])
    def test_empty_challengers_rejected_before_any_sampling(self, make, monkeypatch):
        # an empty set is refused, not replaced by the default grid
        def never(*args, **kwargs):
            raise AssertionError("a challenger was built")

        monkeypatch.setattr(classify, "sample_neighborhood", never)
        monkeypatch.setattr(classify, "default_challengers", never)
        empty = SampleSet(np.empty((0, 1)))
        with pytest.raises(ValueError, match="challenger set is empty"):
            classify_point(make("quadratic"), [0.0], challengers=empty)

    @pytest.mark.parametrize("make", [scalar_field, vector_field], ids=["scalar", "vector"])
    @pytest.mark.parametrize("n_eps", [5, 9])
    def test_origin_is_minimal_and_maximal_without_passing_witnesses(self, make, n_eps):
        # the stock field brings its witness eps, so a caller that passes
        # nothing still gets the headline verdict; the grid alone misses it
        c = make("xsininv")
        ch = case_challengers(build_catalog(25), 256)
        cfg = ToleranceConfig(n_eps=n_eps)
        rep = classify_point(c, [0.0], ch, cfg=cfg)
        assert rep.is_minimal and rep.is_maximal and rep.analytic_witnesses
        bare = classify_point(replace(c, witnesses=None), [0.0], ch, cfg=cfg)
        assert not bare.is_minimal
        # the scalar grid of 9 points happens to see the origin maximal
        assert bare.is_maximal == (make is scalar_field and n_eps == 9)

    @pytest.mark.parametrize("make", [scalar_field, vector_field], ids=["scalar", "vector"])
    def test_analytic_witnesses_are_the_fields(self, make):
        # the report echoes whether the field carries a provider, and a
        # scalar field's provider is asked by its screen
        asked = []

        def provider(xs, ys):
            asked.append(len(xs))
            return np.empty(0, np.intp), np.empty((0, 1))

        plain = make("quadratic")
        assert not classify_point(plain, [0.0], radius=0.1, seed=7).analytic_witnesses
        assert classify_point(make("xsininv"), [0.0], radius=0.1, seed=7).analytic_witnesses
        rep = classify_point(replace(plain, witnesses=provider), [0.0], radius=0.1, seed=7)
        assert rep.analytic_witnesses and asked


RPS = [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]


def _one_screen_cases():
    from fieldorder.games import from_symmetric_matrix, hawk_dove, matching_pennies
    stock = {"quadratic": ([0.0], [0.3]), "cubic": ([0.0], [-0.5]),
             "xsininv": ([0.0], [1 / np.pi], [0.5]), "linear": ([-1.0], [0.2]),
             "mexican_hat": ([1.0, 0.0], [0.3, -0.4])}
    cases = []
    for name, points in stock.items():
        for make, kind in ((scalar_field, "scalar"), (vector_field, "vector")):
            cases += [(f"{kind}:{name}@{p}", make(name), p) for p in points]
    games = [("hawk_dove", hawk_dove, [0.5, 0.5], [0.2, 0.8]),
             ("matching_pennies", matching_pennies, [0.5] * 4, [0.3, 0.7, 0.6, 0.4]),
             ("rps", lambda: from_symmetric_matrix(RPS), [1 / 3] * 3, [0.2, 0.3, 0.5])]
    for name, make, *points in games:
        cases += [(f"game:{name}@{p}", make(), p) for p in points]
    return cases


@pytest.mark.parametrize("label, field, p", _one_screen_cases(),
                         ids=[case[0] for case in _one_screen_cases()])
def test_one_screen_is_the_one_check_path(label, field, p):
    # classify_point reads minimal, maximal and local-min off one screen of
    # challengers and ball; each must equal its own entry point on the same
    # probe sets, and the printed eps is that of the full comparison of the
    # lex-first dominator (xsininv's witness eps included)
    seed = 7
    radius = 0.05 * field.domain.diameter()
    rep = classify_point(field, p, radius=radius, cfg=CFG, seed=seed)
    ball = sample_neighborhood(field.domain, p, radius, seed=seed)
    full = default_challengers(field.domain, seed).union(ball.points, note="ball")
    assert rep.challengers_used == full.strategy
    local_min = is_local_min_polyorder(field, p, ball, CFG)
    minimal, maximal = minimal_and_maximal(field, p, full, CFG)
    assert rep.is_local_min_polyorder == local_min.ok
    assert (rep.is_minimal, rep.is_maximal) == (minimal.ok, maximal.ok)
    if minimal.ok:
        assert rep.dominating_witness is None
    else:
        x, p = np.array(minimal.witness), np.asarray(p, float)
        compare = compare_scalar if isinstance(field, ScalarField) else compare_vector
        eps = compare(field, x, p, CFG).witness_eps_strict
        assert rep.dominating_witness == (minimal.witness, eps)


def test_scalar_local_min_rejects_a_strict_dominator_inside_the_band():
    # f(x) = x: the neighbor -1e-8 lies 10 tau below p = 0 along a climb of
    # sub-tau steps, so both weak relations hold and x strictly dominates p
    f = scalar_field("linear")
    p, ball = np.array([0.0]), SampleSet([[-1e-8]])
    steps = np.diff(f.values(np.linspace(0.0, 1.0, CFG.n_eps)[:, None] * ball.points[0]))
    assert (np.abs(steps) <= CFG.tau).all()
    out = is_local_min_polyorder(f, p, ball, CFG)
    assert not out.ok and out.witness == (-1e-8,)
    assert not minimal_and_maximal(f, p, ball, CFG)[0].ok


def _probe_checks():
    """(name, call taking a caller's probe set) for each check that takes one."""
    vec, sc = vector_field("quadratic"), scalar_field("quadratic")
    return [
        ("classify_point", lambda s: classify_point(sc, [0.0], challengers=s)),
        ("minimal_and_maximal", lambda s: minimal_and_maximal(vec, [0.0], s, CFG)),
        ("is_local_min_polyorder", lambda s: is_local_min_polyorder(sc, [0.0], s, CFG)),
        ("is_critical_element", lambda s: is_critical_element(vec, [0.0], s, CFG)),
        ("is_nss", lambda s: is_nss(vec, [0.0], s, CFG)),
        ("is_ess", lambda s: is_ess(vec, [0.0], s, CFG)),
        ("is_strict_local_min_scalar", lambda s: is_strict_local_min_scalar(sc, [0.0], s, CFG)),
    ]


@pytest.mark.parametrize("name, check", _probe_checks(), ids=[c[0] for c in _probe_checks()])
def test_caller_probe_sets_are_checked(name, check, monkeypatch):
    # a set of the wrong width or with a row outside [-1, 1] is refused
    # before any probe is built or any field evaluated
    def never(*args, **kwargs):
        raise AssertionError("work started on a bad probe set")

    monkeypatch.setattr(classify, "sample_neighborhood", never)
    monkeypatch.setattr(classify, "batch_relations", never)
    with pytest.raises(DimensionMismatchError, match="field quadratic takes 1"):
        check(SampleSet(np.array([[0.1, 0.2]])))
    with pytest.raises(DomainViolationError, match=r"probe point \[5\.0\] outside"):
        check(SampleSet(np.array([[0.5], [5.0], [-7.0]])))
