import numpy as np
import pytest

from fieldorder.classify import classify_point, default_challengers
from fieldorder.dominance import ToleranceConfig
from fieldorder.errors import DimensionMismatchError
from fieldorder.games import (from_bimatrix, from_symmetric_matrix, hawk_dove, is_nash,
                              load_game, matching_pennies)

CFG = ToleranceConfig()


class TestSymmetric:
    def test_hawk_dove_interior_equilibrium(self):
        # equal costs across rows at x1 = x2: x1 - 2 x2 = -x2
        g = hawk_dove()
        costs = g.value([0.5, 0.5])
        assert costs[0] == pytest.approx(costs[1])
        ch = default_challengers(g.domain, 42)
        assert is_nash(g, [0.5, 0.5], ch, CFG).ok
        assert not is_nash(g, [1.0, 0.0], ch, CFG).ok

    def test_zero_costs_everything_nash(self):
        g = from_symmetric_matrix(np.zeros((3, 3)))
        ch = default_challengers(g.domain, 1)
        for p in ch.points[:20]:
            assert is_nash(g, p, ch, CFG).ok

    def test_identity_uniform_nash(self):
        g = from_symmetric_matrix(np.eye(4))
        ch = default_challengers(g.domain, 2)
        assert is_nash(g, [0.25] * 4, ch, CFG).ok

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            from_symmetric_matrix([[1.0, 2.0]])

    def test_cost_field_evaluates_only_valid_states(self):
        g = hawk_dove()
        ch = default_challengers(g.domain, 3)
        for row in ch.points:
            assert g.domain.contains_row(row)


class TestBimatrix:
    def test_zero_game_all_nash(self):
        g = from_bimatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        ch = default_challengers(g.domain, 4)
        for p in ch.points[:15]:
            assert is_nash(g, p, ch, CFG).ok

    def test_matching_pennies_center(self):
        g = matching_pennies()
        ch = default_challengers(g.domain, 5)
        assert is_nash(g, [0.5, 0.5, 0.5, 0.5], ch, CFG).ok
        assert not is_nash(g, [1.0, 0.0, 0.5, 0.5], ch, CFG).ok

    def test_prisoners_dilemma_defect_vertex(self):
        # costs from the standard payoffs (T=5, R=3, P=1, S=0): defect dominates
        g = from_bimatrix([[-3.0, 0.0], [-5.0, -1.0]], [[-3.0, -5.0], [0.0, -1.0]])
        ch = default_challengers(g.domain, 6)
        assert is_nash(g, [0.0, 1.0, 0.0, 1.0], ch, CFG).ok
        assert not is_nash(g, [1.0, 0.0, 1.0, 0.0], ch, CFG).ok

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            from_bimatrix(np.zeros((2, 2)), np.zeros((2, 3)))


class TestEndToEnd:
    def test_hawk_dove_full_chain(self):
        g = hawk_dove()
        rep = classify_point(g, [0.5, 0.5], radius=0.1, seed=11)
        assert rep.is_critical and rep.is_nss and rep.is_ess and rep.is_minimal

    def test_scaling_invariance_of_verdicts(self):
        rng = np.random.default_rng(8)
        base = hawk_dove()
        scaled = from_symmetric_matrix(np.array([[1.0, -2.0], [0.0, -1.0]]) * 40.0)
        cfg_scaled = ToleranceConfig(tau=CFG.tau * 40.0)
        ch_a = default_challengers(base.domain, 9)
        ch_b = default_challengers(scaled.domain, 9)
        pts = [np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([0.25, 0.75])]
        pts += [ch_a.points[i] for i in rng.integers(0, len(ch_a), 5)]
        for p in pts:
            assert (is_nash(base, p, ch_a, CFG).ok
                    == is_nash(scaled, p, ch_b, cfg_scaled).ok)


class TestJson:
    def test_symmetric_roundtrip(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"mode": "symmetric", "C": [[1, -2], [0, -1]], "mass": 1.0}')
        g = load_game(str(path))
        assert [(s.mass, s.dim) for s in g.domain.parts] == [(1.0, 2)]
        assert g.value([0.5, 0.5]) == pytest.approx([-0.5, -0.5])

    def test_bimatrix_roundtrip(self):
        g = load_game({"mode": "bimatrix", "A": [[-1, 1], [1, -1]], "B": [[1, -1], [-1, 1]]})
        assert g.domain.dim == 4

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            load_game({"mode": "coalition"})
