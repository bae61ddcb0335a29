"""Population games as cost vector fields over products of simplexes.

A game state assigns a mass distribution over pure strategies per
population; the cost function maps a state to one cost per pure strategy.
Nash equilibria of the game are exactly the critical elements of the cost
field, so every classifier in this package applies unchanged.

Costs, not utilities, throughout: lower is better, and matrix rows index
the owner's pure strategies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .classify import CheckOutcome, is_critical_element
from .dominance import ToleranceConfig
from .errors import DimensionMismatchError
from .fields import Product, SampleSet, Simplex, VectorField, affine_parts


@dataclass(frozen=True)
class PopulationGame:
    populations: tuple[tuple[float, int], ...]  # (mass, n_strategies) per population
    cost: VectorField
    label: str

    @property
    def domain(self) -> Product:
        return self.cost.domain


def from_symmetric_matrix(C, mass: float = 1.0, label: str = "symmetric") -> PopulationGame:
    """Single-population game with linear costs c(x) = C x."""
    C = np.asarray(C, float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionMismatchError("cost matrix must be square")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix must be finite")
    m = C.shape[0]
    domain = Product((Simplex(mass, m),))
    C, zero = affine_parts(C, np.zeros(m))
    field = VectorField(batch=lambda X: X @ C.T, domain=domain, label=f"game:{label}",
                        affine=(C, zero))
    return PopulationGame(populations=((mass, m),), cost=field, label=label)


def from_bimatrix(A, B, label: str = "bimatrix") -> PopulationGame:
    """Two-population game: player-1 costs A y, player-2 costs B' x, concatenated."""
    A = np.array(A, float)  # private copies: the batch and the affine parts must agree
    B = np.array(B, float)
    if A.shape != B.shape or A.ndim != 2:
        raise DimensionMismatchError("A and B must be matrices of equal shape")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("cost matrices must be finite")
    m1, m2 = A.shape
    domain = Product((Simplex(1.0, m1), Simplex(1.0, m2)))
    # the cost is [[0, A], [B', 0]] applied to the stacked state (x, y)
    M, zero = affine_parts(np.block([[np.zeros((m1, m1)), A], [B.T, np.zeros((m2, m2))]]),
                           np.zeros(m1 + m2))

    def batch(P: np.ndarray) -> np.ndarray:
        x, y = P[:, :m1], P[:, m1:]
        return np.hstack([y @ A.T, x @ B])

    field = VectorField(batch=batch, domain=domain, label=f"game:{label}", affine=(M, zero))
    return PopulationGame(populations=((1.0, m1), (1.0, m2)), cost=field, label=label)


def is_nash(game: PopulationGame, p, challengers: SampleSet,
            cfg: ToleranceConfig | None = None) -> CheckOutcome:
    """Nash check: no challenger state has lower cost against p's costs."""
    return is_critical_element(game.cost, p, challengers, cfg)


# ---------------------------------------------------------------------------
# JSON game files and stock examples
# ---------------------------------------------------------------------------

def load_game(source) -> PopulationGame:
    """Load {"mode":"symmetric","C":...,"mass":...} or {"mode":"bimatrix","A":...,"B":...}."""
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict):
        raise ValueError("a game must be a JSON object")
    mode = source.get("mode")
    try:
        if mode == "symmetric":
            return from_symmetric_matrix(source["C"], float(source.get("mass", 1.0)))
        if mode == "bimatrix":
            return from_bimatrix(source["A"], source["B"])
    except TypeError as exc:  # an entry of the wrong JSON type
        raise ValueError(f"malformed game: {exc}") from None
    raise ValueError(f"unknown game mode {mode!r}")


def hawk_dove() -> PopulationGame:
    """Hawk-Dove costs for V=2, fight cost 4; interior equilibrium (1/2, 1/2)."""
    return from_symmetric_matrix([[1.0, -2.0], [0.0, -1.0]], mass=1.0, label="hawk_dove")


def matching_pennies() -> PopulationGame:
    """Zero-sum costs; unique equilibrium at both players mixing half-half."""
    A = [[-1.0, 1.0], [1.0, -1.0]]
    B = [[1.0, -1.0], [-1.0, 1.0]]
    return from_bimatrix(A, B, label="matching_pennies")


def prisoners_dilemma() -> PopulationGame:
    """Costs from the standard payoffs (T=5, R=3, P=1, S=0); defect dominates."""
    A = [[-3.0, 0.0], [-5.0, -1.0]]
    B = [[-3.0, -5.0], [0.0, -1.0]]
    return from_bimatrix(A, B, label="prisoners_dilemma")
