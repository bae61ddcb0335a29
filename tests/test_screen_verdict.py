"""A screen row is the verdict of its pair, bit for bit.

A pair that is not Incomparable has no adjacent samples with band signs +1
and -1, so compare_* never refines it and its extremes are the uniform-grid
extremes that the batch screens compute.  The classifier relies on this:
it reads the verdicts of screen survivors straight off the screen.  Both
paths go through the one segment kernel, so the extremes must be equal in
every bit, not just within an ulp.
"""

import math

import numpy as np
import pytest

from fieldorder.dominance import (INCOMPARABLE, ToleranceConfig, _profiles, batch_scalar_steps,
                                  batch_vector_extremes, compare_scalar, compare_vector)
from fieldorder.fields import quadratic_form, scalar_field, vector_field
from fieldorder.games import from_symmetric_matrix, hawk_dove, matching_pennies

CFG = ToleranceConfig()


def bits(values):
    return np.asarray(values, float).view(np.int64).tolist()


def check_vector(c, X, Y, cfg=CFG):
    """Assert screen row == compare extremes on every non-Incomparable pair."""
    mx, mn = batch_vector_extremes(c, X, Y, cfg)
    checked = 0
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare_vector(c, x, y, cfg)
        if v.relation == INCOMPARABLE:
            continue
        assert bits([mx[k], mn[k]]) == bits([v.max_delta, v.min_delta]), (k, v.relation)
        checked += 1
    return checked


def check_scalar(f, X, Y, cfg=CFG):
    smax, smin, total = batch_scalar_steps(f, X, Y, cfg)
    checked = 0
    for k, (x, y) in enumerate(zip(X, Y)):
        v = compare_scalar(f, x, y, cfg)
        if v.relation == INCOMPARABLE:
            continue
        want = [smax[k], min(smin[k], total[k])]
        assert bits(want) == bits([v.max_delta, v.min_delta]), (k, v.relation)
        checked += 1
    return checked


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_kernel_is_the_rowwise_matmul(dim):
    # b = 0 makes c(0) = 0, so rows ending at the origin multiply exact zeros
    # by directions of either sign: a matmul turns each -0.0 product into +0.0
    rng = np.random.default_rng(dim)
    _, c = quadratic_form(rng.normal(size=(dim, dim)), np.zeros(dim))
    X = rng.uniform(-1, 1, (40, dim))
    Y = np.where(rng.random((40, 1)) < 0.5, 0.0, rng.uniform(-1, 1, (40, dim)))
    eps = np.linspace(0.0, 1.0, 129)
    got = _profiles(c, X, Y, eps)
    want = [c.values(eps[:, None] * x + (1.0 - eps)[:, None] * y) @ (x - y)
            for x, y in zip(X, Y)]
    assert bits(got) == bits(want)


def _uniform_pairs(rng, lo, hi, n):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return rng.uniform(lo, hi, (n, lo.size)), rng.uniform(lo, hi, (n, lo.size))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_random_quadratic_forms(dim):
    rng = np.random.default_rng(100 + dim)
    checked = 0
    for _ in range(12):
        f, c = quadratic_form(rng.normal(size=(dim, dim)), rng.normal(size=dim))
        X, Y = _uniform_pairs(rng, [-1.0] * dim, [1.0] * dim, 24)
        checked += check_vector(c, X, Y)
        checked += check_scalar(f, X, Y)
    assert checked > 200


@pytest.mark.parametrize("game", [hawk_dove(), matching_pennies(),
                                  from_symmetric_matrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
                                                        label="rock_paper_scissors")],
                         ids=["hawk_dove", "matching_pennies", "rock_paper_scissors"])
def test_games(game):
    rng = np.random.default_rng(7)
    parts = getattr(game.domain, "parts", (game.domain,))
    blocks = [rng.dirichlet(np.ones(s.dim), size=(2, 80)) * s.mass for s in parts]
    X, Y = (np.concatenate([b[i] for b in blocks], axis=1) for i in (0, 1))
    assert check_vector(game.cost, X, Y) > 40


def test_xsininv():
    rng = np.random.default_rng(11)
    X, Y = _uniform_pairs(rng, [-1.0], [2.0], 150)
    # pairs near the catalog points, where the screen decides minimality
    Z = np.array([[1.0 / (n * math.pi)] for n in range(1, 9)])
    X = np.vstack([X, Z, Z * 1.01])
    Y = np.vstack([Y, Z * 1.01, Z])
    assert check_vector(vector_field("xsininv"), X, Y) > 20
    assert check_scalar(scalar_field("xsininv"), X, Y) > 20
