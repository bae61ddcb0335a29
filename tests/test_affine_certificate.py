"""The endpoint certificate of affine fields against the full screen.

A vector field with affine parts (A, b) has the exact segment profile
delta(eps) = d'(A y + b) + eps d'A d, affine in eps.  batch_relations
decides such a row from its two endpoint values when both band predicates
clear tau by more than twice the rounding bound E; the remaining rows go
through the uniform-grid screen.  Relations must equal those of the same
field without its affine parts on every row, including rows that sit on
the band edge and must fall back.  The bound itself is checked against
exact rational profiles, and a work count shows the certificate is what
keeps a game's dominance sweep off the grid.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldorder.classify import classify_point, default_challengers, sample_neighborhood
from fieldorder.dominance import (ToleranceConfig, _affine_endpoints, _affine_rounding_bound,
                                  _broadcast_rows, _profiles, _relations, batch_relations,
                                  batch_vector_extremes)
from fieldorder.fields import Box, negate, quadratic_form, vector_field
from fieldorder.games import (from_bimatrix, from_symmetric_matrix, hawk_dove,
                             matching_pennies)

KINDS = ("quadratic_form", "symmetric", "bimatrix", "linear")


def _spread(rng, shape, decades=3.0):
    """Random reals of both signs whose magnitudes span 2 * decades decades."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-decades, decades, shape)


def _simplex_rows(rng, blocks, count):
    return np.hstack([rng.dirichlet(np.ones(m), size=count) for m in blocks])


def affine_case(kind, seed, negated, rows, one_y):
    """(field, xs, ys) of a random affine field of the given kind and rows in its domain."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic_form":
        dim = int(rng.integers(1, 7))
        _, c = quadratic_form(_spread(rng, (dim, dim)), _spread(rng, dim))
        draw = lambda n: rng.uniform(-1.0, 1.0, size=(n, dim))
    elif kind == "symmetric":
        m = int(rng.integers(2, 5))
        C = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-2, 2)
        if rng.random() < 0.5:  # near zero-sum: antisymmetric plus a hair
            C = C - C.T + 1e-12 * rng.normal(size=(m, m))
        c = from_symmetric_matrix(C).cost
        draw = lambda n: _simplex_rows(rng, [m], n)
    elif kind == "bimatrix":
        m1, m2 = (int(v) for v in rng.integers(2, 4, size=2))
        A = rng.normal(size=(m1, m2)) * 10.0 ** rng.uniform(-2, 2)
        B = (-A + 1e-12 * rng.normal(size=A.shape) if rng.random() < 0.5
             else rng.normal(size=(m1, m2)))
        c = from_bimatrix(A, B).cost
        draw = lambda n: _simplex_rows(rng, [m1, m2], n)
    else:
        dim = int(rng.integers(1, 5))
        c = vector_field("linear", Box((-1.0,) * dim, (1.0,) * dim))
        draw = lambda n: rng.uniform(-1.0, 1.0, size=(n, dim))
    xs = draw(rows)
    ys = draw(1 if one_y else rows)
    xs[0] = ys[0]  # a zero segment
    return (negate(c) if negated else c), xs, ys


def screen_relations(c, xs, ys, cfg):
    """Relations of the drop-mode screen of c with its affine parts removed."""
    plain = dataclasses.replace(c, affine=None)
    mx, mn = batch_vector_extremes(plain, xs, ys, cfg, drop_incomparable=True)
    return _relations(mx, mn, mn, mx, cfg.tau)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31 - 1), negated=st.booleans(),
       rows=st.integers(1, 30), one_y=st.booleans(),
       n_eps=st.sampled_from([3, 5, 17, 65, 1025]), tau=st.sampled_from([1e-9, 1e-3, 0.1]),
       edge=st.sampled_from([None, -1.5, -1.0, 0.0, 1.0, 1.5]), edge_row=st.integers(0, 29),
       edge_side=st.booleans())
def test_certified_relations_equal_the_screen(kind, seed, negated, rows, one_y, n_eps, tau,
                                              edge, edge_row, edge_side):
    c, xs, ys = affine_case(kind, seed, negated, rows, one_y)
    assert c.affine is not None
    fall_back = None
    if edge is not None:
        # put one row on the band edge: tau at its endpoint max (or -min), moved by edge * E
        bx, by = _broadcast_rows(xs, ys)
        r = edge_row % rows
        mx, mn, _ = _affine_endpoints(c, bx, by, tau)
        v = mx[r] if edge_side else -mn[r]
        near = v + edge * _affine_rounding_bound(c, bx[r:r + 1], by[r:r + 1])[0]
        if np.isfinite(near) and near > 0:
            tau, fall_back = float(near), r
    cfg = ToleranceConfig(tau=tau, n_eps=n_eps)
    if fall_back is not None:
        settled = _affine_endpoints(c, *_broadcast_rows(xs, ys), tau)[2]
        assert not settled[fall_back]
    got = batch_relations(c, xs, ys, cfg)
    assert got.tolist() == screen_relations(c, xs, ys, cfg).tolist()


def _exact_profile(A, b, x, y, eps):
    """delta(eps) = (x - y) . (A p + b), p = eps x + (1 - eps) y, in rationals."""
    A = [[Fraction(v) for v in row] for row in A.tolist()]
    b = [Fraction(v) for v in b.tolist()]
    x = [Fraction(v) for v in x.tolist()]
    y = [Fraction(v) for v in y.tolist()]
    d = [xi - yi for xi, yi in zip(x, y)]
    out = []
    for e in (Fraction(v) for v in eps.tolist()):
        p = [e * xi + (1 - e) * yi for xi, yi in zip(x, y)]
        c = [sum(aij * pj for aij, pj in zip(row, p)) + bi for row, bi in zip(A, b)]
        out.append(sum(di * ci for di, ci in zip(d, c)))
    return out


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31 - 1), negated=st.booleans())
def test_rounding_bound_covers_the_computed_profile(kind, seed, negated):
    c, xs, ys = affine_case(kind, seed, negated, rows=4, one_y=False)
    eps = np.linspace(0.0, 1.0, 65)
    computed = _profiles(c, xs, ys, eps)
    bound = _affine_rounding_bound(c, xs, ys)
    A, b = c.affine
    for k in range(xs.shape[0]):
        exact = _exact_profile(A, b, xs[k], ys[k], eps)
        worst = max(abs(Fraction(float(v)) - e) for v, e in zip(computed[k], exact))
        assert worst <= Fraction(float(bound[k])), (k, float(worst), bound[k])


def test_hawk_dove_classification_stays_off_the_grid():
    """The dominance sweep of classify_point evaluates at most 10 % of its
    rows x n_eps; the local-min sweep over the ball is a full-grid screen
    that the certificate does not touch, so it is allowed on top."""
    c = hawk_dove().cost
    evaluated = [0]

    def counting(P, batch=c.batch):
        evaluated[0] += P.shape[0]
        return batch(P)

    counted = dataclasses.replace(c, batch=counting)
    cfg = ToleranceConfig()
    for p in ([0.5, 0.5], [0.2, 0.8]):
        evaluated[0] = 0
        report = classify_point("vector", counted, p, cfg=cfg)
        p = np.asarray(p)
        rows = len(default_challengers(c.domain, 42))
        ball = len(sample_neighborhood(c.domain, p, 0.05 * c.domain.diameter(), 512, 42))
        assert report.challengers_used.endswith(f"+ball({ball})")
        assert evaluated[0] <= 0.10 * (rows + ball) * cfg.n_eps + ball * cfg.n_eps


@pytest.mark.parametrize("make, blocks", [
    (hawk_dove, [2]), (matching_pennies, [2, 2]),
    (lambda: from_symmetric_matrix([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]),
     [3]),
])
def test_certificate_settles_the_stock_game_rows(make, blocks):
    # the flat profiles of the zero-sum games clear the band as far as hawk-dove's
    rng = np.random.default_rng(3)
    c = make().cost
    y = np.hstack([np.full(m, 1.0 / m) for m in blocks])
    xs, ys = _broadcast_rows(_simplex_rows(rng, blocks, 500), y)
    assert _affine_endpoints(c, xs, ys, ToleranceConfig().tau)[2].all()
