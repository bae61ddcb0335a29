"""Screen blocks change no result, and bound a screen's memory in bytes.

Every screen and the affine endpoint certificate run in blocks of rows that
hold at most dominance._BLOCK_BYTES of segment points.  A row's values do
not depend on which rows share its block, so every block size gives the
same bits: one row per block, the default, and blocks far larger than any
input here.  A call then holds a few blocks plus a fixed number of bytes
per row (its statistics and relation), never every row's whole grid.
"""

import tracemalloc

import numpy as np
import pytest

from fieldorder import dominance
from fieldorder.casestudy import build_catalog, case_challengers
from fieldorder.dominance import (ToleranceConfig, _affine_endpoints, _broadcast_rows,
                                  batch_relations, batch_scalar_steps, batch_vector_extremes)
from fieldorder.fields import Box, affine_field, quadratic_form, scalar_field, vector_field
from fieldorder.games import matching_pennies

CFG = ToleranceConfig()
AFFINE = affine_field([[1.0, 0.5], [-0.5, 1.0]], [0.0, 0.0], Box((-2.0, -2.0), (2.0, 2.0)),
                      "affine")
# one row per block, the default, and one block for every input below
BLOCK_SIZES = (1 << 12, dominance._BLOCK_BYTES, 1 << 26)


def _uniform(seed, rows, dim, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=(rows, dim))


def _quadratic_9d():
    rng = np.random.default_rng(9)
    return quadratic_form(rng.uniform(-2.0, 2.0, (9, 9)), rng.uniform(-1.0, 1.0, 9))


def _vector_cases():
    # a 9-D form: from dim 8 a stacked matmul can round a row by its grid position
    yield "mexican_hat", vector_field("mexican_hat"), _uniform(1, 300, 2, -2, 2), [[0.6, 0.8]]
    yield "quadratic_9d", _quadratic_9d()[1], _uniform(2, 120, 9), _uniform(3, 120, 9)
    yield ("xsininv_origin", vector_field("xsininv"),
           case_challengers(build_catalog(25)).points[:300], [[0.0]])


def _scalar_cases():
    yield "mexican_hat", scalar_field("mexican_hat"), _uniform(4, 300, 2, -2, 2), [[0.6, 0.8]]
    yield "quadratic_9d", _quadratic_9d()[0], _uniform(5, 120, 9), _uniform(6, 120, 9)
    yield "xsininv", scalar_field("xsininv"), _uniform(7, 300, 1, -1, 2), [[0.3]]
    yield ("xsininv_origin", scalar_field("xsininv"),
           case_challengers(build_catalog(25)).points[:300], [[0.0]])


def _screens():
    """Every screen output under the current block size, by name."""
    out = {}
    for label, c, xs, ys in _vector_cases():
        out[label, "extremes"] = batch_vector_extremes(c, xs, ys, CFG)
        out[label, "relations"] = batch_relations(c, xs, ys, CFG)
    for label, f, xs, ys in _scalar_cases():
        out[label, "scalar steps"] = batch_scalar_steps(f, xs, ys, CFG)
        out[label, "scalar relations"] = batch_relations(f, xs, ys, CFG)
    game = matching_pennies()
    rng = np.random.default_rng(8)
    xs = np.hstack([rng.dirichlet(np.ones(2), size=400) for _ in range(2)])
    out["matching_pennies", "relations"] = batch_relations(game, xs, [0.5, 0.5, 0.5, 0.5], CFG)
    return out


def _bytes(result):
    arrays = result if isinstance(result, tuple) else (result,)
    return [np.asarray(a).tobytes() for a in arrays]


def test_block_size_changes_no_result(monkeypatch):
    want = None
    for block in BLOCK_SIZES:
        monkeypatch.setattr(dominance, "_BLOCK_BYTES", block)
        got = {key: _bytes(result) for key, result in _screens().items()}
        if want is None:
            want = got
        for key in want:
            assert got[key] == want[key], (block, key)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path, field", [
    ("scalar", scalar_field("mexican_hat")),
    ("vector", vector_field("mexican_hat")),
    ("affine", AFFINE),
    ("witnessed scalar", scalar_field("xsininv")),
    ("witnessed vector", vector_field("xsininv")),
])
def test_screen_memory_is_blocks_plus_a_row_term(path, field):
    rows = 20_000
    xs = _uniform(10, rows, field.domain.dim, field.domain.lower[0], field.domain.upper[0])
    # a witnessed row ends at the origin and has an eps set of its own
    p = [0.0] if path.startswith("witnessed") else [0.6, 0.8]
    peak = _peak_bytes(lambda: batch_relations(field, xs, p, CFG))
    # a row keeps its statistics and its relation string (96 bytes); every
    # row's grid at once would be 20,000 x 1,025 x 2 x 8 bytes, 328 MB
    assert peak < 8 * dominance._BLOCK_BYTES + 200 * rows, peak


def test_affine_certificate_memory_is_blocks_plus_a_row_term(monkeypatch):
    # blocks much smaller than the rows' points, so an unblocked certificate
    # (about 80 bytes a row) fails the bound
    monkeypatch.setattr(dominance, "_BLOCK_BYTES", 1 << 16)
    rows = 100_000
    xs, ys = _broadcast_rows(_uniform(11, rows, 2, -2, 2), [0.6, 0.8])
    peak = _peak_bytes(lambda: _affine_endpoints(AFFINE, xs, ys, CFG.tau))
    # its outputs and the row index: 25 bytes a row
    assert peak < 8 * dominance._BLOCK_BYTES + 32 * rows, peak
