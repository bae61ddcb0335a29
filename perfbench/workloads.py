"""Seeded workload generation and the per-operation correctness oracles.

A workload is a list of operations; each operation is one ``fieldorder``
command line (without the ``--json --out-dir DIR`` prefix the runner adds).
``casestudy`` is the x sin(1/x) case study end to end: the catalog, origin
and coverage sweeps, the mexican-hat counterexample and the flows of
acceptance criterion 4, plus flows on two stock fields.  ``classify`` is the
games and stock-field classifications; it never integrates a flow.
``write_inputs`` turns (workload, seed) into files: ``ops.json`` with the
argv lists and, for the ``classify`` workload, the game JSON files the
``game`` commands read.  The package only ever sees those files.

Operations marked ``seeded`` depend on the seed; the others are the stock
operations and produce the same bytes for every seed.  ``check_payload``
holds the oracles, written against the package's closed forms.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("casestudy", "classify")

GAMES = {
    "hawk_dove": {"mode": "symmetric", "C": [[1.0, -2.0], [0.0, -1.0]], "mass": 1.0},
    "matching_pennies": {"mode": "bimatrix",
                         "A": [[-1.0, 1.0], [1.0, -1.0]],
                         "B": [[1.0, -1.0], [-1.0, 1.0]]},
    "rock_paper_scissors": {"mode": "symmetric",
                            "C": [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
                            "mass": 1.0},
}
_THIRD = 1.0 / 3.0
GAME_EQUILIBRIA = {
    "hawk_dove": [0.5, 0.5],
    "matching_pennies": [0.5, 0.5, 0.5, 0.5],
    "rock_paper_scissors": [_THIRD, _THIRD, _THIRD],
}
# off-equilibrium points keep every coordinate and every cost gap this far
# from zero, so their Nash verdict is never borderline
_OFF_EQ_MARGIN = 0.05

# basins (1/((2k+2) pi), 1/(2k pi)) of x' = -x sin(1/x); acceptance
# criterion 4 starts at their midpoints, the seeded starts anywhere inside
_FLOW_BASINS = (1, 2, 3)


def _zero(n: int) -> float:
    return 1.0 / (n * math.pi)


def _point_arg(p) -> str:
    return ",".join(repr(float(v)) for v in p)


def _op(label, argv, check, seeded=False):
    return {"label": label, "argv": argv, "check": check, "seeded": seeded}


def game_costs(game: dict, p: np.ndarray) -> list[np.ndarray]:
    """Per-population cost vectors of a matrix game at state p."""
    if game["mode"] == "symmetric":
        return [np.asarray(game["C"], float) @ p]
    A, B = np.asarray(game["A"], float), np.asarray(game["B"], float)
    m1 = A.shape[0]
    x, y = p[:m1], p[m1:]
    return [A @ y, B.T @ x]


def _off_equilibrium(rng: np.random.Generator, game: dict, blocks: list[int]) -> list[float]:
    while True:
        p = []
        for m in blocks:
            block = [round(float(v), 6) for v in rng.dirichlet(np.ones(m))]
            block[-1] = 1.0 - sum(block[:-1])
            p.extend(block)
        arr = np.asarray(p)
        gaps = [float(c.max() - c.min()) for c in game_costs(game, arr)]
        if arr.min() >= _OFF_EQ_MARGIN and max(gaps) >= _OFF_EQ_MARGIN:
            return p


def _casestudy_ops(rng, game_dir):
    cli_seed = int(rng.integers(1, 2**31 - 1))
    return [
        _op("casestudy:catalog", ["casestudy", "--nmax", "25"], {"kind": "casestudy"}),
        _op("casestudy:mexican_hat", ["--seed", str(cli_seed), "casestudy", "--mexican-hat"],
            {"kind": "mexican_hat"}, seeded=True),
    ] + _flow_ops(rng)


def _classify_ops(rng, game_dir):
    ops = []
    for name, point in GAME_EQUILIBRIA.items():
        path = os.path.join(game_dir, f"{name}.json")
        ops.append(_op(f"game:{name}:equilibrium", ["game", path, "--point", _point_arg(point)],
                       {"kind": "game", "game": name}))
    blocks = {"hawk_dove": [2], "matching_pennies": [2, 2], "rock_paper_scissors": [3]}
    for name, sizes in blocks.items():
        point = _off_equilibrium(rng, GAMES[name], sizes)
        path = os.path.join(game_dir, f"{name}.json")
        ops.append(_op(f"game:{name}:off_equilibrium",
                       ["game", path, "--point", _point_arg(point)],
                       {"kind": "game", "game": name}, seeded=True))
    catalog_n = 3
    ops += [
        _op("classify:vector:mexican_hat", ["classify", "--vector", "mexican_hat",
                                            "--point", "0.3,0.2"], {"kind": "json"}),
        _op("classify:scalar:mexican_hat", ["classify", "--scalar", "mexican_hat",
                                            "--point", "0.6,0.8"], {"kind": "json"}),
        _op("classify:vector:xsininv", ["classify", "--vector", "xsininv",
                                        "--point", _point_arg([_zero(catalog_n)])],
            {"kind": "catalog_point", "n": catalog_n}),
        _op("classify:scalar:cubic", ["classify", "--scalar", "cubic", "--point", "0.0"],
            {"kind": "json"}),
        _op("classify:vector:linear", ["classify", "--vector", "linear", "--point", "0.0"],
            {"kind": "json"}),
    ]
    return ops


def _flow_ops(rng):
    def xsininv(label, x0, seeded=False):
        return _op(label, ["flow", "--field", "neg:xsininv", "--candidate", "auto",
                           "--x0", _point_arg([x0])],
                   {"kind": "flow_xsininv", "x0": x0}, seeded)

    ops = [xsininv(f"flow:xsininv:{x0!r}", x0) for x0 in (0.5, 1.0, 2.0)]
    for k in _FLOW_BASINS:
        x0 = 0.5 * (_zero(2 * k) + _zero(2 * k + 2))
        ops.append(xsininv(f"flow:xsininv:basin{k}", x0))
    for k in _FLOW_BASINS:
        lo, hi = _zero(2 * k + 2), _zero(2 * k)
        x0 = round(lo + (hi - lo) * float(rng.uniform(0.25, 0.75)), 9)
        ops.append(xsininv(f"flow:xsininv:seeded_basin{k}", x0, seeded=True))
    ops += [
        _op("flow:linear", ["flow", "--field", "neg:linear", "--x0", "0.5"],
            {"kind": "flow_attractor", "radius": 0.0}),
        _op("flow:mexican_hat", ["flow", "--field", "neg:mexican_hat", "--x0", "0.3,0.2"],
            {"kind": "flow_attractor", "radius": 1.0}),
    ]
    return ops


_BUILDERS = {"casestudy": _casestudy_ops, "classify": _classify_ops}


def write_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write ops.json (and game files) for workload and seed under out_dir."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    if workload == "classify":
        for name, game in GAMES.items():
            with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
                json.dump(game, fh, sort_keys=True)
    ops = _BUILDERS[workload](rng, out_dir)
    with open(os.path.join(out_dir, "ops.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh, indent=1)


def read_ops(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "ops.json")) as fh:
        return json.load(fh)["ops"]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

# convergence threshold of the default IntegratorConfig: |F(x)| < 1e-6
_CONVERGED_TOL = 1e-6


def check_payload(check: dict, payload: dict, argv: list[str]) -> str | None:
    """Return None when payload passes the operation's oracle, else a reason."""
    kind = check["kind"]
    if kind == "json":
        return None
    if kind == "casestudy":
        if payload.get("catalog_agreement") is not True:
            return "catalog disagrees with the closed-form classes"
        if payload.get("origin_confirmed") is not True:
            return "origin atypicality not confirmed"
        if not payload.get("dominance_coverage", 0.0) >= 0.995:
            return f"dominance coverage {payload.get('dominance_coverage')} < 0.995"
        return None
    if kind == "mexican_hat":
        if payload.get("mexican_hat", {}).get("confirmed") is not True:
            return "mexican hat counterexample not confirmed"
        return None
    if kind == "game":
        game = GAMES[check["game"]]
        p = np.asarray([float(v) for v in argv[argv.index("--point") + 1].split(",")])
        want = all(float(c.max() - c.min()) <= 1e-9 for c in game_costs(game, p))
        if payload.get("is_nash") is not want:
            return f"is_nash={payload.get('is_nash')}, closed form says {want}"
        return None
    if kind == "catalog_point":
        from fieldorder.casestudy import MINIMAL, kind_of
        want_min = kind_of(check["n"]) == MINIMAL
        if payload.get("is_minimal") is not want_min or payload.get("is_maximal") is want_min:
            return (f"minimal/maximal={payload.get('is_minimal')}/{payload.get('is_maximal')}"
                    f", catalog class {kind_of(check['n'])}")
        return None
    if kind == "flow_xsininv":
        from fieldorder.casestudy import dominating_minimal_element
        want = dominating_minimal_element(check["x0"])
        trials = payload.get("trials") or [{}]
        got = trials[0].get("limit_point")
        if len(trials) != 1 or not trials[0].get("converged") or got != [want]:
            return f"limit point {got}, closed form {want}"
        return None
    if kind == "flow_attractor":
        x = np.asarray(payload.get("final_state", [np.nan]), float)
        off = abs(float(np.linalg.norm(x)) - check["radius"])
        if payload.get("terminated_reason") != "Converged" or not off <= _CONVERGED_TOL:
            return (f"{payload.get('terminated_reason')} at distance {off:.3g} "
                    f"from the attractor |x| = {check['radius']}")
        return None
    return f"unknown check {kind!r}"
