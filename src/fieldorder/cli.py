"""Command-line interface: compare, classify, game, flow, casestudy.

Exit codes: 0 success, 2 usage or parse error, 3 domain violation,
4 invariant breach (an inclusion-chain assertion failed, which must abort
loudly).  All randomness flows from --seed; reruns with identical arguments
produce byte-identical JSON, and CSV floats carry 17 significant digits.

Each cmd_* computes and returns (artifacts, payload, summary): the files
for --out-dir in write order, each a JSON payload or CSV text; the --json
stdout; and the one plain stdout line.  main alone writes them, with the
manifest.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .casestudy import (check_setwise_dominance, classify_catalog, case_challengers,
                        build_catalog, mexican_hat_counterexample, minimal_candidate_points,
                        origin_atypicality, require_origin_radii)
from .classify import classify_point, default_challengers, require_radius
from .dominance import ToleranceConfig, compare_scalar, compare_vector
from .dynamics import IntegratorConfig, check_setwise_stability, integrate
from .errors import DimensionMismatchError, DomainViolationError, InvariantBreachError
from .fields import (SampleSet, field_from_json, negate, registry_names,
                     scalar_field, vector_field)
from .games import is_nash, load_game


def _jsonable(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable,
                      allow_nan=False) + "\n"


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], float)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}")


def _resolve(ref: str, kind: str):
    """Field reference: registry name, neg:name, or a JSON descriptor path.

    Returns (field, stock, negated): stock is the registry name the field
    was built from, None for a JSON descriptor.  Every stock-specific choice
    of the CLI (catalog challengers, --candidate auto, the flow potential)
    keys on stock, never on the field label.
    """
    negated = ref.startswith("neg:")
    name = ref[4:] if negated else ref
    if name in registry_names():
        stock = name
        field = scalar_field(name) if kind == "scalar" else vector_field(name)
    elif os.path.exists(name):
        stock = None
        sf, vf = field_from_json(name)
        field = sf if kind == "scalar" else vf
    else:
        raise ValueError(f"unknown field {name!r}; known: {registry_names()} or a JSON path")
    return (negate(field) if negated else field), stock, negated


def _tolerance(args) -> ToleranceConfig:
    return ToleranceConfig(tau=args.tau, n_eps=args.neps)


def _field_kind_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--scalar", metavar="FIELD", help="scalar field reference")
    group.add_argument("--vector", metavar="FIELD", help="vector field reference")


def _picked(args):
    """(kind, field, stock) of the --scalar/--vector reference."""
    kind = "scalar" if args.scalar is not None else "vector"
    field, stock, _ = _resolve(args.scalar if kind == "scalar" else args.vector, kind)
    return kind, field, stock


def cmd_compare(args):
    kind, field, _ = _picked(args)
    compare = compare_scalar if kind == "scalar" else compare_vector
    verdict = compare(field, args.x, args.y, _tolerance(args)).to_dict()
    return ({"verdict.json": verdict}, verdict,
            f"{field.label}: x={args.x.tolist()} vs y={args.y.tolist()} -> {verdict['relation']}")


def cmd_classify(args):
    if args.radius is not None:  # before any work; the default always passes
        require_radius(args.radius)
    kind, field, stock = _picked(args)
    if args.challengers is not None and args.challengers < 1:
        raise ValueError(f"--challengers must be at least 1, got {args.challengers}")
    challengers = None
    if kind == "vector" and stock == "xsininv":
        # --challengers sets the grid, as for every other 1-D box
        catalog = build_catalog(25)
        challengers = (case_challengers(catalog) if args.challengers is None
                       else case_challengers(catalog, args.challengers))
    elif args.challengers is not None:
        challengers = default_challengers(field.domain, args.seed, grid_n=args.challengers,
                                          random_n=args.challengers)
    report = classify_point(field, args.point, challengers=challengers, radius=args.radius,
                            cfg=_tolerance(args), seed=args.seed).to_dict()
    flags = {k: v for k, v in report.items() if isinstance(v, bool)}
    return ({"classification.json": report}, report,
            f"{field.label} at {args.point.tolist()}: {flags}")


def cmd_game(args):
    if args.radius is not None:  # before any work; the default always passes
        require_radius(args.radius)
    cost = load_game(args.file)
    cfg = _tolerance(args)
    challengers = default_challengers(cost.domain, args.seed)
    nash = is_nash(cost, args.point, challengers, cfg)
    report = classify_point(cost, args.point, challengers=challengers,
                            radius=args.radius, cfg=cfg, seed=args.seed)
    payload = {"is_nash": nash.ok,
               "nash_witness": list(nash.witness) if nash.witness else None,
               **report.to_dict()}
    return ({"game_report.json": payload}, payload,
            f"{cost.label} at {args.point.tolist()}: nash={nash.ok} ess={report.is_ess} "
            f"nss={report.is_nss} minimal={report.is_minimal}")


def _candidate_points(args, stock):
    if args.candidate == "none":
        return None
    if args.candidate == "auto":
        if stock != "xsininv":
            raise ValueError("--candidate auto only applies to the xsininv flow")
        return minimal_candidate_points()
    with open(args.candidate) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('a candidate file must be a JSON object {"points": [...]}')
    try:
        return np.asarray(data["points"], float)
    except TypeError as exc:
        raise ValueError(f"candidate points are not numbers: {exc}") from None


def cmd_flow(args):
    field, stock, negated = _resolve(args.field, "vector")
    icfg = IntegratorConfig(dt=args.dt, t_max=args.tmax)
    candidate = _candidate_points(args, stock)
    # x' = -f'(x) descends the stock potential f
    potential = scalar_field(stock) if negated and stock and field.domain.dim == 1 else None
    if candidate is None:
        traj = integrate(field, args.x0, icfg)
        payload = {"final_state": traj.final_state.tolist(), "final_time": traj.final_time,
                   "terminated_reason": traj.terminated_reason}
    else:
        ics = SampleSet(np.atleast_2d(args.x0))
        report = check_setwise_stability(field, candidate, ics, icfg, potential=potential)
        payload = report.to_dict()
        traj = report.trajectories[0]
    payload["integrator"] = icfg.to_dict()
    buf = io.StringIO()
    traj.write_csv(buf)
    return ({"trajectory.csv": buf.getvalue(), "flow_report.json": payload}, payload,
            f"{field.label} from {args.x0.tolist()}: "
            f"{payload.get('final_state', payload.get('trials'))}")


def cmd_casestudy(args):
    cfg = _tolerance(args)
    if args.mexican_hat:
        hat = mexican_hat_counterexample(args.circle_points, cfg, seed=args.seed)
        artifacts = {"mexican_hat.json": hat.to_dict()}
        payload = {"mexican_hat": {"confirmed": hat.confirmed, "points": len(hat.records)}}
    else:
        require_origin_radii(cfg)  # the checks that need no sweep go first
        catalog = build_catalog(args.nmax)
        coverage = check_setwise_dominance(args.window_hi, args.dominance_grid, cfg)
        challengers = case_challengers(catalog, args.grid_n)
        agreement = classify_catalog(catalog, challengers, cfg)
        origin = origin_atypicality(agreement.origin_minimal, agreement.origin_maximal,
                                    cfg, args.seed)
        xs = np.linspace(coverage.window[0], coverage.window[1], 2001)
        fs = scalar_field("xsininv").values(xs[:, None])
        lines = ["x,f"] + ["%.17g,%.17g" % xf for xf in zip(xs, fs)]
        artifacts = {"catalog.json": catalog.to_dict(),
                     "catalog_agreement.json": agreement.to_dict(),
                     "origin.json": origin.to_dict(),
                     "dominance.json": coverage.to_dict(),
                     "field_curve.csv": "\n".join(lines) + "\n"}
        payload = {"catalog_entries": 2 * args.nmax,
                   "catalog_agreement": agreement.all_agree,
                   "origin_confirmed": origin.confirmed,
                   "dominance_coverage": coverage.coverage_fraction}
    return artifacts, payload, str(payload)


def _write_outputs(args, artifacts: dict) -> None:
    """Each artifact (JSON payload or CSV text) under --out-dir, then the run
    manifest listing them in write order."""
    os.makedirs(args.out_dir, exist_ok=True)
    for name, content in artifacts.items():
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(content if isinstance(content, str) else _dumps(content))
    # out_dir names where the record lives, not what was computed, so it
    # stays out of the manifest and reruns into fresh dirs match
    manifest = {
        "command": args.command,
        "args": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                 for k, v in sorted(vars(args).items()) if k not in ("func", "out_dir")},
        "seed": args.seed,
        "config": {"tolerance": _tolerance(args).to_dict()},
        "tool_version": __version__,
        "outputs": list(artifacts),
    }
    with open(os.path.join(args.out_dir, "manifest.json"), "w") as fh:
        fh.write(_dumps(manifest))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fieldorder",
                                     description="Dominance orders and equilibrium "
                                                 "certification for scalar/vector fields")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tau", type=float, default=1e-9)
    parser.add_argument("--neps", type=int, default=1025)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--json", action="store_true", help="machine output on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="decide the dominance relation between two points")
    _field_kind_args(p)
    p.add_argument("--x", type=_parse_point, required=True)
    p.add_argument("--y", type=_parse_point, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("classify", help="classify one point against all solution concepts")
    _field_kind_args(p)
    p.add_argument("--point", type=_parse_point, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--challengers", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("game", help="classify a state of a JSON game file")
    p.add_argument("file")
    p.add_argument("--point", type=_parse_point, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("flow", help="integrate x' = F(x) and certify set convergence")
    p.add_argument("--field", required=True)
    p.add_argument("--x0", type=_parse_point, required=True)
    p.add_argument("--tmax", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--candidate", default="none", help="'none', 'auto', or a JSON path")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("casestudy", help="catalog, origin, and dominance-coverage artifacts")
    p.add_argument("--nmax", type=int, default=25)
    p.add_argument("--window-hi", type=float, default=2.0)
    p.add_argument("--grid-n", type=int, default=4096)
    p.add_argument("--dominance-grid", type=int, default=2000)
    p.add_argument("--mexican-hat", action="store_true")
    p.add_argument("--circle-points", type=int, default=16)
    p.set_defaults(func=cmd_casestudy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        artifacts, payload, summary = args.func(args)
        if args.out_dir:
            _write_outputs(args, artifacts)
        sys.stdout.write(_dumps(payload) if args.json else summary + "\n")
        return 0
    except DomainViolationError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return 3
    except InvariantBreachError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 4
    except (ValueError, DimensionMismatchError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
