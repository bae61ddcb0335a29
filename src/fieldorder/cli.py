"""Command-line interface: compare, classify, game, flow, casestudy.

Exit codes: 0 success, 2 usage or parse error, 3 domain violation,
4 invariant breach (an inclusion-chain assertion failed, which must abort
loudly).  All randomness flows from --seed; reruns with identical arguments
produce byte-identical JSON, and CSV floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .casestudy import (ORIGIN_RADII, check_setwise_dominance, classify_catalog,
                        case_challengers, build_catalog, mexican_hat_counterexample,
                        minimal_candidate_points, origin_atypicality,
                        origin_segment_witnesses, require_origin_radii)
from .classify import classify_point, default_challengers
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
    (analytic witnesses, catalog challengers, --candidate auto, the flow
    potential) keys on stock, never on the field label.
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


class _Emitter:
    """Collects output files under --out-dir and writes the run manifest."""

    def __init__(self, args):
        self.args = args
        self.outputs: list[str] = []

    def write_text(self, name: str, text: str) -> None:
        if not self.args.out_dir:
            return
        os.makedirs(self.args.out_dir, exist_ok=True)
        path = os.path.join(self.args.out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        self.outputs.append(name)

    def finish(self, payload) -> None:
        if self.args.json:
            sys.stdout.write(_dumps(payload))
        if self.args.out_dir:
            # out_dir names where the record lives, not what was computed, so
            # it stays out of the manifest and reruns into fresh dirs match
            args = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in sorted(vars(self.args).items())
                    if k not in ("func", "out_dir")}
            manifest = {
                "command": self.args.command,
                "args": args,
                "seed": self.args.seed,
                "config": {"tolerance": _tolerance(self.args).to_dict()},
                "tool_version": __version__,
                "outputs": self.outputs,
            }
            os.makedirs(self.args.out_dir, exist_ok=True)
            with open(os.path.join(self.args.out_dir, "manifest.json"), "w") as fh:
                fh.write(_dumps(manifest))


def _field_kind_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--scalar", metavar="FIELD", help="scalar field reference")
    group.add_argument("--vector", metavar="FIELD", help="vector field reference")


def _picked(args):
    """(kind, field, stock) of the --scalar/--vector reference."""
    kind = "scalar" if args.scalar is not None else "vector"
    field, stock, _ = _resolve(args.scalar if kind == "scalar" else args.vector, kind)
    return kind, field, stock


def cmd_compare(args) -> int:
    emitter = _Emitter(args)
    kind, field, stock = _picked(args)
    cfg = _tolerance(args)
    extra = origin_segment_witnesses(args.x, args.y) if stock == "xsininv" else ()
    if kind == "scalar":
        verdict = compare_scalar(field, args.x, args.y, cfg, extra_eps=extra)
    else:
        verdict = compare_vector(field, args.x, args.y, cfg, extra_eps=extra)
    emitter.write_text("verdict.json", _dumps(verdict.to_dict()))
    if not args.json:
        print(f"{field.label}: x={args.x.tolist()} vs y={args.y.tolist()} -> {verdict.relation}")
    emitter.finish(verdict.to_dict())
    return 0


def _xsininv_extras(field, stock):
    if stock == "xsininv":
        return case_challengers(field.domain, build_catalog(25)), origin_segment_witnesses
    return None, None


def cmd_classify(args) -> int:
    emitter = _Emitter(args)
    kind, field, stock = _picked(args)
    cfg = _tolerance(args)
    if args.challengers is not None and args.challengers < 1:
        raise ValueError(f"--challengers must be at least 1, got {args.challengers}")
    challengers, witnesses = (None, None) if kind == "scalar" else _xsininv_extras(field, stock)
    if challengers is None and args.challengers is not None:
        challengers = default_challengers(field.domain, args.seed, grid_n=args.challengers,
                                          random_n=args.challengers)
    report = classify_point(kind, field, args.point, challengers=challengers,
                            radius=args.radius, cfg=cfg, seed=args.seed,
                            segment_witnesses=witnesses)
    emitter.write_text("classification.json", _dumps(report.to_dict()))
    if not args.json:
        flags = {k: v for k, v in report.to_dict().items() if isinstance(v, bool)}
        print(f"{field.label} at {args.point.tolist()}: {flags}")
    emitter.finish(report.to_dict())
    return 0


def cmd_game(args) -> int:
    emitter = _Emitter(args)
    game = load_game(args.file)
    cfg = _tolerance(args)
    challengers = default_challengers(game.domain, args.seed)
    nash = is_nash(game, args.point, challengers, cfg)
    report = classify_point("vector", game.cost, args.point, challengers=challengers,
                            radius=args.radius, cfg=cfg, seed=args.seed)
    payload = {"is_nash": nash.ok,
               "nash_witness": list(nash.witness) if nash.witness else None,
               **report.to_dict()}
    emitter.write_text("game_report.json", _dumps(payload))
    if not args.json:
        print(f"{game.label} at {args.point.tolist()}: nash={nash.ok} ess={report.is_ess} "
              f"nss={report.is_nss} minimal={report.is_minimal}")
    emitter.finish(payload)
    return 0


def _candidate_points(args, field, stock):
    if args.candidate == "none":
        return None
    if args.candidate == "auto":
        if stock != "xsininv":
            raise ValueError("--candidate auto only applies to the xsininv flow")
        return minimal_candidate_points(25, field.domain)
    with open(args.candidate) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('a candidate file must be a JSON object {"points": [...]}')
    try:
        return np.asarray(data["points"], float)
    except TypeError as exc:
        raise ValueError(f"candidate points are not numbers: {exc}") from None


def cmd_flow(args) -> int:
    emitter = _Emitter(args)
    field, stock, negated = _resolve(args.field, "vector")
    icfg = IntegratorConfig(dt=args.dt, t_max=args.tmax)
    candidate = _candidate_points(args, field, stock)
    # x' = -f'(x) descends the stock potential f
    potential = scalar_field(stock) if negated and stock and field.domain.dim == 1 else None
    if candidate is None:
        traj = integrate(field, args.x0, icfg)
        payload = {"final_state": traj.final_state.tolist(), "final_time": traj.final_time,
                   "terminated_reason": traj.terminated_reason,
                   "integrator": icfg.to_dict()}
    else:
        ics = SampleSet(np.atleast_2d(args.x0), strategy="explicit", seed=args.seed)
        report = check_setwise_stability(field, candidate, ics, icfg, potential=potential)
        payload = report.to_dict()
        payload["integrator"] = icfg.to_dict()
        traj = report.trajectories[0]
    buf = io.StringIO()
    traj.write_csv(buf)
    emitter.write_text("trajectory.csv", buf.getvalue())
    emitter.write_text("flow_report.json", _dumps(payload))
    if not args.json:
        print(f"{field.label} from {args.x0.tolist()}: "
              f"{payload.get('final_state', payload.get('trials'))}")
    emitter.finish(payload)
    return 0


def cmd_casestudy(args) -> int:
    emitter = _Emitter(args)
    cfg = _tolerance(args)
    payload: dict = {}
    if args.mexican_hat:
        hat = mexican_hat_counterexample(args.circle_points, cfg, seed=args.seed)
        emitter.write_text("mexican_hat.json", _dumps(hat.to_dict()))
        payload["mexican_hat"] = {"confirmed": hat.confirmed,
                                  "points": len(hat.records)}
    else:
        require_origin_radii(ORIGIN_RADII, cfg)  # before the sweeps, not after them
        coverage = check_setwise_dominance(args.window_hi, args.dominance_grid, cfg)
        agreement = classify_catalog(args.nmax, cfg, grid_n=args.grid_n, seed=args.seed)
        origin = origin_atypicality(cfg=cfg, grid_n=args.grid_n, seed=args.seed)
        emitter.write_text("catalog.json", _dumps(build_catalog(args.nmax).to_dict()))
        emitter.write_text("catalog_agreement.json", _dumps(agreement.to_dict()))
        emitter.write_text("origin.json", _dumps(origin.to_dict()))
        emitter.write_text("dominance.json", _dumps(coverage.to_dict()))
        xs = np.linspace(coverage.window[0], coverage.window[1], 2001)
        fs = scalar_field("xsininv").values(xs[:, None])
        lines = ["x,f"] + ["%.17g,%.17g" % xf for xf in zip(xs, fs)]
        emitter.write_text("field_curve.csv", "\n".join(lines) + "\n")
        payload = {"catalog_entries": 2 * args.nmax,
                   "catalog_agreement": agreement.all_agree,
                   "origin_confirmed": origin.confirmed,
                   "dominance_coverage": coverage.coverage_fraction}
    emitter.finish(payload)
    if not args.json:
        print(payload)
    return 0


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
        return args.func(args)
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
