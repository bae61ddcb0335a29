"""Spans around calls into fieldorder's modules, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
``fieldorder`` namespace that binds it (the modules import each other's
functions with ``from .x import y``, so one function has several bindings),
and replaces ``value``/``values`` on the field classes.  Each call records a
span: name, start, end and parent, kept in flat arrays until the pass ends.
A field evaluated inside another field evaluation (``negate``, the 1-D
vector view of a scalar field) belongs to the outer span.  A traced name
that no longer exists is recorded as absent and skipped.

``layer_metrics`` turns the spans into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

STRICT = "StrictlyDominates"

VALUE = ("fields.ScalarField.value", "fields.VectorField.value")
VALUES = ("fields.ScalarField.values", "fields.VectorField.values")
SCREEN = ("dominance.batch_vector_extremes", "dominance.batch_scalar_steps")
COMPARE = ("dominance.compare_vector", "dominance.compare_scalar")
PROFILE = ("dominance.segment_profile", "dominance.scalar_profile")


def _rows(args, kwargs, result):
    return len(result)


def _screen(kind):
    def probe(args, kwargs, result):
        xs = args[1] if len(args) > 1 else kwargs["xs"]
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        return kind, len(result[0]), cfg.n_eps, int(np.shape(xs)[-1])
    return probe


def _is_strict(args, kwargs, result):
    return getattr(result, "relation", None) == STRICT


def _steps(args, kwargs, result):
    return len(result.times) - 1


# (module, attribute or Class.method, probe run on the call's result)
TARGETS = (
    ("fields", "ScalarField.value", None),
    ("fields", "VectorField.value", None),
    ("fields", "ScalarField.values", _rows),
    ("fields", "VectorField.values", _rows),
    ("fields", "sample_domain", None),
    ("dominance", "batch_vector_extremes", _screen("vector")),
    ("dominance", "batch_scalar_steps", _screen("scalar")),
    ("dominance", "compare_vector", _is_strict),
    ("dominance", "compare_scalar", _is_strict),
    ("dominance", "segment_profile", None),
    ("dominance", "scalar_profile", None),
    ("classify", "classify_point", None),
    ("classify", "sample_neighborhood", None),
    ("classify", "default_challengers", None),
    ("classify", "is_critical_element", None),
    ("classify", "is_minimal", None),
    ("classify", "is_maximal", None),
    ("classify", "is_minimal_scalar", None),
    ("classify", "is_maximal_scalar", None),
    ("classify", "is_nss", None),
    ("classify", "is_ess", None),
    ("classify", "is_local_min_polyorder_vector", None),
    ("classify", "is_local_min_polyorder_scalar", None),
    ("classify", "is_strict_local_min_scalar", None),
    ("classify", "is_ess_set", None),
    ("classify", "is_almost_strictly_minimal_set", None),
    ("games", "load_game", None),
    ("games", "is_nash", None),
    ("dynamics", "integrate", _steps),
    ("dynamics", "check_setwise_stability", None),
    ("casestudy", "classify_catalog", None),
    ("casestudy", "origin_atypicality", None),
    ("casestudy", "check_setwise_dominance", None),
    ("casestudy", "mexican_hat_counterexample", None),
    ("casestudy", "case_challengers", None),
    ("cli", "main", None),
)


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, analyse."""

    def __init__(self):
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, object] = {}
        self.probe_errors = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._in_field = [False]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, label, fn, probe):
        nid = len(self.labels)
        self.labels.append(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, info, clock = self._stack, self.info, time.perf_counter
        evaluates = label in VALUE + VALUES
        if evaluates:
            nested = self._in_field

            @functools.wraps(fn)
            def field_wrapper(*args, **kwargs):
                if nested[0]:
                    return fn(*args, **kwargs)
                nested[0] = True
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    nested[0] = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                try:
                    info[idx] = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.probe_errors += 1
            return result

        return field_wrapper if evaluates else wrapper

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "fieldorder" or n.startswith("fieldorder.")]
        for module, attr, probe in TARGETS:
            label = f"{module}.{attr}"
            try:
                mod = importlib.import_module(f"fieldorder.{module}")
            except ImportError:
                self.absent.append(label)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                original = vars(cls).get(meth) if isinstance(cls, type) else None
                if not callable(original):
                    self.absent.append(label)
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(label, original, probe))
                continue
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, original, probe)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def save(self, path: str) -> None:
        """Write the spans (name table, name id, parent index, start, end)."""
        np.savez(path, labels=np.asarray(self.labels), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (unit, the traced names it is computed from)
LAYER_METRICS = {
    "fields.values_calls": ("count", VALUES),
    "fields.values_rows": ("count", VALUES),
    "fields.values_s": ("s", VALUES),
    "fields.value_calls": ("count", VALUE),
    "fields.value_s": ("s", VALUE),
    "fields.sample_s": ("s", ("fields.sample_domain",)),
    "dominance.screen_calls": ("count", SCREEN),
    "dominance.screen_rows": ("count", SCREEN),
    "dominance.screen_points": ("count", SCREEN),
    "dominance.screen_bytes_computed": ("bytes", SCREEN),
    "dominance.screen_self_s": ("s", SCREEN),
    "dominance.compare_calls": ("count", COMPARE),
    "dominance.compare_s": ("s", COMPARE),
    "dominance.compare_self_s": ("s", COMPARE),
    "dominance.refine_points": ("count", COMPARE),
    "classify.point_calls": ("count", ("classify.classify_point",)),
    "classify.point_s": ("s", ("classify.classify_point",)),
    "classify.neighborhood_s": ("s", ("classify.sample_neighborhood",)),
    "classify.survivor_frac": ("frac", SCREEN + COMPARE),
    "classify.refine_yield": ("frac", COMPARE),
    "games.load_s": ("s", ("games.load_game",)),
    "games.nash_calls": ("count", ("games.is_nash",)),
    "games.nash_s": ("s", ("games.is_nash",)),
    "dynamics.integrate_calls": ("count", ("dynamics.integrate",)),
    "dynamics.rk4_steps": ("count", ("dynamics.integrate",)),
    "dynamics.evals_per_step": ("count/step", ("dynamics.integrate",)),
    "dynamics.integrate_s": ("s", ("dynamics.integrate",)),
    "dynamics.integrate_self_s": ("s", ("dynamics.integrate",)),
    "dynamics.stability_s": ("s", ("dynamics.check_setwise_stability",)),
    "casestudy.catalog_s": ("s", ("casestudy.classify_catalog",)),
    "casestudy.origin_s": ("s", ("casestudy.origin_atypicality",)),
    "casestudy.coverage_s": ("s", ("casestudy.check_setwise_dominance",)),
    "casestudy.mexican_hat_s": ("s", ("casestudy.mexican_hat_counterexample",)),
    "casestudy.compare_calls": ("count", COMPARE),
    "cli.self_s": ("s", ("cli.main",)),
}
# measured by the runner around the traced pass, not from spans
UNITS = {**{m: u for m, (u, _) in LAYER_METRICS.items()},
         "cli.bytes_out": "bytes", "trace_overhead_frac": "frac"}


def _screen_bytes(kind: str, rows: int, n_eps: int, dim: int) -> int:
    """Bytes of the float64 arrays one screen materializes, from their sizes.

    Vector: segment points (dim), field values (dim) and delta (1) per grid
    point.  Scalar: segment points (dim), profile (1) and steps (1).
    """
    per_point = 2 * dim + 1 if kind == "vector" else dim + 2
    return 8 * rows * n_eps * per_point


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the recorded spans; absent layers read 0."""
    labels = tracer.labels
    name = np.asarray(tracer.name, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    n = name.size

    def member(group):
        return np.isin(name, [i for i, lab in enumerate(labels) if lab in group])

    def layer(module):
        return np.isin(name, [i for i, lab in enumerate(labels) if lab.startswith(module + ".")])

    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    is_field = member(VALUE + VALUES)
    is_compare = member(COMPARE)
    is_integrate = member(("dynamics.integrate",))
    is_classify = layer("classify")
    is_case = layer("casestudy")

    # ancestor facts, propagated in start order (a parent starts before its children)
    par = parent.tolist()
    isc, isk, iscmp, isint = (a.tolist() for a in
                              (is_classify, is_case, is_compare, is_integrate))
    inc, ink, cmp_of, int_of = [False] * n, [False] * n, [-1] * n, [-1] * n
    for i in range(n):
        p = par[i]
        if p < 0:
            continue
        inc[i] = isc[p] or inc[p]
        ink[i] = isk[p] or ink[p]
        cmp_of[i] = p if iscmp[p] else cmp_of[p]
        int_of[i] = p if isint[p] else int_of[p]
    in_classify, in_case = np.array(inc, bool), np.array(ink, bool)
    compare_of = np.array(cmp_of, dtype=np.int64)
    integrate_of = np.array(int_of, dtype=np.int64)

    info = tracer.info

    def rows_of(idx):
        return np.array([info.get(i, 0) for i in idx], dtype=np.int64)

    out: dict[str, float] = {}
    values = np.flatnonzero(member(VALUES))
    value = np.flatnonzero(member(VALUE))
    values_rows = rows_of(values)
    out["fields.values_calls"] = values.size
    out["fields.values_rows"] = int(values_rows.sum())
    out["fields.values_s"] = float(dur[values].sum())
    out["fields.value_calls"] = value.size
    out["fields.value_s"] = float(dur[value].sum())
    out["fields.sample_s"] = float(dur[member(("fields.sample_domain",))].sum())

    screens = np.flatnonzero(member(SCREEN))
    shapes = [info[i] for i in screens if i in info]
    out["dominance.screen_calls"] = screens.size
    out["dominance.screen_rows"] = sum(s[1] for s in shapes)
    out["dominance.screen_points"] = sum(s[1] * s[2] for s in shapes)
    out["dominance.screen_bytes_computed"] = sum(_screen_bytes(*s) for s in shapes)
    out["dominance.screen_self_s"] = float(self_t[screens].sum())

    compares = np.flatnonzero(is_compare & (compare_of < 0))
    out["dominance.compare_calls"] = compares.size
    out["dominance.compare_s"] = float(dur[compares].sum())
    in_compare = (compare_of >= 0) | is_compare
    out["dominance.compare_self_s"] = float(
        self_t[(is_compare | member(PROFILE)) & in_compare].sum())
    # every field evaluation inside a compare after its first one is refinement
    evals = np.flatnonzero(is_field & (compare_of >= 0))
    seen: set[int] = set()
    refine = 0
    for i, rows in zip(evals.tolist(), rows_of(evals).tolist()):
        owner = int(compare_of[i])
        if owner in seen:
            refine += rows if rows else 1
        seen.add(owner)
    out["dominance.refine_points"] = refine

    points = np.flatnonzero(member(("classify.classify_point",)))
    out["classify.point_calls"] = points.size
    out["classify.point_s"] = float(dur[points].sum())
    out["classify.neighborhood_s"] = float(dur[member(("classify.sample_neighborhood",))].sum())
    cls_compares = np.flatnonzero(is_compare & in_classify)
    cls_rows = sum(info[i][1] for i in np.flatnonzero(member(SCREEN) & in_classify) if i in info)
    strict = sum(1 for i in cls_compares.tolist() if info.get(i) is True)
    out["classify.survivor_frac"] = cls_compares.size / cls_rows if cls_rows else 0.0
    out["classify.refine_yield"] = strict / cls_compares.size if cls_compares.size else 0.0

    out["games.load_s"] = float(dur[member(("games.load_game",))].sum())
    nash = np.flatnonzero(member(("games.is_nash",)))
    out["games.nash_calls"] = nash.size
    out["games.nash_s"] = float(dur[nash].sum())

    integ = np.flatnonzero(is_integrate & (integrate_of < 0))
    steps = int(sum(info.get(i, 0) for i in integ.tolist()))
    flow_evals = np.flatnonzero(is_field & (integrate_of >= 0))
    n_evals = int(sum(max(info.get(i, 1), 1) for i in flow_evals.tolist()))
    out["dynamics.integrate_calls"] = integ.size
    out["dynamics.rk4_steps"] = steps
    out["dynamics.evals_per_step"] = n_evals / steps if steps else 0.0
    out["dynamics.integrate_s"] = float(dur[integ].sum())
    out["dynamics.integrate_self_s"] = float(self_t[integ].sum())
    out["dynamics.stability_s"] = float(dur[member(("dynamics.check_setwise_stability",))].sum())

    out["casestudy.catalog_s"] = float(dur[member(("casestudy.classify_catalog",))].sum())
    out["casestudy.origin_s"] = float(dur[member(("casestudy.origin_atypicality",))].sum())
    out["casestudy.coverage_s"] = float(dur[member(("casestudy.check_setwise_dominance",))].sum())
    out["casestudy.mexican_hat_s"] = float(
        dur[member(("casestudy.mexican_hat_counterexample",))].sum())
    out["casestudy.compare_calls"] = int((is_compare & in_case).sum())

    out["cli.self_s"] = float(self_t[member(("cli.main",))].sum())
    return out


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics none of whose traced names exist in the package any more."""
    gone = set(tracer.absent)
    return sorted(m for m, (_, names) in LAYER_METRICS.items()
                  if all(n in gone for n in names))
