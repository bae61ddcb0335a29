"""fieldorder benchmark: one run of one workload.

    python3 perfbench/run.py --workload casestudy --seed 0 --seconds 45 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``.
A run

1. prepares the seeded inputs SETUP_REPS times, each in a fresh process
   (``prepare.py``), and reports the median time to ready as ``setup_s``;
2. drives ``fieldorder.cli.main([... "--json", "--out-dir", dir])`` in this
   process, one call per operation, as a closed loop from a single client,
   in timed passes until ``--seconds`` have elapsed (at least one);
3. checks every operation of every pass: exit code 0, JSON on stdout, the
   workload's closed-form oracle, bytes identical to the first pass and,
   where pinned, equal to the digest in ``pins.json``;
4. with ``--trace 1``, runs one more pass with spans around the package's
   layers (``tracing.py``) and reports per-layer metrics instead.

The last line of stdout is the JSON result; the full record (environment,
every pass, every failure) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench"
PINS = os.path.join(HERE, "pins.json")
SETUP_REPS = 5
DEFAULT_SEED = 0
PREPARE_TIMEOUT_S = 60

import tracing  # noqa: E402  (sibling modules; this directory is sys.path[0])
import workloads  # noqa: E402


def _prepare_once(workload: str, seed: int, inputs: str) -> float:
    """Seconds from starting a fresh prepare process until its inputs are ready."""
    cmd = [sys.executable, os.path.join(HERE, "prepare.py"), "--workload", workload,
           "--seed", str(seed), "--out", inputs]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=PREPARE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): {err.strip()}")
    return ready


def _digest(stdout: str, out_dir: str) -> tuple[str, int]:
    """SHA-256 over stdout and every artifact (sorted by name), and their byte count."""
    h = hashlib.sha256()
    data = stdout.encode()
    h.update(b"stdout\0" + data + b"\0")
    total = len(data)
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        h.update(name.encode() + b"\0" + blob + b"\0")
        total += len(blob)
    return h.hexdigest(), total


def _call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises is a failed operation
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """The operations of one run and the reference bytes they must reproduce."""

    def __init__(self, cli, name: str, seed: int, ops: list[dict], pins: dict | None):
        self.cli, self.name, self.seed, self.ops = cli, name, seed, ops
        # None while re-pinning: every other check still applies
        self.pins = None if pins is None else pins.get(name, {})
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.passes = 0

    def run_pass(self) -> dict:
        """One timed pass over every operation, then the checks (untimed)."""
        base = os.path.join(WORK, "work", self.name, f"pass{self.passes}")
        shutil.rmtree(base, ignore_errors=True)
        dirs = [os.path.join(base, f"{i:02d}") for i in range(len(self.ops))]
        gc.collect()
        results, op_walls = [], []
        t0, c0 = time.perf_counter(), time.process_time()
        for op, out_dir in zip(self.ops, dirs):
            t_op = time.perf_counter()
            results.append(_call(self.cli, ["--json", "--out-dir", out_dir] + op["argv"]))
            op_walls.append(time.perf_counter() - t_op)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        bytes_out = 0
        digests = {}
        for op, out_dir, (rc, stdout, stderr) in zip(self.ops, dirs, results):
            digest, nbytes = _digest(stdout, out_dir)
            bytes_out += nbytes
            digests[op["label"]] = digest
            reason = self._check(op, rc, stdout, stderr, digest)
            self.attempted += 1
            if reason is not None:
                self.failures.append({"pass": self.passes, "op": op["label"], "reason": reason})
        shutil.rmtree(base, ignore_errors=True)
        self.passes += 1
        return {"wall_s": wall, "cpu_s": cpu, "bytes_out": bytes_out, "digests": digests,
                "op_wall_s": op_walls}

    def _check(self, op, rc, stdout, stderr, digest) -> str | None:
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-500:]}"
        try:
            payload = json.loads(stdout)
            reason = workloads.check_payload(op["check"], payload, op["argv"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        if reason is not None:
            return reason
        label = op["label"]
        if self.reference.setdefault(label, digest) != digest:
            return "output bytes differ from the first pass"
        if self.pins is not None and (not op["seeded"] or self.seed == DEFAULT_SEED):
            pinned = self.pins.get(label)
            if pinned != digest:
                return f"digest {digest[:12]} != pinned {str(pinned)[:12]}"
        return None


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, read from the library itself."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def prepare(workload: str, seed: int, reps: int) -> tuple[list[float], list[dict]]:
    """Time `reps` fresh set-ups, then read back the inputs they wrote."""
    inputs = os.path.join(WORK, "inputs", workload)
    samples = [_prepare_once(workload, seed, inputs) for _ in range(reps)]
    return samples, workloads.read_ops(inputs)


def timed_passes(wl: Workload, seconds: float) -> list[dict]:
    """Timed passes until `seconds` have elapsed (at least one)."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(wl.run_pass())
    return passes


def traced_pass(wl: Workload) -> tuple[dict, dict, tracing.Tracer]:
    """One pass with spans installed: the pass, its per-layer metrics, the spans."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = wl.run_pass()
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer)
    values["cli.bytes_out"] = result["bytes_out"]
    return result, values, tracer


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fieldorder benchmark run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fieldorder", "__init__.py")):
        print(f"no fieldorder sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        setup, ops = prepare(args.workload, args.seed, SETUP_REPS)
        pins = load_pins()
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    from prepare import import_cli

    wl = Workload(import_cli(), args.workload, args.seed, ops, pins)
    passes = timed_passes(wl, args.seconds)
    wall = statistics.median(p["wall_s"] for p in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_s_samples": setup,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "bytes_out", "op_wall_s")}
                   for p in passes],
        "digests": passes[0]["digests"],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    if args.trace:
        traced, values, tracer = traced_pass(wl)
        values["trace_overhead_frac"] = (traced["wall_s"] - wall) / wall
        metrics = {m: _metric(v, tracing.UNITS[m]) for m, v in values.items()}
        record["traced_wall_s"] = traced["wall_s"]
        record["absent"] = tracing.absent_metrics(tracer)
        record["probe_errors"] = tracer.probe_errors
        tracer.save(os.path.join(WORK, "results", f"{args.workload}-spans.npz"))
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MB"),
        }
    record["failed_ops_frac"] = len(wl.failures) / wl.attempted
    record["failures"] = wl.failures
    record["metrics"] = metrics
    path = os.path.join(WORK, "results", f"{args.workload}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed}: {len(passes)} timed passes, "
          f"failed_ops_frac={record['failed_ops_frac']}")
    print("# env " + json.dumps(record["environment"], sort_keys=True))
    for failure in wl.failures[:10]:
        print(f"# FAILED pass {failure['pass']} {failure['op']}: {failure['reason']}")
    if record.get("absent"):
        print("# absent (layer no longer in the package, reported as 0): "
              + ", ".join(record["absent"]))
    print(f"# record: {path}")
    print(json.dumps({"correct": not wl.failures, "attempted": wl.attempted,
                      "failed": len(wl.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
