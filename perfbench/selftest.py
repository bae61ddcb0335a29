"""Self-test of the tracing: every count metric repeats exactly.

    python3 perfbench/selftest.py [--seed N] [workload ...]

For each workload, runs the traced pass twice in one process and exits 1 if
an operation fails its checks or if any metric other than a time (counts,
bytes and ratios of counts) differs between the two passes.
"""

from __future__ import annotations

import argparse
import os
import sys

import run
import tracing
import workloads
from prepare import import_cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced-pass repeatability check")
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("workloads", nargs="*", metavar="workload")
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; known: {workloads.WORKLOADS}")
    os.chdir(run.ROOT)
    cli = import_cli()
    ok = True
    for name in args.workloads or workloads.WORKLOADS:
        _, ops = run.prepare(name, args.seed, 1)
        wl = run.Workload(cli, name, args.seed, ops, run.load_pins())
        first, second = (run.traced_pass(wl)[1] for _ in range(2))
        counts = [m for m, unit in tracing.UNITS.items()
                  if unit != "s" and m != "trace_overhead_frac"]
        differ = [f"{m}: {first[m]} vs {second[m]}" for m in counts if first[m] != second[m]]
        for failure in wl.failures:
            print(f"FAILED {name} pass {failure['pass']} {failure['op']}: {failure['reason']}")
        for line in differ:
            print(f"DIFFERS {name} {line}")
        ok = ok and not differ and not wl.failures
        print(f"{name}: {len(counts)} count metrics, {len(differ)} differ, "
              f"{len(wl.failures)} failed operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
