"""Set-up step of a benchmark run, executed in a fresh process.

    python3 perfbench/prepare.py --workload flow --seed 0 --out .perfbench/inputs/flow

Imports fieldorder from the checkout's ``src/`` (as every CLI invocation
does), writes the seeded workload inputs and prints ``ready`` once they are
on disk.  The runner times process start to that line as ``setup_s``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_cli():
    """Import fieldorder.cli from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fieldorder.cli

    if not os.path.abspath(fieldorder.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fieldorder was imported from {fieldorder.cli.__file__}, "
                          f"not from {SRC}")
    return fieldorder.cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import_cli()
    import workloads

    workloads.write_inputs(args.workload, args.seed, args.out)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
