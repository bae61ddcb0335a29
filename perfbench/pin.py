"""Re-pin the output digests in pins.json.

    python3 perfbench/pin.py [workload ...]

Runs two passes of each workload at the default seed, requires every
operation to pass its oracle and to repeat its bytes, and writes the digests.
Re-pin only for an output change that is intended and argued for.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads
from prepare import import_cli


def main(names: list[str]) -> int:
    os.chdir(run.ROOT)
    pins = run.load_pins() if os.path.exists(run.PINS) else {}
    cli = import_cli()
    for name in names or workloads.WORKLOADS:
        _, ops = run.prepare(name, run.DEFAULT_SEED, 1)
        wl = run.Workload(cli, name, run.DEFAULT_SEED, ops, None)
        digests = wl.run_pass()["digests"]
        wl.run_pass()
        for failure in wl.failures:
            print(f"FAILED {name} pass {failure['pass']} {failure['op']}: {failure['reason']}")
        if wl.failures:
            return 1
        pins[name] = digests
        print(f"{name}: pinned {len(digests)} operations")
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
