"""Replay the benchmark's pinned operations and check their output digests.

perfbench/pins.json holds the SHA-256 of every operation's stdout and
artifacts at seed 0.  This test writes each workload's seed-0 inputs with
perfbench/workloads.py, runs every operation in-process through
fieldorder.cli.main, and digests the result the way perfbench/run.py does,
so a drift in any output byte fails here and not only in the benchmark.
It reads perfbench/ and changes nothing there.
"""

import importlib
import os

import pytest

from fieldorder import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def bench():
    if not os.path.isfile(os.path.join(PERFBENCH, "pins.json")):
        pytest.skip("no perfbench/ next to the tests")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("run"), importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["casestudy", "classify"])
def test_pinned_digests(bench, workload, tmp_path, monkeypatch):
    run, workloads = bench
    # run.py writes inputs to a path relative to its working directory, and
    # the game commands echo that path into their manifests
    monkeypatch.chdir(tmp_path)
    inputs = os.path.join(run.WORK, "inputs", workload)
    workloads.write_inputs(workload, run.DEFAULT_SEED, inputs)
    ops = workloads.read_ops(inputs)
    pins = run.load_pins()[workload]
    assert sorted(op["label"] for op in ops) == sorted(pins)
    drift = {}
    for i, op in enumerate(ops):
        out_dir = os.path.join(run.WORK, "work", workload, f"{i:02d}")
        rc, stdout, stderr = run._call(cli, ["--json", "--out-dir", out_dir] + op["argv"])
        assert rc == 0, (op["label"], stderr)
        digest, _ = run._digest(stdout, out_dir)
        if digest != pins[op["label"]]:
            drift[op["label"]] = digest
    assert drift == {}
