"""The benchmark tracer still finds a traced name behind every layer metric.

perfbench/tracing.py wraps fieldorder functions by name, and a metric whose
names are all gone reads 0 without failing the benchmark.  This test
installs a Tracer on the package, uninstalls it, and requires that no layer
metric lost all of its names, so deleting or renaming a traced function
fails here.  It reads perfbench/ and changes nothing there.
"""

import importlib
import os

import pytest

import fieldorder
from fieldorder import dominance

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracing():
    if not os.path.isfile(os.path.join(PERFBENCH, "tracing.py")):
        pytest.skip("no perfbench/ next to the tests")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("tracing")


def test_no_layer_metric_is_absent(tracing):
    original = dominance.compare_vector
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dominance.compare_vector is not original
    finally:
        tracer.uninstall()
    assert dominance.compare_vector is original
    assert fieldorder.compare_vector is original
    assert tracing.absent_metrics(tracer) == []
