"""The benchmark's recorded witnesses still hold for the library.

``bench/refs.json`` holds the witness values of every pool instance of the
library workloads, and a benchmark call whose witnesses differ from them by
more than rtol 1e-10 counts as failed.  This runs the benchmark's own output
check on every instance, so a witness drift fails in the test suite too, not
only in a benchmark run.  ``bench/workloads.py`` is loaded from its file and
left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["battery-dense", "sampling-spline"])
def test_every_pool_instance_matches_recorded_refs(name):
    workload = workloads.WORKLOADS[name](seed=0)
    failed = []
    for i in range(workloads.POOL):  # the seed's order visits each instance once
        call = workload.call(i)
        workload.check(call)
        if not call.ok:
            failed.append(call.label)
    assert failed == []
