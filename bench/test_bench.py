"""Self-tests of the benchmark code.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_self_time_of_nested_spans():
    recorded = [
        Span("root", "a", 0.0, 10.0, None, 0),
        Span("child", "b", 1.0, 4.0, 0, 0),
        Span("grandchild", "c", 2.0, 3.0, 1, 0),
        Span("child", "b", 5.0, 6.5, 0, 0),
        Span("late", "b", 9.0, 11.0, 0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(recorded) == pytest.approx([10.0 - 3.0 - 1.5 - 1.0,
                                                        2.0, 1.0, 1.5, 2.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [
        Span("root", "a", 0.0, 10.0, None, 0),
        Span("x", "b", 1.0, 5.0, 0, 0),
        Span("y", "b", 3.0, 7.0, 0, 0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_tracer_links_parents_and_restores():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    tracer = spans.Tracer()
    tracer.patch(Owner, "inner", "frames.gram", "frames")
    tracer.patch(Owner, "outer", "frames.cross_gram", "frames")
    tracer.call = 7
    assert Owner.outer(1) == 4
    outer, inner = sorted(tracer.spans, key=lambda s: s.start)
    assert outer.parent is None and inner.parent == tracer.spans.index(outer)
    assert {s.call for s in tracer.spans} == {7}
    metrics = spans.layer_metrics(tracer.spans, calls=1)
    assert metrics["frames.gram.count"] == (1.0, "count")  # nested: counted once
    tracer.restore()
    assert not hasattr(Owner.inner, "__wrapped__")


def test_witness_check_tolerance():
    ref = [0.30917949870477607, 64.18188519582735, "inf"]
    assert workloads.mismatches([0.30917949870477607 * (1 + 1e-12), 64.18188519582735,
                                 float("inf")], ref) == []
    assert workloads.mismatches([0.30917949870477607 * (1 + 1e-8), 64.18188519582735,
                                 float("inf")], ref) == [0]
    assert workloads.mismatches([0.3, 64.0], ref) == [0, 1, 2]


def test_output_check_rejects_witness_perturbed_by_1e8():
    wl = workloads.SamplingSpline(seed=0)
    call = wl.call(0)
    wl.check(call)
    assert call.ok and call.correct

    report = call.value
    item = report.items[-1]
    (size, value), *rest = item.quantities
    bumped = dataclasses.replace(item, quantities=((size, value * (1 + 1e-8)), *rest))
    call.value = dataclasses.replace(report, items=report.items[:-1] + (bumped,))
    wl.check(call)
    assert not call.ok and not call.correct


def test_raising_call_is_incorrect_and_keeps_its_label():
    wl = workloads.SamplingSpline(seed=0)

    def boom(i):
        raise RuntimeError("boom")

    wl.call = boom
    call = run.run_call(wl, 3)
    assert call.label == wl.label(3) == str(wl.instance(3))
    assert not call.ok and not call.correct
    assert call.error == "RuntimeError: boom"


@pytest.mark.parametrize("label, code, error, correct", [
    ("sampling_decay", 3, "numerical failure: quadrature error 1.1e-08 at offset 3", True),
    ("sampling_decay", 1, "Traceback (most recent call last):", False),
    ("analyze", 3, "numerical failure: quadrature error 1.1e-08 at offset 3", False),
    ("fixtures", 2, "error: no such file: x.json", False),
])
def test_cli_nonzero_exit_is_failed_and_only_known_defect_is_correct(
        tmp_path, label, code, error, correct):
    call = workloads.Call(label, value=tmp_path / "out.json", error=error)
    call.returncode = code
    workloads.CliMix.check(None, call)
    assert not call.ok
    assert call.correct is correct


def test_tail_has_ten_samples_beyond():
    samples = [float(v) for v in range(40)]
    value, pct, n = run.tail(samples)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(s > value for s in samples) == 10
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)


def test_traced_counts_repeat_exactly():
    wl = workloads.SamplingSpline(seed=0)
    counts = []
    for i in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl.call(i)
        finally:
            tracer.restore()
        metrics = spans.layer_metrics(tracer.spans, calls=1)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["sampling.points_evaluated"] == 128**2 + 256**2 + 512**2
