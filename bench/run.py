"""framebench benchmark: one workload, one seed, one timed closed loop.

    python3 bench/run.py --workload battery-dense --seed 0 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run prints
the end-to-end metrics, measured without tracing; with ``--trace 1`` it prints
the per-layer metrics of a traced run (``spans.py``) and writes its spans to
``bench/out/`` (gzipped JSON lines).  Every output is checked; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it record the environment and the sample
counts.  BLAS threading is left as the environment sets it.
"""

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("battery-dense", "sampling-spline", "cli-mix")

#: Fresh processes timed for setup_s, spread evenly through the timed loop.
SETUP_PROBES = 9
#: Fresh processes timed for cli.import_s in a traced run.
IMPORT_PROBES = 3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def git_commit():
    """Commit of the checkout, read from ``.git``; None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "framebench").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads(numpy):
    """Thread count the bundled OpenBLAS runs with, or None if not found."""
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(dll, fn):
                return int(getattr(dll, fn)())
    return None


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime_threads": blas_threads(numpy)},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------------
# fresh-process probes
# --------------------------------------------------------------------------

def setup_seconds(workload, seed):
    """Spawn-to-ready time of a fresh process setting the workload up."""
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import workloads; "
            f"workloads.WORKLOADS[{workload!r}]({seed}, {workdir!r}); print('ready')")
    try:
        start = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=120, check=True)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res.stdout.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return elapsed


def import_seconds():
    """Time a fresh interpreter spends in ``import framebench.cli``."""
    code = ("import time; t = time.perf_counter(); import framebench.cli; "
            "print(time.perf_counter() - t)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), timeout=120, check=True)
    return float(res.stdout)


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------

def run_call(wl, i, tracer=None):
    """One top-level call, timed, then checked outside the timed region."""
    from workloads import Call

    if tracer is not None:
        tracer.call = i
    start = time.perf_counter()
    try:
        call = wl.call(i)
    except Exception as exc:  # a failing call is counted, not fatal
        call = Call(wl.label(i), error=f"{type(exc).__name__}: {exc}")
        call.seconds = time.perf_counter() - start
        return call
    call.seconds = time.perf_counter() - start
    wl.check(call)
    return call


def closed_loop(wl, seconds, first, tracer=None, probe=None, probes=0):
    """Calls from index ``first`` on until ``seconds`` have passed.

    The loop only stops at the end of a whole cycle of the workload's
    configs, so every run makes the same mix of calls.  With ``probe``, the
    loop also takes ``probes`` samples of ``probe()`` between calls, one each
    time another ``seconds / probes`` of call time has passed, so that they
    meet the same phases of the host as the calls.  The time they take is
    left out of the returned wall time.  Returns (calls, wall, samples).
    """
    calls, samples = [], []
    start = time.perf_counter()
    paused = 0.0
    while True:
        calls.append(run_call(wl, first + len(calls), tracer))
        elapsed = time.perf_counter() - start - paused
        if len(samples) < probes and elapsed >= len(samples) * seconds / probes:
            before = time.perf_counter()
            samples.append(probe())
            paused += time.perf_counter() - before
        if (len(calls) % wl.cycle == 0 and len(samples) >= probes
                and elapsed >= seconds):
            return calls, time.perf_counter() - start - paused, samples


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer the
    maximum is returned and flagged by a percentile of 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary(calls):
    failed = [c for c in calls if not c.ok]
    return {
        "calls": len(calls),
        "failed": len(failed),
        "failed_by_config": {
            label: sum(c.label == label for c in failed)
            for label in sorted({c.label for c in failed})},
        "errors": sorted({c.error for c in failed if c.error})[:5],
    }


def end_to_end(wl, args):
    warm = run_call(wl, 0)
    calls, wall, setups = closed_loop(
        wl, args.seconds, wl.cycle,
        probe=lambda: setup_seconds(args.workload, args.seed), probes=SETUP_PROBES)
    times = [c.seconds for c in calls]
    tail_value, tail_pct, n = tail(times)
    if wl.cycle > 1:  # cli-mix: the work runs in the child processes
        rss_kb = max(c.rss_kb for c in calls)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = summary(calls)
    info.update(setup_samples=setups, call_tail_percentile=tail_pct, call_samples=n,
                call_p50_by_label={label: statistics.median(
                    c.seconds for c in calls if c.label == label)
                    for label in sorted({c.label for c in calls})})
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "call_p50_s": metric(statistics.median(times), "s"),
        "call_tail_s": metric(tail_value, "s"),
        "calls_per_s": metric(len(calls) / wall, "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        "ok_frac": metric((len(calls) - info["failed"]) / len(calls), "frac"),
    }
    return [warm] + calls, calls, metrics, info


def traced(wl, args):
    """Untraced then traced half-runs; per-layer metrics from the traced half."""
    import spans

    half = args.seconds / 2.0
    warm = run_call(wl, 0)
    plain, _, _ = closed_loop(wl, half, wl.cycle)
    first = wl.cycle + len(plain)
    tracer = spans.Tracer()
    trace_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=OUT_DIR))
    tracer.install()
    wl.start_trace(tracer, trace_dir)
    try:
        traced_calls, _, _ = closed_loop(wl, half, first, tracer)
    finally:
        wl.stop_trace()
        tracer.restore()
        shutil.rmtree(trace_dir, ignore_errors=True)

    recorded = list(tracer.spans)
    mains = {}  # cli.main durations by CLI config
    for i, call in enumerate(traced_calls):  # spans written by CLI child processes
        offset = len(recorded)
        for fields in call.spans:
            span = spans.Span.from_json(fields)
            span.call = first + i
            span.parent = None if span.parent is None else span.parent + offset
            recorded.append(span)
            if span.name == "cli.main":
                mains.setdefault(call.label, []).append(span.duration)
    layers = spans.layer_metrics(recorded, len(traced_calls))

    plain_p50 = statistics.median(c.seconds for c in plain)
    traced_p50 = statistics.median(c.seconds for c in traced_calls)
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    metrics["cli.import_s"] = metric(
        statistics.median(import_seconds() for _ in range(IMPORT_PROBES)), "s")
    from workloads import CliMix

    for config in CliMix.CONFIGS:
        metrics[f"cli.{config}_s"] = metric(statistics.median(mains.get(config, [0.0])),
                                            "s")
    metrics["trace.overhead"] = metric(traced_p50 / plain_p50, "ratio")

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": spans.Span.__slots__}) + "\n")
        for span in recorded:
            fh.write(json.dumps(span.to_json()) + "\n")
    calls = plain + traced_calls
    info = summary(calls)
    info.update(untraced_call_p50_s=plain_p50, traced_call_p50_s=traced_p50,
                traced_calls=len(traced_calls), spans=len(recorded),
                spans_file=str(spans_path.relative_to(ROOT)))
    return [warm] + calls, calls, metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "framebench" / "__init__.py").is_file():
        print(f"error: no framebench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(json.dumps({"env": environment(args.seed)}), flush=True)
        checked, counted, metrics, info = (traced if args.trace else end_to_end)(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"run": info}), flush=True)
    print(json.dumps({
        "correct": all(c.correct for c in checked),
        "attempted": len(counted),
        "failed": sum(not c.ok for c in counted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
