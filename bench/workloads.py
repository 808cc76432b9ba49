"""The benchmark's three closed-loop workloads: inputs, calls and output checks.

Every workload draws its inputs from a pool of ``POOL`` instances whose
witness values were recorded once (``refs.json``, see ``record_refs.py``);
the run seed fixes the order in which the instances are called.  A call is
one top-level request to framebench and the next call starts only when it
has returned.

* ``battery-dense``   ``equivalence.run_battery`` on a non-orthogonal Toeplitz
  reference, ladder (64, 128, 256).
* ``sampling-spline`` ``sampling.stable_sampling_verdict`` for the cubic
  B-spline with seeded-uniform |delta| <= 0.2, ladder (128, 256, 512).
* ``cli-mix``         fresh ``python -m framebench.cli`` processes cycling
  through six small configs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from framebench import equivalence, frames, localization, sampling

BENCH_DIR = Path(__file__).resolve().parent
REFS_PATH = BENCH_DIR / "refs.json"

#: Number of recorded instances per workload.
POOL = 8
#: Relative tolerance of the witness check (the oracle tolerance of the tests).
RTOL = 1e-10


def instance_order(seed):
    """Order in which a run with this seed visits the instance pool."""
    return [int(k) for k in np.random.default_rng(seed).permutation(POOL)]


def encode(values):
    """Witness values as JSON-safe numbers; infinities become "inf"."""
    return [v if math.isfinite(v) else "inf" for v in values]


def mismatches(got, ref, rtol=RTOL):
    """Indices where ``got`` differs from ``ref`` by more than ``rtol`` relative."""
    if len(got) != len(ref):
        return list(range(max(len(got), len(ref))))
    bad = []
    for idx, (g, r) in enumerate(zip(encode(got), ref)):
        if isinstance(r, str) or isinstance(g, str):
            if g != r:
                bad.append(idx)
        elif not abs(g - r) <= rtol * abs(r):
            bad.append(idx)
    return bad


def load_refs(name):
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


class Call:
    """Outcome of one top-level call, before and after its output check."""

    def __init__(self, label, value=None, error=None, rss_kb=0):
        self.label = label
        self.value = value
        self.error = error
        self.seconds = 0.0
        self.rss_kb = rss_kb
        self.returncode = None  # exit code, for calls made in a child process
        self.ok = False
        self.correct = False  # set by the workload's output check
        self.spans = []


def toeplitz_pair(k, n):
    """Instance ``k`` at size n: psi = (I + E) T over the Toeplitz reference T."""
    theta = 2 * math.pi * np.random.default_rng([k, 1]).uniform()
    off = np.full(n - 1, 0.2 * np.exp(1j * theta))
    t = np.eye(n, dtype=complex) + np.diag(off, -1) + np.diag(off.conj(), 1)
    psi, _ = equivalence.perturbed_onb_family(n, 0.3, k)
    return (frames.VectorFamily(psi.coeffs @ t, label="perturbed-toeplitz"),
            frames.VectorFamily(t, label="toeplitz-reference"))


class LibraryWorkload:
    """A workload whose calls run in this process."""

    cycle = 1

    def __init__(self, seed, refs=None):
        self.order = instance_order(seed)
        self.refs = load_refs(self.name) if refs is None else refs
        self.wrap_input = lambda fn: fn

    def instance(self, i):
        return self.order[i % POOL]

    def label(self, i):
        return str(self.instance(i))

    def start_trace(self, tracer, trace_dir):
        self.wrap_input = lambda fn: tracer.wrap(fn, "equivalence.family_gen", "input")

    def stop_trace(self):
        self.wrap_input = lambda fn: fn

    def check(self, call):
        call.correct = self.verdicts_ok(call.value) and not mismatches(
            self.witnesses(call.value), self.refs[call.label])
        call.ok = call.correct


class BatteryDense(LibraryWorkload):
    """Ten-condition battery: psi = (I + E) T over the Toeplitz reference T.

    T is Hermitian tridiagonal Toeplitz, 1 on the diagonal and 0.2 e^{i theta}
    below it, so S_phi is far from the identity and the dual, S^-1/2 and
    S^-1/4 are real work.  E comes from ``perturbed_onb_family(n, 0.3, k)``.
    """

    name = "battery-dense"
    LADDER = (64, 128, 256)

    def __init__(self, seed, workdir=None, refs=None):
        super().__init__(seed, refs)
        self.profile = localization.LocalizationProfile(kind="jaffard", s=2.0)
        self.ladder = frames.TruncationLadder(self.LADDER)

    def call(self, i):
        k = self.instance(i)
        gen = self.wrap_input(lambda n: toeplitz_pair(k, n))
        return Call(self.label(i),
                    value=equivalence.run_battery(gen, self.profile, self.ladder))

    @staticmethod
    def witnesses(report):
        return [v for w in report.witnesses for _, v in w.quantities]

    @staticmethod
    def verdicts_ok(report):
        return report.consistent and all(v == "pass" for v in report.verdicts().values())


class SamplingSpline(LibraryWorkload):
    """Stable-sampling verdict, cubic B-spline, seeded-uniform |delta| <= 0.2."""

    name = "sampling-spline"
    LADDER = (128, 256, 512)

    def __init__(self, seed, workdir=None, refs=None):
        super().__init__(seed, refs)
        self.generator = sampling.Generator(kind="bspline", degree=3)
        self.ladder = frames.TruncationLadder(self.LADDER)

    def call(self, i):
        k = self.instance(i)
        points = sampling.SamplingSet.seeded_uniform(0.2, seed=k)
        report = sampling.stable_sampling_verdict(self.generator, points, self.ladder)
        return Call(self.label(i), value=report)

    @staticmethod
    def witnesses(report):
        values = [v for it in report.items for _, v in it.quantities]
        return values + [hi for _, _, hi in report.direct_bounds]

    @staticmethod
    def verdicts_ok(report):
        return report.stable and report.consistent


def _hat_generator():
    x = (np.arange(9) - 4) * 0.5
    hat = np.maximum(1.0 - np.abs(x), 0.0)
    return {"kind": "tabulated",
            "grid": {"samples": [[float(v), 0.0] for v in hat],
                     "step": 0.5, "decay_s": 2.0}}


def _decay_generator():
    x = (np.arange(41) - 20) * 0.5
    return {"kind": "tabulated",
            "grid": {"samples": [[float(v), 0.0] for v in (1.0 + np.abs(x)) ** -3.0],
                     "step": 0.5, "decay_s": 2.5}}


def _all_fail(report):
    return all(c["verdict"] == "fail" for c in report["conditions"])


class CliMix:
    """Fresh CLI processes, one at a time, cycling through six configs.

    The tabulated decay fixture ((1 + |x|)^-3, step 0.5) is expected to give a
    stable verdict; at the time of writing it exits 3 after adaptive
    quadrature fails, and that call is counted as failed.
    """

    name = "cli-mix"
    CONFIGS = ("analyze", "rdual", "battery", "sampling_hat", "sampling_decay",
               "fixtures")
    cycle = len(CONFIGS)

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.order = instance_order(seed)
        self.rotation = list(np.random.default_rng([seed, 2]).permutation(len(self.CONFIGS)))
        self.trace_dir = None
        for k in range(POOL):
            psi, phi = toeplitz_pair(k, 32)
            self._write(f"psi{k}.json", psi.to_json())
            self._write(f"phi{k}.json", phi.to_json())
            self._write(f"analyze{k}.json", {
                "family": str(self.workdir / f"psi{k}.json"),
                "profile": {"kind": "jaffard", "s": 2.0}})
            self._write(f"rdual{k}.json", {
                "psi": str(self.workdir / f"psi{k}.json"),
                "phi": str(self.workdir / f"phi{k}.json")})
            rule = {"kind": "seeded-uniform", "bound": 0.2, "seed": k}
            self._write(f"sampling_hat{k}.json", {
                "generator": _hat_generator(), "delta_rule": rule,
                "ladder": [32, 64, 128]})
            self._write(f"sampling_decay{k}.json", {
                "generator": _decay_generator(), "delta_rule": rule,
                "ladder": [32, 64, 128]})
        # The ladder must span more than LADDER_DECAY_FACTOR = 4: the gain
        # witnesses 4-7 of the counterexample shrink like 1/N, and on
        # (16, 32, 64) they shrink by exactly 4, which the rule lets pass.
        self._write("battery.json", {"family": {"kind": "counterexample"},
                                     "profile": {"kind": "jaffard", "s": 2.0},
                                     "ladder": [8, 16, 32, 64]})
        self._write("fixtures.json", {"sizes": [8, 16]})
        self.env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))

    def _write(self, name, obj):
        (self.workdir / name).write_text(json.dumps(obj), encoding="utf-8")

    def instance(self, i):
        return self.order[(i // self.cycle) % POOL]

    def label(self, i):
        return self.CONFIGS[self.rotation[i % self.cycle]]

    def start_trace(self, tracer, trace_dir):
        self.trace_dir = trace_dir

    def stop_trace(self):
        self.trace_dir = None

    def call(self, i):
        config = self.label(i)
        k = self.instance(i)
        cfg = self.workdir / (f"{config}.json" if config in ("battery", "fixtures")
                              else f"{config}{k}.json")
        out = self.workdir / (f"out-{i}" if config == "fixtures" else f"out-{i}.json")
        command = config.split("_")[0]
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", str(k)]
        if self.trace_dir is None:
            prog = [sys.executable, "-m", "framebench.cli"]
        else:
            spans_path = self.trace_dir / f"spans-{i}.json"
            prog = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_path), "--"]
        proc = subprocess.Popen(prog + argv, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        with proc.stderr:
            stderr = proc.stderr.read().decode(errors="replace").strip()
        # wait4 rather than Popen.wait: it also returns the child's peak RSS.
        # The child is reaped here, so Popen is told its code and never waits.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(config, value=out, rss_kb=usage.ru_maxrss)
        call.returncode = proc.returncode
        call.error = stderr.splitlines()[-1] if call.returncode and stderr else None
        if self.trace_dir is not None and spans_path.exists():
            call.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return call

    def check(self, call):
        if call.returncode != 0:
            # The decay fixture's quadrature failure is the one known defect:
            # a failed call, but the expected output of this program.  Any
            # other non-zero exit is a wrong output.
            call.correct = (call.label == "sampling_decay" and call.returncode == 3
                            and "numerical failure: quadrature error" in (call.error or ""))
            call.ok = False
            return
        out = call.value
        try:
            if call.label == "fixtures":
                files = sorted(p.name for p in out.iterdir())
                passed = files == ["counterexample_N16.json", "counterexample_N8.json"]
            else:
                report = json.loads(out.read_text(encoding="utf-8"))
                passed = {
                    "analyze": lambda r: r["frame_bounds"]["is_frame"] is True,
                    "rdual": lambda r: r["duality"]["agree"] is True
                    and r["duality"]["frame_verdict"] is True,
                    "battery": _all_fail,
                    "sampling_hat": lambda r: r["stable"] is True,
                    "sampling_decay": lambda r: r["stable"] is True,
                }[call.label](report)
        except (OSError, ValueError, KeyError, TypeError):
            passed = False
        call.correct = passed
        call.ok = passed


WORKLOADS = {w.name: w for w in (BatteryDense, SamplingSpline, CliMix)}
