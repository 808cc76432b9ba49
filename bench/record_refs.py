"""Record the witness values the benchmark checks every call against.

    python3 bench/record_refs.py

Runs every pool instance of the in-process workloads once and writes their
witness values to ``bench/refs.json``.  Re-record only when a change to the
program is meant to move the witnesses, and say so with the change.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402


def main():
    refs = {}
    for cls in (workloads.BatteryDense, workloads.SamplingSpline):
        wl = cls(seed=0, refs={})
        wl.order = list(range(workloads.POOL))
        refs[cls.name] = {}
        for k in wl.order:
            report = wl.call(k).value
            if not wl.verdicts_ok(report):
                raise SystemExit(f"{cls.name} instance {k}: unexpected verdicts")
            refs[cls.name][str(k)] = workloads.encode(wl.witnesses(report))
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
