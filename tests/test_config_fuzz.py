"""Config fuzz: every input path exits 0, 2, 3 or 4.

Valid configs of every command, in the one spelling that README documents,
get one section or leaf at a time replaced by an odd JSON value, or
deleted.  Each mutant runs through ``cli.main`` with warnings as errors, in
one child process under a 3 GiB address-space limit, so that no mutant can
depend on the host's memory.  The asserts: no exception escapes, the exit
code is 0, 2, 3 or 4, a nonzero exit leaves no output file, an exit-2
message names the section, field or file it rejects, and a mutated ``kind``
or ``form`` tag is named in the message together with the known kinds.
The mutants are an enumerated list, so the test is deterministic.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from framebench.frames import VectorFamily
from framebench.localization import LocalizationProfile, WeightSpec

#: The odd JSON values each section or leaf is replaced by in turn.
ODD = [None, True, False, "", "x", 0, -1, 2**63, 2**70, 1e308, -1e308, 5e-324,
       math.nan, math.inf, [], [1], [[1, 0]], {}, {"a": 1}]

#: How the CLI's messages name each top-level section besides its key.
LABELS = {"profile": "localization profile", "delta_rule": "delta rule",
          "generator": "generator config", "sizes": "fixture sizes"}

#: Runs each mutant of the JSON case list in ``argv[1]`` through ``cli.main``
#: and prints one result per mutant: exit code, stderr, the files left in its
#: output folder and any exception that escaped.
CHILD = r"""
import contextlib, io, json, pathlib, resource, sys, warnings
resource.setrlimit(resource.RLIMIT_AS, (3 << 30,) * 2)
warnings.simplefilter("error")
from framebench.cli import main

cases = json.loads(pathlib.Path(sys.argv[1]).read_text())
results = []
for i, (command, config) in enumerate(cases):
    folder = pathlib.Path(sys.argv[2]) / str(i)
    folder.mkdir()
    cfg = folder / "cfg.json"
    cfg.write_text(json.dumps(config))
    err, escaped = io.StringIO(), None
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(folder / "out")])
    except BaseException as exc:
        code, escaped = None, f"{type(exc).__name__}: {exc}"
    left = sorted(str(p.relative_to(folder)) for p in folder.rglob("*")
                  if p.is_file() and p != cfg)
    results.append([code, err.getvalue(), left, escaped])
print(json.dumps(results))
"""

DELETE = object()


def base_configs(folder):
    """Valid configs of every command; ``family.json`` in ``folder`` is the
    family file that a path entry names."""
    family = VectorFamily(np.eye(3) + 0.2 * np.eye(3, k=1), label="bidiagonal").to_json()
    path = folder / "family.json"
    path.write_text(json.dumps(family))
    schur = LocalizationProfile(kind="schur", weight=WeightSpec(
        form="subexponential", rate=0.3, power=0.5)).to_json()
    hat = {"kind": "tabulated",
           "grid": {"samples": [[v, 0.0] for v in (0.0, 0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0, 0.0)],
                    "step": 0.5, "decay_s": 2.0}}
    return [
        ("analyze", {"family": family, "profile": LocalizationProfile().to_json()}),
        ("analyze", {"family": str(path), "profile": schur}),
        ("rdual", {"psi": family, "phi": str(path)}),
        ("battery", {"family": {"kind": "perturbed-onb", "epsilon": 0.3, "seed": 1},
                     "profile": LocalizationProfile(kind="schur").to_json(),
                     "ladder": [4, 8, 16]}),
        ("sampling", {"generator": {"kind": "bspline", "degree": 3},
                      "delta_rule": {"kind": "constant", "value": 0.2},
                      "ladder": [16, 32]}),
        ("sampling", {"generator": hat,
                      "delta_rule": {"kind": "seeded-uniform", "bound": 0.2, "seed": 3},
                      "ladder": [16, 32]}),
        ("sampling", {"generator": {"kind": "bspline", "degree": 1},
                      "delta_rule": {"kind": "explicit",
                                     "deltas": (0.1 * np.sin(np.arange(32))).tolist(),
                                     "bound": 0.1},
                      "ladder": [16, 32]}),
        ("fixtures", {"sizes": [4, 8]}),
    ]


def leaf_paths(node, path=()):
    """The path of ``node`` and of every section and leaf inside it; a list
    is a leaf, and so is each entry of a list of at most 3 numbers."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(node, list) and len(node) <= 3:
        for i, value in enumerate(node):
            if not isinstance(value, list):
                yield (*path, i)


def mutated(config, path, value):
    if not path:
        return value
    config = json.loads(json.dumps(config))
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return config


def mutants(folder):
    for command, config in base_configs(folder):
        for path in leaf_paths(config):
            for value in (*ODD, DELETE):
                if value is DELETE and (not path or isinstance(path[-1], int)):
                    continue
                yield command, path, value, mutated(config, path, value)


def test_every_mutated_config_exits_with_a_documented_code(tmp_path):
    pytest.importorskip("resource")
    cases = list(mutants(tmp_path))
    case_file = tmp_path / "cases.json"
    case_file.write_text(json.dumps([[command, config] for command, _, _, config in cases]))
    runs = tmp_path / "runs"
    runs.mkdir()
    res = subprocess.run([sys.executable, "-c", CHILD, str(case_file), str(runs)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    results = json.loads(res.stdout)
    assert len(results) == len(cases) > 1000
    codes = set()
    for (command, path, value, _), (code, err, left, escaped) in zip(cases, results):
        case = f"{command} {'/'.join(map(str, path))} <- {value!r}: {err or escaped}"
        assert escaped is None, case
        assert code in (0, 2, 3, 4), case
        codes.add(code)
        if code == 0:
            continue
        assert left == [], case
        if code == 2:
            names = ["config", *map(str, path), LABELS.get(path[0] if path else "", "?")]
            if isinstance(value, str):
                names.append(f"file: {value}")  # a family path names the file
            assert any(name in err for name in names), case
        if path and path[-1] in ("kind", "form") and value is not DELETE:
            assert code == 2 and f" {value!r}; expected one of " in err, case
    # valid configs and each kind of failure are all reached
    assert codes == {0, 2, 3, 4}
