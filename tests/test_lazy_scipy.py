"""scipy.linalg is loaded by the band kernels only, so only the sampling
command pays for importing it.  Each check runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

from framebench.frames import VectorFamily


def fresh_python(code, *args):
    res = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_import_loads_no_scipy():
    loaded = fresh_python(
        "import sys, framebench, framebench.cli; "
        "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])")
    assert loaded == "[]"


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def command_config(command, tmp_path):
    fam = write_json(tmp_path / "fam.json", VectorFamily.onb(4).to_json())
    return {
        "analyze": {"family": fam},
        "rdual": {"psi": fam, "phi": fam},
        "battery": {"family": {"kind": "counterexample"}, "ladder": [8, 16, 32, 64]},
        "fixtures": {"sizes": [4]},
        "sampling": {"generator": {"kind": "bspline", "degree": 3}, "ladder": [32, 64]},
    }[command]


@pytest.mark.parametrize("command, loads_scipy", [
    ("analyze", False), ("rdual", False), ("battery", False), ("fixtures", False),
    ("sampling", True),  # the band kernels: the guard is not vacuous
])
def test_cli_command_loads_scipy_linalg_only_for_sampling(tmp_path, command,
                                                          loads_scipy):
    cfg = write_json(tmp_path / "cfg.json", command_config(command, tmp_path))
    out = fresh_python(
        "import sys; from framebench import cli; "
        "code = cli.main(sys.argv[1:]); print(code, 'scipy.linalg' in sys.modules)",
        command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert out == f"0 {loads_scipy}"
