"""Of scipy, only the compiled LAPACK module ``scipy.linalg._flapack`` is
loaded, by the band kernels, so no command pays for the ``scipy.linalg``
package and only the sampling command loads anything of scipy; no command
loads ``numpy.fft`` (the Riesz gate bounds the generator's symbol without
it), nor does a tabulated sampling run load ``numpy.ma``.  Each check runs
in a fresh interpreter."""

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
        "import sys; from framebench import cli; code = cli.main(sys.argv[1:]); "
        "print(code, sorted(k for k in sys.modules "
        "if k.split('.')[0] == 'scipy' or k == 'numpy.fft'))",
        command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert out == f"0 {['scipy.linalg._flapack'] if loads_scipy else []}"


def test_tabulated_sampling_loads_no_numpy_ma(tmp_path):
    # the tabulated shift Gram merges its breakpoints without numpy.unique,
    # which imports numpy.ma on first use, and its symbol is bounded on a
    # grid without numpy.fft
    cfg = write_json(tmp_path / "cfg.json", {
        **command_config("sampling", tmp_path),
        "generator": {"kind": "tabulated", "grid": {
            "samples": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
            "step": 0.5, "decay_s": 2.0}}})
    out = fresh_python(
        "import sys; from framebench import cli; code = cli.main(sys.argv[1:]); "
        "print(code, [k for k in ('numpy.ma', 'numpy.fft', 'scipy.special') "
        "if k in sys.modules])",
        "sampling", "--config", cfg, "--out", str(tmp_path / "out"))
    assert out == "0 []"


@pytest.mark.parametrize("first", ["band-kernel", "scipy.linalg"])
def test_band_kernels_and_scipy_linalg_share_one_flapack(first):
    # the band kernels load the extension without its package; scipy.linalg
    # imported before or after must end up with the very same module object
    kernels = "linalg.band_condition(band); linalg.band_min_eig(band)"
    package = "import scipy.linalg"
    steps = [kernels, package] if first == "band-kernel" else [package, kernels]
    out = fresh_python(
        "import sys; import numpy as np; from framebench import linalg; "
        "band = np.array([[4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]); "
        + "; ".join(steps) + "; "
        "module = sys.modules['scipy.linalg._flapack']; "
        "print(scipy.linalg.lapack._flapack is module, "
        "scipy.linalg.get_lapack_funcs(('pbtrf',), (band,))[0] is module.dpbtrf, "
        "linalg._band_lapack('pbtrf', band) is module.dpbtrf)")
    assert out == "True True True"
