"""CLI contract tests: configs in, reports out, exit codes, determinism."""

import importlib
import inspect
import json
import math
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import framebench
from framebench import cli, equivalence, errors, frames, linalg, localization, sampling
from framebench.frames import VectorFamily


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "framebench.cli", *args],
        capture_output=True, text=True,
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


@pytest.fixture
def onb_family_file(tmp_path):
    path = tmp_path / "onb.json"
    write_json(path, VectorFamily.onb(4, label="onb4").to_json())
    return path


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def test_analyze_onb(tmp_path, onb_family_file):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    write_json(cfg, {"family": str(onb_family_file),
                     "profile": {"kind": "jaffard", "s": 2.0}})
    res = run_cli("analyze", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["frame_bounds"] == {"is_frame": True, "lower": 1.0, "upper": 1.0}
    assert rep["riesz_bounds"]["lower"] == 1.0
    assert rep["profile_norm_of_gram"] == 1.0
    assert rep["jaffard_norm_s2"] == 1.0
    assert rep["schur_norm_unit_weight"] == 1.0
    assert rep["meta"]["tool"] == "framebench"
    assert rep["meta"]["tolerances"]["tol_frame"] == 1e-10


def test_analyze_harmonic_fixture_lower_bound(tmp_path):
    psi, _ = equivalence.counterexample_family(16)
    fam = tmp_path / "harmonic.json"
    write_json(fam, psi.to_json())
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    write_json(cfg, {"family": str(fam), "profile": {"kind": "jaffard", "s": 2.0}})
    res = run_cli("analyze", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert np.isclose(rep["frame_bounds"]["lower"], 1.0 / 256.0, rtol=1e-10)


def test_analyze_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(123)
    fam = VectorFamily(rng.standard_normal((5, 5)), label="seeded")
    fam_path = tmp_path / "fam.json"
    write_json(fam_path, fam.to_json())
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"family": str(fam_path), "profile": {"kind": "jaffard", "s": 2.0}})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("analyze", "--config", str(cfg), "--out", str(out1),
                   "--seed", "9").returncode == 0
    assert run_cli("analyze", "--config", str(cfg), "--out", str(out2),
                   "--seed", "9").returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


# --------------------------------------------------------------------------
# error paths / exit codes
# --------------------------------------------------------------------------

def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    res = run_cli("analyze", "--config", str(bad), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2
    assert res.stderr.strip()


def test_missing_file_exits_2(tmp_path):
    res = run_cli("analyze", "--config", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2


@pytest.mark.parametrize("where", ["config", "family"])
def test_unreadable_input_path_exits_2(tmp_path, where):
    # a file that cannot be read or decoded, as the config or a family file
    folder = tmp_path / "D"
    folder.mkdir()
    bad = {"D": "cannot read {}: Is a directory",
           "latin.json": "{} is not UTF-8 text",
           "digits.json": "malformed JSON in {}: Exceeds the limit (4300 digits)",
           "deep.json": "malformed JSON in {}: maximum recursion depth exceeded"}
    (tmp_path / "latin.json").write_bytes(b"\xff\xfe{")
    (tmp_path / "digits.json").write_text('{"ambient_dim": ' + "1" * 4301 + "}")
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    for name, message in bad.items():
        path = tmp_path / name
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"family": str(path)})
        res = run_cli("analyze", "--config", str(path if where == "config" else cfg),
                      "--out", str(tmp_path / "x.json"))
        assert res.returncode == 2, res.stderr
        assert f"error: {message.format(path)}" in res.stderr
        assert "Traceback" not in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*bad, "cfg.json"])


@pytest.mark.parametrize("command", ["analyze", "rdual", "sampling"])
def test_overflowing_gram_exits_3_without_output(tmp_path, command):
    # finite coefficients whose Gram leaves the float range, or tabulated
    # samples of 1e160, whose shift Gram does
    fam = tmp_path / "fam.json"
    write_json(fam, VectorFamily(np.eye(3) * 1e200).to_json())
    cfg = tmp_path / "cfg.json"
    big_hat = hat_table(samples=[[1e160 * v, 0.0] for v, _ in HAT_GRID["samples"]])
    write_json(cfg, {"analyze": {"family": str(fam)},
                     "rdual": {"psi": str(fam), "phi": str(fam)},
                     "sampling": {**SAMPLING, "generator": big_hat}}[command])
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 3, res.stderr
    assert ("numerical failure: shift Gram entries overflow the float range"
            if command == "sampling" else
            "numerical failure: Gram or frame-operator entries") in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "fam.json"]


def test_precondition_failure_exits_4(tmp_path):
    deficient = VectorFamily(np.diag([1.0, 1.0, 0.0]))
    fam = tmp_path / "deficient.json"
    write_json(fam, deficient.to_json())
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"psi": str(fam), "phi": str(fam)})
    res = run_cli("rdual", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 4
    assert "Riesz" in res.stderr


def test_bad_fixture_size_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"sizes": [0]})
    res = run_cli("fixtures", "--config", str(cfg), "--out", str(tmp_path / "d"))
    assert res.returncode == 2


JAFFARD = {"kind": "jaffard", "s": 2.0}
BATTERY = {"family": {"kind": "onb"}, "profile": JAFFARD, "ladder": [4, 8, 16]}
SAMPLING = {"generator": {"kind": "bspline", "degree": 3},
            "delta_rule": {"kind": "constant", "value": 0.0}, "ladder": [32, 64]}
SEEDED = {"kind": "seeded-uniform", "bound": 0.2, "seed": 0}
HAT_GRID = {"samples": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
            "step": 0.5, "decay_s": 2.0}
HAT_TABLE = {"kind": "tabulated", "grid": HAT_GRID}


#: A family whose Gram has nonzero entries at offsets up to 7.
LONG_RANGE = VectorFamily(np.eye(8) + 0.1 * np.eye(8, k=7)).to_json()


def hat_table(**grid):
    """The tabulated hat generator with ``grid`` fields replaced."""
    return {"kind": "tabulated", "grid": {**HAT_GRID, **grid}}


def explicit_rule(deltas, **bound):
    return {"kind": "explicit", "deltas": deltas, **bound}


@pytest.mark.parametrize("command, config, extra, named", [
    ("battery", {**BATTERY, "ladder": []}, [], "a ladder needs at least two sizes"),
    ("battery", {**BATTERY, "profile": {"kind": "schur",
                                        "weight": {"form": "gaussian"}}}, [], "'gaussian'"),
    ("battery", BATTERY, ["--tol-frame", "nan"], "'nan'"),
    ("battery", BATTERY, ["--tol-frame", "inf"], "'inf'"),
    ("battery", BATTERY, ["--tol-frame", "-1"], "'-1'"),
    ("battery", {**BATTERY, "profile": {"kind": "bogus"}}, [], "'bogus'"),
    ("battery", {**BATTERY, "profile": {"kind": "jaffard", "s": 0.5}}, [], "0.5"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {"delta": -1}}},
     [], "-1.0"),
    ("sampling", {**SAMPLING, "generator": {"kind": "wavelet"}}, [], "'wavelet'"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "poisson"}}, [], "'poisson'"),
    ("battery", {**BATTERY, "family": 5}, [], "bad battery family"),
    ("battery", {**BATTERY, "family": {"kind": "random"}}, [],
     "unknown battery family kind 'random'"),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "epsilon": []}}, [],
     "bad battery family"),
    ("battery", {**BATTERY, "profile": []}, [], "bad localization profile"),
    ("sampling", {**SAMPLING, "generator": []}, [], "bad generator config"),
    ("sampling", {**SAMPLING, "generator": {"kind": "tabulated", "grid": {}}}, [],
     "missing field 'samples'"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "seeded-uniform"}}, [],
     "missing field 'bound'"),
    ("sampling", {**SAMPLING, "delta_rule": explicit_rule(5)}, [],
     "bad delta rule: explicit deltas must be 1-D"),
    ("sampling", {**SAMPLING, "delta_rule": explicit_rule([0.1] * 64, bound=-0.1)}, [],
     "bad delta rule: delta bound must be a finite number >= 0, got -0.1"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "seeded-uniform", "bound": -0.1}},
     [], "bad delta rule: delta bound must be a finite number >= 0, got -0.1"),
    ("sampling", {**SAMPLING, "generator": hat_table(samples=5)}, [],
     "bad generator config: 'samples' must be a list of [re, im] pairs"),
    ("analyze", {"family": {"ambient_dim": 2, "member_count": 2, "coeffs": [[1, 0]]}},
     [], "expected 2*2"),
    ("battery", {**BATTERY, "ladder": [8, 16.9, 32]}, [],
     "bad ladder [8, 16.9, 32]: expected a list of integers"),
    ("battery", {**BATTERY, "ladder": [True, 8, 16]}, [],
     "bad ladder [True, 8, 16]: expected a list of integers"),
    ("sampling", {**SAMPLING, "ladder": "3264"}, [],
     "bad ladder '3264': expected a list of integers"),
    ("sampling", {**SAMPLING, "delta_rule": SEEDED, "ladder": [16, 32, 2**63]}, [],
     "bad ladder [16, 32, 9223372036854775808]: every size must be below 2^63"),
    # non-finite numbers (json.dumps writes inf as Infinity, which parses
    # back to the same float as an overflowing literal such as 1e400)
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "constant", "value": math.inf}},
     [], "bad delta rule: 'value' must be finite, got inf"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "constant", "value": math.nan}},
     [], "bad delta rule: 'value' must be finite, got nan"),
    ("sampling", {**SAMPLING, "generator": hat_table(decay_s=math.inf)}, [],
     "bad generator config: 'decay_s' must be finite, got inf"),
    ("sampling", {**SAMPLING, "generator": hat_table(step=math.nan)}, [],
     "bad generator config: 'step' must be finite, got nan"),
    ("battery", {**BATTERY, "profile": {"kind": "jaffard", "s": math.nan}}, [],
     "bad localization profile: 's' must be finite, got nan"),
    ("battery", {**BATTERY, "profile": {"kind": "jaffard", "s": math.inf}}, [],
     "bad localization profile: 's' must be finite, got inf"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {"delta": math.inf}}},
     [], "bad localization profile: 'delta' must be finite, got inf"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {
        "form": "subexponential", "rate": math.nan}}},
     [], "bad localization profile: 'rate' must be finite, got nan"),
    # finite numbers whose grid, decay constant or weights leave the float range
    ("sampling", {**SAMPLING, "generator": hat_table(step=1e308)}, [],
     "bad generator config: 'step' = 1e+308 puts the grid past the float range"),
    ("sampling", {**SAMPLING, "generator": hat_table(decay_s=1e308)}, [],
     "bad generator config: 'decay_s' = 1e+308 overflows the decay constant"),
    ("analyze", {"family": LONG_RANGE, "profile": {"kind": "jaffard", "s": 400.0}}, [],
     "error: 's' = 400 overflows the weight of a nonzero entry of the 8x8 matrix"),
    ("analyze", {"family": LONG_RANGE, "profile": {"kind": "schur", "weight": {
        "delta": 1e308}}}, [],
     "error: 'delta' = 1e+308 overflows the weight of a nonzero entry of the 8x8 matrix"),
    ("analyze", {"family": LONG_RANGE, "profile": {"kind": "schur", "weight": {
        "form": "subexponential", "rate": 1e308}}}, [],
     "error: 'rate' = 1e+308 overflows the weight of a nonzero entry of the 8x8 matrix"),
    # numbers are never rounded or parsed from strings
    ("sampling", {**SAMPLING, "generator": {"kind": "bspline", "degree": 2.9}}, [],
     "bad generator config: 'degree' must be an integer, got 2.9"),
    # a generator number out of its range names the field too
    ("sampling", {**SAMPLING, "generator": {"kind": "bspline", "degree": -1}}, [],
     "bad generator config: 'degree' must be >= 0, got -1"),
    ("sampling", {**SAMPLING, "generator": hat_table(step=0.0)}, [],
     "bad generator config: 'step' must be > 0, got 0.0"),
    ("sampling", {**SAMPLING, "generator": hat_table(decay_s=1.0)}, [],
     "bad generator config: tabulated decay needs 'decay_s' > 1, got 1.0"),
    ("sampling", {**SAMPLING, "delta_rule": {**SEEDED, "seed": 1.7}}, [],
     "bad delta rule: 'seed' must be an integer, got 1.7"),
    ("sampling", {**SAMPLING, "delta_rule": {**SEEDED, "seed": True}}, [],
     "bad delta rule: 'seed' must be an integer, got True"),
    ("sampling", {**SAMPLING, "delta_rule": {**SEEDED, "seed": -1}}, [],
     "bad delta rule: 'seed' must be >= 0, got -1"),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "seed": 2.5}}, [],
     "bad battery family: 'seed' must be an integer, got 2.5"),
    ("sampling", {**SAMPLING, "delta_rule": {**SEEDED, "bound": "0.2"}}, [],
     "bad delta rule: 'bound' must be a number, got '0.2'"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "constant", "value": "0.5"}}, [],
     "bad delta rule: 'value' must be a number, got '0.5'"),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "epsilon": "0.3"}}, [],
     "bad battery family: 'epsilon' must be a number, got '0.3'"),
    ("sampling", {**SAMPLING, "generator": hat_table(
        samples=[[0, 0], [math.nan, 0], [1, 0], [0, 0], [0, 0]])},
     [], "bad generator config: 'samples' must be finite"),
    ("sampling", {**SAMPLING, "generator": hat_table(samples=[["0", "0"], ["1", "0"]] * 3)},
     [], "bad generator config: 'samples' must hold numbers only"),
    ("sampling", {**SAMPLING, "delta_rule": explicit_rule(["0.1"] * 64)}, [],
     "bad delta rule: 'deltas' must hold numbers only"),
    # a bool among numbers is not coerced to 1 or 0
    ("sampling", {**SAMPLING, "delta_rule": explicit_rule([True, 0.1, 0.0])}, [],
     "bad delta rule: 'deltas' must hold numbers only"),
    ("sampling", {**SAMPLING, "generator": hat_table(
        samples=[[0, 0], [0.5, 0], [True, 0], [0.5, 0], [0, 0]])},
     [], "bad generator config: 'samples' must hold numbers only"),
    ("sampling", {**SAMPLING, "generator": hat_table(samples=[[0.5, 0.0, 0.0]] * 9)},
     [], "bad generator config: 'samples' must be a list of [re, im] pairs"),
    # a nested section must be a JSON object too
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": [1]}}, [],
     "bad localization profile: 'weight' must be a JSON object, got list"),
    ("sampling", {**SAMPLING, "generator": {"kind": "tabulated", "grid": 5}}, [],
     "bad generator config: 'grid' must be a JSON object, got int"),
    # a config object holds only the fields its record defines
    ("sampling", {**SAMPLING, "generator": {"kind": "bspline", "degre": 1}}, [],
     "bad generator config: unknown field 'degre'"),
    ("sampling", {**SAMPLING, "generator": {**HAT_TABLE, "degree": 1}}, [],
     "bad generator config: unknown field 'degree'"),
    ("sampling", {**SAMPLING, "generator": {"kind": "tabulated", "grid": {
        "samples": HAT_GRID["samples"], "stepp": 0.5}}}, [],
     "bad generator config: unknown field 'stepp' in 'grid'"),
    ("sampling", {**SAMPLING, "delta_rule": {**SEEDED, "sead": 5}}, [],
     "bad delta rule: unknown field 'sead'"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "explicit", "bound": 0.1}}, [],
     "bad delta rule: missing field 'deltas'"),
    ("sampling", {**SAMPLING, "delta_rule": explicit_rule([0.1] * 64, bound=None)}, [],
     "bad delta rule: 'bound' must be a number, got None"),
    ("battery", {**BATTERY, "profile": {"kind": "jaffard", "exponent": 3.0}}, [],
     "bad localization profile: unknown field 'exponent'"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {"delt": 0.5}}}, [],
     "bad localization profile: unknown field 'delt' in 'weight'"),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "epsilom": 0.9}}, [],
     "bad battery family: unknown field 'epsilom'"),
    ("analyze", {"family": {**VectorFamily.onb(1).to_json(), "labl": "x"}}, [],
     "bad family under 'family': unknown field 'labl'"),
    ("analyze", {"family": {}, "profil": JAFFARD}, [],
     "bad analyze config: unknown field 'profil'"),
    ("rdual", {"psi": {}, "phy": {}}, [], "bad rdual config: unknown field 'phy'"),
    ("battery", {**BATTERY, "ladders": [4, 8]}, [],
     "bad battery config: unknown field 'ladders'"),
    ("sampling", {**SAMPLING, "delta_rul": SEEDED}, [],
     "bad sampling config: unknown field 'delta_rul'"),
    ("fixtures", {"sizes": [4], "size": [8]}, [],
     "bad fixtures config: unknown field 'size'"),
    # each config value has one spelling, the layout the records' to_json writes
    ("battery", BATTERY, ["--ladder", "4,8"], "unrecognized arguments: --ladder"),
    ("sampling", {"generator": {"kind": "bspline"}, "deltas": [0.0] * 64,
                  "delta_rule": {"kind": "seeded-uniform", "bound": 0.2, "seed": 3},
                  "ladder": [32, 64]}, [], "bad sampling config: unknown field 'deltas'"),
    ("sampling", {**SAMPLING, "bound": 0.1}, [], "bad sampling config: unknown field 'bound'"),
    ("sampling", {**SAMPLING, "generator": {"kind": "tabulated", **HAT_GRID}}, [],
     "bad generator config: missing field 'grid'"),
    ("sampling", {**SAMPLING, "generator": hat_table(samples=[0.0, 0.5, 1.0, 0.5, 0.0])},
     [], "bad generator config: 'samples' must be a list of [re, im] pairs"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {
        "form": "polynomial", "delta": 1.0, "scale": 1.0}}}, [],
     "bad localization profile: unknown field 'scale' in 'weight'"),
    # input errors the library finds while it computes exit 2 too: a pair
    # that shares no index set, and a window that the cubic B-spline's trim
    # of 2 indices per side leaves without an interior
    ("rdual", {"psi": VectorFamily(np.eye(4)[:, :3]).to_json(),
               "phi": VectorFamily.onb(4).to_json()}, [],
     "error: families must share one index set: 3 vs 4"),
    ("rdual", {"psi": VectorFamily.onb(3).to_json(), "phi": VectorFamily.onb(4).to_json()},
     [], "error: ambient dims differ: 3 vs 4"),
    ("sampling", {**SAMPLING, "ladder": [4, 8]}, [],
     "error: window 4 leaves fewer than 2 interior indices"),
    # --seed follows the seed rule of the config fields, whatever the family
    ("battery", BATTERY, ["--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb"}}, ["--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    # one spelling: ASCII digits only, as in a JSON integer
    ("battery", BATTERY, ["--seed", "\uff13"],
     "argument --seed: must be a non-negative integer, got '\uff13'"),
    ("battery", BATTERY, ["--seed", "\u0663"],
     "argument --seed: must be a non-negative integer, got '\u0663'"),
    ("battery", BATTERY, ["--seed", "1.5"],
     "argument --seed: must be a non-negative integer, got '1.5'"),
    # a tagged section reads its tag before any other field, so an unknown
    # kind is named, with the known ones, instead of a field of that kind
    ("battery", {**BATTERY, "family": {"kind": "random", "epsilon": 0.3}}, [],
     "bad battery family: unknown battery family kind 'random'; expected one of "
     "'onb', 'counterexample', 'perturbed-onb'"),
    ("battery", {**BATTERY, "profile": {"kind": "bogus", "x": 2}}, [],
     "bad localization profile: unknown profile kind 'bogus'; expected one of "
     "'jaffard', 'schur'"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {
        "form": "gaussian", "sigma": 1}}}, [],
     "bad localization profile: unknown weight form 'gaussian'; expected one of "
     "'polynomial', 'subexponential'"),
    ("battery", {**BATTERY, "profile": {"kind": "schur", "weight": {"form": []}}}, [],
     "bad localization profile: unknown weight form []; expected one of "
     "'polynomial', 'subexponential'"),
    # an empty family path names its section and shows the path
    ("rdual", {"psi": "", "phi": VectorFamily.onb(3).to_json()}, [],
     "error: bad family under 'psi': no such file: ''"),
    ("analyze", {"family": ""}, [], "error: bad family under 'family': no such file: ''"),
], ids=["empty-ladder", "unknown-weight-form", "tol-nan", "tol-inf", "tol-negative",
        "unknown-profile-kind", "jaffard-s-below-1", "schur-delta-negative",
        "unknown-generator-kind", "unknown-delta-rule", "family-not-object",
        "family-kind-random",
        "family-epsilon-list", "profile-not-object", "generator-not-object",
        "tabulated-without-samples", "seeded-uniform-without-bound",
        "deltas-scalar", "deltas-negative-bound", "seeded-uniform-negative-bound",
        "tabulated-samples-scalar",
        "family-coeffs-count", "ladder-float", "ladder-bool", "ladder-string",
        "ladder-past-int64",
        "constant-value-inf", "constant-value-nan", "tabulated-decay-inf",
        "tabulated-step-nan", "jaffard-s-nan", "jaffard-s-inf", "schur-delta-inf",
        "schur-rate-nan", "tabulated-step-overflow", "tabulated-decay-overflow",
        "jaffard-weight-overflow", "schur-delta-overflow", "schur-rate-overflow",
        "degree-float", "degree-negative", "tabulated-step-zero", "tabulated-decay-1",
        "delta-seed-float", "delta-seed-bool",
        "delta-seed-negative", "perturbed-onb-seed-float", "bound-string",
        "value-string", "epsilon-string", "samples-nan", "samples-strings",
        "deltas-strings", "deltas-mixed-bool", "samples-mixed-bool",
        "samples-three-columns", "schur-weight-list", "tabulated-grid-int",
        "unknown-bspline-field", "unknown-flat-tabulated-field", "unknown-grid-field",
        "unknown-delta-rule-field", "bound-without-deltas", "explicit-bound-null",
        "unknown-profile-field",
        "unknown-weight-field", "unknown-battery-family-field", "unknown-family-field",
        "unknown-analyze-field",
        "unknown-rdual-field", "unknown-battery-field", "unknown-sampling-field",
        "unknown-fixtures-field", "ladder-flag", "deltas-beside-delta-rule",
        "top-level-bound", "tabulated-without-grid", "samples-flat-reals",
        "weight-scale", "rdual-member-count", "rdual-ambient-dim",
        "sampling-window-without-interior", "seed-negative", "seed-negative-perturbed-onb",
        "seed-fullwidth-digit", "seed-arabic-indic-digit",
        "seed-float", "family-kind-random-with-epsilon", "profile-kind-bogus-with-x",
        "weight-form-gaussian-with-sigma", "weight-form-list", "rdual-empty-psi-path",
        "analyze-empty-family-path"])
def test_bad_battery_input_exits_2_without_output(tmp_path, command, config, extra,
                                                  named):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    res = run_cli(command, "--config", str(cfg),
                  "--out", str(tmp_path / "x.json"), *extra)
    assert res.returncode == 2, res.stderr
    assert named in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


#: ``framebench.cli`` with the address space limited to 3 GiB: far above what
#: any valid config here needs, far below the arrays that the sizes ask for.
CLI_IN_3_GIB = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30,) * 2); "
                "from framebench.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("command, config, shape", [
    ("battery", {**BATTERY, "ladder": [8, 16, 1000000]}, "(1000000, 1000000)"),
    ("fixtures", {"sizes": [1000000]}, "(1000000, 1000000)"),
    ("sampling", {**SAMPLING, "delta_rule": SEEDED, "ladder": [16, 32, 10**12]},
     "(1000000000000,)"),
], ids=["battery-ladder", "fixture-sizes", "sampling-ladder"])
def test_oversized_sizes_exit_2_without_output(tmp_path, command, config, shape):
    # sizes that fit int64 but whose arrays no memory holds: one error line
    # that keeps numpy's shape, no traceback.  The child runs under an
    # address-space limit, so the test never depends on the host's memory.
    pytest.importorskip("resource")
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    res = subprocess.run([sys.executable, "-c", CLI_IN_3_GIB, command, "--config", str(cfg),
                          "--out", str(tmp_path / "x.json")], capture_output=True, text=True)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: Unable to allocate ")
    assert f"shape {shape}" in res.stderr
    assert res.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


#: Exit code of every class in ``errors`` by README's exit-code list: 2 input
#: error, 3 numerical failure, 4 precondition failure (every other class).
EXIT_CODES = {errors.InputError: 2, errors.DimensionMismatchError: 2,
              errors.LadderTooShortError: 2, errors.BadExponentError: 2,
              errors.NumericalFailureError: 3}
LABELS = {2: "error", 3: "numerical failure", 4: "precondition failure"}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)
], ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_documented_code(tmp_path, monkeypatch, capsys,
                                                          cls):
    code = EXIT_CODES.get(cls, 4)
    assert cls.exit_code == code
    # an input error is a ValueError, and only an input error is
    assert issubclass(cls, ValueError) == (code == 2)

    def fail(config, args):
        raise cls("reason")

    cfg = tmp_path / "cfg.json"
    write_json(cfg, {})
    monkeypatch.setitem(cli._COMMANDS, "analyze", fail)
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "x.json")]) == code
    assert capsys.readouterr().err == f"{LABELS[code]}: reason\n"


@pytest.mark.parametrize("profile", [
    {"kind": "jaffard", "s": 400.0},
    {"kind": "schur", "weight": {"delta": 1e308}},
    {"kind": "schur", "weight": {"form": "subexponential", "rate": 1e308}},
], ids=["jaffard-s-400", "schur-delta-1e308", "schur-rate-1e308"])
def test_weights_past_the_float_range_on_zero_entries_exit_0(tmp_path, profile):
    # the reference Gram is the identity: every weight past the float range
    # meets a zero entry, so the norm is 1 at every size
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {**BATTERY, "profile": profile, "ladder": [8, 16, 512]})
    res = run_cli("battery", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


#: psi = I over phi = diag(1, sqrt(5e-13)), whose lower Riesz bound is 5e-13.
SMALL_REFERENCE = {"psi": VectorFamily.onb(2).to_json(),
                   "phi": VectorFamily(np.diag([1.0, math.sqrt(5e-13)])).to_json()}
NEAR_TOL = VectorFamily(np.diag([1.0, 1.2e-5])).to_json()


@pytest.mark.parametrize("command, config, extra, code, err, passed", [
    ("rdual", SMALL_REFERENCE, ["--tol-frame", "1e-14"], 0, "",
     lambda r: r["duality"]["agree"] and r["duality"]["riesz_verdict"]),
    ("rdual", SMALL_REFERENCE, [], 4,
     "precondition failure: reference lower Riesz bound 5.000e-13 <= 1e-10\n", None),
    ("rdual", {"psi": NEAR_TOL, "phi": NEAR_TOL}, ["--tol-frame", "1.45e-10"], 4,
     "precondition failure: reference lower Riesz bound 1.440e-10 <= 1.45e-10\n", None),
    ("rdual", {"psi": VectorFamily(1.5e308 * np.eye(2)).to_json(),
               "phi": VectorFamily(np.array([[1.0, 1.0], [1.0, -1.0]])).to_json()}, [], 3,
     "numerical failure: Riesz-dual coefficients overflow the float range\n", None),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "epsilon": 1000.0, "seed": 0},
                 "ladder": [256, 513]}, [], 0, "",
     lambda r: r["consistent"] and all(c["verdict"] == "pass" for c in r["conditions"])),
], ids=["rdual-reference-above-tol", "rdual-reference-below-tol", "rdual-tol-message",
        "rdual-coefficient-overflow", "battery-large-gram-asymmetry"])
def test_reference_and_gram_checks_exit_codes(tmp_path, capsys, command, config, extra,
                                              code, err, passed):
    # the reference is decided once, by its lower Riesz bound against
    # --tol-frame; Gram asymmetry is judged relative to the Gram's entries
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    out = tmp_path / "x.json"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *extra]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)
    if passed:
        assert passed(json.loads(out.read_text(encoding="utf-8")))


@pytest.mark.parametrize("command", ["analyze", "rdual"])
@pytest.mark.parametrize("coeffs", [[[True, False]], [["1", "0"]], [[True, 0.5]]],
                         ids=["bool", "string", "mixed-bool"])
def test_family_file_with_non_number_coeffs_exits_2(tmp_path, command, coeffs):
    # coefficients are never coerced: true/false are not 1/0
    fam = tmp_path / "fam.json"
    write_json(fam, {"ambient_dim": 1, "member_count": 1, "coeffs": coeffs})
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"family": str(fam)} if command == "analyze"
               else {"psi": str(fam), "phi": str(fam)})
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 2, res.stderr
    assert "'coeffs' must hold numbers only" in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "fam.json"]


@pytest.mark.parametrize("sizes, named", [
    (5, "5"), ([None], "[None]"), ("16", "'16'"), ([8, 16.7], "[8, 16.7]"),
    ([True, 8], "[True, 8]"), ([4, 2**64], "[4, 18446744073709551616]: every size must be"),
], ids=["sizes-scalar", "sizes-null", "sizes-string", "sizes-float", "sizes-bool",
        "sizes-past-int64"])
def test_bad_fixture_input_exits_2_without_output(tmp_path, sizes, named):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"sizes": sizes})
    res = run_cli("fixtures", "--config", str(cfg), "--out", str(tmp_path / "d"))
    assert res.returncode == 2, res.stderr
    assert f"bad fixture sizes {named}" in res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unserializable_report_leaves_no_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {})
    monkeypatch.setitem(cli._COMMANDS, "analyze",
                        lambda config, args: {args.out: {"lower": math.nan}})
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 2
    assert "error: Out of range float values" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# --------------------------------------------------------------------------
# battery
# --------------------------------------------------------------------------

def test_battery_out_directory_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"family": {"kind": "onb"}, "ladder": [4, 8]})
    out = tmp_path / "D"
    out.mkdir()
    res = run_cli("battery", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"cannot write {out}: Is a directory" in res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "cfg.json"]
    assert list(out.iterdir()) == []


def test_battery_counterexample_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "battery.json"
    write_json(cfg, {"family": {"kind": "counterexample"},
                     "profile": {"kind": "jaffard", "s": 2.0},
                     "ladder": [8, 16, 32, 64]})
    res = run_cli("battery", "--config", str(cfg), "--out", str(out), "--seed", "1")
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["consistent"] is True
    assert all(c["verdict"] == "fail" for c in rep["conditions"])


@pytest.mark.parametrize("seed", [None, 7])
def test_battery_report_records_seed(tmp_path, seed):
    # the report's seed is the one the family was drawn with: perturbed-onb
    # takes the entry's seed, else --seed, else 0; onb draws nothing and
    # records --seed.  meta always records --seed.
    drawn = 0 if seed is None else seed
    cases = [({"kind": "onb"}, seed), ({"kind": "perturbed-onb"}, drawn),
             ({"kind": "perturbed-onb", "seed": 42}, 42)]
    extra = [] if seed is None else ["--seed", str(seed)]
    for family, recorded in cases:
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "battery.json"
        write_json(cfg, {**BATTERY, "family": family})
        res = run_cli("battery", "--config", str(cfg), "--out", str(out), *extra)
        assert res.returncode == 0, res.stderr
        rep = json.loads(out.read_text())
        assert rep["seed"] == recorded
        assert rep["meta"]["seed"] == seed
        if family["kind"] == "perturbed-onb":
            expected = equivalence.run_battery(
                lambda n: equivalence.perturbed_onb_family(n, seed=recorded),
                localization.LocalizationProfile(), frames.TruncationLadder(
                    tuple(BATTERY["ladder"])))
            assert rep["conditions"] == json.loads(
                cli._json_text(expected.to_json()))["conditions"]


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sampling_cli_writes_report_and_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "samp.json"
    write_json(cfg, {"generator": {"kind": "bspline", "degree": 3},
                     "delta_rule": {"kind": "constant", "value": 0.0},
                     "ladder": [32, 64]})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["stable"] is True
    csv = (tmp_path / "samp.csv").read_text().splitlines()
    assert csv[0] == "size,item_a,item_b,item_c,item_d,item_e"
    assert len(csv) == 3


def test_sampling_cli_rejects_bad_generator(tmp_path):
    x = ((np.arange(41) - 20) * 0.5)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"generator": {"kind": "tabulated", "grid": {
                         "samples": [[float(1 / (1 + abs(v))), 0.0] for v in x],
                         "step": 0.5, "decay_s": 3.0}},
                     "delta_rule": {"kind": "constant", "value": 0.0},
                     "ladder": [16, 32]})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 4


def test_sampling_cli_zero_generator_fails_riesz_check(tmp_path, capsys):
    # integer shifts of the zero function span nothing: the verdict's gate,
    # whose symbol minimum is 0, exits 4 before any autocorrelation band is built
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {**SAMPLING, "generator": {
        "kind": "tabulated",
        "grid": {"samples": [[0.0, 0.0]] * 9, "step": 0.5, "decay_s": 2.0}}})
    assert cli.main(["sampling", "--config", str(cfg),
                     "--out", str(tmp_path / "x.json")]) == 4
    assert "integer shifts fail the Riesz check" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sampling_cli_explicit_deltas_nest_over_ladder(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "samp.json"
    deltas = (0.2 * np.sin(np.arange(64))).tolist()
    write_json(cfg, {**SAMPLING, "delta_rule": explicit_rule(deltas), "ladder": [32, 64]})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["ladder"] == [32, 64]


def test_sampling_cli_short_explicit_deltas_fail_before_compute(tmp_path, monkeypatch,
                                                               capsys):
    calls = []
    band_min_eig = linalg.band_min_eig

    def counted_band_min_eig(*args, **kwargs):
        calls.append(args)
        return band_min_eig(*args, **kwargs)

    monkeypatch.setattr(linalg, "band_min_eig", counted_band_min_eig)
    cfg = tmp_path / "cfg.json"
    deltas = (0.2 * np.sin(np.arange(64))).tolist()
    write_json(cfg, {**SAMPLING, "delta_rule": explicit_rule(deltas),
                     "ladder": [32, 64, 128]})
    assert cli.main(["sampling", "--config", str(cfg),
                     "--out", str(tmp_path / "x.json")]) == 4
    assert "explicit deltas cover 64 points, window wants 128" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sampling_cli_csv_out_exits_2_before_compute(tmp_path, monkeypatch, capsys):
    # the witness CSV is written to --out with a .csv suffix, so a .csv --out
    # would have it overwrite the JSON report
    calls = []
    verdict = sampling.stable_sampling_verdict

    def counted_verdict(*args, **kwargs):
        calls.append(args)
        return verdict(*args, **kwargs)

    monkeypatch.setattr(sampling, "stable_sampling_verdict", counted_verdict)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, SAMPLING)
    assert cli.main(["sampling", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert "witness CSV" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sampling_cli_unwritable_csv_exits_2_without_report(tmp_path):
    # the report and its witness CSV are written together or not at all
    cfg = tmp_path / "cfg.json"
    write_json(cfg, SAMPLING)
    (tmp_path / "r.csv").mkdir()
    res = run_cli("sampling", "--config", str(cfg), "--out", str(tmp_path / "r.json"))
    assert res.returncode == 2, res.stderr
    assert f"cannot write {tmp_path / 'r.csv'}: Is a directory" in res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "r.csv"]
    assert list((tmp_path / "r.csv").iterdir()) == []


def test_sampling_cli_zero_bound_rejects_nonzero_deltas(tmp_path):
    cfg = tmp_path / "cfg.json"
    deltas = (0.3 * np.sin(np.arange(64))).tolist()
    write_json(cfg, {**SAMPLING, "delta_rule": explicit_rule(deltas, bound=0.0)})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 4, res.stderr
    assert "exceeds bound 0.000e+00" in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

def test_fixtures_small_sizes(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"sizes": [1, 4]})
    res = run_cli("fixtures", "--config", str(cfg), "--out", str(tmp_path / "fix"))
    assert res.returncode == 0, res.stderr
    one = json.loads((tmp_path / "fix" / "counterexample_N1.json").read_text())
    assert one["omega_gram_diagonal"] == [1.0]
    four = json.loads((tmp_path / "fix" / "counterexample_N4.json").read_text())
    assert four["omega_gram_diagonal"] == [1.0, 0.25, 1 / 9, 1 / 16]
    assert four["expected"]["companion_gram_diagonal"] == [1.0, 0.25, 1 / 9, 1 / 16]


def test_fixtures_out_file_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"sizes": [4, 8]})
    out = tmp_path / "fix"
    out.write_text("not a directory\n")
    res = run_cli("fixtures", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert f"cannot write {out / 'counterexample_N4.json'}" in res.stderr
    assert "Traceback" not in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "fix"]
    assert out.read_text() == "not a directory\n"


def test_fixtures_match_in_process_construction_bitwise(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"sizes": [64]})
    res = run_cli("fixtures", "--config", str(cfg), "--out", str(tmp_path / "fix"))
    assert res.returncode == 0, res.stderr
    bundle = json.loads((tmp_path / "fix" / "counterexample_N64.json").read_text())
    psi, phi = equivalence.counterexample_family(64)
    from framebench.rdual import rdual as rdual_fn
    omega = rdual_fn(psi, phi)
    assert bundle["psi"] == psi.to_json()
    assert bundle["omega"] == omega.to_json()
    diag = [float(v) for v in np.real(np.diag(frames.gram(omega)))]
    assert bundle["omega_gram_diagonal"] == diag


# --------------------------------------------------------------------------
# reach: every public library function serves a command
# --------------------------------------------------------------------------

#: One small config for each command, battery family kind, generator kind and
#: delta rule that draws.
REACH = [
    ("analyze", {"family": LONG_RANGE,
                 "profile": {"kind": "schur", "weight": {"delta": 1.0}}}),
    ("rdual", {"psi": VectorFamily(np.eye(4) + 0.1 * np.eye(4, k=1)).to_json(),
               "phi": VectorFamily.onb(4).to_json()}),
    ("battery", BATTERY),
    ("battery", {**BATTERY, "family": {"kind": "counterexample"}}),
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "seed": 1}}),
    ("sampling", {**SAMPLING, "delta_rule": SEEDED}),
    ("sampling", {**SAMPLING, "generator": HAT_TABLE,
                  "delta_rule": explicit_rule((0.2 * np.sin(np.arange(64))).tolist())}),
    ("fixtures", {"sizes": [4, 8]}),
]


#: Public methods that no command enters, each with the reason it stays.  A
#: reason that names a caller starts with that file in backquotes.
KEEP = {
    "EquivalenceReport.verdicts":
        "`bench/workloads.py` calls it; `bench/` is frozen until ROADMAP item 5",
    "SamplingSet.seeded_uniform":
        "`bench/workloads.py` calls it; `bench/` is frozen until ROADMAP item 5",
}


def public_library_code():
    """``{code object: qualified name}`` of every public module-level function
    of ``framebench`` and every public method, classmethod, staticmethod and
    property getter of the classes it defines."""
    public = {}
    for info in pkgutil.iter_modules(framebench.__path__):
        module = importlib.import_module(f"framebench.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                public[obj.__code__] = f"{info.name}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", getattr(member, "fget", member))
                    if not attr.startswith("_") and inspect.isfunction(func):
                        public[func.__code__] = f"{name}.{attr}"
    return public


def test_every_public_library_function_serves_a_command(tmp_path):
    # private helpers, dunders and dataclass-generated methods are not probed
    public = public_library_code()
    entered = set()

    def probe(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    for i, (command, config) in enumerate(REACH):
        cfg = tmp_path / f"cfg{i}.json"
        write_json(cfg, config)
        sys.setprofile(probe)
        try:
            code = cli.main([command, "--config", str(cfg),
                             "--out", str(tmp_path / f"out{i}.json")])
        finally:
            sys.setprofile(None)
        assert code == 0, (command, config)
    missed = {name for c, name in public.items() if c not in entered}
    assert not missed - KEEP.keys(), f"no command enters {sorted(missed - KEEP.keys())}"
    # a kept method that a command now enters, or whose named caller no longer
    # calls it, has lost its reason: it leaves the list, or the library
    assert missed == KEEP.keys(), f"kept but entered or gone: {sorted(KEEP.keys() - missed)}"
    root = pathlib.Path(__file__).resolve().parents[1]
    for name, reason in KEEP.items():
        caller = re.match(r"`([^`]+)` calls it", reason)
        if caller:
            call = "." + name.rsplit(".", 1)[1] + "("
            assert call in (root / caller[1]).read_text(encoding="utf-8"), (
                f"{caller[1]} no longer calls {name}: delete it")


def test_only_analyze_makes_a_least_squares_fit(tmp_path, monkeypatch):
    # no report prints a fitted decay exponent, so no command, analyze
    # included, pays for a least-squares fit
    calls = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *a, **k: calls.append(1) or polyfit(*a, **k))
    decaying = (1.0 + np.abs(np.subtract.outer(np.arange(8), np.arange(8)))) ** -2.0
    runs = [(c, config) for c, config in REACH if c != "analyze"]
    runs.append(("analyze", {"family": VectorFamily(decaying).to_json()}))
    for i, (command, config) in enumerate(runs):
        cfg = tmp_path / f"cfg{i}.json"
        write_json(cfg, config)
        assert cli.main([command, "--config", str(cfg),
                         "--out", str(tmp_path / f"out{i}.json")]) == 0
    assert calls == []
