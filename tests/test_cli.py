"""CLI contract tests: configs in, reports out, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from framebench import cli, equivalence, frames, sampling
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


@pytest.mark.parametrize("command, config, extra, named", [
    ("battery", BATTERY, ["--ladder", ","], "[]"),
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
    ("battery", {**BATTERY, "family": {"kind": "perturbed-onb", "epsilon": []}}, [],
     "bad battery family"),
    ("battery", {**BATTERY, "profile": []}, [], "bad localization profile"),
    ("sampling", {**SAMPLING, "generator": []}, [], "bad generator config"),
    ("sampling", {**SAMPLING, "generator": {"kind": "tabulated"}}, [],
     "missing field 'samples'"),
    ("sampling", {**SAMPLING, "delta_rule": {"kind": "seeded-uniform"}}, [],
     "missing field 'bound'"),
    ("sampling", {**SAMPLING, "deltas": 5}, [], "bad delta rule: explicit deltas must be 1-D"),
    ("analyze", {"family": {"ambient_dim": 2, "member_count": 2, "coeffs": [[1, 0]]}},
     [], "expected 2*2"),
], ids=["empty-ladder", "unknown-weight-form", "tol-nan", "tol-inf", "tol-negative",
        "unknown-profile-kind", "jaffard-s-below-1", "schur-delta-negative",
        "unknown-generator-kind", "unknown-delta-rule", "family-not-object",
        "family-epsilon-list", "profile-not-object", "generator-not-object",
        "tabulated-without-samples", "seeded-uniform-without-bound",
        "deltas-scalar", "family-coeffs-count"])
def test_bad_battery_input_exits_2_without_output(tmp_path, command, config, extra,
                                                  named):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    res = run_cli(command, "--config", str(cfg),
                  "--out", str(tmp_path / "x.json"), *extra)
    assert res.returncode == 2, res.stderr
    assert named in res.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unserializable_report_leaves_no_file(tmp_path):
    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        cli._write_json(str(out), {"lower": math.nan})
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# battery
# --------------------------------------------------------------------------

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


def test_battery_ladder_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "battery.json"
    write_json(cfg, {"family": {"kind": "onb"},
                     "profile": {"kind": "jaffard", "s": 2.0}})
    res = run_cli("battery", "--config", str(cfg), "--out", str(out),
                  "--ladder", "4,8,16")
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["ladder"] == [4, 8, 16]


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
    write_json(cfg, {"generator": {"kind": "tabulated",
                                   "samples": [[float(1 / (1 + abs(v))), 0.0] for v in x],
                                   "step": 0.5, "decay_s": 3.0},
                     "delta_rule": {"kind": "constant", "value": 0.0},
                     "ladder": [16, 32]})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(tmp_path / "x.json"))
    assert res.returncode == 4


def test_sampling_cli_explicit_deltas_nest_over_ladder(tmp_path):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "samp.json"
    deltas = (0.2 * np.sin(np.arange(64))).tolist()
    write_json(cfg, {**SAMPLING, "deltas": deltas, "ladder": [32, 64]})
    res = run_cli("sampling", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["ladder"] == [32, 64]


def test_sampling_cli_short_explicit_deltas_fail_before_compute(tmp_path, monkeypatch,
                                                               capsys):
    calls = []
    suitability = sampling.generator_suitability

    def counted_suitability(*args, **kwargs):
        calls.append(args)
        return suitability(*args, **kwargs)

    monkeypatch.setattr(sampling, "generator_suitability", counted_suitability)
    cfg = tmp_path / "cfg.json"
    deltas = (0.2 * np.sin(np.arange(64))).tolist()
    write_json(cfg, {**SAMPLING, "deltas": deltas, "ladder": [32, 64, 128]})
    assert cli.main(["sampling", "--config", str(cfg),
                     "--out", str(tmp_path / "x.json")]) == 4
    assert "explicit deltas cover 64 points, window wants 128" in capsys.readouterr().err
    assert calls == []
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
