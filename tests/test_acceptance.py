"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from framebench import equivalence, frames, linalg, localization
from framebench.equivalence import counterexample_family, run_battery
from framebench.frames import TruncationLadder, VectorFamily
from framebench.localization import LocalizationProfile, WeightSpec
from framebench.rdual import duality_verdict, rdual
from framebench.sampling import Generator, SamplingSet, stable_sampling_verdict
from oracles import canonical_dual, condition_p, hermitian_power, power

PROFILE = LocalizationProfile(kind="jaffard", s=2.0)


def report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}".rstrip())


def riesz_basis(n, seed, eps=0.4):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e *= eps / linalg.pnorm_operator(e)
    return VectorFamily(np.eye(n) + e)


def test_criterion_1_counterexample_fixture():
    t0 = time.perf_counter()
    for n in (8, 16, 32, 64):
        psi, phi = counterexample_family(n)
        lower = frames.frame_bounds(psi).lower
        assert abs(lower - 1.0 / n**2) <= 1e-10 / n**2
        gram_omega = frames.gram(rdual(psi, phi))
        expected = np.diag(1.0 / np.arange(1, n + 1) ** 2)
        assert np.max(np.abs(gram_omega - expected)) <= 1e-12
    battery = run_battery(counterexample_family, PROFILE,
                          TruncationLadder((8, 16, 32, 64)))
    verdicts = {battery.witnesses[i - 1].verdict for i in (1, 8, 9, 10)}
    assert verdicts == {"fail"}
    assert battery.consistent
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"(counterexample ladder, {elapsed:.2f}s)")


def test_criterion_2_frame_riesz_agreement():
    t0 = time.perf_counter()
    agreements = borderline = 0
    for i in range(200):
        n = 4 + (i * 7) % 61  # sizes 4..64
        phi = riesz_basis(n, seed=10_000 + i)
        rng = np.random.default_rng(20_000 + i)
        coeffs = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if i % 2:
            coeffs[:, -1] = coeffs[:, 0]  # exact rank deficiency
        psi = VectorFamily(coeffs)
        rep = duality_verdict(psi, rdual(psi, phi), frames.TOL_FRAME)
        if rep.borderline:
            borderline += 1
            continue
        assert rep.agree, f"run {i}: frame={rep.frame_lower} riesz={rep.riesz_lower}"
        agreements += 1
    assert agreements + borderline == 200
    assert agreements >= 190  # the sweep must actually decide almost all runs
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"({agreements} decided runs agree, {borderline} borderline, "
              f"{elapsed:.1f}s)")


def test_criterion_3_functional_calculus():
    worst_sqrt = worst_quarter = worst_inverse = 0.0
    for i in range(50):
        n = 16 + (i * 11) % 241  # sizes 16..256
        rng = np.random.default_rng(30_000 + i)
        a = np.eye(n) + 0.5 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        g = a.conj().T @ a
        scale = linalg.pnorm_operator(g)
        root = hermitian_power(g, 0.5)
        worst_sqrt = max(worst_sqrt,
                         linalg.pnorm_operator(root @ root - g) / scale)
        quarter = hermitian_power(g, -0.25)
        prod = quarter @ quarter @ root
        worst_quarter = max(worst_quarter,
                            linalg.pnorm_operator(prod - np.eye(n)))
        prod = linalg.inverse_sqrt(*linalg.hermitian_eig(g)) @ root
        worst_inverse = max(worst_inverse,
                            linalg.pnorm_operator(prod - np.eye(n)))
    assert worst_sqrt <= 1e-8
    assert worst_quarter <= 1e-7
    assert worst_inverse <= 1e-7
    report(3, f"(sqrt residual {worst_sqrt:.2e}, quarter-power residual "
              f"{worst_quarter:.2e}, inverse-root residual {worst_inverse:.2e})")


def test_criterion_4_adjoint_duality():
    for i in range(100):
        rng = np.random.default_rng(40_000 + i)
        n, m = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        # the column sums of A are the row sums of A^H, bit for bit
        assert np.array_equal(linalg.line_sums(a.T), linalg.line_sums(a.conj().T))
    # witness pairs (2)/(3) and (8)/(9) under adjoint transposition
    worst = 0.0
    for seed in range(5):
        psi, phi = equivalence.perturbed_onb_family(16, 0.4, seed=seed)
        dual = canonical_dual(phi)
        coord = dual.coeffs.conj().T @ frames.frame_operator(psi) @ phi.coeffs
        c2 = condition_p(coord, 1)
        c3_adj = condition_p(coord.conj().T, math.inf)
        worst = max(worst, abs(c2 - c3_adj) / c2)
        g = frames.gram(rdual(psi, phi))
        c8 = condition_p(g, 1)
        c9_adj = condition_p(g.conj().T, math.inf)
        worst = max(worst, abs(c8 - c9_adj) / c8)
    assert worst <= 1e-10
    report(4, f"(100 exact norm dualities, witness mismatch {worst:.2e})")


def test_criterion_5_bspline_sampling_unperturbed():
    t0 = time.perf_counter()
    rep = stable_sampling_verdict(Generator(kind="bspline", degree=3),
                                  SamplingSet(rule="constant", value=0.0),
                                  TruncationLadder((64, 128, 256)))
    items = {it.id: it for it in rep.items}
    lam_final = items["e"].quantities[-1][1]
    assert abs(lam_final - 1.0 / 9.0) <= 0.02 / 9.0
    assert rep.stable
    assert {items[k].verdict for k in "cde"} == {"pass"}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"(interior lambda_min {lam_final:.6f} vs 1/9, {elapsed:.2f}s)")


def test_criterion_6_bspline_sampling_half_shift():
    rep = stable_sampling_verdict(Generator(kind="bspline", degree=3),
                                  SamplingSet(rule="constant", value=0.5),
                                  TruncationLadder((64, 128, 256)))
    items = {it.id: it for it in rep.items}
    lam = dict(items["e"].quantities)
    assert lam[256] <= 1e-3
    assert lam[64] / lam[256] >= 3.0
    assert not rep.stable
    assert {items[k].verdict for k in "cd"} == {"fail"}
    for key in "cd":
        conds = [v for _, v in items[key].quantities]
        assert math.isinf(conds[-1]) or conds[-1] / conds[0] >= 3.0
    report(6, f"(lambda_min {lam[64]:.2e} -> {lam[256]:.2e}, unstable)")


def test_criterion_7_localization_solidity():
    w = WeightSpec(form="polynomial", delta=1.0)
    for i in range(100):
        rng = np.random.default_rng(50_000 + i)
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = a * (rng.random((n, n)) < rng.uniform(0.2, 0.9))
        assert localization.jaffard_norm(b, 2.0) <= localization.jaffard_norm(a, 2.0)
        assert localization.schur_norm(b, w) <= localization.schur_norm(a, w)
    report(7, "(100 masked pairs, exact comparisons)")


def test_criterion_8_rdual_factorization():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(60_000 + i)
        n = 4 + (i * 5) % 61  # sizes 4..64
        e = rng.standard_normal((n, n))
        e *= 0.4 / linalg.pnorm_operator(e)
        phi = VectorFamily(np.eye(n) + e)
        psi = VectorFamily(rng.standard_normal((n, n)))
        omega = rdual(psi, phi)
        quarter = power(phi, -0.25)
        lhs = frames.cross_gram(omega, phi)
        rhs = frames.cross_gram(psi, phi).conj().T @ frames.gram(quarter)
        worst = max(worst, linalg.pnorm_operator(lhs - rhs))
    assert worst <= 1e-8
    report(8, f"(50 seeded pairs, worst residual {worst:.2e})")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "framebench.cli", *args],
                          capture_output=True, text=True)


def test_criterion_9_cli_determinism(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(VectorFamily.onb(6, label="onb").to_json()),
                   encoding="utf-8")
    psi, _ = counterexample_family(8)
    harmonic = tmp_path / "harmonic.json"
    harmonic.write_text(json.dumps(psi.to_json()), encoding="utf-8")

    ref8 = tmp_path / "ref8.json"
    ref8.write_text(json.dumps(VectorFamily.onb(8, label="ref").to_json()),
                    encoding="utf-8")
    configs = {
        "analyze": {"family": str(fam), "profile": {"kind": "jaffard", "s": 2.0}},
        "rdual": {"psi": str(harmonic), "phi": str(ref8)},
        "battery": {"family": {"kind": "perturbed-onb", "epsilon": 0.3, "seed": 7},
                    "profile": {"kind": "jaffard", "s": 2.0},
                    "ladder": [8, 16, 32]},
        "sampling": {"generator": {"kind": "bspline", "degree": 3},
                     "delta_rule": {"kind": "seeded-uniform", "bound": 0.2,
                                    "seed": 5},
                     "ladder": [32, 64]},
        "fixtures": {"sizes": [4, 16]},
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{command}_run{run}.out"
            res = _run_cli(command, "--config", str(cfg_path), "--out", str(out),
                           "--seed", "42")
            assert res.returncode == 0, f"{command}: {res.stderr}"
            if command == "fixtures":
                blobs = sorted(out.glob("*.json"))
                outs.append(b"".join(p.read_bytes() for p in blobs))
            else:
                payload = out.read_bytes()
                if command == "sampling":
                    payload += out.with_suffix(".csv").read_bytes()
                outs.append(payload)
        assert outs[0] == outs[1], f"{command} output not byte-identical"
    report(9, "(5 commands double-run byte-identical)")
