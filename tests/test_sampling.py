"""Sampling tests: generator evaluation, stencils, Grams, stability verdicts.

Oracles: repeated box convolution on a fine grid, stencil self-convolution,
exact piecewise-polynomial shift inner products, the Fourier-symbol minimum
on a dense frequency grid, the frame-coordinate Riesz-dual route, and the
dense matrices ``autocorrelation_gram`` and ``shift_gram`` for the banded
verdict.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from framebench import cli, frames, linalg, sampling
from framebench.errors import (
    GeneratorUnsuitableError,
    LadderTooShortError,
    NotSeparatedError,
    PerturbationViolationError,
)
from framebench.frames import TruncationLadder, VectorFamily
from framebench.ladder import Witness
from framebench.rdual import rdual_gram
from framebench.sampling import (
    Generator,
    SamplingSet,
    autocorrelation_gram,
    bspline_eval,
    generator_eval,
    sampling_matrix,
    shift_gram,
    stable_sampling_verdict,
)

CUBIC = Generator(kind="bspline", degree=3)
BOX = Generator(kind="bspline", degree=0)
HAT = Generator(kind="bspline", degree=1)


def convolved_box_oracle(degree, t, step=1e-4):
    """Evaluate the degree-n spline by n numerical box convolutions."""
    half = (degree + 1) / 2.0 + 1.0
    grid = np.arange(-half, half, step)
    cur = np.where((grid >= -0.5) & (grid < 0.5), 1.0, 0.0)
    box = cur.copy()
    for _ in range(degree):
        cur = np.convolve(cur, box, mode="same") * step
    return float(np.interp(t, grid, cur))


def symbol_min_squared(degree, delta, grid=40001):
    """Minimum over frequencies of |sum_r g(r + delta) e^{ir theta}|^2."""
    rs = np.arange(-(degree + 2), degree + 3)
    stencil = bspline_eval(degree, rs + delta)
    theta = np.linspace(0.0, 2.0 * np.pi, grid)
    p = np.exp(1j * np.outer(theta, rs)) @ stencil
    return float(np.min(np.abs(p) ** 2))


# --------------------------------------------------------------------------
# generator evaluation
# --------------------------------------------------------------------------

def test_box_values():
    assert bspline_eval(0, 0.0) == 1.0
    assert bspline_eval(0, 0.75) == 0.0
    assert bspline_eval(0, -0.75) == 0.0
    assert bspline_eval(0, -0.5) == 1.0  # half-open cell
    assert bspline_eval(0, 0.5) == 0.0


def test_cubic_values_exact():
    assert np.isclose(bspline_eval(3, 0.0), 2 / 3, rtol=1e-15)
    assert np.isclose(bspline_eval(3, 0.5), 23 / 48, rtol=1e-15)
    assert np.isclose(bspline_eval(3, 1.0), 1 / 6, rtol=1e-15)
    assert np.isclose(bspline_eval(3, 1.5), 1 / 48, rtol=1e-15)
    assert bspline_eval(3, 2.0) == 0.0
    assert bspline_eval(3, -2.0) == 0.0


def test_cubic_against_convolution_quadrature():
    for t in (0.0, 0.5, 1.0, 1.3):
        assert np.isclose(bspline_eval(3, t), convolved_box_oracle(3, t),
                          atol=5e-4)


def test_bspline_partition_of_unity():
    ts = np.linspace(-0.5, 0.5, 11)
    for degree in (1, 2, 3, 4):
        shifts = np.arange(-degree - 1, degree + 2)
        total = sum(bspline_eval(degree, ts - k) for k in shifts)
        assert np.allclose(total, 1.0, atol=1e-12)


def test_generator_eval_tabulated_interpolates():
    grid_vals = bspline_eval(1, (np.arange(9) - 4) * 0.5)
    g = Generator(kind="tabulated", samples=grid_vals, step=0.5, decay_s=2.0)
    assert np.isclose(generator_eval(g, 0.25).real, 0.75)  # exact for the hat
    assert generator_eval(g, 5.0) == 0.0


def test_tabulated_decay_claim_enforced():
    x = (np.arange(41) - 20) * 0.5
    slow = 1.0 / (1.0 + np.abs(x))
    with pytest.raises(GeneratorUnsuitableError):
        Generator(kind="tabulated", samples=slow, step=0.5, decay_s=3.0)
    fast = (1.0 + np.abs(x)) ** -3.0
    Generator(kind="tabulated", samples=fast, step=0.5, decay_s=2.5)


# --------------------------------------------------------------------------
# sampling matrix
# --------------------------------------------------------------------------

def test_sampling_matrix_box_identity():
    p = sampling_matrix(BOX, SamplingSet.constant(0.0), 6)
    assert np.array_equal(p.real, np.eye(6))


def test_sampling_matrix_cubic_integer_stencil():
    p = sampling_matrix(CUBIC, SamplingSet.constant(0.0), 9)
    row = p[4].real
    expected = np.zeros(9)
    expected[3:6] = [1 / 6, 2 / 3, 1 / 6]
    assert np.allclose(row, expected, rtol=1e-15)


def test_sampling_matrix_cubic_half_integer_stencil():
    p = sampling_matrix(CUBIC, SamplingSet.constant(0.5), 9)
    row = p[4].real
    expected = np.zeros(9)
    expected[3:7] = [1 / 48, 23 / 48, 23 / 48, 1 / 48]
    assert np.allclose(row, expected, rtol=1e-15)


def test_sampling_matrix_interior_toeplitz_for_constant_shift():
    p = sampling_matrix(CUBIC, SamplingSet.constant(0.25), 12)
    for i in range(3, 8):
        for j in range(3, 8):
            assert p[i, j] == p[i + 1, j + 1]
    g = autocorrelation_gram(CUBIC, SamplingSet.constant(0.25), 12)
    for i in range(3, 8):
        for j in range(3, 8):
            assert np.isclose(g[i, j], g[i + 1, j + 1], rtol=1e-14)


def test_generator_json_roundtrip():
    assert Generator.from_json(CUBIC.to_json()) == CUBIC
    x = (np.arange(21) - 10) * 0.5
    tab = Generator(kind="tabulated", samples=(1.0 + np.abs(x)) ** -3.0,
                    step=0.5, decay_s=2.5)
    again = Generator.from_json(tab.to_json())
    assert again.kind == "tabulated"
    assert np.array_equal(again.samples, tab.samples)
    assert again.step == tab.step and again.decay_s == tab.decay_s
    assert "grid" in tab.to_json()


def test_sampling_set_validation():
    with pytest.raises(PerturbationViolationError):
        SamplingSet.from_deltas([0.0, 0.5, 0.0], bound=0.2).points(3)
    with pytest.raises(NotSeparatedError):
        SamplingSet.from_deltas([0.5, -0.5, 0.0]).points(3)
    with pytest.raises(PerturbationViolationError):
        SamplingSet.from_deltas([0.1, 0.1]).points(5)  # wrong window length


def test_seeded_uniform_deltas_nest_across_windows():
    explicit = SamplingSet.from_deltas(0.3 * np.sin(np.arange(16)), bound=0.3)
    for s in (SamplingSet.seeded_uniform(0.3, seed=7), explicit):
        for n in (7, 8):
            small, big = s.deltas(n), s.deltas(16)
            lookup = dict(zip(s.window(16), big))
            assert all(np.isclose(lookup[k], v) for k, v in zip(s.window(n), small))
        assert np.max(np.abs(big)) <= 0.3
    assert np.array_equal(explicit.deltas(16), explicit.explicit)


# --------------------------------------------------------------------------
# autocorrelation Gram
# --------------------------------------------------------------------------

def test_autocorrelation_box_identity():
    g = autocorrelation_gram(BOX, SamplingSet.constant(0.0), 8)
    assert np.array_equal(g.real, np.eye(8))


def test_autocorrelation_equals_normal_matrix_exactly():
    x = SamplingSet.seeded_uniform(0.2, seed=3)
    p = sampling_matrix(CUBIC, x, 10)
    assert np.array_equal(autocorrelation_gram(CUBIC, x, 10), p.conj().T @ p)


def test_autocorrelation_cubic_stencil_self_convolution():
    g = autocorrelation_gram(CUBIC, SamplingSet.constant(0.0), 12)
    stencil = np.array([1 / 6, 2 / 3, 1 / 6])
    expected_row = np.convolve(stencil, stencil[::-1])  # (1/36, 2/9, 1/2, 2/9, 1/36)
    assert np.allclose(expected_row, [1 / 36, 2 / 9, 1 / 2, 2 / 9, 1 / 36],
                       rtol=1e-14)
    center = g[6].real
    assert np.allclose(center[4:9], expected_row, rtol=1e-13)


def test_autocorrelation_hermitian_psd():
    g = autocorrelation_gram(CUBIC, SamplingSet.seeded_uniform(0.4, seed=5), 16)
    assert np.max(np.abs(g - g.conj().T)) <= 1e-14
    assert linalg.hermitian_eig(g).eigenvalues[0] >= -1e-12


def test_autocorrelation_matches_frame_coordinate_route():
    # rebuild the sampling kernels as an abstract family whose cross Gram
    # against the shift family is the sampling matrix, then compare the
    # Riesz-dual-companion Gram with P^H P
    window = 8
    x = SamplingSet.seeded_uniform(0.2, seed=11)
    p = sampling_matrix(CUBIC, x, window)
    g_shift = shift_gram(CUBIC, window)
    phi_coeffs = linalg.matrix_power(g_shift, 0.5)
    phi = VectorFamily(phi_coeffs, label="shifts")
    psi = VectorFamily(np.linalg.solve(phi_coeffs.conj().T, p.conj().T),
                       label="kernels")
    assert np.allclose(frames.cross_gram(psi, phi), p, atol=1e-10)
    assert np.allclose(rdual_gram(psi, phi), autocorrelation_gram(CUBIC, x, window),
                       atol=1e-8)


# --------------------------------------------------------------------------
# shift Gram
# --------------------------------------------------------------------------

def test_shift_gram_box_identity():
    assert np.array_equal(shift_gram(BOX, 5).real, np.eye(5))


def test_shift_gram_hat_exact():
    g = shift_gram(HAT, 6).real
    assert np.allclose(np.diag(g), 2 / 3, rtol=1e-14)
    assert np.allclose(np.diag(g, k=1), 1 / 6, rtol=1e-14)
    assert np.allclose(np.diag(g, k=2), 0.0)


def test_shift_gram_tabulated_matches_closed_form():
    # the hat is reproduced exactly by linear interpolation on a half-integer
    # grid, so the tabulated route must hit the closed form to rounding
    grid_vals = bspline_eval(1, (np.arange(9) - 4) * 0.5)
    tab = Generator(kind="tabulated", samples=grid_vals, step=0.5, decay_s=2.0)
    g_tab = shift_gram(tab, 5)
    g_exact = shift_gram(HAT, 5)
    assert np.allclose(g_tab, g_exact, rtol=0.0, atol=1e-14)


def test_shift_gram_tabulated_complex_matches_closed_form():
    # g(t) = hat(t) + i hat(t - 1/2); the hat autocorrelation is the cubic
    # B-spline B3, so row m is 2 B3(m) + i (B3(m - 1/2) - B3(m + 1/2))
    x = (np.arange(13) - 6) * 0.5
    samples = bspline_eval(1, x) + 1j * bspline_eval(1, x - 0.5)
    tab = Generator(kind="tabulated", samples=samples, step=0.5, decay_s=2.0)
    m = np.arange(8.0)
    row = 2.0 * bspline_eval(3, m) + 1j * (bspline_eval(3, m - 0.5)
                                           - bspline_eval(3, m + 0.5))
    expected = sla.toeplitz(row, np.conj(row))
    assert np.allclose(shift_gram(tab, 8), expected, rtol=0.0, atol=1e-14)


def test_shift_gram_tabulated_cubic_converges_at_second_order():
    # linear interpolation of the cubic B-spline is accurate to O(step^2),
    # and the exact Gram of the interpolant inherits that rate
    errors = []
    for step in (0.2, 0.1, 0.05, 0.025):
        n = int(round(4.0 / step)) + 1
        grid = (np.arange(n) - n // 2) * step
        tab = Generator(kind="tabulated", samples=bspline_eval(3, grid), step=step,
                        decay_s=2.0)
        errors.append(float(np.max(np.abs(shift_gram(tab, 8) - shift_gram(CUBIC, 8)))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.8 <= r <= 4.2 for r in ratios), (errors, ratios)
    assert errors[-1] < 1e-4


def test_import_does_not_load_scipy_integrate():
    res = subprocess.run(
        [sys.executable, "-c",
         "import framebench, sys; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_shift_gram_cubic_positive_definite():
    g = shift_gram(CUBIC, 64)
    lam = linalg.hermitian_eig(g).eigenvalues
    assert lam[0] > 1e-3  # symbol minimum of the degree-7 autocorrelation


# --------------------------------------------------------------------------
# stable-sampling verdicts
# --------------------------------------------------------------------------

LADDER = TruncationLadder((32, 64, 128, 256))


def test_verdict_cubic_unperturbed_stable():
    rep = stable_sampling_verdict(CUBIC, SamplingSet.constant(0.0), LADDER)
    assert rep.stable and rep.consistent
    target = symbol_min_squared(3, 0.0)
    assert np.isclose(target, 1 / 9, atol=1e-8)
    lam = [v for _, v in rep.item("e").quantities]
    assert all(b <= a + 1e-15 for a, b in zip(lam, lam[1:]))  # decreasing
    assert abs(lam[-1] - target) <= 0.02 * target
    assert {rep.item(k).verdict for k in "acde"} == {"pass"}
    assert rep.item("b").verdict == "pass"
    assert "duality-derived" in rep.item("b").proxy_note


def test_verdict_cubic_half_shift_unstable():
    rep = stable_sampling_verdict(CUBIC, SamplingSet.constant(0.5), LADDER)
    assert not rep.stable and rep.consistent
    assert symbol_min_squared(3, 0.5) <= 1e-8
    lam = [v for _, v in rep.item("e").quantities]
    assert lam[-1] <= 1e-3
    assert lam[0] / lam[-1] >= 3.0
    assert {rep.item(k).verdict for k in "acde"} == {"fail"}
    conds = [v for _, v in rep.item("c").quantities]
    assert math.isinf(conds[-1]) or conds[-1] / conds[0] >= 3.0


def test_verdict_box_small_perturbations_stable():
    x = SamplingSet.seeded_uniform(0.49, seed=2)
    rep = stable_sampling_verdict(BOX, x, TruncationLadder((16, 32, 64)))
    assert rep.stable
    g = autocorrelation_gram(BOX, x, 32)
    assert np.array_equal(g.real, np.eye(32))
    assert not rep.generator_continuous  # box accepted despite the jump


def test_verdict_direct_bounds_bracket_symbol_ratio():
    rep = stable_sampling_verdict(CUBIC, SamplingSet.constant(0.0), LADDER)
    # oracle: pointwise ratio of the two symbols on a dense frequency grid
    theta = np.linspace(0.0, 2.0 * np.pi, 40001)
    rs = np.arange(-5, 6)
    p = np.exp(1j * np.outer(theta, rs)) @ bspline_eval(3, rs.astype(float))
    gsym = (np.exp(1j * np.outer(theta, rs)) @ bspline_eval(7, rs.astype(float))).real
    ratio = np.abs(p) ** 2 / gsym
    lo_limit, hi_limit = float(ratio.min()), float(ratio.max())
    for _size, lo, hi in rep.direct_bounds:
        # sections of a positive pencil stay inside the symbol-ratio range
        assert lo_limit - 1e-9 <= lo <= hi <= hi_limit + 1e-9
    final_lo, final_hi = rep.direct_bounds[-1][1], rep.direct_bounds[-1][2]
    assert abs(final_lo - lo_limit) <= 2e-3 * max(lo_limit, 1.0)
    assert abs(final_hi - hi_limit) <= 2e-2 * hi_limit


@pytest.mark.parametrize("x", [SamplingSet.seeded_uniform(0.2, seed=3),
                               SamplingSet.constant(0.5)])
def test_verdict_items_cde_match_plain_path(x):
    ladder = TruncationLadder((32, 64, 128))
    rep = stable_sampling_verdict(CUBIC, x, ladder)
    for idx, size in enumerate(ladder.sizes):
        interior = slice(rep.trim, size - rep.trim)
        gi = autocorrelation_gram(CUBIC, x, size)[interior, interior]
        expected = [linalg.condition_p(gi, 1), linalg.condition_p(gi, math.inf),
                    max(float(linalg.hermitian_eig(gi).eigenvalues[0]), 0.0)]
        got = [rep.item(k).quantities[idx][1] for k in "cde"]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0), size


def dense_witnesses(g, x, ladder, trim):
    """Per size (item a lo, item a hi, c, d, e) from the dense matrices."""
    out = []
    for size in ladder.sizes:
        interior = slice(trim, size - trim)
        gi = autocorrelation_gram(g, x, size)[interior, interior]
        shift = shift_gram(g, size)[interior, interior]
        lam = linalg.hermitian_eig(gi).eigenvalues
        cond1, cond_inf = linalg.condition_1_inf(gi, lam)
        gen = sla.eigh(gi, shift, eigvals_only=True)
        out.append((max(float(gen[0]), 0.0), float(gen[-1]), cond1, cond_inf,
                    max(float(lam[0]), 0.0)))
    return out


_HALF9 = (np.arange(9) - 4) * 0.5
_HALF13 = (np.arange(13) - 6) * 0.5
_HALF41 = (np.arange(41) - 20) * 0.5
ORACLE_GENERATORS = {
    **{f"bspline-{d}": Generator(kind="bspline", degree=d) for d in range(4)},
    "tabulated-hat": Generator(kind="tabulated", samples=bspline_eval(1, _HALF9),
                               step=0.5, decay_s=2.0),
    # support radius 10: on the 24-window the Gram's bandwidth exceeds the
    # interior, so the band is clamped
    "tabulated-decay": Generator(kind="tabulated", samples=(1.0 + np.abs(_HALF41)) ** -3.0,
                                 step=0.5, decay_s=2.5),
    "tabulated-complex": Generator(kind="tabulated",
                                   samples=bspline_eval(1, _HALF13)
                                   + 1j * bspline_eval(1, _HALF13 - 0.5),
                                   step=0.5, decay_s=2.0),
}
ORACLE_LADDER = TruncationLadder((24, 40, 64))

delta_rules = st.one_of(
    st.sampled_from([SamplingSet.constant(0.0), SamplingSet.constant(0.5)]),
    st.builds(SamplingSet.seeded_uniform, st.floats(0.0, 0.45),
              st.integers(0, 2**31 - 1)),
    st.builds(lambda bound, seed: SamplingSet.from_deltas(
        np.random.default_rng(seed).uniform(-bound, bound, 64)),
        st.floats(0.0, 0.45), st.integers(0, 2**31 - 1)),
)


@given(st.sampled_from(sorted(ORACLE_GENERATORS)), delta_rules)
@settings(max_examples=40, deadline=None)
def test_banded_verdict_matches_dense_oracle(name, x):
    g = ORACLE_GENERATORS[name]
    rep = stable_sampling_verdict(g, x, ORACLE_LADDER)
    expected = dense_witnesses(g, x, ORACLE_LADDER, rep.trim)
    for idx, (size, lo, hi) in enumerate(rep.direct_bounds):
        got = (lo, hi) + tuple(rep.item(k).quantities[idx][1] for k in "cde")
        # equal infinities pass: the singular flag must agree exactly
        assert np.allclose(got, expected[idx], rtol=1e-10, atol=0.0), (size, got)
    for k, col in zip("acde", (0, 2, 3, 4)):
        values = [w[col] for w in expected]
        kind = "gain" if k in "ae" else "condition"
        oracle = Witness.from_ladder(k, "", "", ORACLE_LADDER.sizes, values, kind,
                                     frames.TOL_FRAME)
        assert rep.item(k).verdict == oracle.verdict, k


def test_verdict_budget_no_dense_work(monkeypatch):
    # per call: the points are drawn once, for the largest window; nothing
    # is factorized densely; the generator is evaluated only inside the
    # band |l - k| <= ceil(radius + C) of P, not at all n^2 pairs
    calls = []

    def recorded(name, fn, amount=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls.append((name, amount(*args)))
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((np.linalg, "eigh"), (sla, "eigh"), (sla, "inv"),
                        (sla, "svdvals")):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    monkeypatch.setattr(sampling, "generator_eval",
                        recorded("points", sampling.generator_eval,
                                 lambda g, t: np.size(t)))
    monkeypatch.setattr(SamplingSet, "points",
                        recorded("draw", SamplingSet.points, lambda x, n: n))
    ladder = TruncationLadder((128, 256, 512))
    x = SamplingSet.seeded_uniform(0.2, seed=0)
    assert stable_sampling_verdict(CUBIC, x, ladder).stable
    width = math.ceil(CUBIC.support_radius + x.bound)
    assert [c for c in calls if c[0] != "points"] == [("draw", 512)]
    evaluated = sum(n for name, n in calls if name == "points")
    assert evaluated <= sum(n * (2 * width + 1) for n in ladder.sizes)


def test_verdict_tabulated_decay_fixture_stable(tmp_path):
    x = (np.arange(41) - 20) * 0.5
    decay = Generator(kind="tabulated", samples=(1.0 + np.abs(x)) ** -3.0,
                      step=0.5, decay_s=2.5)
    ladder = TruncationLadder((32, 64, 128))
    for seed in range(8):
        rep = stable_sampling_verdict(decay, SamplingSet.seeded_uniform(0.2, seed=seed),
                                      ladder)
        assert rep.stable and rep.consistent, seed
    cfg, out = tmp_path / "cfg.json", tmp_path / "rep.json"
    cfg.write_text(json.dumps({
        "generator": decay.to_json(),
        "delta_rule": SamplingSet.seeded_uniform(0.2, seed=0).to_json(),
        "ladder": list(ladder.sizes)}), encoding="utf-8")
    assert cli.main(["sampling", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["stable"] is True and rep["consistent"] is True


def test_verdict_trim_guard():
    with pytest.raises(LadderTooShortError):
        stable_sampling_verdict(CUBIC, SamplingSet.constant(0.0),
                                TruncationLadder((4, 8)))


def test_generator_suitability_gate():
    with pytest.raises(GeneratorUnsuitableError):
        sampling.generator_suitability(CUBIC, tol=1.0)
    info = sampling.generator_suitability(CUBIC)
    assert info["continuous"] is True
    assert info["shift_riesz_lower"] > 1e-3


def test_sampling_report_json_and_csv():
    rep = stable_sampling_verdict(CUBIC, SamplingSet.constant(0.5),
                                  TruncationLadder((32, 64)))
    js = rep.to_json()
    assert js["stable"] is False
    assert [it["id"] for it in js["items"]] == ["a", "b", "c", "d", "e"]
    csv = rep.witness_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "size,item_a,item_b,item_c,item_d,item_e"
    assert len(lines) == 3
