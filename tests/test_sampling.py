"""Sampling tests: generator evaluation, stencils, Grams, stability verdicts.

Oracles: repeated box convolution on a fine grid, stencil self-convolution,
exact piecewise-polynomial shift inner products, the Fourier-symbol minimum
on a dense frequency grid, the frame-coordinate Riesz-dual route, and the
dense matrices of ``oracles`` (sampling matrix, autocorrelation Gram, shift
Gram, condition numbers) for the banded verdict.
"""

from dataclasses import replace
from fractions import Fraction
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import zeta
from hypothesis import given, settings, strategies as st

from framebench import cli, frames, linalg, localization, sampling
from framebench.errors import (
    GeneratorUnsuitableError,
    LadderTooShortError,
    NotSeparatedError,
    NumericalFailureError,
    PerturbationViolationError,
)
from framebench.frames import TruncationLadder, VectorFamily
from framebench.ladder import Witness
from framebench.rdual import rdual
from framebench.sampling import (
    Generator,
    SamplingSet,
    bspline_eval,
    generator_eval,
    stable_sampling_verdict,
)
from oracles import (autocorrelation_gram, condition_p, hermitian_power, sampling_matrix,
                     shift_gram)

CUBIC = Generator(kind="bspline", degree=3)
BOX = Generator(kind="bspline", degree=0)
HAT = Generator(kind="bspline", degree=1)
INTEGERS = SamplingSet(rule="constant", value=0.0)
HALF_INTEGERS = SamplingSet(rule="constant", value=0.5)


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


def test_tabulated_samples_shape():
    # a malformed grid is an input error; a well-formed one that is too
    # short is an unsuitable generator
    with pytest.raises(ValueError, match="must be 1-D"):
        Generator(kind="tabulated", samples=5.0)
    with pytest.raises(ValueError, match="must be 1-D"):
        Generator(kind="tabulated", samples=np.ones((5, 5)))
    with pytest.raises(GeneratorUnsuitableError, match=">= 5 samples"):
        Generator(kind="tabulated", samples=np.ones(4))


# --------------------------------------------------------------------------
# the dense sampling-matrix oracle
# --------------------------------------------------------------------------

def test_sampling_matrix_box_identity():
    p = sampling_matrix(BOX, INTEGERS, 6)
    assert np.array_equal(p.real, np.eye(6))


def test_sampling_matrix_cubic_integer_stencil():
    p = sampling_matrix(CUBIC, INTEGERS, 9)
    row = p[4].real
    expected = np.zeros(9)
    expected[3:6] = [1 / 6, 2 / 3, 1 / 6]
    assert np.allclose(row, expected, rtol=1e-15)


def test_sampling_matrix_cubic_half_integer_stencil():
    p = sampling_matrix(CUBIC, HALF_INTEGERS, 9)
    row = p[4].real
    expected = np.zeros(9)
    expected[3:7] = [1 / 48, 23 / 48, 23 / 48, 1 / 48]
    assert np.allclose(row, expected, rtol=1e-15)


def test_sampling_matrix_interior_toeplitz_for_constant_shift():
    p = sampling_matrix(CUBIC, SamplingSet(rule="constant", value=0.25), 12)
    for i in range(3, 8):
        for j in range(3, 8):
            assert p[i, j] == p[i + 1, j + 1]
    g = autocorrelation_gram(CUBIC, SamplingSet(rule="constant", value=0.25), 12)
    for i in range(3, 8):
        for j in range(3, 8):
            assert np.isclose(g[i, j], g[i + 1, j + 1], rtol=1e-14)


def test_generator_json_roundtrip():
    # the one config spelling, as README documents it
    assert Generator.from_json({"kind": "bspline", "degree": 3}) == CUBIC
    samples = (1.0 + np.abs((np.arange(21) - 10) * 0.5)) ** -3.0
    tab = Generator.from_json(json.loads(json.dumps({"kind": "tabulated", "grid": {
        "samples": [[v, 0.0] for v in samples.tolist()], "step": 0.5, "decay_s": 2.5}})))
    assert tab.kind == "tabulated"
    assert tab.samples.dtype == np.float64 and np.array_equal(tab.samples, samples)
    assert tab.step == 0.5 and tab.decay_s == 2.5


@pytest.mark.parametrize("obj, x", [
    ({"kind": "constant", "value": -0.25}, SamplingSet(rule="constant", value=-0.25)),
    ({"kind": "seeded-uniform", "bound": 0.2, "seed": 7},
     SamplingSet(rule="seeded-uniform", bound=0.2, seed=7)),
    ({"kind": "explicit", "deltas": (0.3 * np.sin(np.arange(9))).tolist()},
     SamplingSet(rule="explicit", explicit=0.3 * np.sin(np.arange(9)))),
], ids=["constant", "seeded-uniform", "explicit"])
def test_sampling_set_json_roundtrip(obj, x):
    # the one config spelling, as README documents it
    again = SamplingSet.from_json(json.loads(json.dumps(obj)))
    # field by field: ``explicit`` is an array, and the implied bound of the
    # constant and explicit rules must come back as the same float
    for name, value in vars(x).items():
        back = getattr(again, name)
        assert type(back) is type(value) and np.array_equal(back, value), name


def test_sampling_set_validation():
    with pytest.raises(PerturbationViolationError):
        SamplingSet(rule="explicit", explicit=[0.0, 0.5, 0.0], bound=0.2).points(3)
    with pytest.raises(NotSeparatedError):
        SamplingSet(rule="explicit", explicit=[0.5, -0.5, 0.0]).points(3)
    with pytest.raises(PerturbationViolationError):
        SamplingSet(rule="explicit", explicit=[0.1, 0.1]).points(5)  # wrong window length
    # only an absent bound defaults to max |delta|
    assert SamplingSet(rule="explicit", explicit=[0.0, -0.3, 0.1]).bound == 0.3
    assert SamplingSet(rule="explicit", explicit=[0.0, 0.0, 0.0],
                       bound=0.0).points(3).tolist() == [-1.0, 0.0, 1.0]
    with pytest.raises(PerturbationViolationError):
        SamplingSet(rule="explicit", explicit=[0.0, 0.3, 0.0], bound=0.0).points(3)
    for bad in (-0.3, math.nan, math.inf):
        with pytest.raises(ValueError):
            SamplingSet(rule="explicit", explicit=[0.0, 0.3, 0.0], bound=bad)


@pytest.mark.parametrize("build, message", [
    (lambda: SamplingSet(rule="constant", value=math.inf), "'value' must be finite"),
    (lambda: SamplingSet(rule="constant", value=math.nan), "'value' must be finite"),
    (lambda: SamplingSet.seeded_uniform(0.2, seed=-1), "'seed' must be >= 0"),
    (lambda: SamplingSet.seeded_uniform(0.2, seed=1.7), "'seed' must be an integer"),
    (lambda: SamplingSet.seeded_uniform(0.2, seed=True), "'seed' must be an integer"),
    (lambda: SamplingSet(rule="explicit", explicit=[0.0, math.nan]), "'deltas' must be finite"),
    # numbers are never parsed from strings or taken from bools
    (lambda: SamplingSet.seeded_uniform("0.2", 1), "'bound' must be a number"),
    (lambda: SamplingSet(rule="constant", value="0.5"), "'value' must be a number"),
    (lambda: SamplingSet(rule="explicit", explicit=[0.1] * 4, bound=True),
     "'bound' must be a number"),
    (lambda: SamplingSet(rule="explicit", explicit=[True, 0.1, 0.0]),
     "'deltas' must hold numbers only"),
    (lambda: Generator(kind="tabulated", samples=[0.0, 0.5, True, 0.5, 0.0]),
     "'samples' must hold numbers only"),
    (lambda: Generator.from_json({"kind": "tabulated", "grid": {
        "samples": [[0.5, 0.0]] * 4 + [[True, 0.0]]}}), "'samples' must hold numbers only"),
    (lambda: SamplingSet(rule="seeded-uniform", bound="0.2"), "'bound' must be a number"),
    (lambda: Generator(kind="bspline", degree=2.9), "'degree' must be an integer"),
    # a missing field is an input error too, as in a config
    (lambda: Generator(kind="tabulated"), "a tabulated generator needs 'samples'"),
    (lambda: Generator(kind="tabulated", samples=bspline_eval(1, np.arange(-3.0, 4.0)),
                       step=math.nan), "'step' must be finite"),
    (lambda: Generator(kind="tabulated", samples=bspline_eval(1, np.arange(-3.0, 4.0)),
                       decay_s=math.inf), "'decay_s' must be finite"),
])
def test_sampling_dataclasses_reject_bad_numbers(build, message):
    # checked at construction, before any point is drawn or evaluated
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("record, tag_field, from_json_key", [
    (Generator, "kind", "kind"), (SamplingSet, "rule", "kind"),
    (localization.LocalizationProfile, "kind", "kind"),
    (localization.WeightSpec, "form", "form"),
], ids=["generator", "sampling-set", "profile", "weight"])
@pytest.mark.parametrize("tag", ["wavelet", "", None, 1, [], {"a": 1}])
def test_unknown_tag_is_one_input_error(record, tag_field, from_json_key, tag):
    # the constructor and from_json apply the one kind rule of ``fields``:
    # a ValueError that names the tag and lists the known kinds
    with pytest.raises(ValueError) as built:
        record(**{tag_field: tag})
    with pytest.raises(ValueError) as parsed:
        record.from_json({from_json_key: tag})
    assert type(built.value) is type(parsed.value) is ValueError
    assert str(built.value) == str(parsed.value)
    assert f" {tag!r}; expected one of " in str(built.value)


def test_seeded_uniform_deltas_nest_across_windows():
    explicit = SamplingSet(rule="explicit", explicit=0.3 * np.sin(np.arange(16)), bound=0.3)
    for s in (SamplingSet.seeded_uniform(0.3, seed=7), explicit):
        for n in (7, 8):
            small, big = s.deltas(n), s.deltas(16)
            lookup = dict(zip(s.window(16), big))
            assert all(np.isclose(lookup[k], v) for k, v in zip(s.window(n), small))
        assert np.max(np.abs(big)) <= 0.3
    assert np.array_equal(explicit.deltas(16), explicit.explicit)


# --------------------------------------------------------------------------
# the dense autocorrelation-Gram oracle
# --------------------------------------------------------------------------

def test_autocorrelation_box_identity():
    g = autocorrelation_gram(BOX, INTEGERS, 8)
    assert np.array_equal(g.real, np.eye(8))


def test_autocorrelation_equals_normal_matrix_exactly():
    x = SamplingSet.seeded_uniform(0.2, seed=3)
    p = sampling_matrix(CUBIC, x, 10)
    assert np.array_equal(autocorrelation_gram(CUBIC, x, 10), p.conj().T @ p)


def test_autocorrelation_cubic_stencil_self_convolution():
    g = autocorrelation_gram(CUBIC, INTEGERS, 12)
    stencil = np.array([1 / 6, 2 / 3, 1 / 6])
    expected_row = np.convolve(stencil, stencil[::-1])  # (1/36, 2/9, 1/2, 2/9, 1/36)
    assert np.allclose(expected_row, [1 / 36, 2 / 9, 1 / 2, 2 / 9, 1 / 36],
                       rtol=1e-14)
    center = g[6].real
    assert np.allclose(center[4:9], expected_row, rtol=1e-13)


def test_autocorrelation_hermitian_psd():
    g = autocorrelation_gram(CUBIC, SamplingSet.seeded_uniform(0.4, seed=5), 16)
    assert np.max(np.abs(g - g.conj().T)) <= 1e-14
    assert linalg.hermitian_eigvals(g)[0] >= -1e-12


def test_autocorrelation_matches_frame_coordinate_route():
    # rebuild the sampling kernels as an abstract family whose cross Gram
    # against the shift family is the sampling matrix, then compare the
    # Riesz-dual-companion Gram with P^H P
    window = 8
    x = SamplingSet.seeded_uniform(0.2, seed=11)
    p = sampling_matrix(CUBIC, x, window)
    g_shift = shift_gram(CUBIC, window)
    phi_coeffs = hermitian_power(g_shift, 0.5)
    phi = VectorFamily(phi_coeffs, label="shifts")
    psi = VectorFamily(np.linalg.solve(phi_coeffs.conj().T, p.conj().T),
                       label="kernels")
    assert np.allclose(frames.cross_gram(psi, phi), p, atol=1e-10)
    assert np.allclose(frames.gram(rdual(psi, phi)),
                       autocorrelation_gram(CUBIC, x, window), atol=1e-8)


# --------------------------------------------------------------------------
# the dense shift-Gram oracle
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


def test_shift_gram_matches_scipy_toeplitz_bitwise():
    # the numpy construction must copy row[k - l] and conj(row)[l - k] exactly
    x = (np.arange(13) - 6) * 0.5
    samples = bspline_eval(1, x) + 1j * bspline_eval(1, x - 0.5)
    tab = Generator(kind="tabulated", samples=samples, step=0.5, decay_s=2.0)
    for g in (CUBIC, tab):
        row = sampling._shift_row(g, 9)
        expected = sla.toeplitz(row, np.conj(row)).astype(complex)
        assert np.array_equal(shift_gram(g, 9), expected)


@pytest.mark.parametrize("degree", range(8))
def test_bspline_shift_row_is_the_degree_2d_plus_1_spline(degree):
    # the row is built from d + 1 cached nonzero entries padded with zeros;
    # it must be the closed form's very floats, however long the row, and
    # a caller's writes must not reach the cache
    g = Generator(degree=degree)
    for length in (1, degree + 1, degree + 2, 3 * degree + 7):
        m = np.arange(length, dtype=float)
        row = sampling._shift_row(g, length)
        assert row.tobytes() == np.asarray(bspline_eval(2 * degree + 1, m)).tobytes()
        row[0] = -1.0
    assert sampling._shift_row(g, 1)[0] == bspline_eval(2 * degree + 1, 0.0)
    assert not sampling._bspline_shift_entries(degree).flags.writeable


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
    lam, _ = linalg.hermitian_eig(g)
    assert lam[0] > 1e-3  # symbol minimum of the degree-7 autocorrelation


# --------------------------------------------------------------------------
# stable-sampling verdicts
# --------------------------------------------------------------------------

LADDER = TruncationLadder((32, 64, 128, 256))


def test_verdict_cubic_unperturbed_stable():
    rep = stable_sampling_verdict(CUBIC, INTEGERS, LADDER)
    items = {it.id: it for it in rep.items}
    assert rep.stable and rep.consistent
    target = symbol_min_squared(3, 0.0)
    assert np.isclose(target, 1 / 9, atol=1e-8)
    lam = [v for _, v in items["e"].quantities]
    assert all(b <= a + 1e-15 for a, b in zip(lam, lam[1:]))  # decreasing
    assert abs(lam[-1] - target) <= 0.02 * target
    assert {items[k].verdict for k in "acde"} == {"pass"}
    assert items["b"].verdict == "pass"
    assert "duality-derived" in items["b"].proxy_note


def test_sampling_item_table_pinned():
    # every field of every item but its quantities, cubic B-spline, no shift
    rep = stable_sampling_verdict(CUBIC, INTEGERS, LADDER)
    items = {it.id: it for it in rep.items}
    got = [(c["id"], it.kind, c["verdict"], c["quote"], c["proxy_note"])
           for it, c in zip(rep.items, rep.to_json()["items"])]
    assert got == [
        ("a", "gain", "pass",
         "perturbed samples bound the 2-norm of the shift-invariant slice from "
         "both sides",
         "extremal generalized eigenvalues of (interior autocorrelation Gram, "
         "interior shift Gram): direct two-sided sampling bounds"),
        ("b", "gain", "pass",
         "sup-norm sampling stability (duality-derived, not computed independently)",
         "duality-derived: carries the consensus verdict of the computed items and "
         "is never asserted independently"),
        ("c", "condition", "pass",
         "autocorrelation Gram stays invertible in the 1-norm",
         "interior 1-norm condition number"),
        ("d", "condition", "pass",
         "autocorrelation Gram stays invertible in the max-norm",
         "interior max-norm condition number"),
        ("e", "gain", "pass",
         "autocorrelation Gram stays invertible in the 2-norm",
         "interior smallest eigenvalue"),
    ]
    assert items["b"].quantities == items["e"].quantities
    assert items["d"].quantities == items["c"].quantities


def test_verdict_cubic_half_shift_unstable():
    rep = stable_sampling_verdict(CUBIC, HALF_INTEGERS, LADDER)
    items = {it.id: it for it in rep.items}
    assert not rep.stable and rep.consistent
    assert symbol_min_squared(3, 0.5) <= 1e-8
    lam = [v for _, v in items["e"].quantities]
    assert lam[-1] <= 1e-3
    assert lam[0] / lam[-1] >= 3.0
    assert {items[k].verdict for k in "acde"} == {"fail"}
    conds = [v for _, v in items["c"].quantities]
    assert math.isinf(conds[-1]) or conds[-1] / conds[0] >= 3.0


def test_verdict_box_small_perturbations_stable():
    x = SamplingSet.seeded_uniform(0.49, seed=2)
    rep = stable_sampling_verdict(BOX, x, TruncationLadder((16, 32, 64)))
    assert rep.stable
    g = autocorrelation_gram(BOX, x, 32)
    assert np.array_equal(g.real, np.eye(32))
    assert not rep.generator_continuous  # box accepted despite the jump


def test_verdict_direct_bounds_bracket_symbol_ratio():
    rep = stable_sampling_verdict(CUBIC, INTEGERS, LADDER)
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
                               HALF_INTEGERS])
def test_verdict_items_cde_match_plain_path(x):
    ladder = TruncationLadder((32, 64, 128))
    rep = stable_sampling_verdict(CUBIC, x, ladder)
    items = {it.id: it for it in rep.items}
    for idx, size in enumerate(ladder.sizes):
        interior = slice(rep.trim, size - rep.trim)
        # the complex128 dense oracle this gate was set against: at n = 128,
        # c = 0.5 (lambda_min ~ 1e-4) the real eigh rounds item e 1.2e-12 away
        gi = autocorrelation_gram(CUBIC, x, size)[interior, interior].astype(np.complex128)
        expected = [condition_p(gi, 1), condition_p(gi, math.inf),
                    max(float(linalg.hermitian_eig(gi)[0][0]), 0.0)]
        got = [items[k].quantities[idx][1] for k in "cde"]
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0), size


def dense_witnesses(g, x, ladder, trim):
    """Per size (item a lo, item a hi, c, d, e) from the dense matrices."""
    out = []
    for size in ladder.sizes:
        interior = slice(trim, size - trim)
        gi = autocorrelation_gram(g, x, size)[interior, interior]
        shift = shift_gram(g, size)[interior, interior]
        lam, _ = linalg.hermitian_eig(gi)
        gen = sla.eigh(gi, shift, eigvals_only=True)
        out.append((max(float(gen[0]), 0.0), float(gen[-1]),
                    condition_p(gi, 1), condition_p(gi, math.inf),
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
    st.sampled_from([INTEGERS, HALF_INTEGERS]),
    st.builds(SamplingSet.seeded_uniform, st.floats(0.0, 0.45),
              st.integers(0, 2**31 - 1)),
    st.builds(lambda bound, seed: SamplingSet(
        rule="explicit", explicit=np.random.default_rng(seed).uniform(-bound, bound, 64)),
        st.floats(0.0, 0.45), st.integers(0, 2**31 - 1)),
)


@given(st.sampled_from(sorted(ORACLE_GENERATORS)), delta_rules)
@settings(max_examples=40, deadline=None)
def test_banded_verdict_matches_dense_oracle(name, x):
    g = ORACLE_GENERATORS[name]
    rep = stable_sampling_verdict(g, x, ORACLE_LADDER)
    items = {it.id: it for it in rep.items}
    expected = dense_witnesses(g, x, ORACLE_LADDER, rep.trim)
    for idx, (size, lo, hi) in enumerate(rep.direct_bounds):
        got = (lo, hi) + tuple(items[k].quantities[idx][1] for k in "cde")
        # equal infinities pass: the singular flag must agree exactly
        assert np.allclose(got, expected[idx], rtol=1e-10, atol=0.0), (size, got)
    for k, col in zip("acde", (0, 2, 3, 4)):
        values = [w[col] for w in expected]
        kind = "gain" if k in "ae" else "condition"
        oracle = Witness.from_ladder(k, "", "", ORACLE_LADDER.sizes, values, kind,
                                     frames.TOL_FRAME)
        assert items[k].verdict == oracle.verdict, k


@pytest.mark.parametrize("name", ["tabulated-hat", "tabulated-decay", "tabulated-complex"])
def test_tabulated_shift_row_knots_are_union1d(monkeypatch, name):
    # the breakpoints are merged by a sort and a dedupe, not np.union1d
    # (whose np.unique imports numpy.ma); the knots must be its very floats
    g = ORACLE_GENERATORS[name]
    calls = []
    monkeypatch.setattr(sampling, "generator_eval",
                        recorded(calls, "pts", sampling.generator_eval,
                                 lambda g, t: np.array(t)))
    row = sampling._shift_row(g, 64)
    grid, radius = g._grid(), g.support_radius
    lags = calls[::2]  # the generator is evaluated at pts, then at pts - m
    assert len(lags) == math.ceil(2 * radius) and np.all(row[len(lags):] == 0)
    for m, (_name, pts) in enumerate(lags):
        knots = np.union1d(grid, grid + m)
        knots = knots[(knots >= m - radius) & (knots <= radius)]
        assert pts.size == 2 * knots.size - 1
        assert pts[:knots.size].tobytes() == knots.tobytes(), m


def recorded(calls, name, fn, amount=lambda *args, **kwargs: 1):
    """``fn`` wrapped to append ``(name, amount(*args, **kwargs))`` to
    ``calls`` on every call: the one counter of the sampling budget tests."""
    def wrapper(*args, **kwargs):
        calls.append((name, amount(*args, **kwargs)))
        return fn(*args, **kwargs)
    return wrapper


BUDGET_LADDER = TruncationLadder((128, 256, 512))
BUDGET_SET = SamplingSet.seeded_uniform(0.2, seed=0)


def test_verdict_budget_no_dense_work(monkeypatch):
    # per call: the points are drawn once, for the largest window; nothing
    # is factorized densely; the generator is evaluated only inside the
    # band |l - k| <= ceil(radius + C) of P, not at all n^2 pairs
    calls = []
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "svd"), (np.linalg, "inv"),
                        (sla, "eigh"), (sla, "inv"), (sla, "svdvals")):
        monkeypatch.setattr(owner, name, recorded(calls, name, getattr(owner, name)))
    monkeypatch.setattr(sampling, "generator_eval",
                        recorded(calls, "points", sampling.generator_eval,
                                 lambda g, t: np.size(t)))
    monkeypatch.setattr(SamplingSet, "points",
                        recorded(calls, "draw", SamplingSet.points, lambda x, n: n))
    assert stable_sampling_verdict(CUBIC, BUDGET_SET, BUDGET_LADDER).stable
    width = math.ceil(CUBIC.support_radius + BUDGET_SET.bound)
    assert [c for c in calls if c[0] != "points"] == [("draw", 512)]
    evaluated = sum(n for name, n in calls if name == "points")
    assert evaluated <= sum(n * (2 * width + 1) for n in BUDGET_LADDER.sizes)


def band_work(monkeypatch, g, x, ladder):
    """The verdict, stable and consistent, and what its band kernels did:
    the number of ``pbtrf`` calls, the right-hand-side shapes of
    ``band_condition``'s ``pbtrs`` solves, the number of bisections that
    jumped, and the (rows, order) of every band handed to ``pbtrf`` or
    ``pbtrs``; a ``pbtrs`` band is the factor of the ``pbtrf`` band before
    it.

    Per call it makes 9 bisections, 3 per size: lambda_min(G) and the two
    pencil ends, each warm-started from the previous size.  The gate on the
    generator's symbol makes none.  Before the first bisection, exactly one
    factorization certifies the shift Gram of the largest interior order,
    whose leading sections are every pencil's B, so no bisection factors
    its B; after each size's bisections, one ``band_definite`` call of that
    size's order decides the singular flag, and lambda_max(G) is never
    bisected.  A bisection jumps at most once, with ``BAND_JUMP_SOLVES``
    solves for one vector each."""
    calls = []
    monkeypatch.setattr(linalg, "band_min_eig",
                        recorded(calls, "band_min_eig", linalg.band_min_eig))
    band_lapack = linalg._band_lapack
    kernels = ("band_min_eig", "band_condition", "band_definite")

    def recorded_band_lapack(name, a):
        fn = band_lapack(name, a)
        frame, stack = sys._getframe(1), []  # the band kernels calling, innermost first
        while frame is not None:
            if frame.f_code.co_name in kernels:
                stack.append(frame.f_code.co_name)
            frame = frame.f_back
        if name == "pbtrf":
            return recorded(calls, name, fn, lambda ab, **kw: (ab.shape, tuple(stack)))
        return recorded(calls, f"pbtrs:{stack[0]}", fn,
                        lambda ab, rhs, **kw: (len(ab), rhs.shape))

    monkeypatch.setattr(linalg, "_band_lapack", recorded_band_lapack)
    rep = stable_sampling_verdict(g, x, ladder)
    assert rep.stable and rep.consistent
    assert sum(name == "band_min_eig" for name, _ in calls) == 9
    assert [name for name, _ in calls[:calls.index(("band_min_eig", 1))]] == ["pbtrf"]
    bands, jumps, definite = [], [], []
    for name, amount in calls:
        if name == "pbtrf":
            shape, stack = amount
            bands.append(shape)
            if stack[0] == "band_definite":
                assert "band_min_eig" not in stack  # no bisection factors its B
                definite.append((len(jumps), shape[1]))
        elif name == "band_min_eig":
            jumps.append([])
        else:
            bands.append((amount[0], bands[-1][1]))
            if name == "pbtrs:band_min_eig":
                jumps[-1].append(amount[1])
                assert amount[1] == (bands[-1][1],)
    orders = [size - 2 * rep.trim for size in ladder.sizes]
    assert definite == [(0, orders[-1])] + [(3 * k, n) for k, n in enumerate(orders, 1)]
    assert all(len(solves) in (0, linalg.BAND_JUMP_SOLVES) for solves in jumps)
    return (rep, sum(name == "pbtrf" for name, _ in calls),
            [amount[1] for name, amount in calls if name == "pbtrs:band_condition"],
            sum(map(bool, jumps)), bands)


def plain_factorizations(monkeypatch, g, x, ladder):
    """``pbtrf`` calls of the same verdict with the jump switched off:
    with ``BAND_JUMP_AT`` = 0 no bracket is narrow enough, so every
    bisection runs plain to adjacent floats."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "BAND_JUMP_AT", 0.0)
        _, factorizations, _, jumps, _ = band_work(patch, g, x, ladder)
    assert jumps == 0
    return factorizations


def true_band_rows(g, x, ladder, trim):
    """{interior order: 1 + true bandwidth} per size: the largest |i - j|
    of a nonzero entry of the dense interior autocorrelation Gram or shift
    Gram."""
    out = {}
    for size in ladder.sizes:
        inner = slice(trim, size - trim)
        dense = (autocorrelation_gram(g, x, size), shift_gram(g, size))
        lags = [np.subtract(*np.nonzero(m[inner, inner])) for m in dense]
        out[size - 2 * trim] = 1 + int(np.max(np.abs(np.concatenate(lags))))
    return out


def test_verdict_band_work_budget(monkeypatch):
    # a B-spline's G is totally positive, so its inverse norm takes one
    # solve with one right-hand side per size: 878 rows on this ladder.
    # The bisections after the first size start from the previous size's
    # eigenvalues, and each ends with a Rayleigh-quotient jump: no jump costs
    # more than its two trial points, and where the bottom of the spectrum
    # is separated, as here, the jumps cut the plain bisections'
    # factorizations by 40% and more (418 -> 238).  Every band is stored
    # through its last nonzero diagonal: P[l, k] = beta(x_l - k) vanishes at
    # |x_l - k| >= 2, so G and the shift Gram have bandwidth 3, not
    # 2 ceil(2 + 0.2) = 6.  ``band_work`` checks the one certification of
    # the shift Gram and the one flag factorization per size.
    rep, factorizations, solves, jumps, bands = band_work(monkeypatch, CUBIC, BUDGET_SET,
                                                          BUDGET_LADDER)
    assert solves == [(size - 2 * rep.trim, 1) for size in BUDGET_LADDER.sizes]
    plain = plain_factorizations(monkeypatch, CUBIC, BUDGET_SET, BUDGET_LADDER)
    assert jumps == 9
    assert factorizations <= 0.6 * plain
    rows = true_band_rows(CUBIC, BUDGET_SET, BUDGET_LADDER, rep.trim)
    assert set(rows.values()) == {4}
    assert all(band_rows == rows[n] for band_rows, n in bands)


def test_verdict_band_work_budget_long_ladder(monkeypatch):
    # well conditioned on a long ladder, G^-1 decays into subnormal numbers,
    # which solves against the identity would compute; the one solve does
    # not.  A constant shift makes G Toeplitz, whose lowest eigenvalues
    # crowd together as n grows, so inverse iteration barely turns its
    # vector and most jumps certify nothing: each costs at most its two
    # trial points (366 factorizations, 367 plain)
    ladder = TruncationLadder((2048, 4096, 8192))
    x = SamplingSet(rule="constant", value=0.2)
    rep, factorizations, solves, jumps, _ = band_work(monkeypatch, CUBIC, x, ladder)
    assert solves == [(size - 2 * rep.trim, 1) for size in ladder.sizes]
    assert factorizations <= plain_factorizations(monkeypatch, CUBIC, x, ladder) + 2 * jumps
    assert factorizations <= 400


def test_verdict_band_work_budget_tabulated_blocks(monkeypatch):
    # a tabulated generator carries no total positivity: its inverse norm
    # solves only the trailing rows of each block of at most
    # BAND_SOLVE_BLOCK identity columns.  Its bands are stored through their
    # last nonzero diagonal: the hat's grid reaches 2, but its samples vanish
    # at |t| >= 1, so its bandwidth is 1 (the decay's 19 is clamped to the
    # 10 interior indices of the smallest size).
    ladder = TruncationLadder((32, 64, 128))
    block = linalg.BAND_SOLVE_BLOCK
    for name, expected_rows in (("tabulated-decay", {10, 20}), ("tabulated-hat", {2})):
        g = ORACLE_GENERATORS[name]
        with monkeypatch.context() as patch:
            rep, _, solves, _, bands = band_work(patch, g, BUDGET_SET, ladder)
        assert max(cols for _rows, cols in solves) <= block
        expected = sum((n - s) * min(block, n - s)
                       for n in (size - 2 * rep.trim for size in ladder.sizes)
                       for s in range(0, n, block))
        assert sum(rows * cols for rows, cols in solves) == expected
        rows = true_band_rows(g, BUDGET_SET, ladder, rep.trim)
        assert set(rows.values()) == expected_rows, name
        assert all(band_rows == rows[n] for band_rows, n in bands), name


def test_near_critical_report_values_are_pinned():
    # Degree 5 at c = 0.49 sits near the critical shift: the pencil's
    # lambda_min (item a) is about 2e-3 of ||G||, and a banded Cholesky of
    # G - sigma S succeeds or fails unpredictably over about 1e-12 relative
    # around it, so where a bisection ends inside that band depends on its
    # bracket.  The values are pinned so that a change of bracket rule, of
    # LAPACK or of BLAS shows up as a move here.  ref is lambda_min of the
    # same pencils bisected with an 80-bit long-double band Cholesky.
    rep = stable_sampling_verdict(Generator(degree=5), SamplingSet(rule="constant", value=0.49),
                                  BUDGET_LADDER)
    pinned = [(128, 0.006906792879342156, 0.9999999999988365, 6.148492567689678e-05),
              (256, 0.0031224508142654846, 0.9999999999999845, 2.7703437476406245e-05),
              (512, 0.0022404981126389833, 1.0, 1.986300143683173e-05)]
    ref = [0.0069067928793437655, 0.0031224508142655536, 0.002240498112639907]
    item_e = {item.id: item.quantities for item in rep.items}["e"]
    got = [(size, lo, hi, e) for (size, lo, hi), (_, e) in zip(rep.direct_bounds, item_e)]
    np.testing.assert_allclose(got, pinned, rtol=1e-14, atol=0)
    np.testing.assert_allclose([lo for _, lo, _ in rep.direct_bounds], ref, rtol=5e-13, atol=0)


#: Points that are not in increasing order: delta = +0.7 at even and -0.7 at
#: odd positions, plus noise below 0.2, puts each even-position point to the
#: right of the next one.
UNSORTED = SamplingSet(rule="explicit",
                       explicit=0.7 * (-1.0) ** np.arange(128)
                       + np.random.default_rng(0).uniform(-0.2, 0.2, 128))
CHECKERBOARD_SETS = {
    **{f"constant-{c}": SamplingSet(rule="constant", value=c)
       for c in (0.0, 0.2, 0.45, 0.49, 0.5)},
    "seeded-0.3": SamplingSet.seeded_uniform(0.3, seed=1),
    "seeded-0.45": SamplingSet.seeded_uniform(0.45, seed=2),
    "explicit-unsorted": UNSORTED,
    "explicit-1.4": SamplingSet(rule="explicit",
                                explicit=np.random.default_rng(4).uniform(-1.4, 1.4, 128)),
}


@pytest.mark.parametrize("name", sorted(CHECKERBOARD_SETS))
@pytest.mark.parametrize("degree", range(6))
def test_bspline_item_c_one_solve_matches_block_solves(degree, name):
    # the interior G = P^T P of a B-spline is totally positive, so the one
    # solve against (1, -1, 1, ...) gives the exact inverse norm
    g, x = Generator(degree=degree), CHECKERBOARD_SETS[name]
    trim = math.ceil(g.support_radius) + math.ceil(x.bound)
    width = math.ceil(g.support_radius + x.bound)
    for size in (40, 128):
        band = sampling._interior_gram_band(g, x.points(size), width, trim)
        try:
            expected = linalg.band_condition(band)
        except NumericalFailureError:  # G is singular: both paths fail alike
            with pytest.raises(NumericalFailureError):
                linalg.band_condition(band, checkerboard=True)
            continue
        got = linalg.band_condition(band, checkerboard=True)
        assert got == pytest.approx(expected, rel=1e-12), size


@pytest.mark.parametrize("degree", range(6))
def test_bspline_gram_inverse_has_checkerboard_signs(degree):
    # the premise of the one solve, on unsorted points: (-1)^(i+j) (G^-1)_ij
    # >= 0 up to rounding
    g, size = Generator(degree=degree), 24
    trim = math.ceil(g.support_radius) + math.ceil(UNSORTED.bound)
    gi = autocorrelation_gram(g, UNSORTED, size)[trim:size - trim, trim:size - trim]
    assert np.all(gi.imag == 0.0)
    inv = np.linalg.inv(gi.real)
    n = inv.shape[0]
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    assert np.min(signs * inv) >= -1e-12 * np.max(np.abs(inv))


def per_point_deltas(x: SamplingSet, n: int) -> list:
    """The seeded-uniform stream drawn one generator per point: delta_k is
    the first uniform draw of default_rng((seed, k mod 2^32)).  The oracle
    of the vectorized draw."""
    return [np.random.default_rng((x.seed, int(k) & 0xFFFFFFFF)).uniform(-x.bound, x.bound)
            for k in x.window(n)]


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 1,
                                  2**128 + 3, 2**200 + 12345])
def test_seeded_uniform_delta_stream_unchanged(seed):
    # seeds of more than 3 words give more than 4 entropy words, which
    # SeedSequence mixes into its pool after the first four
    for n in (1, 2, 7, 512):
        x = SamplingSet.seeded_uniform(0.2, seed)
        assert np.array_equal(x.deltas(n), per_point_deltas(x, n)), n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**256 - 1), n=st.integers(1, 1100),
       bound=st.sampled_from([0.0, 5e-324, 0.2, 0.49]))
def test_seeded_uniform_draw_matches_per_point_generators(seed, n, bound):
    x = SamplingSet.seeded_uniform(bound, seed)
    assert np.array_equal(x.deltas(n), per_point_deltas(x, n))


def test_verdict_builds_no_per_point_generator(monkeypatch):
    # the seeded-uniform draw is one vectorized pass: no numpy generator,
    # seed sequence or bit generator is built, per point or at all
    calls = []
    for name in ("default_rng", "SeedSequence", "PCG64"):
        monkeypatch.setattr(np.random, name,
                            recorded(calls, name, getattr(np.random, name)))
    assert stable_sampling_verdict(CUBIC, BUDGET_SET, BUDGET_LADDER).stable
    assert calls == []


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
        "generator": {"kind": "tabulated", "grid": {
            "samples": [[v, 0.0] for v in decay.samples.tolist()],
            "step": 0.5, "decay_s": 2.5}},
        "delta_rule": {"kind": "seeded-uniform", "bound": 0.2, "seed": 0},
        "ladder": list(ladder.sizes)}), encoding="utf-8")
    assert cli.main(["sampling", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["stable"] is True and rep["consistent"] is True


def test_verdict_trim_guard():
    with pytest.raises(LadderTooShortError):
        stable_sampling_verdict(CUBIC, INTEGERS,
                                TruncationLadder((4, 8)))


def test_generator_suitability_gate():
    # the cubic's symbol minimum is 17/315 = 0.05397: above the default tol,
    # below tol = 1
    ladder = TruncationLadder((32, 64))
    with pytest.raises(GeneratorUnsuitableError) as failure:
        stable_sampling_verdict(CUBIC, INTEGERS, ladder, tol=1.0)
    assert str(failure.value) == ("integer shifts fail the Riesz check: symbol minimum "
                                  "5.397e-02 <= 1")
    rep = stable_sampling_verdict(CUBIC, INTEGERS, ladder)
    assert rep.generator_continuous is True


def tan_coefficients(count):
    """t_0 .. t_(count - 1) of tan x = sum_n t_n x^(2n+1), in exact
    fractions, from tan' = 1 + tan^2."""
    t = [Fraction(1)]
    for n in range(1, count):
        t.append(sum(t[j] * t[n - 1 - j] for j in range(n)) / (2 * n + 1))
    return t


@pytest.mark.parametrize("degree", range(11))
def test_bspline_symbol_minimum_is_a_tan_coefficient(degree):
    lo, hi = sampling._symbol_min(Generator(degree=degree), None, frames.TOL_FRAME, 0)
    exact = tan_coefficients(degree + 1)[degree]
    assert lo == hi
    assert abs(Fraction(lo) - exact) <= Fraction(1e-15) * exact
    # the closed form at xi = 1/2, and the shift row's symbol there, whose
    # alternating sum cancels (6e-13 relative at degree 10)
    n = 2 * degree + 2
    assert lo == pytest.approx(2 * (2 / math.pi) ** n * (1 - 2.0 ** -n) * zeta(n), rel=1e-14)
    row = sampling._shift_row(Generator(degree=degree), degree + 1)
    alternating = row[0] + 2 * np.sum((-1.0) ** np.arange(1, degree + 1) * row[1:])
    assert lo == pytest.approx(alternating, rel=1e-11)


def test_shift_gram_sections_fall_to_the_symbol_minimum():
    # every section's lambda_min bounds the symbol minimum from above, and
    # converges to it as the section grows
    lo, _ = sampling._symbol_min(CUBIC, None, frames.TOL_FRAME, 0)
    minima = [float(np.linalg.eigvalsh(shift_gram(CUBIC, n))[0]) for n in (64, 128, 512)]
    np.testing.assert_allclose(minima, [5.430e-2, 5.405e-2, 5.397e-2], rtol=0, atol=5e-6)
    assert lo < minima[2] < minima[1] < minima[0]
    assert minima[2] - lo < 0.02 * (minima[0] - lo)


@pytest.mark.parametrize("name", ["tabulated-hat", "tabulated-decay", "tabulated-complex",
                                  "zero"])
def test_tabulated_symbol_bounds_hold_the_fine_grid_minimum(name):
    g = {**ORACLE_GENERATORS, "zero": Generator(kind="tabulated", samples=np.zeros(5))}[name]
    row = sampling._shift_row(g, math.ceil(2 * g.support_radius))
    lo, hi = sampling._symbol_min(g, row, frames.TOL_FRAME, 10 ** 6)
    n = 2 ** 16
    symbol = row[0].real + 2 * (np.exp(2j * np.pi * np.outer(np.arange(n) / n,
                                                              np.arange(1, row.size)))
                                @ row[1:]).real
    fine = float(np.min(symbol))
    assert lo <= fine <= hi + 1e-15
    if name == "tabulated-hat":  # the linear B-spline, whose minimum is t_1
        assert fine == pytest.approx(1 / 3, rel=1e-15) and hi == pytest.approx(1 / 3, rel=1e-15)
    if name == "zero":
        assert (lo, hi) == (0.0, 0.0)


@pytest.mark.parametrize("degree, tol, sizes, message", [
    (26, frames.TOL_FRAME, (32, 70), "symbol minimum 5.135e-11 <= 1e-10"),
    (25, 1.3e-10, (60, 90), "symbol minimum 1.267e-10 <= 1.3e-10"),
])
def test_riesz_gate_rejects_generators_whose_sections_pass(degree, tol, sizes, message):
    # the largest interior shift-Gram section clears tol, but the symbol
    # minimum, the integer shifts' lower Riesz bound, does not
    g = Generator(degree=degree)
    section = shift_gram(g, sizes[-1] - 2 * math.ceil(g.support_radius))
    assert np.linalg.eigvalsh(section)[0] > tol
    with pytest.raises(GeneratorUnsuitableError) as failure:
        stable_sampling_verdict(g, INTEGERS, TruncationLadder(sizes), tol=tol)
    assert str(failure.value) == f"integer shifts fail the Riesz check: {message}"


def test_riesz_gate_states_the_interval_it_cannot_decide():
    # tol between the hat's certified lower bound at the largest grid the
    # band allows (M = 64) and its minimum 1/3: no verdict, exit 4
    g = ORACLE_GENERATORS["tabulated-hat"]
    with pytest.raises(GeneratorUnsuitableError) as failure:
        stable_sampling_verdict(g, INTEGERS, TruncationLadder((16, 32)),
                                tol=0.333)
    assert str(failure.value) == ("integer shifts fail the Riesz check: symbol minimum in "
                                  "[3.329e-01, 3.333e-01], not certified above 0.333")
    # a longer ladder leaves room for a finer grid, which decides
    rep = stable_sampling_verdict(g, INTEGERS, TruncationLadder((64, 128)),
                                  tol=0.333)
    assert rep.generator_continuous


def test_large_degree_exits_4_before_any_shift_row(tmp_path, monkeypatch, capsys):
    # t_1000 underflows to 0: the gate decides from the degree alone
    calls = []
    for module, name in ((sampling, "_bspline_shift_entries"),
                         (sampling, "_interior_gram_band"), (linalg, "band_min_eig")):
        monkeypatch.setattr(module, name, recorded(calls, name, getattr(module, name)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "bspline", "degree": 1000},
                               "ladder": [1008, 2016]}), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["sampling", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert (code, calls) == (4, [])
    assert time.perf_counter() - start < 0.1
    assert ("integer shifts fail the Riesz check: symbol minimum 0.000e+00 <= 1e-10"
            in capsys.readouterr().err)


def test_shift_gram_is_certified_once_before_any_bisection(tmp_path, monkeypatch, capsys):
    # t_44 = 4.5e-18 passes the symbol gate at tol 1e-18, but the shift
    # Gram's rounding errors are larger than its lambda_min: the one
    # factorization of its largest interior section (256 - 2 * 23) fails,
    # and no pencil is ever bisected with that B
    calls = []
    monkeypatch.setattr(linalg, "band_min_eig",
                        recorded(calls, "band_min_eig", linalg.band_min_eig))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": {"kind": "bspline", "degree": 44},
                               "ladder": [128, 256]}), encoding="utf-8")
    code = cli.main(["sampling", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--tol-frame", "1e-18"])
    assert (code, calls) == (4, [])
    assert capsys.readouterr().err == (
        "precondition failure: integer shifts fail the Riesz check: their Gram section of "
        "order 210 is not numerically positive definite\n")


HAT5 = np.array([0.0, 0.5, 1.0, 0.5, 0.0])


def _clustered_deltas():
    """32 explicit deltas (bound 2) that move the points of indices -2 .. 2
    to within 2e-5 of 0, so five samples of the generator land there."""
    d = np.zeros(32)
    k = np.arange(-2, 3)
    d[16 + k] = -k + 1e-5 * k
    return SamplingSet(rule="explicit", explicit=d)


@pytest.mark.parametrize("samples, x, what", [
    # the shift Gram integrates |g|^2: 1e320
    (1e160 * HAT5, INTEGERS, "shift Gram entries"),
    # the shift Gram stays below 3.5 s^2 < 1.8e308; G[0, 0] sums five
    # samples of about s^2 = 4e307 each
    (math.sqrt(4e307) * HAT5, _clustered_deltas(), "autocorrelation Gram entries"),
    # the shift row stays below 7.5e306, but the symbol's certified lower
    # bound subtracts pi^2 sum_m m^2 |a_m| / M^2 from pi^2 sum_m m^2 |a_m| =
    # 3.1e308
    (math.sqrt(1e307) * (1.0 + np.abs(_HALF13)) ** -2.0, INTEGERS,
     "shift Gram symbol bounds"),
], ids=["shift-row", "gram-band", "symbol"])
def test_overflowing_gram_is_a_numerical_failure(monkeypatch, samples, x, what):
    # finite samples whose Gram band leaves the float range fail before any
    # bisection, with no RuntimeWarning (warnings are errors here)
    g = Generator(kind="tabulated", samples=samples, step=0.5)
    calls = []
    monkeypatch.setattr(linalg, "band_min_eig",
                        recorded(calls, "band_min_eig", linalg.band_min_eig))
    with pytest.raises(NumericalFailureError, match=f"^{what} overflow the float range$"):
        stable_sampling_verdict(g, x, TruncationLadder((16, 32)))
    assert calls == []


def test_riesz_gate_runs_before_the_gram_band_is_built(monkeypatch):
    # the gram-band case above with a tol its symbol fails: the gate
    # decides (exit 4, not the overflow's exit 3) and G is never built
    g = Generator(kind="tabulated", samples=math.sqrt(4e307) * HAT5, step=0.5)
    calls = []
    monkeypatch.setattr(sampling, "_interior_gram_band",
                        recorded(calls, "gram", sampling._interior_gram_band))
    with pytest.raises(GeneratorUnsuitableError, match="Riesz check"):
        stable_sampling_verdict(g, _clustered_deltas(), TruncationLadder((16, 32)), tol=1e308)
    assert calls == []


def test_clustered_points_take_the_singular_flag_through_the_cli(tmp_path):
    # five points within 2e-5 of 0 make the hat's G singular at every size:
    # items c and d take the singular flag, written "singular" in the JSON
    # report and in the witness CSV
    cfg, out = tmp_path / "cfg.json", tmp_path / "rep.json"
    cfg.write_text(json.dumps({
        "generator": {"kind": "bspline", "degree": 1},
        "delta_rule": {"kind": "explicit", "deltas": _clustered_deltas().explicit.tolist()},
        "ladder": [16, 32]}), encoding="utf-8")
    assert cli.main(["sampling", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text(encoding="utf-8"))
    assert rep["stable"] is False and rep["consistent"] is True
    zero, singular = [[16, 0.0], [32, 0.0]], [[16, "singular"], [32, "singular"]]
    assert [(it["id"], it["verdict"], it["quantities"]) for it in rep["items"]] == [
        ("a", "fail", zero), ("b", "fail", zero), ("c", "fail", singular),
        ("d", "fail", singular), ("e", "fail", zero)]
    assert (tmp_path / "rep.csv").read_text(encoding="utf-8") == (
        "size,item_a,item_b,item_c,item_d,item_e\n"
        "16,0.0,0.0,singular,singular,0.0\n"
        "32,0.0,0.0,singular,singular,0.0\n")


def band_dense(ab):
    """The dense Hermitian matrix that a lower band stores."""
    n = ab.shape[1]
    dense = np.diag(ab[0].real).astype(ab.dtype)
    for d in range(1, len(ab)):
        dense += np.diag(ab[d, :n - d], -d) + np.diag(np.conj(ab[d, :n - d]), d)
    return dense


@st.composite
def semidefinite_bands(draw):
    """A positive semidefinite band: the clustered hat's interior G, singular
    but for rounding (``_clustered_deltas``), or a random real or complex
    band shifted to a smallest eigenvalue in [0, 1]."""
    if draw(st.booleans()):
        g, x = Generator(degree=1), _clustered_deltas()
        trim = math.ceil(g.support_radius) + math.ceil(x.bound)
        return sampling._interior_gram_band(g, x.points(draw(st.sampled_from((16, 32)))),
                                            math.ceil(g.support_radius + x.bound), trim)
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(0, min(5, n - 1))) + 1, n)
    ab = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ab = ab.real.copy() if draw(st.booleans()) else ab
    ab[0] = ab[0].real
    ab[0] -= np.linalg.eigvalsh(band_dense(ab))[0] - draw(st.floats(0.0, 1.0))
    return ab


@given(semidefinite_bands(), st.one_of(st.just(0.0), st.floats(0.5, 1.5)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_singular_flag_is_one_factorization(gram, ratio):
    # the verdict's singular flag: lam <= TOL_SING lambda_max(G) exactly when
    # lam I - TOL_SING G is not positive definite, up to the rounding of
    # the factorization and of the dense eigensolve next to the threshold
    threshold = linalg.TOL_SING * np.linalg.eigvalsh(band_dense(gram))[-1]
    lam = ratio * threshold
    if abs(lam - threshold) <= 1e-10 * abs(threshold):
        return
    flag = -linalg.TOL_SING * gram
    flag[0] += lam
    assert linalg.band_definite(flag) is (not lam <= threshold)


def test_sampling_report_json_and_csv():
    rep = stable_sampling_verdict(CUBIC, HALF_INTEGERS,
                                  TruncationLadder((32, 64)))
    js = rep.to_json()
    assert js["stable"] is False
    assert [it["id"] for it in js["items"]] == ["a", "b", "c", "d", "e"]
    csv = rep.witness_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "size,item_a,item_b,item_c,item_d,item_e"
    assert len(lines) == 3
    # the singular flag of a condition witness is math.inf; the JSON item and
    # the same cell of the witness CSV both write it as "singular"
    c = rep.items[2]
    flagged = replace(c, quantities=(c.quantities[0], (64, math.inf)))
    rep = replace(rep, items=tuple(flagged if it is c else it for it in rep.items))
    assert rep.to_json()["items"][2]["quantities"] == [[32, c.quantities[0][1]],
                                                      [64, "singular"]]
    rows = [line.split(",") for line in rep.witness_csv().splitlines()]
    assert rows[0][3] == "item_c"
    assert rows[1][3] == repr(c.quantities[0][1])
    assert rows[2][3] == "singular"
    assert "singular" not in rows[2][:3] + rows[2][4:]
