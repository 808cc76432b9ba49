"""Localization tests: decay norms, solidity, ladders, exponent fitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framebench import linalg, localization, sampling
from framebench.errors import BadExponentError, InsufficientDataError
from framebench.frames import TruncationLadder, VectorFamily
from framebench.localization import (
    LocalizationProfile,
    WeightSpec,
    fit_decay_exponent,
    jaffard_norm,
    schur_norm,
)
from oracles import mutual_localization, shift_gram

UNIT_WEIGHT = WeightSpec(form="subexponential", rate=0.0)


def offsets(n):
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


def naive_jaffard(a, s):
    a = np.asarray(a)
    best = 0.0
    for k in range(a.shape[0]):
        for l in range(a.shape[1]):
            best = max(best, abs(a[k, l]) * (1 + abs(k - l)) ** s)
    return best


def naive_schur(a, w):
    a = np.asarray(a)
    rows = [sum(abs(a[k, l]) * w(k - l) for l in range(a.shape[1]))
            for k in range(a.shape[0])]
    cols = [sum(abs(a[k, l]) * w(k - l) for k in range(a.shape[0]))
            for l in range(a.shape[1])]
    return max(max(rows), max(cols))


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_jaffard_identity():
    for s in (1.5, 2.0, 4.0):
        assert jaffard_norm(np.eye(6), s) == 1.0


def test_jaffard_exact_cancellation():
    a = (1.0 + offsets(10)) ** -2.0
    assert abs(jaffard_norm(a, 2.0) - 1.0) <= 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_jaffard_matches_naive_loop(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((7, 7)) * (offsets(7) <= 2)
    assert np.isclose(jaffard_norm(a, 2.5), naive_jaffard(a, 2.5), rtol=1e-13)


def test_jaffard_rejects_small_exponent():
    with pytest.raises(BadExponentError):
        jaffard_norm(np.eye(3), 1.0)
    with pytest.raises(BadExponentError):
        LocalizationProfile(kind="jaffard", s=0.5)


def test_jaffard_monotone_in_exponent():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    assert jaffard_norm(a, 1.5) <= jaffard_norm(a, 2.0) <= jaffard_norm(a, 3.0)


def test_schur_identity_unit_weight():
    assert schur_norm(np.eye(4), UNIT_WEIGHT) == 1.0


def test_schur_all_ones():
    assert schur_norm(np.ones((3, 3)), UNIT_WEIGHT) == 3.0


def test_schur_tridiagonal_matches_naive():
    n = 6
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    w = WeightSpec(form="polynomial", delta=1.0)
    assert np.isclose(schur_norm(a, w), naive_schur(a, lambda x: 1 + abs(x)),
                      rtol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_schur_unit_weight_equals_max_of_operator_norms(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    lhs = schur_norm(a, UNIT_WEIGHT)
    rhs = max(np.max(linalg.line_sums(a.T)), np.max(linalg.line_sums(a)))
    assert lhs == rhs  # exact: identical slice summation


LAYOUTS = ("C", "F", "transposed", "strided")


def matrix_in_layout(seed, rows, cols, layout):
    """rows x cols complex matrix with moduli spread over twelve decades,
    stored C-contiguous, Fortran-contiguous, as a transposed view or as a
    strided slice of a larger array."""
    rng = np.random.default_rng(seed)
    shape = {"transposed": (cols, rows), "strided": (2 * rows, 3 * cols)}.get(
        layout, (rows, cols))
    base = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            * 10.0 ** rng.uniform(-6, 6, shape))
    if layout == "F":
        return np.asfortranarray(base)
    if layout == "transposed":
        return base.T
    if layout == "strided":
        return base[::2, ::3]
    return base


def per_line_abs_sums(a):
    """Row sums of |a|, each row copied contiguous and reduced on its own:
    the per-line definition ``linalg.line_sums`` and the Schur norm are
    pinned to.
    numpy only unrolls sums above 8 terms and splits them pairwise above 128,
    so rows that long make any other summation order visible."""
    return [float(np.add.reduce(np.abs(np.ascontiguousarray(row)))) for row in a]


@given(st.builds(matrix_in_layout, st.integers(0, 2**31 - 1), st.integers(1, 300),
                 st.integers(1, 300), st.sampled_from(LAYOUTS)))
@settings(max_examples=40, deadline=None)
def test_line_sums_bitwise_over_shapes_and_layouts(a):
    cols, rows = per_line_abs_sums(a.T), per_line_abs_sums(a)
    assert linalg.line_sums(a.T).tolist() == cols
    assert linalg.line_sums(a.conj().T).tolist() == cols
    assert linalg.line_sums(a).tolist() == rows
    assert schur_norm(a, UNIT_WEIGHT) == max(max(cols), max(rows))
    w = WeightSpec(form="polynomial", delta=0.5)
    mw = np.abs(a) * w(np.subtract.outer(np.arange(a.shape[0]), np.arange(a.shape[1])))
    assert schur_norm(a, w) == max(per_line_abs_sums(mw) + per_line_abs_sums(mw.T))


def test_norms_invariant_under_conjugation_and_modulus():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    w = WeightSpec(form="polynomial", delta=0.5)
    for f in (np.conj, np.abs):
        assert jaffard_norm(f(a), 2.0) == jaffard_norm(a, 2.0)
        assert schur_norm(f(a), w) == schur_norm(a, w)


# --------------------------------------------------------------------------
# solidity: entrywise domination implies norm domination, exactly
# --------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_solidity_on_masked_pairs(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = a * (rng.random((8, 8)) < 0.6)
    w = WeightSpec(form="polynomial", delta=1.0)
    assert jaffard_norm(b, 2.0) <= jaffard_norm(a, 2.0)
    assert schur_norm(b, w) <= schur_norm(a, w)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_solidity_property_with_shrunk_moduli(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = a * rng.random((n, n))  # |b| <= |a| entrywise
    assert jaffard_norm(b, 1.5) <= jaffard_norm(a, 1.5)
    assert schur_norm(b, UNIT_WEIGHT) <= schur_norm(a, UNIT_WEIGHT)


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------

def test_weight_validation():
    with pytest.raises(BadExponentError):
        WeightSpec(form="polynomial", delta=0.0)
    with pytest.raises(BadExponentError):
        WeightSpec(form="subexponential", power=1.5)
    w = WeightSpec(form="subexponential", rate=0.3, power=0.5)
    assert w(0) == 1.0
    assert np.allclose(w(-4), w(4))
    assert np.all(w(np.arange(10)) >= 1.0)


@pytest.mark.parametrize("profile", [
    LocalizationProfile(kind="jaffard", s=3.5),
    LocalizationProfile(kind="schur", weight=WeightSpec(form="polynomial", delta=0.75)),
    LocalizationProfile(kind="schur", weight=WeightSpec(form="subexponential", rate=0.3,
                                                        power=0.4)),
], ids=["jaffard", "schur-polynomial", "schur-subexponential"])
def test_localization_profile_json_roundtrip(profile):
    again = LocalizationProfile.from_json(json.loads(json.dumps(profile.to_json())))
    for name, value in vars(profile).items():
        assert getattr(again, name) == value, name


@pytest.mark.parametrize("build, field", [
    (lambda: LocalizationProfile(kind="jaffard", s=math.nan), "'s'"),
    (lambda: LocalizationProfile(kind="jaffard", s=math.inf), "'s'"),
    (lambda: WeightSpec(form="polynomial", delta=math.inf), "'delta'"),
    (lambda: WeightSpec(form="subexponential", rate=math.nan), "'rate'"),
    (lambda: WeightSpec(form="subexponential", power=-math.inf), "'power'"),
])
def test_profile_rejects_non_finite_numbers(build, field):
    # a non-finite exponent or weight parameter is malformed input, not a
    # norm that comes out nan
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        build()


def test_constructors_store_real_fields_as_floats():
    # the records own the number rule, so a library int is stored as the
    # float a JSON config gives, and reports print 3.0 on every path
    assert type(WeightSpec(delta=1).delta) is float
    assert type(WeightSpec(form="subexponential", rate=1).rate) is float
    assert type(LocalizationProfile(s=3).s) is float
    tab = sampling.Generator(kind="tabulated", samples=[0.0, 0.5, 1.0, 0.5, 0.0],
                             step=1, decay_s=3)
    assert type(tab.step) is float and type(tab.decay_s) is float
    assert json.dumps(LocalizationProfile(s=3).to_json()) == '{"kind": "jaffard", "s": 3.0}'
    assert json.dumps(LocalizationProfile.from_json({"s": 3}).to_json()) == \
        '{"kind": "jaffard", "s": 3.0}'


# --------------------------------------------------------------------------
# cross-Gram localization ladders (the oracle loop over ladder_verdict)
# --------------------------------------------------------------------------

PROFILE = LocalizationProfile(kind="jaffard", s=2.0)
LADDER = TruncationLadder((8, 16, 32, 64))


def test_mutual_localization_onb_pair():
    norms, verdict = mutual_localization(
        lambda n: (VectorFamily.onb(n), VectorFamily.onb(n)), PROFILE, LADDER)
    assert norms == [1.0] * len(LADDER.sizes)
    assert verdict == "localized"


def test_mutual_localization_harmonic_family():
    def gen(n):
        psi = VectorFamily(np.diag(1.0 / np.arange(1, n + 1)))
        return psi, VectorFamily.onb(n)

    norms, verdict = mutual_localization(gen, PROFILE, LADDER)
    assert norms == [1.0] * len(LADDER.sizes)
    assert verdict == "localized"


def test_mutual_localization_detects_slow_decay():
    # entries (1+|k-l|)^{-1.5} against exponent 2: norms grow like sqrt(size)
    def gen(n):
        psi = VectorFamily((1.0 + offsets(n)) ** -1.5)
        return psi, VectorFamily.onb(n)

    norms, verdict = mutual_localization(gen, PROFILE, LADDER)
    assert np.allclose(norms, np.sqrt(LADDER.sizes), rtol=1e-12)
    assert verdict == "growth-detected"


# --------------------------------------------------------------------------
# decay-exponent fitting
# --------------------------------------------------------------------------

def test_fit_exact_power_law():
    a = (1.0 + offsets(16)) ** -3.0
    assert abs(fit_decay_exponent(a) - 3.0) <= 1e-9


def test_fit_identity_insufficient():
    with pytest.raises(InsufficientDataError):
        fit_decay_exponent(np.eye(8))


def test_fit_cubic_bspline_shift_gram():
    g = shift_gram(sampling.Generator(kind="bspline", degree=3), 64)
    fitted = fit_decay_exponent(g)
    assert fitted >= 3.0
    assert fitted <= localization.MAX_DECAY_EXPONENT


def naive_decay_exponent(a):
    m = np.abs(a)
    off = np.abs(np.subtract.outer(np.arange(m.shape[0]), np.arange(m.shape[1])))
    rs = [r for r in range(1, int(off.max()) + 1) if m[off == r].max() > 0]
    ys = [m[off == r].max() for r in rs]
    slope = np.polyfit(-np.log1p(np.asarray(rs, dtype=float)), np.log(ys), 1)[0]
    return float(np.clip(slope, -localization.MAX_DECAY_EXPONENT,
                         localization.MAX_DECAY_EXPONENT))


def test_fit_matches_per_offset_loop_on_rectangular_complex():
    rng = np.random.default_rng(11)
    off = np.abs(np.subtract.outer(np.arange(37), np.arange(90)))
    a = ((rng.standard_normal(off.shape) + 1j * rng.standard_normal(off.shape))
         * (1.0 + off) ** -2.5 * (off <= 60))  # offsets 61..89 have no entries
    assert fit_decay_exponent(a) == naive_decay_exponent(a)
    assert fit_decay_exponent(a.T) == naive_decay_exponent(a.T)
