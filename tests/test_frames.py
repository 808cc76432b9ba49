"""Frame-core tests: Gram identities, bounds, serialization, and the dense
dual and frame-operator-power oracles.

Oracles: naive double/triple loops over inner products, Monte-Carlo Rayleigh
quotients, the 2x2 closed-form spectrum, and eigenvalue brackets.
"""

import math

import numpy as np
import pytest

from framebench import frames, linalg
from framebench.errors import DimensionMismatchError, LadderTooShortError, NumericalFailureError
from framebench.frames import TruncationLadder, VectorFamily
from oracles import canonical_dual, inner, power


def random_family(n, m, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return VectorFamily(np.eye(n, m) + spread * c / math.sqrt(n), label=f"rand{seed}")


def riesz_basis(n, seed, eps=0.4):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e *= eps / linalg.pnorm_operator(e)
    return VectorFamily(np.eye(n) + e, label=f"riesz{seed}")


def naive_cross_gram(psi, phi):
    g = np.empty((psi.member_count, phi.member_count), dtype=complex)
    for k in range(psi.member_count):
        for l in range(phi.member_count):
            g[k, l] = inner(phi.coeffs[:, l], psi.coeffs[:, k])
    return g


# --------------------------------------------------------------------------
# Gram matrices
# --------------------------------------------------------------------------

def test_cross_gram_onb_is_identity():
    e = VectorFamily.onb(5)
    assert np.array_equal(frames.cross_gram(e, e), np.eye(5))


def test_cross_gram_scaling():
    e = VectorFamily.onb(4)
    assert np.allclose(frames.cross_gram(VectorFamily(2.0 * e.coeffs), e), 2.0 * np.eye(4))


@pytest.mark.parametrize("seed", range(3))
def test_cross_gram_matches_naive_loop(seed):
    psi = random_family(6, 5, seed)
    phi = random_family(6, 5, seed + 100)
    assert np.allclose(frames.cross_gram(psi, phi), naive_cross_gram(psi, phi),
                       atol=1e-14)


def test_cross_gram_adjoint_identity():
    psi = random_family(7, 7, 1)
    phi = random_family(7, 7, 2)
    assert np.max(np.abs(frames.cross_gram(psi, phi).conj().T -
                         frames.cross_gram(phi, psi))) <= 1e-14


def test_cross_gram_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        frames.cross_gram(VectorFamily.onb(3), VectorFamily.onb(4))


def test_gram_is_cross_gram_with_itself():
    psi = random_family(5, 5, 9)
    assert np.array_equal(frames.gram(psi), frames.cross_gram(psi, psi))


def test_gram_diagonal_family():
    f = VectorFamily(np.diag(1.0 / np.arange(1, 5)))
    assert np.allclose(frames.gram(f), np.diag([1, 1 / 4, 1 / 9, 1 / 16]))


def test_gram_hermitian_psd():
    g = frames.gram(random_family(8, 8, 3))
    assert np.max(np.abs(g - g.conj().T)) <= 1e-14
    assert linalg.hermitian_eigvals(g)[0] >= -1e-12


# --------------------------------------------------------------------------
# frame operator and bounds
# --------------------------------------------------------------------------

def test_frame_operator_onb_and_repeats():
    assert np.array_equal(frames.frame_operator(VectorFamily.onb(3)), np.eye(3))
    twice = VectorFamily(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(frames.frame_operator(twice), np.diag([2.0, 0.0]))


def test_frame_operator_is_synthesis_after_analysis_columnwise():
    psi = random_family(5, 5, 12)
    s = frames.frame_operator(psi)
    for j in range(5):
        # analysis: the coefficients <e_j, psi_k>; synthesis: their sum over psi_k
        coeffs = [inner(np.eye(5)[j], psi.coeffs[:, k]) for k in range(5)]
        col = sum(c * psi.coeffs[:, k] for k, c in enumerate(coeffs))
        assert np.allclose(s[:, j], col, atol=1e-13)


def test_frame_bounds_onb():
    b = frames.frame_bounds(VectorFamily.onb(6))
    assert (b.lower, b.upper) == (1.0, 1.0)


def test_frame_bounds_harmonic_diagonal():
    # member k scaled by 1/k against an ONB: spectrum {1/k^2}
    n = 8
    fam = VectorFamily(np.diag(1.0 / np.arange(1, n + 1)))
    b = frames.frame_bounds(fam)
    assert np.isclose(b.lower, 1.0 / n**2, rtol=1e-12)
    assert np.isclose(b.upper, 1.0, rtol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_frame_bounds_bracket_rayleigh_quotients(seed):
    psi = random_family(6, 6, seed, spread=0.8)
    b = frames.frame_bounds(psi)
    s = frames.frame_operator(psi)
    rng = np.random.default_rng(seed + 50)
    for _ in range(1000):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f /= np.linalg.norm(f)
        q = inner(s @ f, f).real
        assert b.lower - 1e-10 <= q <= b.upper + 1e-10


def test_riesz_bounds_two_member_closed_form():
    fam = VectorFamily(np.array([[1.0, 1 / math.sqrt(2)],
                                 [0.0, 1 / math.sqrt(2)]]))
    b = frames.riesz_bounds(fam)
    assert np.isclose(b.lower, 1 - 1 / math.sqrt(2), rtol=1e-12)
    assert np.isclose(b.upper, 1 + 1 / math.sqrt(2), rtol=1e-12)


def test_riesz_bounds_collapse_for_harmonic_family():
    n = 16
    fam = VectorFamily(np.diag(1.0 / np.arange(1, n + 1)))
    b = frames.riesz_bounds(fam)
    assert np.isclose(b.lower, 1.0 / n**2, rtol=1e-12)


def test_frame_and_gram_spectra_agree_on_nonzeros():
    psi = random_family(7, 5, 31)  # rectangular: 5 members in dim 7
    se, _ = linalg.hermitian_eig(frames.frame_operator(psi))
    ge, _ = linalg.hermitian_eig(frames.gram(psi))
    # frame operator has ambient_dim - member_count extra (near-)zeros
    assert np.allclose(se[2:], ge, atol=1e-10 * max(ge.max(), 1.0))
    assert np.allclose(se[:2], 0.0, atol=1e-10)


# --------------------------------------------------------------------------
# the dense canonical-dual and frame-operator-power oracles
# --------------------------------------------------------------------------

def test_canonical_dual_onb_and_scaling():
    e = VectorFamily.onb(4)
    assert np.allclose(canonical_dual(e).coeffs, e.coeffs)
    doubled = VectorFamily(2.0 * e.coeffs)
    assert np.allclose(canonical_dual(doubled).coeffs, 0.5 * np.eye(4))


@pytest.mark.parametrize("seed", range(3))
def test_canonical_dual_reconstructs(seed):
    psi = riesz_basis(6, seed)
    dual = canonical_dual(psi)
    rng = np.random.default_rng(seed + 5)
    for _ in range(10):
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        # synthesis over one family of the analysis coefficients against the other
        rec1 = psi.coeffs @ (dual.coeffs.conj().T @ f)
        rec2 = dual.coeffs @ (psi.coeffs.conj().T @ f)
        assert np.linalg.norm(rec1 - f) <= 1e-8 * np.linalg.norm(f)
        assert np.linalg.norm(rec2 - f) <= 1e-8 * np.linalg.norm(f)


def test_canonical_dual_involution():
    psi = riesz_basis(5, 8)
    again = canonical_dual(canonical_dual(psi))
    assert np.max(np.abs(again.coeffs - psi.coeffs)) <= linalg.TOL_CALC


def test_power_transform_onb_fixed_point():
    e = VectorFamily.onb(5)
    for alpha in (-0.5, 0.25, 2.0):
        assert np.allclose(power(e, alpha).coeffs, e.coeffs)


def test_power_transform_scaled_onb():
    fam = VectorFamily(3.0 * np.eye(4))
    out = power(fam, -0.5)
    assert np.allclose(out.coeffs, np.eye(4))


@pytest.mark.parametrize("seed", range(3))
def test_power_transform_orthonormalizes_riesz_basis(seed):
    phi = riesz_basis(6, seed)
    out = power(phi, -0.5)
    assert linalg.pnorm_operator(frames.gram(out) - np.eye(6)) <= 1e-8


# --------------------------------------------------------------------------
# ladder type + serialization
# --------------------------------------------------------------------------

def test_truncation_ladder_validation():
    with pytest.raises(LadderTooShortError):
        TruncationLadder((8,))
    with pytest.raises(LadderTooShortError):
        TruncationLadder((8, 8))
    with pytest.raises(LadderTooShortError):
        TruncationLadder((0, 4))
    assert tuple(TruncationLadder((4, 8))) == (4, 8)
    # sizes are never rounded or coerced: a float, a bool, a string and an
    # array are each a ValueError naming the field, in the one wording of
    # the size rule that the CLI ladder shares; numpy integers are integers
    for sizes in ((8.7, 16.2), (True, 8), ("8", "16"), np.array([4, 8])):
        with pytest.raises(ValueError, match=r"^bad sizes .*: expected a list of integers$"):
            TruncationLadder(sizes)
    ladder = TruncationLadder((np.int64(4), np.int64(8)))
    assert ladder.sizes == (4, 8) and all(type(s) is int for s in ladder.sizes)


def test_vector_family_json_roundtrip():
    fam = random_family(3, 4, 77)
    again = VectorFamily.from_json(fam.to_json())
    assert np.array_equal(again.coeffs, fam.coeffs)
    assert again.label == fam.label


def test_vector_family_rejects_nonfinite():
    with pytest.raises(ValueError):
        VectorFamily(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("product", [
    frames.gram, frames.frame_operator, lambda fam: frames.cross_gram(fam, fam),
    frames.frame_bounds, frames.riesz_bounds,
], ids=["gram", "frame_operator", "cross_gram", "frame_bounds", "riesz_bounds"])
def test_overflowing_products_raise_numerical_failure(product):
    # finite coefficients whose squares leave the float range: a numerical
    # failure, with no overflow warning (pytest turns warnings into errors)
    with pytest.raises(NumericalFailureError, match="overflow the float range"):
        product(VectorFamily(np.eye(3) * 1e200))


def test_vector_family_immutable():
    fam = VectorFamily.onb(3)
    with pytest.raises(ValueError):
        fam.coeffs[0, 0] = 5.0
