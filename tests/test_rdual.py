"""Riesz-dual sequence tests: construction, duality transfer, decay transfer.

Oracles: naive triple-loop summation, the closed-form harmonic fixture, a
randomized frame/Riesz agreement sweep, and the exact factorization identity.
"""

import numpy as np
import pytest

from framebench import equivalence, frames, linalg
from framebench.errors import DimensionMismatchError, NotRieszBasisError
from framebench.frames import TruncationLadder, VectorFamily
from framebench.localization import LocalizationProfile
from framebench.rdual import duality_verdict, rdual
from oracles import hermitian_power, inner, mutual_localization, power

PROFILE = LocalizationProfile(kind="jaffard", s=2.0)
LADDER = TruncationLadder((8, 16, 32, 64))


def riesz_basis(n, seed, eps=0.4):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e *= eps / linalg.pnorm_operator(e)
    return VectorFamily(np.eye(n) + e, label=f"riesz{seed}")


def random_family(n, seed):
    rng = np.random.default_rng(seed)
    return VectorFamily(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        label=f"psi{seed}")


def _verdict(psi, phi, tol=frames.TOL_FRAME):
    return duality_verdict(psi, rdual(psi, phi), tol)


def naive_rdual(psi, phi):
    gamma = power(phi, -0.5)
    n = phi.ambient_dim
    out = np.zeros((n, phi.member_count), dtype=complex)
    for k in range(phi.member_count):
        for l in range(psi.member_count):
            out[:, k] += inner(psi.coeffs[:, l], phi.coeffs[:, k]) * gamma.coeffs[:, l]
    return out


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_rdual_of_onb_is_identity_map():
    e = VectorFamily.onb(5)
    assert np.allclose(rdual(e, e).coeffs, e.coeffs, atol=1e-12)


def test_rdual_harmonic_fixture():
    # psi_k = (1/k) e_k over an ONB gives omega_k = (1/k) e_k
    psi, phi = equivalence.counterexample_family(6)
    om = rdual(psi, phi)
    assert np.allclose(om.coeffs, np.diag(1.0 / np.arange(1, 7)), atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_rdual_matches_naive_triple_loop(seed):
    phi = riesz_basis(8, seed)
    psi = random_family(8, seed + 40)
    assert np.allclose(rdual(psi, phi).coeffs, naive_rdual(psi, phi), atol=1e-10)


def test_rdual_real_scaling_equivariance():
    phi = riesz_basis(6, 2)
    psi = random_family(6, 3)
    doubled = rdual(VectorFamily(2.0 * psi.coeffs), phi)
    assert np.allclose(doubled.coeffs, 2.0 * rdual(psi, phi).coeffs, atol=1e-10)


def test_rdual_zero_members_allowed():
    phi = VectorFamily.onb(4)
    coeffs = np.eye(4, dtype=complex)
    coeffs[:, 2] = 0.0
    om = rdual(VectorFamily(coeffs), phi)
    assert np.allclose(om.coeffs[:, 2], 0.0)


def test_rdual_requires_riesz_basis_reference():
    psi = random_family(4, 1)
    rank_deficient = VectorFamily(np.diag([1.0, 1.0, 1.0, 0.0]))
    with pytest.raises(NotRieszBasisError):
        rdual(psi, rank_deficient)
    rect = VectorFamily(np.eye(4, 3))
    with pytest.raises(NotRieszBasisError):
        rdual(VectorFamily(np.eye(4, 3)), rect)
    with pytest.raises(DimensionMismatchError):
        rdual(VectorFamily(np.eye(4, 3)), VectorFamily.onb(4))


def test_reference_is_decided_by_the_callers_tol_alone():
    # lower Riesz bound 5e-13: refused at the default tol, accepted below it
    phi = VectorFamily(np.diag([1.0, np.sqrt(5e-13)]))
    with pytest.raises(NotRieszBasisError, match=r"5\.000e-13 <= 1e-10$"):
        rdual(VectorFamily.onb(2), phi)
    omega = rdual(VectorFamily.onb(2), phi, tol=1e-14)
    assert np.allclose(omega.coeffs, np.diag([1.0, np.sqrt(5e-13)]), rtol=1e-12)


# --------------------------------------------------------------------------
# Gram of the dual companion
# --------------------------------------------------------------------------

def test_rdual_gram_onb():
    e = VectorFamily.onb(4)
    assert np.allclose(frames.gram(rdual(e, e)), np.eye(4), atol=1e-12)


def test_rdual_gram_harmonic_diagonal():
    psi, phi = equivalence.counterexample_family(8)
    expected = np.diag(1.0 / np.arange(1, 9) ** 2)
    assert np.allclose(frames.gram(rdual(psi, phi)), expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_rdual_gram_is_gram_of_rdual(seed):
    # the orthonormalized reference drops out of the companion Gram:
    # G_omega = conj(B^H B) with B = cross_gram(psi, phi), the closed form the
    # battery's witnesses 8-10 use in place of the companion
    phi = riesz_basis(7, seed)
    psi = random_family(7, seed + 9)
    b = frames.cross_gram(psi, phi)
    assert np.allclose(frames.gram(rdual(psi, phi)), np.conj(b.conj().T @ b),
                       atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_riesz_bounds_of_omega_match_lifted_frame_bounds(seed):
    # spectra of the companion Gram and of the frame operator of the family
    # lifted by the reference square root coincide
    phi = riesz_basis(6, seed)
    psi = random_family(6, seed + 77)
    omega = rdual(psi, phi)
    rb = frames.riesz_bounds(omega)
    half = hermitian_power(frames.frame_operator(phi), 0.5)
    fb = frames.frame_bounds(VectorFamily(half @ psi.coeffs))
    assert np.isclose(rb.lower, fb.lower, rtol=1e-8, atol=1e-10)
    assert np.isclose(rb.upper, fb.upper, rtol=1e-8, atol=1e-10)


# --------------------------------------------------------------------------
# duality verdicts
# --------------------------------------------------------------------------

def test_duality_onb_agrees():
    e = VectorFamily.onb(5)
    rep = _verdict(e, e)
    assert rep.frame_verdict and rep.riesz_verdict and rep.agree
    assert not rep.borderline


def test_duality_harmonic_fixture_bounds_and_agreement():
    # at size 32 both lower bounds are exactly 1/1024; the verdicts agree at
    # any threshold, and a threshold above 1/1024 reads both as negative
    psi, phi = equivalence.counterexample_family(32)
    rep = _verdict(psi, phi)
    assert np.isclose(rep.frame_lower, 1.0 / 1024.0, rtol=1e-10)
    assert np.isclose(rep.riesz_lower, 1.0 / 1024.0, rtol=1e-10)
    assert rep.agree
    strict = _verdict(psi, phi, tol=1e-2)
    assert not strict.frame_verdict and not strict.riesz_verdict and strict.agree


def test_duality_rank_deficient_family():
    phi = riesz_basis(8, 4)
    coeffs = np.asarray(random_family(8, 5).coeffs).copy()
    coeffs[:, -1] = coeffs[:, 0]  # exact linear dependence
    rep = _verdict(VectorFamily(coeffs), phi)
    assert not rep.frame_verdict and not rep.riesz_verdict and rep.agree


@pytest.mark.parametrize("seed", range(20))
def test_duality_random_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 17))
    phi = riesz_basis(n, seed + 1000)
    psi = random_family(n, seed + 2000)
    rep = _verdict(psi, phi)
    assert rep.borderline or rep.agree


# --------------------------------------------------------------------------
# localization transfer
# --------------------------------------------------------------------------

def _banded_master(seed, size=64, bandwidth=2, amp=0.02):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    off = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    banded = np.where((off >= 1) & (off <= bandwidth),
                      raw / (1.0 + off) ** 3, 0.0)
    return amp * banded


PSI_MASTER = _banded_master(11)
PHI_MASTER = _banded_master(12)


def banded_pair(n):
    """Nested banded perturbations of the identity (leading truncations)."""
    psi = VectorFamily(np.eye(n) + PSI_MASTER[:n, :n], label="banded-psi")
    phi = VectorFamily(np.eye(n) + PHI_MASTER[:n, :n], label="banded-phi")
    return psi, phi


@pytest.mark.parametrize("family_gen", [banded_pair, equivalence.counterexample_family],
                         ids=["banded-over-riesz", "harmonic-fixture"])
def test_localization_transfers_to_companion(family_gen):
    def companion_pair(n):
        psi, phi = family_gen(n)
        return rdual(psi, phi), phi

    _, verdict = mutual_localization(companion_pair, PROFILE, LADDER)
    assert verdict == "localized"


@pytest.mark.parametrize("seed", range(5))
def test_factorization_identity_complex_pairs(seed):
    # exact identity: G(omega, phi) = G(psi, phi)^T . G(S^{-1/4} phi)
    phi = riesz_basis(10, seed)
    psi = random_family(10, seed + 3)
    omega = rdual(psi, phi)
    quarter = power(phi, -0.25)
    lhs = frames.cross_gram(omega, phi)
    rhs = frames.cross_gram(psi, phi).T @ frames.gram(quarter)
    assert linalg.pnorm_operator(lhs - rhs) <= 1e-8
