"""Kernel tests: eigendecomposition, powers, p-norms, condition, gain.

Derived expectations come from independent oracles implemented here:
characteristic-polynomial bisection, closed-form Toeplitz eigenvalues, and a
mesh search over the 1-norm sphere.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from framebench import linalg
from framebench.errors import (
    NonHermitianError,
    NonSquareError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_spd(n, seed, shift=0.5):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + shift * np.eye(n)


# --------------------------------------------------------------------------
# hermitian_eig
# --------------------------------------------------------------------------

def test_eig_identity():
    dec = linalg.hermitian_eig(np.eye(4))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.allclose(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors),
                       np.eye(4), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    dec = linalg.hermitian_eig(np.diag([1.0, 1 / 4, 1 / 9]))
    assert np.allclose(dec.eigenvalues, [1 / 9, 1 / 4, 1.0], rtol=1e-14)


def charpoly_roots_3x3(a):
    """Eigenvalues of a 3x3 Hermitian matrix by bisection on det(A - xI).

    Fully independent of any eigensolver: the characteristic coefficients
    come from trace / principal minors / determinant, the roots from a dense
    sign scan plus bisection.
    """
    tr = np.trace(a).real
    m2 = sum(
        (a[i, i] * a[j, j] - a[i, j] * a[j, i]).real
        for i in range(3) for j in range(i + 1, 3)
    )
    det = np.linalg.det(a).real

    def p(x):
        return -x**3 + tr * x**2 - m2 * x + det

    radius = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    grid = np.linspace(-radius, radius, 20001)
    vals = p(grid)
    roots = []
    for lo, hi, vlo, vhi in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if vlo == 0.0:
            roots.append(lo)
            continue
        if vlo * vhi < 0:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if p(lo) * p(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.asarray(roots))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eig_matches_charpoly_bisection(seed):
    a = random_hermitian(3, seed)
    expected = charpoly_roots_3x3(a)
    got = linalg.hermitian_eig(a).eigenvalues
    assert expected.shape == (3,)
    assert np.allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_eig_reconstruction_and_unitarity(seed):
    a = random_hermitian(12, seed)
    dec = linalg.hermitian_eig(a)
    scale = max(linalg.pnorm_operator(a, 2), 1.0)
    assert linalg.pnorm_operator(dec.reconstruct() - a, 2) <= linalg.TOL_EIG * scale
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(12))) <= linalg.TOL_EIG


def test_eig_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(NonSquareError):
        linalg.hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NonHermitianError):
        linalg.hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


# --------------------------------------------------------------------------
# matrix_power
# --------------------------------------------------------------------------

def test_power_identity_and_scalar():
    assert np.allclose(linalg.matrix_power(np.eye(3), -0.5), np.eye(3))
    assert np.allclose(linalg.matrix_power(np.array([[4.0]]), -0.5), [[0.5]])


def test_power_sqrt_squares_back():
    a = random_spd(6, 3)
    root = linalg.matrix_power(a, 0.5)
    err = linalg.pnorm_operator(root @ root - a, 2)
    assert err <= 1e-8 * linalg.pnorm_operator(a, 2)


@pytest.mark.parametrize("alpha", [-1.0, -0.5, -0.25, 0.5, 0.75])
def test_power_inverse_pairs(alpha):
    a = random_spd(7, 11)
    prod = linalg.matrix_power(a, alpha) @ linalg.matrix_power(a, -alpha)
    assert linalg.pnorm_operator(prod - np.eye(7), 2) <= linalg.TOL_CALC


def test_power_alpha_one_is_identity_map():
    a = random_spd(5, 4)
    assert linalg.pnorm_operator(linalg.matrix_power(a, 1.0) - a, 2) <= \
        linalg.TOL_EIG * linalg.pnorm_operator(a, 2)


def test_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.matrix_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(NotPositiveDefiniteError):
        linalg.matrix_power(np.diag([1.0, 0.0]), -0.5)


# --------------------------------------------------------------------------
# pnorm_operator
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_pnorm_identity(p):
    assert linalg.pnorm_operator(np.eye(5), p) == 1.0


def test_pnorm_column_row_sums():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.pnorm_operator(a, 1) == 6.0
    assert linalg.pnorm_operator(a, math.inf) == 7.0


@pytest.mark.parametrize("seed", range(4))
def test_pnorm_duality_exact(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert linalg.pnorm_operator(a, 1) == linalg.pnorm_operator(a.conj().T, math.inf)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pnorm_duality_property(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert linalg.pnorm_operator(a, 1) == linalg.pnorm_operator(a.conj().T, math.inf)


def test_pnorm_two_matches_abs_eigenvalue_for_hermitian():
    a = random_hermitian(9, 21)
    w = linalg.hermitian_eig(a).eigenvalues
    top = float(np.max(np.abs(w)))
    assert abs(linalg.pnorm_operator(a, 2) - top) <= linalg.TOL_EIG * max(top, 1.0)


# --------------------------------------------------------------------------
# condition_p
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_condition_identity(p):
    assert linalg.condition_p(np.eye(6), p) == 1.0


def test_condition_diagonal_ratio():
    n = 10
    assert np.isclose(linalg.condition_p(np.diag([1.0, 1.0 / n**2]), 2), 100.0,
                      rtol=1e-12)


def test_condition_tridiagonal_toeplitz_closed_form():
    # second-difference matrix: eigenvalues 2 - 2 cos(k pi / 17), k = 1..16
    n = 16
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    expected = (4 * np.cos(np.pi / 34) ** 2) / (4 * np.sin(np.pi / 34) ** 2)
    assert np.isclose(linalg.condition_p(a, 2), expected, rtol=1e-12)
    eigs = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.isclose(expected, eigs.max() / eigs.min(), rtol=1e-12)


def test_condition_singular_flag():
    assert math.isinf(linalg.condition_p(np.diag([1.0, 0.0]), 2))
    assert math.isinf(linalg.condition_p(np.diag([1.0, 1e-15]), 1))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_condition_at_least_one(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    c = linalg.condition_p(a, p)
    assert math.isinf(c) or c >= 1.0


def test_condition_rejects_nonsquare():
    with pytest.raises(NonSquareError):
        linalg.condition_p(np.ones((2, 3)), 1)


# --------------------------------------------------------------------------
# smallest_gain
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_gain_identity(p):
    g = linalg.smallest_gain(np.eye(5), p)
    assert g.upper == 1.0
    assert g.lower <= g.upper
    if p == 2:
        assert g.lower == 1.0


def test_gain_diagonal_two_norm_exact():
    n = 8
    d = np.diag(1.0 / np.arange(1, n + 1))
    g = linalg.smallest_gain(d, 2)
    assert np.isclose(g.lower, 1.0 / n, rtol=1e-12)
    assert g.lower == g.upper


def l1_sphere_mesh(dim, steps):
    """All sign-symmetric grid points with exact unit 1-norm."""
    points = []

    def rec(prefix, remaining, coords_left):
        if coords_left == 1:
            points.append(prefix + [remaining])
            return
        for take in range(remaining + 1):
            rec(prefix + [take], remaining - take, coords_left - 1)

    rec([], steps, dim)
    mesh = []
    for pt in points:
        base = np.array(pt, dtype=float) / steps
        for signs in range(2 ** dim):
            vec = base.copy()
            for i in range(dim):
                if signs >> i & 1:
                    vec[i] = -vec[i]
            mesh.append(vec)
    return np.array(mesh)


def test_gain_one_norm_bracketed_by_mesh_search():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4))
    g = linalg.smallest_gain(a, 1)
    mesh = l1_sphere_mesh(4, 12)
    mesh_min = min(float(np.sum(np.abs(a @ x))) for x in mesh)
    assert g.lower <= mesh_min + 1e-12
    assert mesh_min <= g.upper + 1e-12


def test_gain_wide_matrix_has_nullspace():
    a = np.ones((2, 4))
    for p in (1, 2, math.inf):
        assert linalg.smallest_gain(a, p).lower == 0.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_gain_bracket_ordering_property(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    for p in (1, 2, math.inf):
        g = linalg.smallest_gain(a, p)
        assert g.lower <= g.upper + 1e-15


def test_norm_index_validation():
    with pytest.raises(ValueError):
        linalg.pnorm_operator(np.eye(2), 3)
    with pytest.raises(ValueError):
        linalg.smallest_gain(np.eye(2), "fro")


# --------------------------------------------------------------------------
# Hermitian band kernels against the dense matrix
# --------------------------------------------------------------------------

def random_band(n, bandwidth, seed, shift):
    """Lower band storage of a random complex Hermitian band matrix plus
    ``shift`` times the identity, and the dense matrix it stores."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((bandwidth + 1, n)) + 1j * rng.standard_normal((bandwidth + 1, n))
    ab[0] = ab[0].real + shift
    dense = np.zeros((n, n), dtype=complex)
    for d in range(bandwidth + 1):
        j = np.arange(n - d)
        dense[j + d, j] = ab[d, :n - d]
        dense[j, j + d] = np.conj(ab[d, :n - d])
    return ab, dense


@pytest.mark.parametrize("n, bandwidth, seed", [(1, 0, 0), (9, 2, 1), (40, 3, 2),
                                                (40, 6, 3)])
def test_band_kernels_match_dense(monkeypatch, n, bandwidth, seed):
    monkeypatch.setattr(linalg, "BAND_SOLVE_BLOCK", 7)  # several solve blocks
    a_band, a = random_band(n, bandwidth, seed, shift=0.0)
    b_band, b = random_band(n, bandwidth, seed + 100, shift=4.0 * (bandwidth + 1))
    lam = np.linalg.eigvalsh(a)
    gen = sla.eigh(a, b, eigvals_only=True)
    scale = np.max(np.abs(lam))
    assert abs(linalg.band_min_eig(a_band) - lam[0]) <= 1e-13 * scale
    assert abs(-linalg.band_min_eig(-a_band) - lam[-1]) <= 1e-13 * scale
    assert abs(linalg.band_min_eig(a_band, b_band) - gen[0]) <= 1e-13 * np.max(np.abs(gen))
    assert abs(-linalg.band_min_eig(-a_band, b_band) - gen[-1]) <= 1e-13 * np.max(np.abs(gen))
    assert linalg.band_norm(b_band) == pytest.approx(linalg.pnorm_operator(b, 1), rel=1e-14)
    expected = linalg.condition_1_inf(b, np.linalg.eigvalsh(b))[0]
    assert linalg.band_condition(b_band) == pytest.approx(expected, rel=1e-12)


def test_band_kernels_reject_indefinite_matrices():
    a_band, _ = random_band(12, 2, 5, shift=0.0)
    with pytest.raises(NotPositiveDefiniteError):
        linalg.band_min_eig(a_band, a_band)
    with pytest.raises(NumericalFailureError):
        linalg.band_condition(a_band)
