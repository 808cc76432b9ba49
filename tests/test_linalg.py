"""Kernel tests: eigenpairs, inverse square root, row sums, 2-norm,
condition, gain probe.

Derived expectations come from independent oracles implemented here:
characteristic-polynomial bisection, closed-form Toeplitz eigenvalues, a
mesh search over the max-norm sphere, and the plain gallop-and-bisect of a
band pencil's smallest eigenvalue, which ``band_min_eig`` shortens with its
Rayleigh-quotient jump.
"""

import itertools
import math
from pathlib import Path
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings, strategies as st

from framebench import linalg
from framebench.errors import (
    NonHermitianError,
    NonSquareError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)
from oracles import condition_p


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
    w, v = linalg.hermitian_eig(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(np.abs(v.conj().T @ v), np.eye(4), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    w, _ = linalg.hermitian_eig(np.diag([1.0, 1 / 4, 1 / 9]))
    assert np.allclose(w, [1 / 9, 1 / 4, 1.0], rtol=1e-14)


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
    got, _ = linalg.hermitian_eig(a)
    assert expected.shape == (3,)
    assert np.allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_eig_reconstruction_and_unitarity(seed):
    a = random_hermitian(12, seed)
    w, v = linalg.hermitian_eig(a)
    scale = max(linalg.pnorm_operator(a), 1.0)
    rebuilt = (v * w) @ v.conj().T
    assert linalg.pnorm_operator(rebuilt - a) <= linalg.TOL_EIG * scale
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(12))) <= linalg.TOL_EIG


def test_eig_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(NonSquareError):
        linalg.hermitian_eig(np.ones((2, 3)))
    with pytest.raises(NonHermitianError):
        linalg.hermitian_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eig_asymmetry_tolerance_scales_with_the_entries():
    # the same rounding-sized asymmetry passes at scale 1e6 and fails at 1
    skew = np.array([[0.0, 1e-11], [0.0, 0.0]])
    linalg.hermitian_eig(1e6 * np.eye(2) + skew)
    with pytest.raises(NonHermitianError, match=r"1\.000e-11 exceeds tol_herm"):
        linalg.hermitian_eig(np.eye(2) + skew)


def test_readme_lists_every_tolerance_with_its_value():
    # README's `TOL_* = value` list names exactly the TOL_* constants here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {name: float(value)
              for name, value in re.findall(r"`(TOL_\w+) = ([^`\s]+)`", readme)}
    assert listed == {name: value for name, value in vars(linalg).items()
                      if name.startswith("TOL_")}


# --------------------------------------------------------------------------
# inverse_sqrt
# --------------------------------------------------------------------------

def test_power_identity_and_scalar():
    assert np.allclose(linalg.inverse_sqrt(*linalg.hermitian_eig(np.eye(3))), np.eye(3))
    assert np.allclose(linalg.inverse_sqrt(*linalg.hermitian_eig(np.array([[4.0]]))),
                       [[0.5]])


def test_power_sqrt_squares_back():
    a = random_spd(6, 3)
    root = linalg.inverse_sqrt(*linalg.hermitian_eig(a))
    err = linalg.pnorm_operator(root @ root @ a - np.eye(6))
    assert err <= linalg.TOL_CALC


# --------------------------------------------------------------------------
# line_sums and pnorm_operator
# --------------------------------------------------------------------------

#: The three operator norms the package takes, by index: ||A||_1 and
#: ||A||_inf as the largest column and row sum of ``line_sums``, and the
#: 2-norm of ``pnorm_operator``.
NORMS = {1: lambda a: float(np.max(linalg.line_sums(a.T))),
         2: linalg.pnorm_operator,
         math.inf: lambda a: float(np.max(linalg.line_sums(a)))}


@pytest.mark.parametrize("p", NORMS)
def test_pnorm_identity(p):
    assert NORMS[p](np.eye(5)) == 1.0


def test_pnorm_column_row_sums():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert linalg.line_sums(a.T).tolist() == [4.0, 6.0]
    assert linalg.line_sums(a).tolist() == [3.0, 7.0]


@pytest.mark.parametrize("seed", range(4))
def test_pnorm_duality_exact(seed):
    # the column sums of A are the row sums of A^H: ||A||_1 = ||A^H||_inf
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.array_equal(linalg.line_sums(a.T), linalg.line_sums(a.conj().T))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pnorm_duality_property(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.array_equal(linalg.line_sums(a.T), linalg.line_sums(a.conj().T))


def test_pnorm_two_matches_abs_eigenvalue_for_hermitian():
    a = random_hermitian(9, 21)
    w, _ = linalg.hermitian_eig(a)
    top = float(np.max(np.abs(w)))
    assert abs(linalg.pnorm_operator(a) - top) <= linalg.TOL_EIG * max(top, 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e200], ids=["unit", "huge"])
@pytest.mark.parametrize("shape, rank", [
    ((9, 9), None), ((40, 7), None), ((7, 40), None), ((1, 12), None),
    ((12, 12), 1), ((30, 5), 1), ((5, 30), 1), ((4, 4), 0), ((6, 2), 0), ((2, 6), 0)],
    ids=["square", "tall", "wide", "row", "rank1-square", "rank1-tall", "rank1-wide",
         "zero-square", "zero-tall", "zero-wide"])
def test_pnorm_two_matches_svd(shape, rank, scale):
    # sqrt(lambda_max) of the smaller Gram of a / max|a_ij|: entries near
    # 1e200 would overflow an unscaled Gram (1e400)
    rng = np.random.default_rng(list(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if rank == 1:
        a = np.outer(a[:, 0], a[0])
    elif rank == 0:
        a = np.zeros(shape)
    a = a * scale
    top = float(np.linalg.svd(a, compute_uv=False)[0])
    got = linalg.pnorm_operator(a)
    assert math.isfinite(got)
    assert abs(got - top) <= 1e-13 * top


# --------------------------------------------------------------------------
# the dense condition-number oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_condition_identity(p):
    assert condition_p(np.eye(6), p) == 1.0


def test_condition_diagonal_ratio():
    n = 10
    assert np.isclose(condition_p(np.diag([1.0, 1.0 / n**2]), 2), 100.0, rtol=1e-12)


def test_condition_tridiagonal_toeplitz_closed_form():
    # second-difference matrix: eigenvalues 2 - 2 cos(k pi / 17), k = 1..16
    n = 16
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    expected = (4 * np.cos(np.pi / 34) ** 2) / (4 * np.sin(np.pi / 34) ** 2)
    assert np.isclose(condition_p(a, 2), expected, rtol=1e-12)
    eigs = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.isclose(expected, eigs.max() / eigs.min(), rtol=1e-12)


def test_condition_singular_flag():
    assert math.isinf(condition_p(np.diag([1.0, 0.0]), 2))
    assert math.isinf(condition_p(np.diag([1.0, 1e-15]), 1))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_condition_at_least_one(seed, p):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    c = condition_p(a, p)
    assert math.isinf(c) or c >= 1.0


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_dense_kernels_use_numpy_lapack_only(monkeypatch, p):
    # numpy and scipy bundle separate OpenBLAS builds; dense work stays on
    # numpy's, so no dense scipy.linalg entry point may be reached
    def forbidden(*args, **kwargs):
        raise AssertionError("dense scipy.linalg call")

    for name in ("svdvals", "svd", "inv", "solve", "eigh"):
        monkeypatch.setattr(sla, name, forbidden)
    a = random_spd(6, 3)
    assert linalg.hermitian_eigvals(a)[0] > 0.0
    assert NORMS[p](a) > 0.0


def test_condition_1_inf_inverts_only_off_the_flag():
    calls = []

    def inverse():
        calls.append(1)
        return np.diag([1.0, 0.5])

    assert linalg.condition_1_inf(np.diag([1.0, 0.0]), [1.0, 0.0], inverse) == (
        math.inf, math.inf)
    assert calls == []
    assert linalg.condition_1_inf(np.diag([1.0, 2.0]), [1.0, 2.0], inverse) == (
        2.0, 2.0)
    assert calls == [1]


# --------------------------------------------------------------------------
# gain_probe
# --------------------------------------------------------------------------

def test_gain_identity():
    assert linalg.gain_probe(np.eye(5)) == 1.0


def test_gain_max_norm_bracketed_by_mesh_search():
    # a mesh on the unit max-norm sphere (coordinates in {-1, -5/6, ..., 1},
    # one of modulus 1) holds every e_j, so the probe min_j ||A e_j||_inf
    # bounds the mesh minimum of the max-norm gain from above
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4))
    grid = np.arange(-6, 7) / 6
    mesh = np.array(list(itertools.product(grid, repeat=4)))
    mesh = mesh[np.max(np.abs(mesh), axis=1) == 1.0]
    mesh_min = float(np.min(np.max(np.abs(mesh @ a.T), axis=1)))
    assert mesh_min <= linalg.gain_probe(a)


# --------------------------------------------------------------------------
# Hermitian band kernels against the dense matrix
# --------------------------------------------------------------------------

def random_band(n, bandwidth, seed, shift, real=False):
    """Lower band storage of a random complex (or real) Hermitian band
    matrix plus ``shift`` times the identity, and the dense matrix it
    stores."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((bandwidth + 1, n)) + 1j * rng.standard_normal((bandwidth + 1, n))
    ab[0] = ab[0].real + shift
    if real:
        ab = ab.real.copy()
    dense = np.zeros((n, n), dtype=ab.dtype)
    for d in range(bandwidth + 1):
        j = np.arange(n - d)
        dense[j + d, j] = ab[d, :n - d]
        dense[j, j + d] = np.conj(ab[d, :n - d])
    return ab, dense


@pytest.mark.parametrize("n, bandwidth, seed, block", [
    # BAND_SOLVE_BLOCK 7 (several trailing blocks), 1 (one column per solve)
    # and n + 1 (one block for all)
    pytest.param(n, bandwidth, seed, block, id=f"{n}-{bandwidth}-{seed}{suffix}")
    for n, bandwidth, seed in [(1, 0, 0), (9, 2, 1), (40, 3, 2), (40, 6, 3)]
    for block, suffix in [(7, ""), (1, "-block-1"), (n + 1, "-block-n+1")]])
def test_band_kernels_match_dense(monkeypatch, n, bandwidth, seed, block):
    monkeypatch.setattr(linalg, "BAND_SOLVE_BLOCK", block)
    a_band, a = random_band(n, bandwidth, seed, shift=0.0)
    b_band, b = random_band(n, bandwidth, seed + 100, shift=4.0 * (bandwidth + 1))
    lam = np.linalg.eigvalsh(a)
    gen = sla.eigh(a, b, eigvals_only=True)
    scale = np.max(np.abs(lam))
    assert abs(linalg.band_min_eig(a_band) - lam[0]) <= 1e-13 * scale
    assert abs(-linalg.band_min_eig(-a_band) - lam[-1]) <= 1e-13 * scale
    # a hint above, at or below the eigenvalue changes the bracket, not the answer
    gen_scale = np.max(np.abs(gen))
    for upper, neg_upper in ((None, None), (gen[0], -gen[-1]), (gen[0] + 1, -gen[-1] + 1),
                             (gen[0] - 1, -gen[-1] - 1)):
        assert (abs(linalg.band_min_eig(a_band, b_band, upper) - gen[0])
                <= 1e-13 * gen_scale)
        assert (abs(-linalg.band_min_eig(-a_band, b_band, neg_upper) - gen[-1])
                <= 1e-13 * gen_scale)
    assert linalg.band_norm(b_band) == pytest.approx(np.linalg.norm(b, 1), rel=1e-14)
    expected = condition_p(b, 1)
    assert linalg.band_condition(b_band) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_band_condition_checkerboard_path_matches_dense(n):
    # a diagonally dominant tridiagonal matrix with positive entries is
    # totally positive, so its inverse has checkerboard signs
    rng = np.random.default_rng(n)
    ab = np.zeros((2, n))
    ab[1, :n - 1] = rng.uniform(0.1, 1.0, n - 1)
    ab[0] = 2.0 + rng.uniform(0.0, 1.0, n)
    dense = np.diag(ab[0]) + np.diag(ab[1, :n - 1], -1) + np.diag(ab[1, :n - 1], 1)
    expected = condition_p(dense, 1)
    assert linalg.band_condition(ab, checkerboard=True) == pytest.approx(expected, rel=1e-13)
    assert linalg.band_condition(ab) == pytest.approx(expected, rel=1e-13)


def test_band_kernels_reject_indefinite_matrices():
    a_band, _ = random_band(12, 2, 5, shift=0.0)
    with pytest.raises(NotPositiveDefiniteError):
        linalg.band_min_eig(a_band, a_band)
    with pytest.raises(NumericalFailureError):
        linalg.band_condition(a_band)


@pytest.mark.parametrize("name", ["pbtrf", "pbtrs"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
@pytest.mark.parametrize("order", ["C", "F"])
def test_band_lapack_is_scipys_routine(name, dtype, order):
    # the band kernels skip the scipy.linalg package, but must run the very
    # routine its lookup picks for the band's dtype
    band = np.ones((2, 5), dtype=dtype, order=order)
    assert linalg._band_lapack(name, band) is sla.get_lapack_funcs((name,), (band,))[0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_band_condition_rejects_non_finite_band(bad):
    ab, _ = random_band(8, 2, 7, shift=20.0)
    ab[1, 3] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        linalg.band_condition(ab)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_band_min_eig_rejects_non_finite_input(bad):
    # a NaN or an infinity in the band, in B or as the hint would keep the
    # bracket search from ending; each is a ValueError before any factorization
    ab, _ = random_band(8, 2, 7, shift=20.0)
    bad_ab = ab.copy()
    bad_ab[1, 3] = bad
    for args in ((bad_ab,), (ab, bad_ab), (ab, ab, bad)):
        with pytest.raises(ValueError):
            linalg.band_min_eig(*args)
    with pytest.raises(ValueError, match="infs or NaNs"):
        linalg.band_definite(bad_ab)


@pytest.mark.parametrize("shift, definite", [(-1e-12, True), (0.0, False), (1e-12, False)])
def test_band_definite_is_one_cholesky_of_the_shifted_band(shift, definite):
    # diag(0, 1, 2) - shift I plus a zero off-diagonal: lambda_min = -shift
    ab = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    ab[0] -= shift
    assert linalg.band_definite(ab) is definite


@st.composite
def band_pencils(draw):
    """A random real or complex Hermitian band, with B either None or a
    positive definite band of the same bandwidth."""
    n = draw(st.integers(1, 60))
    bandwidth = draw(st.integers(0, min(6, n - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    real = draw(st.booleans())
    a_band, a = random_band(n, bandwidth, seed, shift=draw(st.floats(-5.0, 5.0)), real=real)
    if not draw(st.booleans()):
        return a_band, a, None, None
    b_band, b = random_band(n, bandwidth, seed + 1, shift=4.0 * (bandwidth + 1), real=real)
    return a_band, a, b_band, b


def pencil_spectrum(a, b):
    """Ascending eigenvalues of the dense pencil (A, B), B = I if None."""
    return np.linalg.eigvalsh(a) if b is None else sla.eigh(a, b, eigvals_only=True)


#: ``band_min_eig`` hints relative to the smallest eigenvalue lam: none, at
#: it, just above, well above, at 0 and below it.
HINTS = {"none": lambda lam: None, "exact": lambda lam: lam,
         "ulps-above": lambda lam: lam * (1 + 2.0**-40), "plus-one": lambda lam: lam + 1.0,
         "zero": lambda lam: 0.0, "below": lambda lam: lam - 1.0 - abs(lam)}


def plain_band_min_eig(a, b=None, upper=None):
    """The oracle of ``band_min_eig``: the same gallop from the same upper
    bound, then a plain bisection to adjacent floats, with no jump."""
    a = np.asfortranarray(a)
    if b is not None and not linalg.band_definite(b):
        raise NotPositiveDefiniteError("pencil needs a positive definite B")
    work = np.empty(a.shape, dtype=np.result_type(a, 1.0 if b is None else b, 1.0), order="F")
    pbtrf = linalg._band_lapack("pbtrf", work)

    def definite(sigma):
        if b is None:
            work[...] = a
            work[0] -= sigma
        else:
            np.subtract(a, np.multiply(sigma, b, out=work), out=work)
        return pbtrf(work, lower=1, overwrite_ab=1)[1] == 0

    top = min(float(np.min(a[0].real if b is None else a[0].real / b[0].real)),
              math.inf if upper is None else upper)
    scale = abs(top) or linalg.band_norm(a)
    if scale == 0.0:
        return 0.0
    below = definite(top)
    edge = top
    for step in itertools.chain(linalg.BAND_GALLOP, (4.0 ** k for k in itertools.count(1))):
        sigma = top + step * scale if below else top - step * scale
        if definite(sigma) != below:
            break
        edge = sigma
    lo, hi = (edge, sigma) if below else (sigma, edge)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if definite(mid):
            lo = mid
        else:
            hi = mid


def band_calls(monkeypatch, kernel, *args):
    """``kernel(*args)`` and the ``pbtrf`` and ``pbtrs`` calls it made, in
    order, as (name, info) pairs."""
    calls = []
    band_lapack = linalg._band_lapack

    def recorded(name, a):
        fn = band_lapack(name, a)

        def call(*call_args, **kwargs):
            out = fn(*call_args, **kwargs)
            calls.append((name, out[1]))
            return out
        return call

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_band_lapack", recorded)
        return kernel(*args), calls


def factorizations(calls):
    return sum(name == "pbtrf" for name, _ in calls)


@given(band_pencils(), st.sampled_from(list(HINTS)))
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_band_min_eig_hint_changes_cost_not_answer(monkeypatch, pencil, hint):
    # Every trial point, the jump's too, is decided by a factorization, so
    # the answer is the plain bisection's up to the rounding of nearly
    # critical shifts, and a Rayleigh quotient that certifies nothing costs
    # at most its two factorizations.
    a_band, a, b_band, b = pencil
    spectrum = pencil_spectrum(a, b)
    lam = float(spectrum[0])
    scale = np.max(np.abs(spectrum))
    upper = HINTS[hint](lam)
    got, calls = band_calls(monkeypatch, linalg.band_min_eig, a_band, b_band, upper)
    expected, plain = band_calls(monkeypatch, plain_band_min_eig, a_band, b_band, upper)
    assert abs(got - lam) <= 1e-13 * scale
    assert abs(got - expected) <= 1e-13 * scale
    assert factorizations(calls) <= factorizations(plain) + 2
    assert sum(name == "pbtrs" for name, _ in calls) in (0, linalg.BAND_JUMP_SOLVES)
    if b_band is None:  # B = I only shifts the diagonal: the identity band's answer
        identity = np.zeros_like(a_band)
        identity[0] = 1.0
        assert linalg.band_min_eig(a_band, identity, upper) == got


@given(band_pencils())
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_band_min_eig_jump_ends_a_separated_bisection(monkeypatch, pencil):
    # The pencil is shifted so that lambda_min is its eigenvalue of largest
    # modulus, 2 (lambda_max - lambda_min) below 0: a factorization's
    # rounding, which grows with ||A|| + |sigma| ||B||, is then a small part
    # of |lambda|, and the jump's bracket, BAND_JUMP_WIDTH |rho| wide,
    # certifies.  Inverse iteration from within BAND_JUMP_AT |lambda| of
    # lambda converges at once where the next eigenvalue is 1e-3 |lambda|
    # away or more.  A diagonal pencil is left out: its upper bound
    # min_j a_jj / b_jj is its eigenvalue, so the gallop brackets it within
    # 2^-42 |lambda| and no Rayleigh quotient lands inside.
    a_band, a, b_band, b = pencil
    spectrum = pencil_spectrum(a, b)
    shift = 2.0 * spectrum[-1] - spectrum[0]
    if b_band is None:
        a_band, a = a_band.copy(), a - shift * np.eye(len(a))
        a_band[0] -= shift
    else:
        a_band, a = a_band - shift * b_band, a - shift * b
    spectrum = pencil_spectrum(a, b)
    lam = float(spectrum[0])
    if len(a_band) == 1 or spectrum[1] - lam < 1e-3 * abs(lam):
        return
    got, calls = band_calls(monkeypatch, linalg.band_min_eig, a_band, b_band)
    expected, plain = band_calls(monkeypatch, plain_band_min_eig, a_band, b_band)
    assert abs(got - lam) <= 1e-13 * abs(lam)
    assert abs(got - expected) <= 1e-13 * abs(lam)
    # up to its jump the bisection makes the oracle's trial points; from
    # there it takes at most half the oracle's factorizations
    jump = calls.index(("pbtrs", 0))
    assert calls[:jump] == plain[:jump]
    assert calls[jump:jump + linalg.BAND_JUMP_SOLVES] == [("pbtrs", 0)] * linalg.BAND_JUMP_SOLVES
    assert factorizations(calls[jump:]) <= factorizations(plain[jump:]) / 2


def with_zero_diagonals(band, extra):
    """``band`` with ``extra`` all-zero diagonals appended below it."""
    return None if band is None else np.vstack([band, np.zeros((extra, band.shape[1]),
                                                                dtype=band.dtype)])


@given(band_pencils(), st.integers(1, 4))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_zero_diagonals_change_no_band_result(pencil, extra):
    # The sampling verdict stores its bands only through their last nonzero
    # diagonal.  That this changes no report byte rests on this property of
    # LAPACK and BLAS: appended zero diagonals only add exact zeros.  It
    # holds while the wider band has bandwidth below 8 (complex) or 16
    # (real), which covers the benchmark's cubic B-spline (6 before the cut,
    # 3 after).  Wider, the BLAS kernels sum in unrolled blocks whose
    # grouping depends on the bandwidth: a complex pbtrs at bandwidth >= 8,
    # and a real pbtrs or a complex pbtrf at >= 16, were seen to differ in
    # the last bit (OpenBLAS, x86-64).  A band has at most as many rows as
    # the matrix has columns; the verdict clamps its bands so.
    a_band, a, b_band, b = pencil
    limit = 16 if np.isrealobj(a_band) else 8
    extra = min(extra, a_band.shape[1] - a_band.shape[0], limit - a_band.shape[0])
    wide_a, wide_b = with_zero_diagonals(a_band, extra), with_zero_diagonals(b_band, extra)
    lam = float(pencil_spectrum(a, b)[0])
    assert linalg.band_norm(wide_a) == linalg.band_norm(a_band)
    for kind, hint in HINTS.items():
        upper = hint(lam)
        assert (linalg.band_min_eig(wide_a, wide_b, upper)
                == linalg.band_min_eig(a_band, b_band, upper)), kind
        if upper is not None:
            shifted = [band.copy() for band in (wide_a, a_band)]
            for band in shifted:
                band[0] -= upper
            assert linalg.band_definite(shifted[0]) is linalg.band_definite(shifted[1])
    # a strictly diagonally dominant band is positive definite
    definite = a_band.copy()
    definite[0] += linalg.band_norm(a_band) + 1.0
    for checkerboard in (False, True):
        assert (linalg.band_condition(with_zero_diagonals(definite, extra), checkerboard)
                == linalg.band_condition(definite, checkerboard))
