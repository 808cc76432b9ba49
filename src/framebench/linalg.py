"""Complex linear-algebra kernels shared by every other module.

All functions operate on plain ``numpy`` arrays (complex entries, row-major)
and are pure: no shared state, safe to call concurrently.  Operator p-norms
are restricted to p in {1, 2, inf}; those three are what every invertibility
and gain diagnostic in the package needs.

Every sum of absolute values along a row or a column goes through one
kernel, ``line_norms``: it reduces each row of a C-contiguous copy of |A|,
and a column is a row of the transpose.  ``pnorm_operator(A, 1)`` and
``pnorm_operator(A.conj().T, inf)`` therefore add exactly the same floats
in exactly the same order, and the duality identity holds bit for bit.

Hermitian band matrices (the sampling Grams) have their own kernels, which
never form the dense matrix: ``band_norm``, ``band_min_eig`` and
``band_condition``.  They use only LAPACK routines ``scipy.linalg`` already
loads.
"""

from dataclasses import dataclass
import math
from typing import Tuple

import numpy as np
import scipy.linalg as sla

from .errors import (
    NonSquareError,
    NonHermitianError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

# Tolerance budget, chosen so double-precision dense solvers pass on n <= 4096.
TOL_EIG = 1e-10     # relative: eigen-reconstruction and unitarity residuals
TOL_HERM = 1e-12    # absolute: max-abs asymmetry allowed before symmetrizing
TOL_PD = 1e-12      # absolute: smallest eigenvalue must exceed this for powers
TOL_SING = 1e-12    # relative to the spectral norm: singularity flag threshold
TOL_CALC = 1e-8     # relative: composed-operation consistency (sqrt squared, ...)

#: Admissible operator-norm indices.
NORM_INDICES = (1, 2, math.inf)


def _check_norm_index(p):
    if p not in NORM_INDICES:
        raise ValueError(f"norm index must be 1, 2 or inf, got {p!r}")


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a complex 2-D array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _require_square(m: np.ndarray):
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, square required")


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """Check asymmetry against TOL_HERM and return the symmetrized matrix."""
    _require_square(m)
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > TOL_HERM:
        raise NonHermitianError(
            f"max |A - A^H| = {asym:.3e} exceeds tol_herm = {TOL_HERM:.0e}"
        )
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Hermitian eigendecomposition: ascending eigenvalues, unitary columns."""

    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, column k pairs with eigenvalues[k]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def power(self, alpha: float) -> np.ndarray:
        """A^alpha = V diag(w**alpha) V^H of a positive definite matrix.

        Raises ``NotPositiveDefiniteError`` when the smallest eigenvalue is
        at or below ``TOL_PD`` — fractional powers need the spectrum
        strictly inside the right half line.
        """
        w = self.eigenvalues
        if w[0] <= TOL_PD:
            raise NotPositiveDefiniteError(
                f"smallest eigenvalue {w[0]:.3e} <= tol_pd = {TOL_PD:.0e}"
            )
        v = self.eigenvectors
        return (v * np.power(w, alpha)) @ v.conj().T


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within ``TOL_HERM`` (max-abs); it is
    symmetrized via (A + A^H)/2 before the solve.  Eigenvalues come back
    ascending, and the reconstruction residual ||A - V diag(w) V^H||_2 is
    bounded by ``TOL_EIG * ||A||_2``.
    """
    m = _require_hermitian(as_matrix(a))
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare in LAPACK
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_power(a, alpha: float) -> np.ndarray:
    """Fractional power A^alpha of a Hermitian positive definite matrix
    (see ``SpectralDecomposition.power``)."""
    return hermitian_eig(a).power(alpha)


def line_norms(a, p) -> np.ndarray:
    """The p-norm of every row of a 2-D array, p in {1, 2, inf}.

    |a| is written out C-contiguous before each row is reduced along the
    last axis, so a row's additions happen in the same order whatever the
    strides of ``a``; column norms are ``line_norms(a.T, p)``.
    """
    _check_norm_index(p)
    m = np.abs(np.asarray(a), order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if p == 1:
        return np.add.reduce(m, axis=1)
    if p == 2:
        return np.sqrt(np.add.reduce(m * m, axis=1))
    return np.max(m, axis=1, initial=0.0)  # an empty row has norm 0


def pnorm_operator(a, p) -> float:
    """Operator p-norm for p in {1, 2, inf}.

    p=1 is the maximum absolute column sum (columns summed in row-index
    order), p=inf the maximum absolute row sum, p=2 the largest singular
    value.
    """
    _check_norm_index(p)
    m = as_matrix(a)
    if p == 2:
        return float(sla.svdvals(m)[0])
    return float(np.max(line_norms(m.T if p == 1 else m, 1)))


def condition_p(a, p) -> float:
    """Condition number ||A||_p * ||A^-1||_p, or ``math.inf`` as singular flag.

    A is flagged singular when sigma_min <= TOL_SING * sigma_max, i.e. the
    threshold scales with the spectral norm.
    """
    _check_norm_index(p)
    m = as_matrix(a)
    _require_square(m)
    sv = sla.svdvals(m)
    if p == 2:
        return math.inf if sv[-1] <= TOL_SING * sv[0] else float(sv[0] / sv[-1])
    return condition_1_inf(m, sv)[0 if p == 1 else 1]


def condition_1_inf(a, singular_values) -> Tuple[float, float]:
    """``condition_p`` for p = 1 and p = inf from one inverse of A.

    ``singular_values`` are those of A in any order; a Hermitian matrix may
    pass its eigenvalues, whose moduli are its singular values.
    """
    m = as_matrix(a)
    _require_square(m)
    sv = np.abs(np.asarray(singular_values, dtype=float))
    if sv.min() <= TOL_SING * sv.max():
        return math.inf, math.inf
    try:
        inv = sla.inv(m)
    except sla.LinAlgError as exc:
        raise NumericalFailureError(f"inversion failed: {exc}") from exc
    return (pnorm_operator(m, 1) * pnorm_operator(inv, 1),
            pnorm_operator(m, math.inf) * pnorm_operator(inv, math.inf))


# --------------------------------------------------------------------------
# Hermitian band matrices
#
# A Hermitian matrix of bandwidth u is passed as its lower band in LAPACK
# storage: an array ``ab`` of shape (u + 1, n) with ab[d, j] = A[j + d, j].
# Entries past the last row (j + d >= n) are not part of the matrix and are
# ignored.
# --------------------------------------------------------------------------

#: Columns of the identity solved for at once by ``band_condition``; bounds
#: its working memory to two n x BAND_SOLVE_BLOCK arrays.
BAND_SOLVE_BLOCK = 256


def band_norm(ab) -> float:
    """||A||_1 of a Hermitian band matrix, which equals ||A||_inf."""
    mag = np.abs(np.asarray(ab))
    n = mag.shape[1]
    sums = mag[0].copy()
    for d in range(1, mag.shape[0]):
        sums[d:] += mag[d, :n - d]   # A[j + d, j] lies in row j + d
        sums[:n - d] += mag[d, :n - d]  # and its mirror A[j, j + d] in row j
    return float(np.max(sums))


def band_min_eig(a, b=None) -> float:
    """Smallest eigenvalue of the Hermitian band pencil (A, B), B = I if None.

    B must be positive definite.  A - sigma B is positive definite exactly
    when sigma lies below the smallest eigenvalue (Sylvester's law of
    inertia), so the eigenvalue is bisected on whether a banded Cholesky
    factorization of A - sigma B succeeds, until the midpoint of the bracket
    equals one of its ends.  The bracket is +-2 ||A||_inf / lambda_min(B),
    which holds every eigenvalue strictly inside (Gershgorin).  Returns the
    smallest sigma found at which the factorization fails.  The largest
    eigenvalue is ``-band_min_eig(-a, b)``.
    """
    a = np.asfortranarray(a)
    if b is None:
        b = np.zeros_like(a, order="F")
        b[0] = 1.0
        b_min = 1.0
    else:
        b = np.asfortranarray(b)
        b_min = band_min_eig(b)
        if b_min <= 0.0:
            raise NotPositiveDefiniteError(
                f"pencil needs a positive definite B, smallest eigenvalue {b_min:.3e}")
    pbtrf, = sla.get_lapack_funcs(("pbtrf",), (a, b))
    hi = 2.0 * band_norm(a) / b_min
    lo = -hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if pbtrf(a - mid * b, lower=1, overwrite_ab=1)[1] == 0:
            lo = mid
        else:
            hi = mid


def band_condition(ab) -> float:
    """||A||_1 ||A^-1||_1 of a Hermitian positive definite band matrix.

    The inverse norm is exact: one banded Cholesky factorization, then
    solves against ``BAND_SOLVE_BLOCK`` columns of the identity at a time.
    ||A||_1 = ||A||_inf for Hermitian A, so this is also the max-norm
    condition number.
    """
    try:
        factor = sla.cholesky_banded(ab, lower=True)
    except sla.LinAlgError as exc:
        raise NumericalFailureError(f"banded Cholesky failed: {exc}") from exc
    n = factor.shape[1]
    inv_norm = 0.0
    for start in range(0, n, BAND_SOLVE_BLOCK):
        cols = np.arange(start, min(start + BAND_SOLVE_BLOCK, n))
        rhs = np.zeros((n, cols.size), dtype=factor.dtype)
        rhs[cols, cols - start] = 1.0
        block = sla.cho_solve_banded((factor, True), rhs)
        inv_norm = max(inv_norm, float(np.max(line_norms(block.T, 1))))
    return band_norm(ab) * inv_norm


@dataclass(frozen=True)
class GainBracket:
    """Certified bracket for the smallest p-norm gain of a matrix.

    ``lower <= inf_{||x||_p = 1} ||A x||_p <= upper`` always.  For p=2 both
    ends coincide with sigma_min; for p in {1, inf} the exact infimum is not
    tractable and the bracket is what callers get.
    """

    lower: float
    upper: float


def gain_probe(a, p) -> float:
    """Upper bound on the smallest p-norm gain, p in {1, inf}, from probing
    with the coordinate unit vectors: min_j ||A e_j||_p."""
    if p not in (1, math.inf):
        raise ValueError(f"gain probe norm index must be 1 or inf, got {p!r}")
    return float(np.min(line_norms(as_matrix(a).T, p)))


def smallest_gain(a, p) -> GainBracket:
    """Bracket the smallest gain inf ||Ax||_p over unit-p-norm vectors x.

    p=2: exact, both ends equal sigma_min (0 when there are more columns
    than rows — the map then has a nullspace).  p in {1, inf}: the certified
    lower bound is sigma_min / sqrt(rows*cols) and the upper bound is
    ``gain_probe``.
    """
    _check_norm_index(p)
    m = as_matrix(a)
    rows, cols = m.shape
    if cols > rows:
        smin = 0.0
    else:
        smin = float(sla.svdvals(m)[-1])
    if p == 2:
        return GainBracket(lower=smin, upper=smin)
    lower = smin / math.sqrt(rows * cols)
    return GainBracket(lower=lower, upper=gain_probe(m, p))
