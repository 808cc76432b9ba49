"""Linear-algebra kernels shared by every other module.

All functions operate on plain row-major ``numpy`` arrays of the dtype rule
of ``fields`` and are pure: no shared state, safe to call concurrently.
Each dense norm kernel computes the one norm its callers use: absolute row
sums for the 1-/max-norm condition pair, the max-norm coordinate gain
probe, and the operator 2-norm.
``inverse_sqrt`` builds A^-1/2 from the eigenpairs of ``hermitian_eig``;
the caller decides, against its own tolerance, that A is definite.

Every sum of absolute values along a row or a column goes through one
kernel, ``line_sums``: it reduces each row of a C-contiguous copy of |A|,
and a column is a row of the transpose.  The column sums of A and the row
sums of A^H therefore add exactly the same floats in exactly the same
order, so ||A||_1 = ||A^H||_inf holds bit for bit.

Hermitian band matrices (the sampling Grams) have their own kernels, which
never form the dense matrix: ``band_norm``, ``band_definite``,
``band_min_eig`` and ``band_condition``.  The last three call banded LAPACK
(``pbtrf`` and ``pbtrs``) from scipy's compiled LAPACK module; a pencil's
B is the caller's decision (``band_definite``).  A bisection allocates one
work array for A - sigma B, and starts from an upper bound
that a caller may sharpen: by Courant-Fischer, the smallest eigenvalue of a
principal section bounds the whole matrix's from above.  Once its bracket
is narrow, it reuses a factor it has just computed for two inverse-iteration
solves, and the Rayleigh quotient of their vector is a trial point that
two factorizations turn into a bracket 2^-50 |rho| wide; each trial point
is still decided by a factorization.  The exact inverse
norm of a band whose inverse has checkerboard signs (a totally positive
band, such as a B-spline sampling Gram) takes one solve with one
right-hand side, n rows; any other band solves only the trailing rows of
each block of identity columns, which Hermitian symmetry makes enough
(about n^2 / 2 right-hand-side rows, not n^2).

One LAPACK for dense work: the one dense factorization, the Hermitian
eigensolve, goes through ``numpy.linalg``; no kernel makes an SVD or an LU.
numpy and scipy each bundle their own OpenBLAS build, and switching from
one to the other between calls is slow: on a 256 x 256 complex matrix, a
numpy ``eigh`` followed by a numpy SVD takes about 55 ms, but 145 ms when
the SVD is scipy's ``svdvals`` (2-core Xeon VM).

The band kernels take their routines from ``_band_lapack``, which on first
use loads the extension ``scipy.linalg._flapack`` by itself, without running
the ``scipy.linalg`` package, and registers it in ``sys.modules``; a later
``import scipy.linalg`` reuses that module object.  With numpy loaded, the
extension loads in about 6 ms and the package in 290-370 ms (it pulls in
``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``; ``python -X
importtime``, 2-core VM), so no command pays for the package, and only
``sampling`` loads anything of scipy at all.
"""

import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
import threading
from typing import Tuple

import numpy as np

from . import fields
from .errors import NonSquareError, NonHermitianError, NumericalFailureError

# Tolerance budget, chosen so double-precision dense solvers pass on n <= 4096.
TOL_HERM = 1e-12    # relative to max |A|: asymmetry allowed before symmetrizing
TOL_SING = 1e-12    # relative to the spectral norm: singularity flag threshold


def as_matrix(a) -> np.ndarray:
    """``a`` as a nonempty 2-D array of finite numbers (``fields.require_numbers``)."""
    m = fields.require_numbers("matrix", a)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def _finite(what: str, compute, *args) -> np.ndarray:
    """``compute(*args)``; a result past the float range is a numerical
    failure, reported as "``what`` overflow the float range"."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute(*args)
    if not np.isfinite(out).all():
        raise NumericalFailureError(f"{what} overflow the float range")
    return out


def _solved(what: str, solve, *args):
    """``solve(*args)``; a LAPACK failure is a numerical failure whose
    message starts with ``what``."""
    try:
        return solve(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"{what}: {exc}") from exc


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """Check squareness and asymmetry against TOL_HERM max |A| and return
    the symmetrized matrix."""
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, square required")
    diff = m - m.conj().T
    asym, scale = np.max(np.abs(diff)), np.max(np.abs(m))
    if asym > TOL_HERM * scale:
        raise NonHermitianError(f"max |A - A^H| = {asym:.3e} exceeds tol_herm * max |A| "
                                f"= {TOL_HERM:.0e} * {scale:.3e}")
    return m - 0.5 * diff


def hermitian_eig(a) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, v)`` of a Hermitian matrix: ascending real
    eigenvalues w, and unitary v whose column k pairs with w[k].

    The input must be Hermitian within ``TOL_HERM`` (relative to its
    largest entry); it is symmetrized via (A + A^H)/2 before the solve.
    numpy's reconstruction residual ||A - V diag(w) V^H||_2 stays below
    1e-10 ||A||_2 on n <= 4096; nothing here checks it.
    """
    m = _require_hermitian(as_matrix(a))
    return _solved("eigensolver did not converge", np.linalg.eigh, m)


def inverse_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A^-1/2 = (v w^-1/2) v^H from the eigenpairs ``(w, v)`` of a
    Hermitian A whose eigenvalues the caller has checked to be positive."""
    return (v * np.power(w, -0.5)) @ v.conj().T


def hermitian_eigvals(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    The input is checked and symmetrized as in ``hermitian_eig``.
    """
    return _solved("eigensolver did not converge", np.linalg.eigvalsh,
                   _require_hermitian(as_matrix(a)))


def line_sums(a) -> np.ndarray:
    """The absolute row sums of a 2-D array.

    |a| is written out C-contiguous before each row is reduced along the
    last axis, so a row's additions happen in the same order whatever the
    strides of ``a``; column sums are ``line_sums(a.T)``.  A sum past the
    float range is a ``NumericalFailureError``.
    """
    m = np.abs(np.asarray(a), order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return _finite("absolute row sums", np.add.reduce, m, 1)


def pnorm_operator(a) -> float:
    """Operator 2-norm, the largest singular value: sqrt(lambda_max) of the
    smaller Gram of A / max|a_ij|, no SVD."""
    m = as_matrix(a)
    # entries of modulus <= 1 cannot overflow the Gram; 0 has norm 0
    scale = float(np.max(np.abs(m))) or 1.0
    m = m / scale
    g = m.conj().T @ m if m.shape[0] >= m.shape[1] else m @ m.conj().T
    return scale * math.sqrt(float(np.linalg.eigvalsh(g)[-1]))


def _max_line_sum(m: np.ndarray) -> float:
    """The largest absolute row sum of ``m``: ||m||_inf, and ||m.T||_1."""
    return float(np.max(line_sums(m)))


def condition_1_inf(m: np.ndarray, singular_values, inverse) -> Tuple[float, float]:
    """||A||_1 ||A^-1||_1 and ||A||_inf ||A^-1||_inf, or ``(inf, inf)``.

    ``m`` is square and finite, unchecked here: the battery built it.
    On the singular flag sigma_min <= TOL_SING * sigma_max, from
    ``singular_values`` in any order (or a Hermitian A's eigenvalues), both
    are ``math.inf``.  Off it, ``inverse()`` returns A^-1 (validated) and is
    called only then: the battery builds it in closed form, from an
    eigendecomposition, never by an LU.
    """
    sv = np.abs(np.asarray(singular_values, dtype=float))
    if sv.min() <= TOL_SING * sv.max():
        return math.inf, math.inf
    inv = as_matrix(inverse())
    return (_max_line_sum(m.T) * _max_line_sum(inv.T),
            _max_line_sum(m) * _max_line_sum(inv))


# --------------------------------------------------------------------------
# Hermitian band matrices
#
# A Hermitian matrix of bandwidth u is passed as its lower band in LAPACK
# storage: an array ``ab`` of shape (u + 1, n) with ab[d, j] = A[j + d, j].
# Entries past the last row (j + d >= n) are not part of the matrix and are
# ignored.
# --------------------------------------------------------------------------

#: Columns of the identity solved for at once by ``band_condition`` off its
#: checkerboard path; bounds its working memory to n x BAND_SOLVE_BLOCK.  64
#: was the fastest block measured at n = 504 (2.5 ms for blocks of 32-64,
#: 3.5 ms for 256; 2-core VM).
BAND_SOLVE_BLOCK = 64

#: Relative steps r of ``band_min_eig``'s bracket search, u - r |u| below its
#: upper bound u, then r = 4, 16, ...  On the benchmark's sampling pool the
#: verdict makes 219.6 ``pbtrf`` calls (396.5 without the jump,
#: ``BAND_JUMP_AT``).  At commit 1b49b05, where these made 222.6 and 399.5,
#: (2^-40, 2^-20, 1) made 221.4, (2^-32, 1) 227.9 and (1,) 294.1, and 400.6,
#: 421 and 502.5 without the jump.  A quarter of the hints are exact.
BAND_GALLOP = (2.0 ** -42, 2.0 ** -32, 2.0 ** -16, 1.0)

#: ``band_min_eig`` takes its Rayleigh-quotient jump at the first bisection
#: step that factors A - lo B while the bracket is at most
#: ``BAND_JUMP_AT`` |hi| wide: from so close a shift, inverse iteration
#: converges in ``BAND_JUMP_SOLVES`` solves unless the bottom of the
#: spectrum is clustered.  The jump's two factorizations certify a bracket
#: ``BAND_JUMP_WIDTH`` |rho| wide, which the bisection closes to adjacent
#: floats in 2-3 more steps, where the plain one takes about 30.  On the
#: benchmark's sampling pool the verdict makes 219.6 ``pbtrf`` and 18 jump
#: ``pbtrs`` calls, against 396.5 ``pbtrf`` without it.  At commit 1b49b05 a
#: 2^-16 jump with 3 solves moved the near-critical degree-5 pencil's
#: lambda_min by 1.2e-12; these constants leave it bit for bit where the
#: plain bisection puts it.
BAND_JUMP_AT = 2.0 ** -20
BAND_JUMP_WIDTH = 2.0 ** -50
BAND_JUMP_SOLVES = 2


#: LAPACK routine prefix by numpy type character, as
#: ``scipy.linalg.get_lapack_funcs`` picks it for a single array; any other
#: type gets "d".
_LAPACK_PREFIX = dict.fromkeys("?bBhHef", "s") | {"F": "c", "D": "z", "G": "z"}

_FLAPACK = "scipy.linalg._flapack"
_flapack_lock = threading.Lock()


def _flapack():
    """scipy's compiled LAPACK module, loaded without its package on first
    use and registered in ``sys.modules`` under its own name."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    with _flapack_lock:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            spec = scipy and importlib.machinery.PathFinder.find_spec(
                _FLAPACK, [os.path.join(d, "linalg")
                           for d in scipy.submodule_search_locations])
            if spec is None:
                raise ImportError(f"no {_FLAPACK} extension in the installed scipy")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
    return module


def _band_lapack(name: str, a: np.ndarray):
    """The LAPACK routine ``name`` for the dtype of ``a``: the very function
    object ``scipy.linalg.get_lapack_funcs((name,), (a,))`` returns."""
    return getattr(_flapack(), _LAPACK_PREFIX.get(a.dtype.char, "d") + name)


def band_norm(ab) -> float:
    """||A||_1 of a Hermitian band matrix, which equals ||A||_inf."""
    mag = np.abs(np.asarray(ab))
    n = mag.shape[1]
    sums = mag[0].copy()
    for d in range(1, mag.shape[0]):
        sums[d:] += mag[d, :n - d]   # A[j + d, j] lies in row j + d
        sums[:n - d] += mag[d, :n - d]  # and its mirror A[j, j + d] in row j
    return float(np.max(sums))


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the Hermitian band A in lower storage and a vector x; the
    diagonal's imaginary part is ignored, as ``pbtrf`` ignores it."""
    n = ab.shape[1]
    y = ab[0].real * x
    for d in range(1, ab.shape[0]):
        y[d:] += ab[d, :n - d] * x[:n - d]  # A[j + d, j] x_j, in row j + d
        y[:n - d] += np.conj(ab[d, :n - d]) * x[d:]  # A[j, j + d] x_(j + d), in row j
    return y


def band_definite(a) -> bool:
    """True when the Hermitian band A is positive definite: one
    factorization.  A non-finite band is a ValueError."""
    work = np.array(np.asarray_chkfinite(a), dtype=np.result_type(a, 1.0), order="F")
    return _band_lapack("pbtrf", work)(work, lower=1, overwrite_ab=1)[1] == 0


def band_min_eig(a, b=None, upper=None) -> float:
    """Smallest eigenvalue of the Hermitian band pencil (A, B), B = I if None.

    B is positive definite, unchecked here: the sampling verdict certified
    it.  A - sigma B is positive definite exactly
    when sigma lies below the eigenvalue (Sylvester's law of inertia), so
    each banded Cholesky factorization of it tells on which side sigma lies.
    From u, the smaller of the hint ``upper`` and min_j a_jj / b_jj (a unit
    vector's Rayleigh quotient, an upper bound), the trial points
    u - r |u|, r from ``BAND_GALLOP``, then each width 4 times the last,
    gallop down to the first that factors
    (up, to the first that fails, if u itself factors); that bracket is
    bisected until its midpoint equals an end, and the smallest sigma found
    at which the factorization fails is returned.

    The first bisection step that factors A - lo B while the bracket is at
    most ``BAND_JUMP_AT`` |hi| wide also jumps: from x = 1 it solves
    (A - lo B) y = B x ``BAND_JUMP_SOLVES`` times with that factor, x the
    last y over max |y|, and takes rho = lo + Re(y^H B x) / Re(y^H B y),
    the Rayleigh quotient y^H A y / y^H B y of the last y (an upper bound
    on the eigenvalue, by Courant-Fischer, with an error quadratic in the
    vector's) with no product by A, and none by B when B = I.  A finite rho
    inside (lo, hi) is a trial point, and so is the end of the bracket
    ``BAND_JUMP_WIDTH`` |rho| wide on rho's side of the eigenvalue; the
    bisection then goes on.  Any other rho costs two solves and leaves the
    bracket as it was, and a useless one at most two factorizations more.

    So a hint or a jump is only ever a trial point: where the
    factorization's success is monotone in sigma, a wrong one costs
    factorizations, never the answer; next to a nearly critical pencil
    rounding decides it over about 1e-12 relative, and the answer moves
    that much with the bracket.  With B = I a step shifts the diagonal of
    a copy of A.  A non-finite band, B or hint raises ``ValueError``.  The
    largest eigenvalue is ``-band_min_eig(-a, b)``.
    """
    a = np.asfortranarray(np.asarray_chkfinite(a))
    upper = math.inf if upper is None else fields.require_finite("upper", upper)
    b = None if b is None else np.asfortranarray(np.asarray_chkfinite(b))
    work = np.empty(a.shape, dtype=np.result_type(a, 1.0 if b is None else b, 1.0), order="F")
    pbtrf = _band_lapack("pbtrf", work)

    def definite(sigma):
        if b is None:  # A - sigma I differs from A only on its diagonal
            work[...] = a
            work[0] -= sigma
        else:
            np.subtract(a, np.multiply(sigma, b, out=work), out=work)
        return pbtrf(work, lower=1, overwrite_ab=1)[1] == 0

    def narrowed(lo, hi, sigma):
        """The bracket (lo, hi) cut at sigma, on the side its factorization
        decides."""
        return (sigma, hi) if definite(sigma) else (lo, sigma)

    def rayleigh(lo):
        """The jump's rho, from the factor of A - lo B in ``work``; NaN or
        an infinity where it over- or underflows."""
        pbtrs = _band_lapack("pbtrs", work)
        y = np.ones(work.shape[1], dtype=work.dtype)
        with np.errstate(all="ignore"):
            for _ in range(BAND_JUMP_SOLVES):
                x = y / np.max(np.abs(y))
                bx = x if b is None else _band_matvec(b, x)
                y = pbtrs(work, bx, lower=1)[0]
            by = y if b is None else _band_matvec(b, y)
            return lo + float(np.vdot(y, bx).real / np.vdot(y, by).real)

    top = min(float(np.min(a[0].real if b is None else a[0].real / b[0].real)), upper)
    scale = abs(top) or band_norm(a)
    if scale == 0.0:  # A = 0, whose every eigenvalue is 0
        return 0.0
    below = definite(top)
    edge = top
    for width in itertools.chain((step * scale for step in BAND_GALLOP), itertools.accumulate(
            itertools.repeat(4.0), operator.mul, initial=4.0 * scale)):
        sigma = top + width if below else top - width
        if not math.isfinite(sigma):
            raise NumericalFailureError("no eigenvalue bracket inside the float range")
        if definite(sigma) != below:
            break
        edge = sigma
    lo, hi = (edge, sigma) if below else (sigma, edge)
    jump = True
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        lo, hi = narrowed(lo, hi, mid)
        if jump and lo == mid and hi - lo <= BAND_JUMP_AT * abs(hi):
            jump = False
            rho = rayleigh(lo)
            if lo < rho < hi:  # rho, then its end of a bracket towards lambda
                lo, hi = narrowed(lo, hi, rho)
                width = BAND_JUMP_WIDTH * abs(rho)
                sigma = rho + width if lo == rho else rho - width
                if lo < sigma < hi:
                    lo, hi = narrowed(lo, hi, sigma)


def band_condition(ab, checkerboard: bool = False) -> float:
    """||A||_1 ||A^-1||_1 of a Hermitian positive definite band matrix.

    The inverse norm is exact, from one banded Cholesky factorization
    A = L L^H and banded solves with it.

    With ``checkerboard`` set, the caller asserts that A^-1 has checkerboard
    signs, (-1)^(i+j) (A^-1)_ij >= 0, as it has for every real totally
    positive A: by the cofactor formula (A^-1)_ij = (-1)^(i+j) M_ji / det A,
    where the minor M_ji (row j and column i deleted) is >= 0 by total
    positivity and det A > 0.  Then column j of A^-1 has the absolute sum
    sum_i (-1)^(i+j) (A^-1)_ij = (-1)^j y_j with y = A^-1 d and
    d = (1, -1, 1, ...), so ||A^-1||_1 = max_j |y_j|: one solve with one
    right-hand side.

    Otherwise the band is solved against the identity,
    ``BAND_SOLVE_BLOCK`` columns at a time.  Since L^-1 is lower triangular,
    (A^-1)[s:, s:] = (L[s:, s:] L[s:, s:]^H)^-1, and the band factor of
    L[s:, s:] is the column slice ``factor[:, s:]``; so the block of columns
    [s, s + w) is solved only on its trailing n - s rows.  The entries above
    the block are the mirrors of rows already solved: the block adds its
    column sums of |.| to its own columns, and its row sums below the block
    to the later columns, whose entries above their own trailing block
    these are.  That solves about n^2 / 2 right-hand-side rows instead of
    n^2, in n x ``BAND_SOLVE_BLOCK`` working memory.

    ||A||_1 = ||A||_inf for Hermitian A, so this is also the max-norm
    condition number.  A band with a non-finite entry raises
    ``ValueError``, one that is not positive definite
    ``NumericalFailureError``.
    """
    ab = np.asarray_chkfinite(ab)
    factor, info = _band_lapack("pbtrf", ab)(ab, lower=1)
    if info > 0:
        raise NumericalFailureError(
            f"banded Cholesky failed: {info}-th leading minor not positive definite")
    if info < 0:  # pragma: no cover - only on an illegal argument
        raise NumericalFailureError(f"banded Cholesky failed: pbtrf info {info}")
    pbtrs = _band_lapack("pbtrs", factor)

    def solve(start, rhs):
        """A[start:, start:]^-1 rhs, from the trailing columns of the factor."""
        x, info = pbtrs(factor[:, start:], rhs, lower=1, overwrite_b=1)
        if info != 0:  # pragma: no cover - only on an illegal argument
            raise NumericalFailureError(f"banded solve failed: pbtrs info {info}")
        return x

    n = factor.shape[1]
    if checkerboard:
        signs = np.ones((n, 1), dtype=factor.dtype, order="F")
        signs[1::2] = -1.0
        return band_norm(ab) * float(np.max(np.abs(solve(0, signs))))
    sums = np.zeros(n)
    for start in range(0, n, BAND_SOLVE_BLOCK):
        w = min(BAND_SOLVE_BLOCK, n - start)
        rhs = np.zeros((n - start, w), dtype=factor.dtype, order="F")
        rhs[np.arange(w), np.arange(w)] = 1.0
        block = solve(start, rhs)
        sums[start:start + w] += line_sums(block.T)
        sums[start + w:] += line_sums(block[w:])
    return band_norm(ab) * float(np.max(sums))


def gain_probe(a) -> float:
    """Upper bound on the smallest max-norm gain, from probing with the
    coordinate unit vectors: min_j ||A e_j||_inf = min_j max_i |a_ij|."""
    return float(np.min(np.max(np.abs(as_matrix(a)), axis=0)))
