"""Dense reference constructions that the tests check the library against.

Each is plain numpy on the library's records: the inner product, the dense
condition number (SVD and LU), Hermitian matrix powers, frame-operator
powers and the canonical dual, the dense sampling matrix, autocorrelation
Gram and shift Gram, and the cross-Gram localization ladder.  The commands
compute none of these; they take the same quantities from closed forms in
spectra and bands.
"""

import math

import numpy as np

from framebench import frames, linalg, localization, sampling
from framebench.frames import VectorFamily


def inner(f, g) -> complex:
    """<f, g>, linear in the first argument: sum_i f_i conj(g_i)."""
    return complex(np.vdot(np.asarray(g), np.asarray(f)))


def condition_p(a, p) -> float:
    """||A||_p ||A^-1||_p for p in {1, 2, inf}, from an SVD and an LU
    inverse; ``math.inf`` when sigma_min <= ``linalg.TOL_SING`` sigma_max."""
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= linalg.TOL_SING * sv[0]:
        return math.inf
    if p == 2:
        return float(sv[0] / sv[-1])
    return float(np.linalg.norm(a, p) * np.linalg.norm(np.linalg.inv(a), p))


def hermitian_power(a, alpha: float) -> np.ndarray:
    """A^alpha = V diag(w^alpha) V^H of a Hermitian positive definite A,
    from numpy's ``eigh``."""
    w, v = np.linalg.eigh(a)
    return (v * w ** alpha) @ v.conj().T


def power(phi: VectorFamily, alpha: float) -> VectorFamily:
    """S^alpha phi: a power of the frame operator S applied to every member
    (alpha = -1/2 orthonormalizes a Riesz basis)."""
    return VectorFamily(hermitian_power(phi.coeffs @ phi.coeffs.conj().T, alpha)
                        @ phi.coeffs)


def canonical_dual(phi: VectorFamily) -> VectorFamily:
    """The canonical dual family S^-1 phi."""
    return power(phi, -1.0)


def sampling_matrix(g, x, window: int) -> np.ndarray:
    """P[l, k] = g(x_l - k) over the centered window."""
    return sampling.generator_eval(g, np.subtract.outer(x.points(window), x.window(window)))


def autocorrelation_gram(g, x, window: int) -> np.ndarray:
    """P^H P of the sampling matrix."""
    p = sampling_matrix(g, x, window)
    return p.conj().T @ p


def shift_gram(g, window: int) -> np.ndarray:
    """The Hermitian Toeplitz Gram of the generator's integer shifts: entry
    (k, l) is row[k - l] on and below the diagonal, conj(row)[l - k] above,
    for the library's exact shift row."""
    row = sampling._shift_row(g, window)
    lag = np.subtract.outer(np.arange(window), np.arange(window))
    return np.where(lag >= 0, row[lag], np.conj(row)[-lag])


def mutual_localization(family_gen, profile, ladder):
    """``(norms, verdict)``: the profile norm of each size's cross Gram and
    their ladder verdict."""
    norms = [profile.norm(frames.cross_gram(*family_gen(size))) for size in ladder]
    return norms, localization.ladder_verdict(norms)
