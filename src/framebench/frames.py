"""Finite truncations of vector families and their frame-related operators.

A countable family indexed by ``{1..M}`` is represented by the N x M matrix
of its expansion coefficients against an ambient orthonormal reference basis
(column k = member k).  The inner product convention is linear in the first
slot: ``<f, g> = sum_i f_i * conj(g_i)``.

Everything here is a finite-dimensional proxy.  The coordinate image under
the canonical-dual analysis map stands in for the p-normed coefficient space
of a family (for p = inf this is the plain coordinate max-norm; the
pointwise-limit completion that the infinite-dimensional theory needs has no
finite-dimensional counterpart and is deliberately not modelled).  Whether a
family "is" a frame or a Riesz sequence is always a verdict *at this
truncation*: a lower bound above ``TOL_FRAME``.
"""

from dataclasses import dataclass

import numpy as np

from . import fields, linalg
from .errors import DimensionMismatchError, LadderTooShortError, NotAFrameError

#: Lower bounds at or below this are reported as numerically zero.
TOL_FRAME = 1e-10


def inner(f, g) -> complex:
    """Inner product, linear in the first argument: sum_i f_i conj(g_i)."""
    return complex(np.vdot(np.asarray(g), np.asarray(f)))


@dataclass(frozen=True)
class VectorFamily:
    """A finite vector family in coefficients against the ambient ONB.

    ``coeffs`` is N x M, real or complex by the dtype rule of ``fields``;
    column k holds member k.  Instances are immutable: the array is copied
    and marked read-only.
    """

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = linalg.as_matrix(np.array(self.coeffs))
        m.flags.writeable = False
        object.__setattr__(self, "coeffs", m)

    @property
    def ambient_dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def member_count(self) -> int:
        return self.coeffs.shape[1]

    def member(self, k: int) -> np.ndarray:
        return self.coeffs[:, k]

    def to_json(self) -> dict:
        """Serialize to the interchange schema (row-major [re, im] pairs)."""
        return {
            "label": self.label,
            "ambient_dim": self.ambient_dim,
            "member_count": self.member_count,
            "coeffs": fields.to_pairs(self.coeffs),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VectorFamily":
        fields.require_fields(obj, ("label",),
                              required=("ambient_dim", "member_count", "coeffs"))
        n = fields.require_integer("ambient_dim", obj["ambient_dim"])
        m = fields.require_integer("member_count", obj["member_count"])
        flat = fields.require_pairs("coeffs", obj["coeffs"])
        if flat.size != n * m:
            raise DimensionMismatchError(
                f"coeffs holds {flat.size} [re, im] pairs, expected {n}*{m}"
            )
        return cls(coeffs=flat.reshape(n, m), label=str(obj.get("label", "")))

    @classmethod
    def onb(cls, n: int, label: str = "onb") -> "VectorFamily":
        return cls(np.eye(n), label=label)


@dataclass(frozen=True)
class FrameBounds:
    """Two-sided bound pair; ``lower > 0`` is the positive verdict."""

    lower: float
    upper: float

    def is_frame(self, tol: float = TOL_FRAME) -> bool:
        return self.lower > tol


@dataclass(frozen=True)
class TruncationLadder:
    """Strictly increasing truncation sizes used to probe uniformity claims."""

    sizes: tuple = (16, 32, 64)

    def __post_init__(self):
        sizes = fields.require_sizes("sizes", self.sizes)
        if len(sizes) < 2:
            raise LadderTooShortError("a ladder needs at least two sizes")
        if any(s < 1 for s in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise LadderTooShortError(
                f"a ladder's sizes must be positive and strictly increasing: {list(sizes)}")
        object.__setattr__(self, "sizes", sizes)

    def __iter__(self):
        return iter(self.sizes)


def _check_same_ambient(psi: VectorFamily, phi: VectorFamily):
    if psi.ambient_dim != phi.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {psi.ambient_dim} vs {phi.ambient_dim}"
        )


def cross_gram(psi: VectorFamily, phi: VectorFamily) -> np.ndarray:
    """Cross Gram matrix with entry (k, l) = <phi_l, psi_k>.

    Equals the composition of the analysis map of ``psi`` with the synthesis
    map of ``phi``; its conjugate transpose is ``cross_gram(phi, psi)``.
    """
    _check_same_ambient(psi, phi)
    return linalg._finite("Gram or frame-operator entries of these coefficients",
                          np.matmul, psi.coeffs.conj().T, phi.coeffs)


def gram(psi: VectorFamily) -> np.ndarray:
    """Gram matrix of a single family (Hermitian positive semidefinite)."""
    return cross_gram(psi, psi)


def analysis(psi: VectorFamily, f) -> np.ndarray:
    """Analysis coefficients (<f, psi_k>)_k of a vector f."""
    v = np.asarray(f)
    if v.shape != (psi.ambient_dim,):
        raise DimensionMismatchError(
            f"vector has shape {v.shape}, expected ({psi.ambient_dim},)"
        )
    return psi.coeffs.conj().T @ v


def synthesis(psi: VectorFamily, c) -> np.ndarray:
    """Synthesis sum_k c_k psi_k of a coefficient vector c."""
    v = np.asarray(c)
    if v.shape != (psi.member_count,):
        raise DimensionMismatchError(
            f"coefficients have shape {v.shape}, expected ({psi.member_count},)"
        )
    return psi.coeffs @ v


def frame_operator(psi: VectorFamily) -> np.ndarray:
    """Frame operator as an N x N matrix (synthesis composed with analysis)."""
    return linalg._finite("Gram or frame-operator entries of these coefficients",
                          np.matmul, psi.coeffs, psi.coeffs.conj().T)


def frame_bounds(psi: VectorFamily) -> FrameBounds:
    """Extremal eigenvalues of the frame operator (tiny negatives clipped to 0)."""
    w = linalg.hermitian_eigvals(frame_operator(psi))
    return FrameBounds(lower=max(float(w[0]), 0.0), upper=max(float(w[-1]), 0.0))


def riesz_bounds(psi: VectorFamily) -> FrameBounds:
    """Extremal eigenvalues of the Gram matrix (Riesz-sequence verdict)."""
    w = linalg.hermitian_eigvals(gram(psi))
    return FrameBounds(lower=max(float(w[0]), 0.0), upper=max(float(w[-1]), 0.0))


def canonical_dual(psi: VectorFamily, tol: float = TOL_FRAME) -> VectorFamily:
    """Canonical dual family: columns are S^-1 applied to the members.

    Raises ``NotAFrameError`` when the lower frame bound is numerically zero
    at this truncation.
    """
    dual = power_transform(psi, -1.0, tol=tol).coeffs
    return VectorFamily(dual, label=f"dual({psi.label})" if psi.label else "dual")


def power_transform(phi: VectorFamily, alpha: float,
                    tol: float = TOL_FRAME) -> VectorFamily:
    """Apply a fractional power of the frame operator to every member.

    alpha = -1/2 orthonormalizes a Riesz basis; alpha = -1 gives the
    canonical dual.
    """
    dec = linalg.hermitian_eig(frame_operator(phi))
    lower = float(dec.eigenvalues[0])
    if lower <= tol:
        raise NotAFrameError(f"lower frame bound {max(lower, 0.0):.3e} <= {tol:.0e}")
    lab = f"S^{alpha:g}({phi.label})" if phi.label else f"S^{alpha:g}"
    return VectorFamily(dec.power(alpha) @ phi.coeffs, label=lab)
