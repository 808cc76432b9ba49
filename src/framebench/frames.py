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

This module forms the Gram matrices and the frame operator and takes their
extremal eigenvalues.  No command needs a dual or a frame-operator power as
a family: the battery (``equivalence``) and the companion (``rdual``) apply
them in closed form, from one eigendecomposition of the reference Gram.
"""

from dataclasses import dataclass

import numpy as np

from . import fields, linalg
from .errors import DimensionMismatchError, LadderTooShortError

#: Lower bounds at or below this are reported as numerically zero.
TOL_FRAME = 1e-10


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
