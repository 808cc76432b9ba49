"""Riesz-dual sequences over a Riesz-basis reference family.

Given a family psi and a square full-rank reference family phi (both indexed
by the same truncated index set), the Riesz-dual sequence omega is

    omega_k = sum_l <psi_l, phi_k> * (S_phi^{-1/2} phi)_l ,

i.e. the analysis pattern of psi against phi re-synthesised through the
orthonormalized reference.  Its headline property: psi has a positive lower
frame bound exactly when omega has a positive lower Riesz bound, which turns
frame verdicts into Gram-invertibility verdicts.

The construction also transfers decay: the cross Gram of omega against phi
factors exactly as  G(omega, phi) = G(psi, phi)^T . G(S^{-1/4} phi)  (plain
transpose; for real families this coincides with the adjoint form, and decay
norms cannot tell the two apart since they are conjugation-invariant), so
localization of psi against phi propagates to omega.

The pair is checked once, by ``_check_rdual_inputs``, before anything is
computed: phi's lower Riesz bound against the caller's tol is the one
definiteness test of the reference.  The battery's reference steps reuse
that check, its G_phi and the eigenpairs that give G_phi^-1/2.  The
companion's Gram is ``frames.gram(omega)``, and
``duality_verdict(psi, omega, tol)`` compares the two verdicts.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import frames, linalg
from .errors import DimensionMismatchError, NotRieszBasisError
from .frames import VectorFamily
from .ladder import in_borderline_band


def _check_rdual_inputs(psi: VectorFamily, phi: VectorFamily, tol: float
                        ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Return G_phi = phi^H phi and its eigenpairs ``(w, v)`` once the pair
    is checked.  For a square family G_phi and S_phi share their spectrum,
    so w[0] is the lower Riesz bound tested against tol."""
    frames._check_same_ambient(psi, phi)
    if psi.member_count != phi.member_count:
        raise DimensionMismatchError(
            "families must share one index set: "
            f"{psi.member_count} vs {phi.member_count} members"
        )
    if phi.member_count != phi.ambient_dim:
        raise NotRieszBasisError(
            f"reference family is {phi.ambient_dim}x{phi.member_count}, "
            "a Riesz basis at this truncation must be square"
        )
    g = frames.gram(phi)
    w, v = linalg.hermitian_eig(g)
    lower = max(float(w[0]), 0.0)
    if lower <= tol:
        raise NotRieszBasisError(f"reference lower Riesz bound {lower:.3e} <= {tol:g}")
    return g, w, v


def rdual(psi: VectorFamily, phi: VectorFamily,
          tol: float = frames.TOL_FRAME) -> VectorFamily:
    """Riesz-dual sequence of ``psi`` over the Riesz basis ``phi``.

    Matrix form: Omega = Gamma @ G(phi, psi)^T with Gamma the coefficients
    of the orthonormalized reference S_phi^{-1/2} phi = phi G_phi^{-1/2}
    (polar decomposition).  Zero members of ``psi`` give zero columns.
    Coefficients past the float range are a ``NumericalFailureError``.
    """
    _, w, v = _check_rdual_inputs(psi, phi, tol)
    omega = linalg._finite(
        "Riesz-dual coefficients",
        lambda: phi.coeffs @ linalg.inverse_sqrt(w, v) @ frames.cross_gram(phi, psi).T)
    return VectorFamily(omega, label=f"rdual({psi.label})" if psi.label else "rdual")


@dataclass(frozen=True)
class RdualDualityReport:
    """Frame verdict of psi vs Riesz verdict of its dual companion."""

    frame_lower: float
    riesz_lower: float
    frame_verdict: bool
    riesz_verdict: bool
    agree: bool
    borderline: bool

    def to_json(self) -> dict:
        return asdict(self)


def duality_verdict(psi: VectorFamily, omega: VectorFamily,
                    tol: float) -> RdualDualityReport:
    """Check that the frame verdict of psi matches the Riesz verdict of its
    companion ``omega = rdual(psi, phi)``.

    In exact arithmetic the two verdicts always agree; a disagreement here
    signals borderline conditioning and is reported, not raised.  Runs whose
    lower bound falls inside [tol, 10 tol] are flagged borderline.
    """
    frame_lower = frames.frame_bounds(psi).lower
    riesz_lower = frames.riesz_bounds(omega).lower
    frame_verdict, riesz_verdict = frame_lower > tol, riesz_lower > tol
    return RdualDualityReport(
        frame_lower=frame_lower,
        riesz_lower=riesz_lower,
        frame_verdict=frame_verdict,
        riesz_verdict=riesz_verdict,
        agree=frame_verdict == riesz_verdict,
        borderline=any(in_borderline_band(b, tol) for b in (frame_lower, riesz_lower)),
    )
