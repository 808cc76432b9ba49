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
``verify_rdual_localization`` checks both the decay ladders and that
factorization residual at every size.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import frames, linalg
from .errors import DimensionMismatchError, NotRieszBasisError
from .frames import TruncationLadder, VectorFamily
from .localization import (
    DecayReport,
    FamilyPairGen,
    LocalizationProfile,
    decay_report,
)


def _check_index_sets(psi: VectorFamily, phi: VectorFamily):
    if psi.ambient_dim != phi.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {psi.ambient_dim} vs {phi.ambient_dim}"
        )
    if psi.member_count != phi.member_count:
        raise DimensionMismatchError(
            "families must share one index set: "
            f"{psi.member_count} vs {phi.member_count} members"
        )


def _check_rdual_inputs(psi: VectorFamily, phi: VectorFamily,
                        tol: float) -> linalg.SpectralDecomposition:
    _check_index_sets(psi, phi)
    if phi.member_count != phi.ambient_dim:
        raise NotRieszBasisError(
            f"reference family is {phi.ambient_dim}x{phi.member_count}, "
            "a Riesz basis at this truncation must be square"
        )
    spectrum = frames.frame_spectrum(phi)
    # For a square family the frame operator and the Gram share their
    # spectrum, so its smallest eigenvalue is the lower Riesz bound.
    lower = max(float(spectrum.eigenvalues[0]), 0.0)
    if lower <= tol:
        raise NotRieszBasisError(
            f"reference lower Riesz bound {lower:.3e} <= {tol:.0e}"
        )
    return spectrum


def companion(psi: VectorFamily, phi: VectorFamily,
              spectrum: linalg.SpectralDecomposition) -> VectorFamily:
    """``rdual`` given ``frames.frame_spectrum(phi)`` of a checked reference."""
    _check_index_sets(psi, phi)
    gamma = spectrum.power(-0.5) @ phi.coeffs
    omega = gamma @ frames.cross_gram(phi, psi).T
    lab = f"rdual({psi.label})" if psi.label else "rdual"
    return VectorFamily(omega, label=lab)


def rdual(psi: VectorFamily, phi: VectorFamily,
          tol: float = frames.TOL_FRAME) -> VectorFamily:
    """Riesz-dual sequence of ``psi`` over the Riesz basis ``phi``.

    Matrix form: Omega = Gamma @ G(phi, psi)^T with Gamma the coefficients
    of the orthonormalized reference S_phi^{-1/2} phi.  Zero members of
    ``psi`` are allowed and simply produce zero columns.
    """
    return companion(psi, phi, _check_rdual_inputs(psi, phi, tol))


def rdual_gram(psi: VectorFamily, phi: VectorFamily,
               tol: float = frames.TOL_FRAME) -> np.ndarray:
    """Gram matrix of the Riesz-dual sequence (Hermitian PSD)."""
    return frames.gram(rdual(psi, phi, tol=tol))


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
        return {
            "frame_lower": self.frame_lower,
            "riesz_lower": self.riesz_lower,
            "frame_verdict": self.frame_verdict,
            "riesz_verdict": self.riesz_verdict,
            "agree": self.agree,
            "borderline": self.borderline,
        }


def verify_rdual_duality(psi: VectorFamily, phi: VectorFamily,
                         tol: float = frames.TOL_FRAME) -> RdualDualityReport:
    """Check that the frame verdict of psi matches the Riesz verdict of omega.

    In exact arithmetic the two verdicts always agree; a disagreement here
    signals borderline conditioning and is reported, not raised.  Runs whose
    lower bound falls inside [tol, 10 tol] are flagged borderline.
    """
    return duality_verdict(psi, rdual(psi, phi, tol=tol), tol)


def duality_verdict(psi: VectorFamily, omega: VectorFamily,
                    tol: float) -> RdualDualityReport:
    """``verify_rdual_duality`` given the companion ``omega`` of ``psi``."""
    frame_lower = frames.frame_bounds(psi).lower
    riesz_lower = frames.riesz_bounds(omega).lower
    frame_verdict = frame_lower > tol
    riesz_verdict = riesz_lower > tol
    borderline = any(tol <= b <= 10 * tol for b in (frame_lower, riesz_lower))
    return RdualDualityReport(
        frame_lower=frame_lower,
        riesz_lower=riesz_lower,
        frame_verdict=frame_verdict,
        riesz_verdict=riesz_verdict,
        agree=frame_verdict == riesz_verdict,
        borderline=borderline,
    )


@dataclass(frozen=True)
class RdualLocalizationReport:
    """Decay ladders for the dual companion plus factorization residuals."""

    omega_vs_reference: DecayReport
    omega_vs_reference_dual: DecayReport
    omega_vs_omega: DecayReport
    factorization_residuals: Tuple[Tuple[int, float], ...]
    factorization_ok: bool

    def all_localized(self) -> bool:
        return all(
            r.verdict == "localized"
            for r in (self.omega_vs_reference, self.omega_vs_reference_dual,
                      self.omega_vs_omega)
        )

    def to_json(self) -> dict:
        return {
            "omega_vs_reference": self.omega_vs_reference.to_json(),
            "omega_vs_reference_dual": self.omega_vs_reference_dual.to_json(),
            "omega_vs_omega": self.omega_vs_omega.to_json(),
            "factorization_residuals": [
                [int(s), float(r)] for s, r in self.factorization_residuals
            ],
            "factorization_ok": self.factorization_ok,
        }


def verify_rdual_localization(family_gen: FamilyPairGen,
                              profile: LocalizationProfile,
                              ladder: TruncationLadder,
                              tol: float = frames.TOL_FRAME) -> RdualLocalizationReport:
    """Decay evidence for the dual companion along a ladder.

    At every size this builds omega from ``family_gen(size)`` and records the
    profile norms of G(omega, phi), G(omega, dual phi) and G(omega), together
    with the residual of the factorization
    G(omega, phi) = G(psi, phi)^T . G(S^{-1/4} phi).
    """
    n_ref, n_dual, n_self, resid = [], [], [], []
    for size in ladder:
        psi, phi = family_gen(size)
        spectrum = _check_rdual_inputs(psi, phi, tol)
        omega = companion(psi, phi, spectrum)
        dual = spectrum.power(-1.0) @ phi.coeffs
        g_omega_phi = frames.cross_gram(omega, phi)
        n_ref.append(profile.norm(g_omega_phi))
        n_dual.append(profile.norm(omega.coeffs.conj().T @ dual))
        n_self.append(profile.norm(frames.gram(omega)))
        quarter = spectrum.power(-0.25) @ phi.coeffs
        factor = frames.cross_gram(psi, phi).T @ (quarter.conj().T @ quarter)
        resid.append((size, linalg.pnorm_operator(g_omega_phi - factor, 2)))
    return RdualLocalizationReport(
        omega_vs_reference=decay_report(profile, ladder.sizes, n_ref),
        omega_vs_reference_dual=decay_report(profile, ladder.sizes, n_dual),
        omega_vs_omega=decay_report(profile, ladder.sizes, n_self),
        factorization_residuals=tuple(resid),
        factorization_ok=all(r <= linalg.TOL_CALC for _, r in resid),
    )
