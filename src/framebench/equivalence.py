"""Ten-condition consistency battery over a truncation ladder.

For a family psi measured against a localized Riesz-basis reference phi
(with the dual companion omega of :mod:`framebench.rdual`), ten verdicts
that coincide in exact arithmetic are computed from finite-truncation
proxies:

====  ==========================================================  =========
 id   witness quantity per ladder size                            type
====  ==========================================================  =========
  1   smallest eigenvalue of the frame operator of psi            gain
  2   1-norm condition of the frame operator in dual coordinates  condition
  3   same matrix, max-norm condition                             condition
  4   max-norm gain probe of the analysis coordinate matrix       gain
  5   duality twin of 4 (adjoint of the synthesis map)            gain
  6   max-norm gain probe of the companion synthesis matrix       gain
  7   duality twin of 6 (adjoint of the companion analysis map)   gain
  8   1-norm condition of the companion Gram                      condition
  9   max-norm condition of the companion Gram                    condition
 10   smallest eigenvalue of the companion Gram                   gain
====  ==========================================================  =========

Closed ranges are meaningless at a single finite size (every range is
closed), so the proxy is *uniformity across the ladder*, decided by the
rules of :mod:`framebench.ladder`.  This interpretive decision is printed in
every report.

Every matrix above is a congruence or a similarity of S_psi by the square
reference phi, so one ladder step needs only the spectra of the reference
Gram G_phi = phi^H phi = W w W^H (formed once, by the reference check) and
of S_psi = U Lambda U^H.  With B = ``cross_gram(psi, phi)`` and phi^-1 =
G_phi^-1 phi^H = (W / w) (phi W)^H (the adjoint of the canonical dual):

* coord = phi^-1 S_psi phi = (phi^-1 U) Lambda (U^H phi), and its inverse
  is (phi^-1 U) Lambda^-1 (U^H phi) (witnesses 2 and 3);
* the companion Gram G_omega = conj(B^H B) has the moduli and spectrum of
  B^H B = phi^H S_psi phi, whose inverse is (phi^-1 U) Lambda^-1
  (phi^-1 U)^H (witnesses 8, 9 and 10);
* the companion synthesis coordinate matrix is dual^H omega =
  phi^-1 S_phi^-1/2 phi conj(B) = G_phi^-1/2 conj(B) by the polar
  decomposition of phi (witnesses 6 and 7).

The companion itself (``rdual.rdual``) is never formed, and no step
makes an SVD or an LU inverse.  The singular flag of witnesses 2 and 3
comes from Lambda; coord is only similar to S_psi, so its own singular
values may put it on the other side of ``linalg.TOL_SING``.  The singular
flag of witnesses 8 and 9, and witness 10, come from the eigenvalues of
B^H B (values only).
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import frames, linalg, localization, rdual
from .errors import PreconditionEvidenceError
from .frames import TruncationLadder, VectorFamily
from .ladder import LADDER_DECAY_FACTOR, Witness, verdicts_agree
from .localization import LocalizationProfile

PROXY_DISCLAIMER = (
    "closed-range statements are vacuous at any single truncation; the "
    f"battery fails a witness that degrades by more than a factor of "
    f"{LADDER_DECAY_FACTOR:g} across the ladder and calls that the "
    "closed-range proxy"
)

#: id -> (kind, statement, proxy note) of each battery witness.
_WITNESSES = {
    1: ("gain", "test family attains a positive lower frame bound",
        "smallest eigenvalue of the frame operator"),
    2: ("condition",
        "frame operator of the test family is well-conditioned on 1-norm coordinates",
        "1-norm condition number of the frame operator conjugated into "
        "dual coordinates"),
    3: ("condition",
        "frame operator of the test family is well-conditioned on max-norm coordinates",
        "max-norm condition number of the same coordinate matrix"),
    4: ("gain",
        "analysis coordinate map of the test family keeps a uniform max-norm gain",
        "coordinate-probe upper bound on the smallest max-norm gain of the "
        "analysis coordinate matrix; uniformity across the ladder is the "
        "closed-range proxy"),
    5: ("gain", "synthesis map of the test family stays uniformly onto in the 1-norm",
        "duality-derived from condition 4: the adjoint of the 1-norm "
        "synthesis map is the max-norm analysis map, so the same "
        "quantities witness surjectivity"),
    6: ("gain",
        "synthesis coordinate map of the dual companion keeps a uniform max-norm gain",
        "coordinate-probe upper bound on the smallest max-norm gain of the "
        "companion synthesis coordinate matrix; uniformity across the ladder "
        "is the closed-range proxy"),
    7: ("gain", "analysis map of the dual companion stays uniformly onto in the 1-norm",
        "duality-derived from condition 6: the adjoint of the companion "
        "1-norm analysis map is its max-norm synthesis map"),
    8: ("condition", "Gram matrix of the dual companion stays invertible in the 1-norm",
        "1-norm condition number of the companion Gram (singular flag when "
        "sigma_min is below threshold)"),
    9: ("condition", "Gram matrix of the dual companion stays invertible in the max-norm",
        "max-norm condition number of the companion Gram"),
    10: ("gain", "dual companion attains a positive lower Riesz bound",
         "smallest eigenvalue of the companion Gram"),
}


@dataclass(frozen=True)
class EquivalenceReport:
    """All ten witnesses, the cross-condition consistency flag, and notes."""

    witnesses: Tuple[Witness, ...]
    consistent: bool
    coorbit_note: str
    ladder: Tuple[int, ...]

    def verdicts(self) -> dict:
        return {w.id: w.verdict for w in self.witnesses}

    def to_json(self) -> dict:
        return {
            "ladder": list(self.ladder),
            "conditions": [w.to_json() for w in self.witnesses],
            "consistent": self.consistent,
            "coorbit_note": self.coorbit_note,
        }


def _reference_steps(family_gen, profile, ladder, tol):
    """Check the reference phi at every size (``rdual``'s Riesz-basis and
    index-set checks), then the localization of the G_phi that check formed
    along the ladder; return ``(psi, phi, w, v)``, (w, v) the eigenpairs of
    G_phi, per size."""
    steps, norms = [], []
    for size in ladder:
        psi, phi = family_gen(size)
        g, w, v = rdual._check_rdual_inputs(psi, phi, tol)
        steps.append((psi, phi, w, v))
        norms.append(profile.norm(g))
    verdict = localization.ladder_verdict(norms)
    if verdict != localization.VERDICT_LOCALIZED:
        raise PreconditionEvidenceError(
            "reference family failed its localization evidence check: "
            f"ladder verdict {verdict!r}, norms {norms}"
        )
    return steps


def run_battery(family_gen: Callable[[int], Tuple[VectorFamily, VectorFamily]],
                profile: LocalizationProfile,
                ladder: TruncationLadder,
                tol: float = frames.TOL_FRAME) -> EquivalenceReport:
    """Evaluate all ten finite-truncation proxies along the ladder.

    ``family_gen(size)`` must return a ``(psi, phi)`` pair at every ladder
    size, sharing one index set (``DimensionMismatchError`` otherwise).  The
    reference ``phi`` has to pass a Riesz-basis check and a
    localization-evidence check at every size, otherwise
    ``PreconditionEvidenceError`` is raised (``NotRieszBasisError`` is one).
    All of this is checked before any witness is computed.  Each ladder step
    appends one row of the ten values; column ``id`` of the rows, with the
    kind, statement and note of ``_WITNESSES[id]``, makes witness ``id``.
    """
    rows, finite = [], linalg._finite
    for psi, phi, w, v in _reference_steps(family_gen, profile, ladder, tol):
        ref_inv = finite(  # dual^H = phi^-1; 1 / w overflows for a subnormal w
            "reference inverse entries", lambda: (v / w) @ (phi.coeffs @ v).conj().T)

        # Each product below may leave the float range, but not left = phi^-1 U:
        # its entries are at most ||phi^-1||_2 = w[0]^-1/2, near 1e154 at worst.
        lam_psi, u = linalg.hermitian_eig(frames.frame_operator(psi))
        left, right = ref_inv @ u, u.conj().T @ phi.coeffs
        cond2, cond3 = linalg.condition_1_inf(
            finite("coordinate matrix entries", lambda: (left * lam_psi) @ right), lam_psi,
            lambda: finite("coordinate inverse entries", lambda: (left / lam_psi) @ right))

        cross = frames.cross_gram(psi, phi)
        gain4 = linalg.gain_probe(cross)
        cross_conj = cross.conj()
        gain6 = linalg.gain_probe(finite("companion synthesis coordinate entries", np.matmul,
                                         linalg.inverse_sqrt(w, v), cross_conj))

        g_conj = finite("companion Gram entries", np.matmul, cross_conj.T, cross)  # B^H B
        lam_g = linalg.hermitian_eigvals(g_conj)  # also checks g_conj
        cond8, cond9 = linalg.condition_1_inf(g_conj, lam_g, lambda: finite(
            "companion Gram inverse entries", lambda: (left / lam_psi) @ left.conj().T))
        rows.append((max(float(lam_psi[0]), 0.0), cond2, cond3, gain4, gain4,
                     gain6, gain6, cond8, cond9, max(float(lam_g[0]), 0.0)))

    witnesses = []
    for (cid, (kind, statement, note)), values in zip(_WITNESSES.items(), zip(*rows)):
        if cid in (4, 6):  # the gain probes; 5 and 7 are their duality twins
            note = ("pointwise injectivity holds at every size; "
                    if all(v > tol for v in values)
                    else "pointwise injectivity already fails at some size; ") + note
        witnesses.append(Witness.from_ladder(cid, statement, note, ladder.sizes,
                                             values, kind, tol))
    return EquivalenceReport(
        witnesses=tuple(witnesses),
        consistent=verdicts_agree(w.verdict for w in witnesses),
        coorbit_note=PROXY_DISCLAIMER,
        ladder=ladder.sizes,
    )


# ---------------------------------------------------------------------------
# Counterexample fixture: harmonically shrinking members over the ONB.
# At truncation N the lower frame bound is exactly 1/N^2 and the companion
# Gram is diag(1/k^2), so every uniformity proxy fails along a ladder while
# each fixed size still looks invertible pointwise.
# ---------------------------------------------------------------------------

def counterexample_family(size: int) -> Tuple[VectorFamily, VectorFamily]:
    """The harmonic-decay fixture over the orthonormal reference:
    psi_k = (1/k) e_k.  The dual companion comes out as (1/k) e_k too, and
    its Gram is diag(1/k^2).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    phi = VectorFamily.onb(size, label="reference-onb")
    psi = VectorFamily(phi.coeffs / np.arange(1, size + 1), label="harmonic-decay")
    return psi, phi


def counterexample_expected(size: int) -> dict:
    """Closed-form witness table for the harmonic-decay fixture."""
    ks = np.arange(1, size + 1, dtype=float)
    return {
        "size": size,
        "frame_lower": 1.0 / size**2,
        "frame_upper": 1.0,
        "companion_gram_diagonal": (1.0 / ks**2).tolist(),
        "condition_2norm": float(size**2),
    }


def perturbed_onb_family(size: int, epsilon: float = 0.3, seed: int = 0,
                         ) -> Tuple[VectorFamily, VectorFamily]:
    """A well-conditioned test pair: psi = I + E with spectral norm of E fixed.

    E is a dense seeded Gaussian perturbation rescaled to operator 2-norm
    ``epsilon`` < 1 by ``linalg.pnorm_operator`` (its largest singular
    value, no SVD), so the frame bound stays above (1 - epsilon)^2 at every
    size.  E has no off-diagonal decay, so psi is *not* mutually localized
    with the reference: the Jaffard norm of its cross Gram grows with the
    size, and so do the 1-norm and max-norm witnesses (2, 3, 8, 9), roughly
    like sqrt(size).  All ten battery conditions pass only on short ladders
    such as (8, 16, 32, 64); on (16, ..., 512) the battery is no longer
    consistent.
    """
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    e *= epsilon / linalg.pnorm_operator(e)
    psi = VectorFamily(np.eye(size) + e, label="perturbed-onb")
    return psi, VectorFamily.onb(size, label="reference-onb")
