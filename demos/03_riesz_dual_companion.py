#!/usr/bin/env python3
"""The Riesz-dual companion: frame questions become Gram-invertibility ones.

Given a family psi over a Riesz-basis reference phi, the companion sequence
omega re-synthesises the analysis pattern of psi through the orthonormalized
reference.  psi has a positive lower frame bound exactly when omega has a
positive lower Riesz bound, and decay against phi transfers to omega through
an explicit cross-Gram factorization.
"""

import numpy as np

import framebench as fb
from framebench.rdual import duality_verdict, rdual

rng = np.random.default_rng(3)
n = 8

print("== duality on a well-behaved pair ==")
e = rng.standard_normal((n, n))
e *= 0.4 / fb.pnorm_operator(e)
phi = fb.VectorFamily(np.eye(n) + e, label="reference")
psi = fb.VectorFamily(rng.standard_normal((n, n)), label="test-family")
rep = duality_verdict(psi, rdual(psi, phi), fb.frames.TOL_FRAME)
print(f"frame lower bound {rep.frame_lower:.4f} -> verdict {rep.frame_verdict}")
print(f"companion Riesz lower bound {rep.riesz_lower:.4f} -> verdict "
      f"{rep.riesz_verdict}")
print(f"verdicts agree: {rep.agree}")

print()
print("== a rank-deficient family flips both verdicts at once ==")
coeffs = np.asarray(psi.coeffs).copy()
coeffs[:, -1] = coeffs[:, 0]
deficient = fb.VectorFamily(coeffs)
rep = duality_verdict(deficient, rdual(deficient, phi), fb.frames.TOL_FRAME)
print(f"frame verdict {rep.frame_verdict}, companion Riesz verdict "
      f"{rep.riesz_verdict}, agree: {rep.agree}")

print()
print("== the harmonic-decay counterexample ==")
print("members shrink like 1/k: every finite section is invertible, but the")
print("bounds collapse along the ladder instead of staying uniform")
for size in (8, 16, 32):
    psi_c, phi_c = fb.counterexample_family(size)
    omega = rdual(psi_c, phi_c)
    print(f"  N={size:3d}: frame lower {fb.frame_bounds(psi_c).lower:.6f} "
          f"(= 1/N^2), companion Gram diag tail "
          f"{np.real(fb.gram(omega)[-1, -1]):.6f}")

print()
print("== decay transfer to the companion ==")
ladder = fb.TruncationLadder((8, 16, 32, 64))
profile = fb.LocalizationProfile(kind="jaffard", s=2.0)


def companion_pair(size):
    psi_c, phi_c = fb.counterexample_family(size)
    return rdual(psi_c, phi_c), phi_c


norms = [profile.norm(fb.cross_gram(*companion_pair(size))) for size in ladder]
print("companion vs reference:", fb.localization.ladder_verdict(norms))
print("profile norms         :",
      ", ".join(f"{s}:{v:.4f}" for s, v in zip(ladder, norms)))
