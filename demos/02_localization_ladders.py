#!/usr/bin/env python3
"""Off-diagonal decay diagnostics and the truncation-ladder heuristic.

Whether an infinite Gram matrix belongs to a decay algebra cannot be decided
from one finite section.  The workbench records a decay norm at every size
of a growing ladder and reads the trend: flat norms are localization
evidence, growing norms witness a decay mismatch.
"""

import numpy as np

import framebench as fb
from framebench.localization import WeightSpec

ladder = fb.TruncationLadder((8, 16, 32, 64, 128))
profile = fb.LocalizationProfile(kind="jaffard", s=2.0)


def show(name, family_gen):
    """The profile norms of the cross Gram of ``family_gen(size)`` along the
    ladder, and their verdict."""
    norms = [profile.norm(fb.cross_gram(*family_gen(size))) for size in ladder]
    print(f"  {name}")
    print("    ladder norms  " + ", ".join(f"{s}:{v:.3f}" for s, v in zip(ladder, norms)))
    print(f"    verdict: {fb.localization.ladder_verdict(norms)}")


print("== polynomial sup norm vs matching decay ==")
fast = (1.0 + np.abs(np.subtract.outer(np.arange(32), np.arange(32)))) ** -2.0
print(f"entries (1+|k-l|)^-2 against exponent 2: norm = "
      f"{fb.jaffard_norm(fast, 2.0):.6f} (exact cancellation)")

print()
print("== ladder verdicts for three family pairs ==")
show("orthonormal pair (diagonal cross Gram)",
     lambda n: (fb.VectorFamily.onb(n), fb.VectorFamily.onb(n)))

show("harmonically shrinking members (still diagonal)",
     lambda n: (fb.VectorFamily(np.diag(1.0 / np.arange(1, n + 1))), fb.VectorFamily.onb(n)))


def slow_pair(n):
    off = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return fb.VectorFamily((1.0 + off) ** -1.5), fb.VectorFamily.onb(n)


show("entries decaying like (1+|k-l|)^-1.5 against exponent 2 (too slow)", slow_pair)

print()
print("== weighted Schur norm ==")
w = WeightSpec(form="polynomial", delta=1.0)
tri = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
print(f"second-difference matrix, weight (1+|k-l|): {fb.schur_norm(tri, w):.1f}")
unit = WeightSpec(form="subexponential", rate=0.0)
rng = np.random.default_rng(1)
a = rng.standard_normal((8, 8))
print("unit weight equals max of operator 1-/inf-norms:",
      fb.schur_norm(a, unit) == max(fb.linalg.line_sums(a.T).max(),
                                    fb.linalg.line_sums(a).max()))

print()
print("== solidity: masking entries can only shrink the norms ==")
mask = rng.random((8, 8)) < 0.5
print("jaffard:", fb.jaffard_norm(a * mask, 2.0) <= fb.jaffard_norm(a, 2.0),
      " schur:", fb.schur_norm(a * mask, w) <= fb.schur_norm(a, w))

print()
print("== fitting a decay exponent from off-diagonal maxima ==")
# the cubic's shift Gram is Toeplitz: row m holds the degree-7 B-spline at m
lag = np.abs(np.subtract.outer(np.arange(64), np.arange(64)))
cubic_gram = fb.bspline_eval(7, lag)
print(f"cubic-spline shift Gram: fitted exponent "
      f"{fb.fit_decay_exponent(cubic_gram):.1f} (compact support decays "
      "faster than any polynomial)")
