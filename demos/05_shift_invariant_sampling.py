#!/usr/bin/env python3
"""Stable sampling of a spline space from perturbed integer samples.

Sampling the span of integer shifts of a generator on points x_k = k + d_k
produces the point-evaluation matrix P[l, k] = g(x_l - k).  Invertibility of
the autocorrelation Gram P^H P along a window ladder decides whether the
sample norms control the signal norm.  The cubic spline sampled on the
integers is stable (interior spectrum bottoms out at 1/9); shifted to the
half-integers it is not (the stencil symbol vanishes).
"""

import numpy as np

import framebench as fb


def sampling_matrix(g, x, window):
    """P[l, k] = g(x_l - k) over the centered window."""
    return fb.generator_eval(g, np.subtract.outer(x.points(window), x.window(window)))


cubic = fb.Generator(kind="bspline", degree=3)
ladder = fb.TruncationLadder((64, 128, 256))
integers = fb.SamplingSet(rule="constant", value=0.0)
half_integers = fb.SamplingSet(rule="constant", value=0.5)

print("== cubic spline on the integers: stencil (1/6, 2/3, 1/6) ==")
p = sampling_matrix(cubic, integers, 9)
print("interior row of P:", np.round(p[4].real, 4))

rep = fb.stable_sampling_verdict(cubic, integers, ladder)
print(f"stable: {rep.stable}   consistent items: {rep.consistent}")
print("interior lambda_min ladder:",  # item e, the last
      ", ".join(f"{s}:{v:.6f}" for s, v in rep.items[-1].quantities))
print("limit 1/9 =", 1 / 9)
print("direct two-sided sampling bounds per window:",
      ", ".join(f"{s}:[{a:.3f},{b:.3f}]" for s, a, b in rep.direct_bounds))

print()
print("== the same spline on the half-integers: stencil symbol vanishes ==")
ph = sampling_matrix(cubic, half_integers, 9)
print("interior row of P:", np.round(ph[4].real, 4))
rep_h = fb.stable_sampling_verdict(cubic, half_integers, ladder)
print(f"stable: {rep_h.stable}")
print("interior lambda_min ladder:",
      ", ".join(f"{s}:{v:.2e}" for s, v in rep_h.items[-1].quantities))
print("item verdicts:", {it.id: it.verdict for it in rep_h.items})

print()
print("== random jitter up to 0.2 keeps the cubic stable ==")
jitter = fb.SamplingSet.seeded_uniform(0.2, seed=4)
rep_j = fb.stable_sampling_verdict(cubic, jitter, ladder)
print(f"stable: {rep_j.stable}   lambda_min at last window: "
      f"{rep_j.items[-1].quantities[-1][1]:.5f}")

print()
print("== the box generator: one sample per cell, Gram exactly identity ==")
box = fb.Generator(kind="bspline", degree=0)
x = fb.SamplingSet.seeded_uniform(0.45, seed=8)
p_box = sampling_matrix(box, x, 16)
g = p_box.conj().T @ p_box
print("G == I:", np.array_equal(g.real, np.eye(16)))

print()
print("== CSV ladder export (plot-ready) ==")
print("\n".join(rep.witness_csv().splitlines()[:3]))
