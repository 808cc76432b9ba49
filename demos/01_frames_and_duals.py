#!/usr/bin/env python3
"""Tour of the frame-core layer: families, Grams, bounds, duals, coordinates.

A finite vector family lives in coefficients against an ambient orthonormal
basis (one column per member).  Everything frame-theoretic at a truncation —
frame bounds, Riesz bounds, canonical duals, coordinate p-norms — is a dense
linear-algebra statement about those coefficients.
"""

import math

import numpy as np

import framebench as fb

rng = np.random.default_rng(0)
n = 6

print("== an orthonormal reference basis ==")
onb = fb.VectorFamily.onb(n, label="reference")
print("frame bounds:", fb.frame_bounds(onb))
print("Gram == identity:", np.allclose(fb.gram(onb), np.eye(n)))

print()
print("== a Riesz basis: identity plus a contraction ==")
e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
e *= 0.4 / fb.pnorm_operator(e)
phi = fb.VectorFamily(np.eye(n) + e, label="riesz-basis")
bounds = fb.frame_bounds(phi)
print(f"frame bounds: lower={bounds.lower:.4f}, upper={bounds.upper:.4f}")
print(f"is a frame at this truncation: {bounds.is_frame()}")

print()
print("== canonical dual and perfect reconstruction ==")
w, v = fb.hermitian_eig(fb.frame_operator(phi))  # S = v diag(w) v^H
dual = fb.VectorFamily((v * np.power(w, -1.0)) @ v.conj().T @ phi.coeffs, label="dual")
f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
coord_f = dual.coeffs.conj().T @ f  # analysis: <f, dual_k>
rec = phi.coeffs @ coord_f  # synthesis over phi
print(f"reconstruction error |D_phi C_dual f - f| = {np.linalg.norm(rec - f):.2e}")

print()
print("== orthonormalization by a frame-operator power ==")
ortho = fb.VectorFamily((v * np.power(w, -0.5)) @ v.conj().T @ phi.coeffs)
print("Gram of S^-1/2 phi == identity:",
      fb.pnorm_operator(fb.gram(ortho) - np.eye(n)) < 1e-10)

print()
print("== coordinate p-norms against the dual ==")
for p in (1, 2, math.inf):
    print(f"  p={p}: coordinate norm of f = {np.linalg.norm(coord_f, p):.4f}"
          f"   (plain p-norm of f = {np.linalg.norm(f, p):.4f})")
ratio = np.linalg.norm(coord_f) / np.linalg.norm(f)
print(f"2-norm ratio {ratio:.4f} lies inside "
      f"[1/sqrt(B), 1/sqrt(A)] = [{1/math.sqrt(bounds.upper):.4f}, "
      f"{1/math.sqrt(bounds.lower):.4f}]")

print()
print("== conditioning of an operator in dual coordinates ==")
t = np.diag(np.linspace(1.0, 3.0, n))
coord = dual.coeffs.conj().T @ t @ phi.coeffs
inverse = np.linalg.inv(coord)
for p in (1, 2, math.inf):
    print(f"  condition of diag(1..3) on p={p} coordinates: "
          f"{np.linalg.norm(coord, p) * np.linalg.norm(inverse, p):.3f}")
