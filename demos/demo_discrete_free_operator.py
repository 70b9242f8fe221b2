#!/usr/bin/env python3
"""Truncated matrix model of the free operator: gap, block square, fibers.

Ladder modes in the plane tensored with an exact momentum multiplier on a
periodic box reproduce the free spectrum +-sqrt(2 b0 n + p^2 + m^2) to
round-off; the squared operator block-diagonalises over the two transverse
components, with truncation showing only on the top ladder level.  The last
section compares the divergent part of the weighted resolvent against the
threshold-scaled compression that controls it.
"""

import numpy as np

from diracssf.discrete_model import (build_h0, check_gap, check_square_identity,
                                     fiber_eigenvalues, tdiv_vs_omega_count)
from diracssf.kernels1d import Grid1D
from diracssf.landau import FieldSpec, build_lll_basis
from diracssf.ssf import PotentialSpec, SsfEstimator, gaussian_longitudinal
from diracssf.toeplitz import gaussian_profile

h0 = build_h0(b0=1.0, m=1.0, L=8, N=32, X=20.0)
interior, full = check_square_identity(h0)
print(f"model dimension {h0.matrix.shape[0]}")
print(f"smallest |eigenvalue|      : {check_gap(h0):.12f} (the mass)")
print(f"square identity, interior  : {interior:.2e}")
print(f"square identity, top level : {full:.3f}  (= 2 b0 L, the cut leaking)")

fiber = fiber_eigenvalues(h0)
print(f"fiber formula deviation    : {np.max(np.abs(fiber - h0.eigenvalues)):.2e}")

print("\ndivergent resolvent part vs scaled compression (counts at level 1):")
mat = np.zeros((4, 4), dtype=complex)
mat[0, 0] = mat[2, 2] = 1.0
pot = PotentialSpec(mat, gaussian_profile(1.0), gaussian_longitudinal(), nu=5.0)
est = SsfEstimator(pot, build_lll_basis(FieldSpec(2.0), 80), m=1.0)
grid = Grid1D(20.0, 256)
print(f"{'lambda':>12} {'divergent':>10} {'compressed':>11} {'difference':>11}")
for j in range(4, 17, 2):
    lam = 1.0 - 2.0 ** -j
    ct, co, diff = tdiv_vs_omega_count(est, lam, grid, 1.0)
    print(f"{lam:>12.6f} {ct:>10d} {co:>11d} {diff:>11d}")
print("\nboth counts diverge toward the edge; their difference stays bounded,")
print("which is the finite-rank shadow of the bracketing mechanism.")
