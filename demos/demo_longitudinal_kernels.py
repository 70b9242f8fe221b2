#!/usr/bin/env python3
"""The 1-D ingredients: boundary resolvent, rank-two imaginary part, edge limits.

Above the gap the weighted momentum-resolvent kernel has a rank-two
imaginary part with orthogonal sine/cosine factors, so its singular values
collapse to one number ||u|| ||v|| of multiplicity two.  The script checks
the closed-form Schatten norms against the exact SVD of the discretised
kernel, then shows the norm dying as the energy slides down to the edge, and
the Hilbert-Schmidt convergence of the gap-side kernel to its edge limit.
"""

from diracssf.kernels1d import (Grid1D, RankTwoImS, im_s_norm_rows,
                                im_s_schatten, j_kernel_hs_distance,
                                resolvent_kernel)

print("boundary resolvent kernel values:")
print(f"  below (lam=-1, x=0):   {resolvent_kernel(-1.0, 0.0)}")
print(f"  below (lam=-4, x=1):   {resolvent_kernel(-4.0, 1.0):.6f}")
print(f"  above (lam=+1, x=0):   {resolvent_kernel(1.0, 0.0)} (outgoing phase)")

grid = Grid1D(200.0, 2 ** 14)
print(f"\nclosed form vs grid SVD on [-200, 200] with {grid.n} nodes:")
print(f"{'lam':>6} {'p':>3} {'closed form':>14} {'grid svd':>14} {'rel diff':>10}")
for lam, p, closed, gridv in im_s_norm_rows((1.01, 1.5, 2.0, 5.0), 2.0, (1, 2, 4), 1.0, grid):
    print(f"{lam:>6.2f} {p:>3d} {closed:>14.9f} {gridv:>14.9f} "
          f"{abs(closed - gridv) / gridv:>10.2e}")

ops = RankTwoImS(2.0, 2.0, 1.0, half_width=200.0)
print(f"\nsine/cosine factors stay orthogonal: |<v,u>| = {abs(ops.inner_vu()):.2e}")

print("\ntrace norm along the dyadic approach to the edge (full-line norms):")
for j in (1, 3, 5, 7, 9, 12, 16, 20):
    lam = 1.0 + 2.0 ** -j
    print(f"  lam - 1 = 2^-{j:<2}: {im_s_schatten(lam, 2.0, 1):.6f}")

print("\ngap-side kernel vs its edge limit (Hilbert-Schmidt distance):")
g = Grid1D(40.0, 513)
for lam in (0.0, 0.5, 0.9, 0.99, 0.999):
    print(f"  lam = {lam:>6.3f}: {j_kernel_hs_distance(lam, 4.0, g):.6f}")
