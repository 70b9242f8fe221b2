#!/usr/bin/env python3
"""Eigenvalue counting of lowest-Landau-level compressions, three decay classes.

Builds the compression pUp of a Gaussian, a power-law, and a disc-indicator
symbol, checks a few eigenvalues against their closed-form oracles, and
tabulates the counting function against the matching small-threshold law:

  power tail  r^-alpha        ->  s^(-2/alpha) * b0/(4 pi) * angular integral
  log U ~ -eta r^(2 beta)     ->  powers of |log s| (three branches in beta)
  compact support             ->  |log s| / log|log s|
"""

import numpy as np
from scipy.special import gammainc

from diracssf.asymptotics import compare_law, law_for_profile
from diracssf.landau import FieldSpec, build_lll_basis
from diracssf.toeplitz import (disc_profile, gaussian_profile, power_profile,
                               suggest_truncation, toeplitz_radial_spectrum)


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def ratio_table(model, law, s_values, label):
    print(f"\n  counting vs law ({label}):")
    print(f"  {'s':>10} {'count':>8} {'law':>12} {'ratio':>8} {'+-':>8}")
    for s, n, lawv, ratio, halfwidth in compare_law(model, law, s_values).rows:
        print(f"  {s:>10.1e} {n:>8d} {lawv:>12.3f} {ratio:>8.4f} {halfwidth:>8.4f}")


banner("Gaussian symbol exp(-r^2), field strength 2 (weight exp(-r^2))")
fs2 = FieldSpec(2.0)
basis = build_lll_basis(fs2, suggest_truncation(gaussian_profile(1.0).law, 1e-10, 2.0))
model = toeplitz_radial_spectrum(gaussian_profile(1.0), basis)
print("\n  eigenvalue_k vs the exact moment ratio (1/2)^(k+1):")
for k in (0, 1, 5, 20, 60):
    got = np.exp(model.log_eigen_by_k[k])
    print(f"  k={k:>3}: {got:.12e}   exact {0.5 ** (k + 1):.12e}")
ratio_table(model, law_for_profile(gaussian_profile(1.0), 2.0),
            [1e-4, 1e-6, 1e-8, 1e-10], "|log s| / log 2")

banner("Disc indicator of radius 1, field strength 2")
basis_d = build_lll_basis(fs2, 64)
model_d = toeplitz_radial_spectrum(disc_profile(1.0), basis_d)
print("\n  eigenvalue_k vs the regularized incomplete gamma P(k+1, 1):")
for k in (0, 3, 10, 30):
    got = np.exp(model_d.log_eigen_by_k[k])
    print(f"  k={k:>3}: {got:.12e}   exact {gammainc(k + 1, 1.0):.12e}")
print("\n  the count creeps toward |log s|/log|log s| only at log-log speed:")
for s in (1e-10, 1e-20, 1e-40):
    n = model_d.spectrum.n_plus(s)
    law = law_for_profile(disc_profile(1.0), 2.0)(s)
    print(f"  s={s:.0e}: count {n:>3}  law {law:7.2f}  ratio {n / law:.3f}")

banner("Power-law symbol (1+r^2)^(-3/2), field strength 1")
fs1 = FieldSpec(1.0)
prof = power_profile(3.0)
basis_p = build_lll_basis(fs1, suggest_truncation(prof.law, 1e-4, 1.0))
model_p = toeplitz_radial_spectrum(prof, basis_p)
ratio_table(model_p, law_for_profile(prof, 1.0), [1e-2, 1e-3, 3e-4, 1e-4],
            "s^(-2/3) / 2")
print("\ndone.")
