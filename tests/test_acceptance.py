"""End-to-end acceptance suite.

One test per numbered criterion, each printing a single PASS/FAIL line
(run pytest with -s to see them inline).  Two quantitative targets are
provably out of reach for the exact operators; their tests carry the
full analysis in the docstring and are marked strict expected failures
so the honest numbers stay visible instead of being tuned away.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammainc

from diracssf.asymptotics import compare_law, law_for_profile
from diracssf.cli import main
from diracssf.counting import (LogSpectrum, arctan_trace_identity, check_flip,
                               check_pbound, check_pushnitski_bound, check_weyl,
                               mu_average_counting)
from diracssf.dirac_algebra import (anticommutation_residual,
                                    charge_conjugate_potential, commutant_form,
                                    dirac_matrices, validate_alpha12_commutant)
from diracssf.discrete_model import (build_h0, check_gap, check_square_identity,
                                     fiber_eigenvalues)
from diracssf.kernels1d import Grid1D, RankTwoImS, im_s_norm_rows, im_s_schatten
from diracssf.landau import FieldSpec, build_lll_basis
from diracssf.ssf import (PotentialSpec, SsfEstimator, gap_edge_factor,
                          gaussian_longitudinal, omega1_trace,
                          build_omega_full)
from diracssf.toeplitz import (disc_profile, gaussian_profile, power_profile,
                               suggest_truncation, toeplitz_radial_spectrum)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>3}: {detail}")


def diag_matrix(m11=1.0, m33=1.0):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = m11
    mat[2, 2] = m33
    return mat


@pytest.fixture(scope="module")
def field_b2():
    return FieldSpec(2.0)


@pytest.fixture(scope="module")
def exp_model_220(field_b2):
    basis = build_lll_basis(field_b2, 220)
    return toeplitz_radial_spectrum(gaussian_profile(1.0), basis)


def test_criterion_01_exact_algebra(rng):
    t0 = time.time()
    res = anticommutation_residual(dirac_matrices())
    v = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    perm = charge_conjugate_potential(v)
    res = max(res, float(np.max(np.abs(np.diag(perm).real - [4.0, 3.0, 2.0, 1.0]))))
    for _ in range(25):
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = 0.5 * (h + h.conj().T)
        out = charge_conjugate_potential(h)
        res = max(res, abs(out[0, 1] + np.conj(h[3, 2])))
    ok_pat, r_pat = validate_alpha12_commutant(commutant_form(1.0, 2.0, 1j))
    res = max(res, r_pat)
    ok = res <= 1e-12 and ok_pat
    report(1, ok, f"Dirac algebra exact; max residual {res:.2e} <= 1e-12 "
                  f"({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_02_exponential_closed_form(exp_model_220):
    t0 = time.time()
    model = exp_model_220
    want = (np.arange(201) + 1.0) * math.log(0.5)
    rel = np.max(np.abs(np.expm1(model.log_eigen_by_k[:201] - want)))
    law = law_for_profile(gaussian_profile(1.0), 2.0)
    row = compare_law(model, law, [1e-8]).rows[0]
    ratio = row[3]
    ok = rel <= 1e-8 and 0.9 <= ratio <= 1.1
    report(2, ok, f"geometric eigenvalues rel dev {rel:.2e} <= 1e-8 (k<=200); "
                  f"count/law ratio {ratio:.4f} in [0.9, 1.1] at s=1e-8 "
                  f"({time.time() - t0:.2f}s)")
    assert ok


@pytest.fixture(scope="module")
def disc_model_110(field_b2):
    basis = build_lll_basis(field_b2, 110)
    return toeplitz_radial_spectrum(disc_profile(1.0), basis)


def test_criterion_03_compact_support_eigenvalues(disc_model_110):
    t0 = time.time()
    oracle = gammainc(np.arange(101) + 1.0, 1.0)
    got = np.exp(disc_model_110.log_eigen_by_k[:101])
    rel = float(np.max(np.abs(got / oracle - 1.0)))
    ok = rel <= 1e-8
    report("3a", ok, f"disc eigenvalues vs incomplete gamma rel dev {rel:.2e} "
                     f"<= 1e-8 (k<=100) ({time.time() - t0:.2f}s)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="stated bracket [0.6, 1.4] is unattainable: the exact "
    "count-to-law ratio at s=1e-40 equals 34 * ln|ln s| / |ln s| = 1.6697 "
    "because the compact-support law converges only at log-log speed",
)
def test_criterion_03_compact_support_count_law(disc_model_110):
    """Count against the |log s|/log|log s| law at s = 1e-40.

    The exact count is 34 (eigenvalues P(k+1, 1) ~ e^-1/(k+1)! stay above
    1e-40 through k = 33) while the law gives 20.36, so the ratio is
    1.6697.  Reaching 1.4 needs log|log s| ~ 13, i.e. s ~ exp(-4.4e5);
    the bracket below is asserted as stated and fails honestly.
    """
    s = 1e-40
    disc_model_110.require_adequate(s)
    n = disc_model_110.spectrum.n_plus(s)
    value = n * math.log(abs(math.log(s))) / abs(math.log(s))
    ok = 0.6 <= value <= 1.4
    report("3b", ok, f"disc count*lnln/|ln| = {value:.4f} vs stated [0.6, 1.4] "
                     f"(count {n})")
    assert ok


def test_criterion_04_power_law():
    t0 = time.time()
    prof = power_profile(3.0)
    fs = FieldSpec(1.0)
    k = suggest_truncation(prof.law, 1e-4, 1.0)
    basis = build_lll_basis(fs, k)
    model = toeplitz_radial_spectrum(prof, basis)
    law = law_for_profile(prof, 1.0)
    rows = compare_law(model, law, [1e-4, 3e-4, 1e-3]).rows
    ok = all(0.85 <= r[3] <= 1.15 for r in rows)
    detail = ", ".join(f"s={r[0]:.0e}: {r[3]:.4f}+-{r[4]:.4f}" for r in rows)
    report(4, ok, f"power-law ratios in [0.85, 1.15]: {detail} "
                  f"(K={k}, {time.time() - t0:.2f}s)")
    assert ok


def test_criterion_05_identities_suite():
    t0 = time.time()
    rng = np.random.default_rng(513)

    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(5, 101))
        a = rng.standard_normal((dim, dim))
        psd = a @ a.T / dim
        spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(psd),
                                            zero_floor=1e-14)
        s = float(np.abs(rng.standard_normal()) + 0.1)
        lhs, rhs = arctan_trace_identity(s, spec)
        quad = mu_average_counting(s, np.zeros_like(psd), psd)
        worst = max(worst, abs(lhs - rhs), abs(quad - rhs))
    ok_arctan = worst <= 1e-10

    ok_flip = all(
        check_flip(rng.standard_normal((int(rng.integers(2, 12)),
                                        int(rng.integers(2, 12)))), s=0.25)
        for _ in range(100))

    ok_weyl = True
    for _ in range(1000):
        s1, s2 = np.abs(rng.standard_normal(2)) + 0.02
        t1 = rng.standard_normal((20, 20))
        t2 = rng.standard_normal((20, 20))
        ok_weyl &= check_weyl(s1, s2, 0.5 * (t1 + t1.T), 0.5 * (t2 + t2.T))

    ok_pbound = True
    for _ in range(200):
        a = rng.standard_normal((30, 30))
        spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(a @ a.T / 30))
        for p in (1, 2, 4):
            ok_pbound &= check_pbound(float(np.abs(rng.standard_normal()) + 0.05),
                                      spec, p)

    ok_aday = True
    for _ in range(200):
        t1 = rng.standard_normal((15, 15))
        t1 = 0.5 * (t1 + t1.T)
        a = rng.standard_normal((15, 15))
        ok_aday &= check_pushnitski_bound(0.7, 0.9, t1, a @ a.T / 15)

    ok = ok_arctan and ok_flip and ok_weyl and ok_pbound and ok_aday
    report(5, ok, f"arctan worst {worst:.2e} <= 1e-10 (50 PSD); flip 100/100; "
                  f"weyl 1000/1000; schatten-bound 200/200; "
                  f"counting-average 200/200 ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_06_kernel_norms():
    t0 = time.time()
    grid = Grid1D(200.0, 2**14)
    # the rows the kernels scenario emits
    worst = max(abs(closed - gridv) / gridv for _, _, closed, gridv
                in im_s_norm_rows((1.01, 1.5, 2.0, 5.0), 2.0, (1, 2, 4), 1.0, grid))
    ok_norms = worst <= 1e-6

    ortho = max(abs(RankTwoImS(lam, 2.0, 1.0, half_width=200.0).inner_vu())
                for lam in (1.01, 1.5, 2.0, 5.0))
    ok_ortho = ortho <= 1e-10

    vals = [im_s_schatten(1.0 + 2.0**-j, 2.0, 1, half_width=200.0)
            for j in range(1, 11)]
    ok_decreasing = all(a > b for a, b in zip(vals, vals[1:]))

    ok = ok_norms and ok_ortho and ok_decreasing
    report("6a", ok, f"closed form vs grid SVD worst rel {worst:.2e} <= 1e-6; "
                     f"orthogonality {ortho:.2e} <= 1e-10; trace norm strictly "
                     f"decreasing along the dyadic sweep ({time.time() - t0:.2f}s)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the stated 0.05 decay target is unattainable at weight exponent 2: "
    "||u||^2 = (pi/2)(1 - e^(-2k)) ~ pi k makes the trace norm scale like k^(1/2), "
    "leaving the dyadic sweep at ratio 0.396 by step 10 (0.05 needs ~17 steps, "
    "or weight exponents >= 8 where the k-linear regime applies)",
)
def test_criterion_06_decrease_target():
    """Dyadic trace-norm decay target at weight exponent 2.

    Exact closed forms: ||u||^2 = (pi/2)(1 - e^(-2k)), ||v||^2 =
    (pi/8)(1 + e^(-2k)) with k = sqrt(lam^2 - 1), so the trace norm
    2 ||u|| ||v|| at lam - 1 = 2^-10 is 0.396 of its lam = 2 value, far
    above 0.05.  At weight exponent 8 the same sweep reaches 0.043 (the
    diagnostic below), confirming the target was calibrated for the
    integrable-moment regime.
    """
    ref = im_s_schatten(2.0, 2.0, 1, half_width=200.0)
    final = im_s_schatten(1.0 + 2.0**-10, 2.0, 1, half_width=200.0)
    ratio = final / ref
    ref8 = im_s_schatten(2.0, 8.0, 1, half_width=200.0)
    final8 = im_s_schatten(1.0 + 2.0**-10, 8.0, 1, half_width=200.0)
    ok = ratio < 0.05
    report("6b", ok, f"dyadic decrease ratio {ratio:.4f} vs stated < 0.05 "
                     f"(weight exponent 8 diagnostic: {final8 / ref8:.4f})")
    assert ok


def test_criterion_07_factorised_compression(field_b2):
    t0 = time.time()
    pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0),
                        gaussian_longitudinal(), nu=5.0)
    basis = build_lll_basis(field_b2, 64)
    est = SsfEstimator(pot, basis, m=1.0)
    grid = Grid1D(16.0, 256)
    worst = 0.0
    for lam in (0.0, 0.5, 0.9):
        factor = gap_edge_factor(est, grid, lam, 1.0)
        sv = np.linalg.svd(factor, compute_uv=False)
        realized = np.sort(sv * sv)[::-1]
        scale = 0.5 * math.sqrt((1.0 + lam) / (1.0 - lam))
        target = np.sort(np.exp(est.wplus_model.log_eigen_by_k) * scale)[::-1]
        good = target > target[0] * 1e-10
        worst = max(worst, float(np.max(
            np.abs(realized[: good.sum()] / target[good] - 1.0))))
    ok = worst <= 1e-9
    report(7, ok, f"factorised gap-edge operator vs scaled compression: "
                  f"worst rel dev {worst:.2e} <= 1e-9 at lam in {{0, m/2, 0.9m}} "
                  f"({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_08_arctan_paths(field_b2):
    t0 = time.time()
    pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=2.0),
                        gaussian_longitudinal(), nu=5.0)
    basis = build_lll_basis(field_b2, 64)
    est = SsfEstimator(pot, basis, m=1.0)
    wp, wm = est.wplus_model.spectrum, est.wminus_model.spectrum

    def oracle(lam, s):
        # f+- = sqrt(|lam +- m| / |lam -+ m|) / 2 with m = 1, at 30 digits
        with mp.workdps(30):
            lam, s = mp.mpf(lam), mp.mpf(s)
            f_p = mp.sqrt(abs(lam + 1) / abs(lam - 1)) / 2
            f_m = mp.sqrt(abs(lam - 1) / abs(lam + 1)) / 2
            return mp.fsum(mp.atan(f_p * mp.exp(v) / s)
                           for v in wp.log_values[wp.signs == 1]) \
                + mp.fsum(mp.atan(f_m * mp.exp(v) / s)
                          for v in wm.log_values[wm.signs == 1])

    # the production path (each family traced at s t(lam, +-1), sign masks
    # and the log-domain arctan) against a 30-digit sum with f+- in closed form
    worst = 0.0
    for j in range(2, 12):
        for s in (0.3, 1.0, 4.0):
            for lam in (1.0 + 2.0**-j, -1.0 - 2.0**-j):
                got = omega1_trace(lam, wp, wm, s)
                want = oracle(lam, s)
                worst = max(worst, float(abs(got - want) / abs(want)))
    ok = worst <= 1e-12
    report(8, ok, f"Omega1 arctan trace within {worst:.1e} <= 1e-12 of a "
                  f"30-digit mpmath sum with closed-form scale factors, both "
                  f"edges ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_09_levinson(field_b2):
    t0 = time.time()
    eps_seq = [10.0 ** (-e) for e in np.linspace(1.0, 4.0, 6)]

    pot_exp = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=8.0),
                            gaussian_longitudinal(), nu=5.0)
    basis = build_lll_basis(field_b2, 90)
    est = SsfEstimator(pot_exp, basis, m=1.0)
    rows = est.levinson_rows(eps_seq, "H-", eps_bracket=0.1)
    ratios = [r[5] for r in rows]
    ok_exp = 0.35 <= ratios[-1] <= 0.65
    devs = [abs(r - 0.5) for r in ratios]
    ok_trend = all(a >= b for a, b in zip(devs[-4:], devs[-3:]))

    pot_pow = PotentialSpec(diag_matrix(), power_profile(4.0, amplitude=8.0),
                            gaussian_longitudinal(), nu=5.0)
    fs1 = FieldSpec(1.0)
    basis_pow = build_lll_basis(fs1, 4000)
    est_pow = SsfEstimator(pot_pow, basis_pow, m=1.0)
    rows_pow = est_pow.levinson_rows(eps_seq, "H-", eps_bracket=0.1)
    ratio_pow = rows_pow[-1][5]
    ok_pow = 0.55 <= ratio_pow <= 0.9

    ok = ok_exp and ok_trend and ok_pow
    report(9, ok, f"exponential ratio {ratios[-1]:.4f} in [0.35, 0.65] toward "
                  f"1/2 (trend {['broken', 'monotone'][ok_trend]}); power "
                  f"ratio {ratio_pow:.4f} in [0.55, 0.9] toward "
                  f"{2.0 ** -0.5:.4f} ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_10_discrete_h0():
    t0 = time.time()
    worst_gap = 0.0
    worst_interior = 0.0
    worst_fiber = 0.0
    for m in (1.0, 2.0):
        h0 = build_h0(1.0, m, 8, 32, 20.0)
        interior, _ = check_square_identity(h0)
        worst_interior = max(worst_interior, interior)
        worst_gap = max(worst_gap, abs(check_gap(h0) - m) / m)
        fiber = fiber_eigenvalues(h0)
        actual = np.sort(np.linalg.eigvalsh(h0.matrix))
        worst_fiber = max(worst_fiber, float(np.max(np.abs(fiber - actual))))
    ok = worst_gap <= 1e-9 and worst_interior <= 1e-10 and worst_fiber <= 1e-9
    report(10, ok, f"gap dev {worst_gap:.2e} <= 1e-9; interior square-identity "
                   f"residual {worst_interior:.2e} <= 1e-10; fiber formula dev "
                   f"{worst_fiber:.2e} <= 1e-9 ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_11_trace_growth(field_b2):
    t0 = time.time()
    pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=0.25),
                        gaussian_longitudinal(), nu=5.0)
    basis = build_lll_basis(field_b2, 90)
    est = SsfEstimator(pot, basis, m=1.0)
    wp, wm = est.wplus_model.spectrum, est.wminus_model.spectrum
    diag_traces, diffs = [], []
    for j in range(2, 11):
        lam = 1.0 + 2.0**-j
        tr1 = omega1_trace(lam, wp, wm, 1.0)
        tr = build_omega_full(est, lam).spectrum.trace_arctan(1.0)
        diag_traces.append(tr1)
        diffs.append(abs(tr - tr1))
    growth = diag_traces[-1] / diag_traces[0]
    drift = max(diffs) / diffs[0]
    ok = growth >= 5.0 and drift <= 3.0
    report(11, ok, f"diagonal arctan trace grows x{growth:.2f} >= 5 while the "
                   f"full-vs-diagonal gap stays within x{drift:.2f} <= 3 of its "
                   f"first value ({time.time() - t0:.2f}s)")
    assert ok


def test_criterion_12_determinism(tmp_path):
    # each run is a fresh process, so the BLAS thread count is set before
    # numpy loads; dirac_check's round-off rows depend on it and are left out
    t0 = time.time()
    root = Path(__file__).resolve().parents[1]
    names = ("identities", "kernels", "ssf_outside", "levinson_power")
    outputs = {name: set() for name in names}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        for name in names:
            out = tmp_path / f"{name}_{threads}.csv"
            subprocess.run([sys.executable, "-m", "diracssf.cli", "run", "--config",
                            str(root / "configs" / f"{name}.cfg"), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs[name].add(out.read_bytes())
    ok = all(len(bytes_seen) == 1 for bytes_seen in outputs.values())
    report(12, ok, f"CLI CSV byte-identical at 1 and 2 BLAS threads for "
                   f"{', '.join(names)} ({time.time() - t0:.2f}s)")
    assert ok
