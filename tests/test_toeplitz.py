import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from diracssf import toeplitz
from diracssf.harness import MAX_BASIS_K
from diracssf.landau import NORM_TOL, FieldSpec, build_lll_basis, log_radial_moments
from diracssf.toeplitz import (
    CompactSupportTail,
    RadialProfile,
    ExponentialTail,
    NonIntegrableError,
    PowerLawTail,
    ToeplitzModel,
    TruncationError,
    _log_plane_integral,
    check_raikov_bound,
    disc_profile,
    gaussian_profile,
    power_profile,
    suggest_truncation,
    toeplitz_radial_spectrum,
)
from oracles import (gaussian_log_value, mp_power_log_eig, power_log_value,
                     sequential_power_recurrence, toeplitz_general_matrix)


@pytest.fixture(scope="module")
def gaussian_model(basis_b2_220):
    return toeplitz_radial_spectrum(gaussian_profile(1.0), basis_b2_220)


@pytest.fixture(scope="module")
def disc_model(field_b2):
    basis = build_lll_basis(field_b2, 110)
    return toeplitz_radial_spectrum(disc_profile(1.0), basis)


def test_gaussian_symbol_geometric_spectrum(gaussian_model):
    # moment ratio (b0/(b0+2 eta))^(k+1) = (1/2)^(k+1) at b0=2, eta=1
    want = (np.arange(220) + 1.0) * np.log(0.5)
    dev = np.abs(gaussian_model.log_eigen_by_k - want)
    assert np.max(dev) < 1e-8


def test_disc_symbol_incomplete_gamma(disc_model):
    oracle = gammainc(np.arange(101) + 1.0, 1.0)
    got = np.exp(disc_model.log_eigen_by_k[:101])
    assert np.max(np.abs(got / oracle - 1.0)) < 1e-8


def test_constant_symbol_is_projection(basis_b2_64):
    # eta = 0 leaves the constant symbol 1; the eigenvalues are all 1
    model = toeplitz_radial_spectrum(gaussian_profile(0.0, amplitude=1.0),
                                     basis_b2_64)
    assert np.max(np.abs(model.log_eigen_by_k)) < 1e-10


def _zero_log(r):
    return np.full(np.shape(r), -np.inf)


def test_zero_symbol_compresses_to_zero(basis_b2_64):
    zero = RadialProfile(_zero_log, disc_profile(1.0, height=1.0).law)
    model = toeplitz_radial_spectrum(zero, basis_b2_64)
    assert model.log_eigen_by_k is None
    assert model.spectrum.n_plus(1e-300) == 0


def test_eigenvalues_nonincreasing_for_nonincreasing_symbols(
        gaussian_model, disc_model, field_b1):
    assert np.all(np.diff(gaussian_model.log_eigen_by_k) < 0.0)
    assert np.all(np.diff(disc_model.log_eigen_by_k) < 0.0)
    basis = build_lll_basis(field_b1, 64)
    mp = toeplitz_radial_spectrum(power_profile(3.0), basis)
    assert np.all(np.diff(mp.log_eigen_by_k) < 0.0)


def test_general_path_matches_radial(basis_b2_64):
    radial = toeplitz_radial_spectrum(gaussian_profile(1.0), basis_b2_64)
    general, _ = toeplitz_general_matrix(
        lambda r, th: np.exp(-r**2) * np.ones_like(th), basis_b2_64,
        angular_modes=4)
    er = np.sort(np.exp(radial.log_eigen_by_k))[::-1]
    eg = np.sort(np.exp(general.log_values[general.signs == 1]))[::-1]
    # dense eigensolves only resolve down to machine noise of the top value
    good = er > 1e-5
    assert np.max(np.abs(eg[: good.sum()] / er[good] - 1.0)) < 1e-9


def test_general_path_single_fourier_mode_is_tridiagonal(basis_b2_64):
    _, mat = toeplitz_general_matrix(
        lambda r, th: np.exp(-r**2) * (1.0 + 0.5 * np.cos(th)), basis_b2_64,
        angular_modes=3)
    assert np.max(np.abs(np.triu(mat, 2))) < 1e-14
    assert np.max(np.abs(np.tril(mat, -2))) < 1e-14


def test_general_path_zero_symbol(basis_b2_64):
    spectrum, mat = toeplitz_general_matrix(
        lambda r, th: np.zeros(np.broadcast(r, th).shape), basis_b2_64,
        angular_modes=2)
    assert np.max(np.abs(mat)) == 0.0
    assert spectrum.n_plus(1e-300) == 0


def test_general_path_rejects_insufficient_modes(basis_b2_64):
    with pytest.raises(ValueError, match="cutoff"):
        toeplitz_general_matrix(
            lambda r, th: np.exp(-r**2) * (1.0 + 0.5 * np.cos(8.0 * th)),
            basis_b2_64, angular_modes=4)


class TestRaikovBound:
    def test_gaussian_saturates(self, gaussian_model):
        chk = check_raikov_bound(gaussian_model, 1)
        assert chk.ok
        assert chk.bound == pytest.approx(1.0, rel=1e-9)
        assert chk.eigen_sum == pytest.approx(1.0, rel=1e-10)
        assert chk.eigen_sum <= chk.bound * (1.0 + 1e-12)

    def test_disc_q1(self, disc_model):
        chk = check_raikov_bound(disc_model, 1)
        assert chk.ok
        assert chk.bound == pytest.approx(1.0, rel=1e-9)

    def test_zero_symbol(self, basis_b2_64):
        prof = RadialProfile(_zero_log, gaussian_profile(1.0, amplitude=1.0).law)
        chk = check_raikov_bound(toeplitz_radial_spectrum(prof, basis_b2_64), 1)
        assert chk.ok and chk.eigen_sum == 0.0

    def test_monotone_in_truncation(self, field_b2):
        sums = []
        for K in (8, 16, 32):
            basis = build_lll_basis(field_b2, K)
            chk = check_raikov_bound(
                toeplitz_radial_spectrum(gaussian_profile(1.0), basis), 1)
            assert chk.ok
            sums.append(chk.eigen_sum)
        assert sums[0] < sums[1] < sums[2] <= 1.0

    def test_non_integrable_power(self, field_b1):
        basis = build_lll_basis(field_b1, 8)
        model = toeplitz_radial_spectrum(power_profile(3.0), basis)
        # tail exponent 1.5 makes U itself non-integrable over the plane
        with pytest.raises(NonIntegrableError):
            bad = power_profile(1.5)
            check_raikov_bound(toeplitz_radial_spectrum(bad, basis), 1)
        assert check_raikov_bound(model, 2).ok
        # q alpha = 3: the tail needs its closed-form remainder past r = e^60
        chk = check_raikov_bound(model, 1)
        assert chk.ok and chk.bound == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("alpha, q", [(3.0, 1), (2.2, 1), (1.5, 2), (6.0, 1)])
    def test_power_plane_integral_closed_form(self, alpha, q):
        # integral over the plane of (1 + r^2)^(-q alpha / 2) is
        # pi / (q alpha / 2 - 1); slow tails need the remainder past t = 60
        got = _log_plane_integral(power_profile(alpha), q)
        assert got == pytest.approx(np.log(np.pi / (0.5 * q * alpha - 1.0)),
                                    abs=1e-12)


class TestTruncationRules:
    def test_adequacy_rule(self, gaussian_model):
        # smallest kept eigenvalue ~ 2^-220; adequate for s down to ~1e-63
        assert gaussian_model.adequate_for(1e-50)
        assert not gaussian_model.adequate_for(1e-70)
        with pytest.raises(TruncationError):
            gaussian_model.require_adequate(1e-70)

    def test_suggestions_cover_threshold(self, field_b2, field_b1):
        cases = [
            (ExponentialTail(eta=1.0), 1e-8, 2.0, gaussian_profile(1.0), field_b2),
            (CompactSupportTail(radius=1.0), 1e-30, 2.0, disc_profile(1.0), field_b2),
            (PowerLawTail(alpha=3.0), 1e-3, 1.0, power_profile(3.0), field_b1),
        ]
        for law, s_min, b0, profile, fs in cases:
            k = suggest_truncation(law, s_min, b0)
            basis = build_lll_basis(fs, k)
            model = toeplitz_radial_spectrum(profile, basis)
            assert model.adequate_for(s_min), (law, k)

    # the unjittered deep-basis benchmark cases, which the depth rules
    # size, so K must not move
    @pytest.mark.parametrize("law, b0, s_min, k", [
        (PowerLawTail(alpha=3.0), 1.0, 1e-4, 37141),
        (PowerLawTail(alpha=3.5), 1.0, 1e-4, 8008),
        (ExponentialTail(eta=0.05), 1.0, 1e-40, 1671),
        (ExponentialTail(eta=1.0), 2.0, 1e-60, 343),
        (CompactSupportTail(radius=1.0), 2.0, 1e-40, 78),
    ])
    def test_deep_basis_sizes_are_pinned(self, law, b0, s_min, k):
        assert suggest_truncation(law, s_min, b0) == k


class TestCountCertificate:
    """n_+(s) is exact once lambda_(K-1) < s, for a nonincreasing symbol."""

    def test_closed_form_profiles_are_flagged(self):
        assert gaussian_profile(1.0).nonincreasing
        assert power_profile(3.0).nonincreasing
        assert disc_profile(1.0).nonincreasing
        assert not gaussian_profile(-0.5).nonincreasing
        assert not RadialProfile(np.zeros_like, ExponentialTail(1.0)).nonincreasing

    def test_certified_count_needs_no_depth_margin(self, gaussian_model):
        # lambda_k = 2^-(k+1): K = 220 certifies every threshold above 2^-220,
        # far beyond the depth margin, which stops near 1e-63
        assert gaussian_model.count_certified(1e-60)
        assert not gaussian_model.adequate_for(1e-64)
        gaussian_model.require_adequate(1e-64)
        assert gaussian_model.spectrum.n_plus(1e-64) == 212  # 2^-(k+1) > 1e-64 for k < 212

    def test_ring_flagged_monotone_is_refused(self, field_b2):
        # a Gaussian ring around r = 3 lifts lambda_k for the first k, so the
        # computed spectrum contradicts the flag and nothing is certified
        ring = RadialProfile(lambda r: -(np.asarray(r, dtype=float) - 3.0) ** 2,
                             ExponentialTail(1.0), nonincreasing=True)
        model = toeplitz_radial_spectrum(ring, build_lll_basis(field_b2, 40))
        assert model.log_eigen_by_k[1] > model.log_eigen_by_k[0]
        s = 2.0 * float(np.exp(model.log_eigen_by_k[-1]))  # lambda_(K-1) < s holds
        assert not model.count_certified(s)
        with pytest.raises(TruncationError, match="not nonincreasing in k"):
            model.require_adequate(s)

    def test_unflagged_profile_is_refused(self, basis_b2_64):
        plain = gaussian_profile(1.0)
        plain = RadialProfile(plain.log_value, plain.law)
        model = toeplitz_radial_spectrum(plain, basis_b2_64)
        assert not model.count_certified(1e-5)
        with pytest.raises(TruncationError, match="not flagged radially nonincreasing"):
            model.require_adequate(1e-17)

    def test_one_mode_short_is_refused(self, gaussian_model, field_b2):
        s = 1e-5
        n = gaussian_model.spectrum.n_plus(s)
        short = toeplitz_radial_spectrum(gaussian_profile(1.0), build_lll_basis(field_b2, n))
        enough = toeplitz_radial_spectrum(gaussian_profile(1.0),
                                          build_lll_basis(field_b2, n + 1))
        assert enough.count_certified(s) and enough.spectrum.n_plus(s) == n
        assert not short.count_certified(s)
        with pytest.raises(TruncationError, match=r"lambda_\(K-1\) = .* is not below"):
            short.require_adequate(s)

    def test_threshold_on_an_eigenvalue_is_refused(self, gaussian_model):
        s = float(np.exp(gaussian_model.log_eigen_by_k[5]))
        assert not gaussian_model.count_certified(s)
        assert gaussian_model.count_certified(0.9 * s)
        # the depth margin holds at s, but the guarded read refuses it
        assert gaussian_model.adequate_for(s)
        with pytest.raises(TruncationError, match="collides with an eigenvalue"):
            gaussian_model.require_adequate(s)

    def test_error_reports_the_smallest_positive_eigenvalue(self, basis_b2_64):
        # the margin reads the sorted spectrum, so logs held in rising k
        # order still report lambda_min = 2^-64, not the last entry 2^-1
        model = toeplitz_radial_spectrum(gaussian_profile(1.0), basis_b2_64)
        rising = ToeplitzModel(model.basis, model.profile, model.log_eigen_by_k[::-1])
        with pytest.raises(TruncationError, match="not nonincreasing in k") as err:
            rising.require_adequate(1e-18)
        assert f"smallest positive log-eigenvalue {-64 * np.log(2.0):.2f}" in str(err.value)


def test_scaled_tails():
    # a constant factor c scales u; the exponential and compact classes
    # have no amplitude parameter
    assert PowerLawTail(3.0, 2.0).scaled(4.0) == PowerLawTail(3.0, 8.0)
    assert ExponentialTail(0.5, 2.0).scaled(4.0) == ExponentialTail(0.5, 2.0)
    assert CompactSupportTail(1.5).scaled(0.0) == CompactSupportTail(1.5)
    assert ExponentialTail(1.0).outside_prefactor() == 0.5
    assert CompactSupportTail(1.0).outside_prefactor() == 0.5


def test_stretched_exponential_branch(field_b2):
    # beta = 1/2 tail: log U = -r, counting law (b0/2) |log s|^2
    from diracssf.asymptotics import compare_law, law_for_profile

    prof = RadialProfile(lambda r: -np.asarray(r, dtype=float),
                         ExponentialTail(eta=1.0, beta=0.5))
    k = suggest_truncation(prof.law, 1e-6, 2.0)
    basis = build_lll_basis(field_b2, k)
    model = toeplitz_radial_spectrum(prof, basis)
    law = law_for_profile(prof, 2.0)
    (_, n, lawv, ratio, _), = compare_law(model, law, [1e-6]).rows
    assert 0.8 <= ratio <= 1.2


def test_annulus_symbol_is_refused_at_the_peak_seed(basis_b2_64):
    # 1{2 <= r <= 3}: log U is -inf on the inner hole, where the k = 0 peak
    # search starts; it is refused up front, with no RuntimeWarning
    def log_annulus(r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= 2.0) & (r <= 3.0), 0.0, -np.inf)

    annulus = RadialProfile(log_annulus, CompactSupportTail(radius=3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="-inf at the peak seed"):
            toeplitz_radial_spectrum(annulus, basis_b2_64)


_PROFILE_INPUTS = [
    2.5,                                                         # Python float
    np.float64(0.3),                                             # numpy scalar
    np.asarray(1.7),                                             # 0-d array
    [0.0, 1.0, 2.0],                                             # list
    np.random.default_rng(3).uniform(0.0, 60.0, 1000),           # 1-d
    np.random.default_rng(4).uniform(0.0, 600.0, (37, 129)),     # 2-d
    np.array([0.0, 1e-160, 1e160, np.inf]),                      # extremes
]


@pytest.mark.parametrize("make, oracle", [(gaussian_profile, gaussian_log_value),
                                          (power_profile, power_log_value)])
@pytest.mark.parametrize("shape_param, amplitude", [(0.05, 1.0), (1.3, 2.7), (4.0, 8.0)])
def test_profile_logs_are_bitwise_the_plain_expressions(make, oracle, shape_param, amplitude):
    # built in place in one buffer, with the plain expression's operation order
    new, old = make(shape_param, amplitude).log_value, oracle(shape_param, amplitude)
    for r in _PROFILE_INPUTS:
        before = np.array(r, dtype=float)
        with np.errstate(over="ignore"):  # 1e160 squared is inf on both sides
            got, want = new(r), old(r)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.asarray(r, dtype=float), before)  # input untouched


_DETERMINISM_SCRIPT = """
import sys
import numpy as np
from diracssf.landau import FieldSpec, build_lll_basis
from diracssf.toeplitz import power_profile, toeplitz_radial_spectrum
# the flat field recurs past its seed rows; the tanh field integrates every row
for field in (FieldSpec(1.0), FieldSpec(1.0, lambda r: 0.5 * np.tanh(r))):
    model = toeplitz_radial_spectrum(power_profile(4.0, 8.0), build_lll_basis(field, 4000))
    sys.stdout.write(model.log_eigen_by_k.tobytes().hex())
"""


def test_radial_spectrum_bits_do_not_depend_on_the_blas_thread_count():
    # the radial rule weights its nodes with einsum, never a BLAS product,
    # and the recurrence is plain float arithmetic
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _DETERMINISM_SCRIPT], env=env,
                              check=True, capture_output=True, text=True, timeout=120)
        runs.append(done.stdout)
    assert len(runs[0]) == 2 * 2 * 8 * 4000
    assert runs[0] == runs[1]


# -- the flat-field power-law recurrence ---------------------------------------

U = 2.0 ** -53  # unit roundoff


def _seed_index(exponent, b0):
    a, c = 0.5 * exponent, 0.5 * b0
    return math.ceil(max(c, a + c)) + 1


def _recurrence_bound(k, k0, exponent, b0, log_k, log_k0, seed_err):
    """The toeplitz module docstring's bound on |log lambda_k| error for a
    recurrence row k >= k0 + 2, from the seed rows' error ``seed_err``."""
    a, c = 0.5 * exponent, 0.5 * b0
    return (seed_err + 4 * U * (k - k0) + U * abs(a + c) * math.log1p((k - k0) / 2)
            + 8 * U * (1 + abs(log_k) + abs(log_k0)))


def _quadrature_slack(log_num, log_den):
    """What a flat-field quadrature row may be off by in the log: the rule
    stops once its remainder is stable to NORM_TOL, which for the
    Gauss-Legendre rule on these analytic integrands bounds its error, and
    the numerator and the denominator log-integrals are each rounded at
    their own magnitude."""
    return NORM_TOL + 4 * U * (np.abs(log_num) + np.abs(log_den))


def _assert_rows_match_the_rule(profile, basis, lv, exponent):
    """Every row of a flat-field compression against ``log_radial_moments``
    on all K rows: the seed rows are the same rule, possibly at other node
    counts, and each recurrence row is within the stated bound (seeded by
    the rule's slack) plus the rule's own slack."""
    log_num = log_radial_moments(basis.field, np.arange(basis.K), log_symbol=profile.log_value)
    log_den = 2.0 * basis.log_norms
    quad, slack = log_num - log_den, _quadrature_slack(log_num, log_den)
    k0 = _seed_index(exponent, basis.field.b0)
    assert np.all(np.abs(lv[:k0 + 2] - quad[:k0 + 2]) <= 2 * slack[:k0 + 2])
    ks = np.arange(k0 + 2, basis.K)
    bound = np.array([_recurrence_bound(k, k0, exponent, basis.field.b0, lv[k], lv[k0],
                                        max(slack[k0], slack[k0 + 1])) for k in ks])
    assert np.all(np.abs(lv[ks] - quad[ks]) <= bound + slack[ks])


class TestPowerRecurrence:
    """Rows k >= k0 + 2 of a flat-field power profile come from the
    three-term recurrence; every other row and case is quadrature."""

    @settings(deadline=None, max_examples=20)
    @given(b0=st.floats(0.2, 100.0),
           exponent=st.one_of(st.floats(0.5, 10.0), st.floats(10.0, 60.0)),
           extra=st.integers(1, 400), pick=st.floats(0.0, 1.0))
    def test_rows_match_mpmath_within_the_derived_bound(self, b0, exponent, extra, pick):
        k0 = _seed_index(exponent, b0)
        K = k0 + 2 + extra
        model = toeplitz_radial_spectrum(power_profile(exponent), build_lll_basis(FieldSpec(b0), K))
        lv = model.log_eigen_by_k

        def error(k):
            # the oracle must have converged: 20 and 30 digits agree
            ref, ref_hi = mp_power_log_eig(k, exponent, b0, 20), mp_power_log_eig(k, exponent, b0, 30)
            assert abs(float(ref - ref_hi)) < 1e-17 * max(1.0, abs(float(ref_hi)))
            return abs(float(lv[k] - ref_hi))

        seed_err = max(error(k0), error(k0 + 1))
        for k in {k0 + 2 + int(pick * (extra - 1)), K - 1}:
            bound = _recurrence_bound(k, k0, exponent, b0, lv[k], lv[k0], seed_err)
            assert error(k) <= bound, (k, bound)
        # the certificate still holds between the last two rows
        s = math.exp(0.5 * (lv[-1] + lv[-2]))
        assert model.count_certified(s)
        assert model.spectrum.n_plus(s) == K - 1

    @pytest.mark.parametrize("exponent, b0, amplitude", [
        (4.0, 1.0, 1.0), (6.0, 2.0, 3.0), (10.0, 1.0, 8.0)])
    def test_trace_identity_by_a_direct_sum_to_4k(self, exponent, b0, amplitude):
        # sum_k lambda_k = (b0 / 2 pi) integral U = A b0 / (2 (a - 1)) on the
        # flat field; the oracle goes through no quadrature.  For t ~
        # Gamma(k+1, rate c), Jensen gives lambda_k / A >= (1 + (k+1)/c)^-a,
        # and splitting at t = theta (k+1)/c with the Chernoff bound
        # P(t <= theta (k+1)/c) <= exp(-beta (k+1)), beta = theta - 1 - ln theta,
        # gives lambda_k / A <= g(k) = (1 + theta (k+1)/c)^-a + exp(-beta (k+1));
        # both are decreasing in k, so the remainder past N = 4K lies in
        # [A c/(a-1) (1 + (N+1)/c)^(1-a), A (g(N) + (c/theta)/(a-1) (1 + theta (N+1)/c)^(1-a)
        #  + exp(-beta (N+1))/beta)]
        K = 1000
        N = 4 * K
        a, c, theta = 0.5 * exponent, 0.5 * b0, 0.5
        beta = theta - 1.0 - math.log(theta)
        model = toeplitz_radial_spectrum(power_profile(exponent, amplitude),
                                         build_lll_basis(FieldSpec(b0), N))
        assert model.profile.power_form == (exponent, amplitude)
        partial = math.fsum(np.exp(model.log_eigen_by_k))
        total = amplitude * b0 / (2.0 * (a - 1.0))
        rem_lo = amplitude * c / (a - 1.0) * (1.0 + (N + 1) / c) ** (1.0 - a)
        g_n = (1.0 + theta * (N + 1) / c) ** -a + math.exp(-beta * (N + 1))
        rem_hi = amplitude * (g_n + (c / theta) / (a - 1.0) * (1.0 + theta * (N + 1) / c) ** (1.0 - a)
                              + math.exp(-beta * (N + 1)) / beta)
        # every term is within 1e-10 relative (the seeds' rule and the
        # recurrence bound), and the exp of each log and the sum add roundings
        slack = 1e-10 * partial
        assert rem_lo - slack <= total - partial <= rem_hi + slack

    @pytest.mark.parametrize("exponent, K", [(4.0, 4000), (3.0, 8000), (30.0, 600)])
    def test_quadrature_rows_agree_within_the_stated_bound(self, field_b1, exponent, K):
        basis = build_lll_basis(field_b1, K)
        profile = power_profile(exponent)
        lv = toeplitz_radial_spectrum(profile, basis).log_eigen_by_k
        _assert_rows_match_the_rule(profile, basis, lv, exponent)

    @pytest.mark.parametrize("exponent, K", [(200.0, 2000), (1000.0, 4000)])
    def test_steep_exponent_keeps_its_logs_below_underflow(self, field_b1, exponent, K):
        # exponent 200 (a = 100): lambda_(K-1) / A < 1e-300, which a linear
        # recurrence would flush to zero; at exponent 1000 even the ratio
        # lambda_(K-1) / lambda_(k0) that the pair carries is below 1e-308,
        # so the pair must be rescaled on the way
        basis = build_lll_basis(field_b1, K)
        profile = power_profile(exponent)
        lv = toeplitz_radial_spectrum(profile, basis).log_eigen_by_k
        assert np.all(np.isfinite(lv)) and lv[-1] < math.log(1e-300)
        if exponent == 1000.0:
            assert lv[-1] - lv[_seed_index(exponent, 1.0)] < math.log(1e-308)
        assert np.all(np.diff(lv) < 0.0)
        _assert_rows_match_the_rule(profile, basis, lv, exponent)

    @staticmethod
    def _record_rows(monkeypatch):
        """The number of rows of each ``log_radial_moments`` call."""
        calls = []
        moments = toeplitz.log_radial_moments
        monkeypatch.setattr(toeplitz, "log_radial_moments",
                            lambda fs, ks, **kw: calls.append(len(ks)) or moments(fs, ks, **kw))
        return calls

    @pytest.mark.parametrize("profile, field, K", [
        (power_profile(3.0), FieldSpec(1.0, lambda r: 0.5 * np.tanh(r)), 40),
        (gaussian_profile(1.0), FieldSpec(2.0), 40),
        (disc_profile(1.0), FieldSpec(2.0), 40),
        (power_profile(1e9), FieldSpec(1.0), 40),  # k0 + 2 >= K
        (power_profile(3.0), FieldSpec(1.0), 5),   # K = k0 + 2
    ], ids=["tanh-field", "gaussian", "disc", "steep-small-basis", "k-equals-k0-plus-2"])
    def test_every_other_case_is_quadrature(self, monkeypatch, profile, field, K):
        basis = build_lll_basis(field, K)
        calls = self._record_rows(monkeypatch)

        def refuse(*args):
            raise AssertionError("the recurrence ran")

        monkeypatch.setattr(toeplitz, "_power_recurrence", refuse)
        model = toeplitz_radial_spectrum(profile, basis)
        assert calls == [K] and np.all(np.isfinite(model.log_eigen_by_k))

    def test_a_flat_power_basis_one_past_the_seeds_recurs(self, monkeypatch, field_b1):
        # k0 = 3 at exponent 3, b0 = 1: K = 6 integrates rows 0..4 and recurs row 5
        calls = self._record_rows(monkeypatch)
        model = toeplitz_radial_spectrum(power_profile(3.0), build_lll_basis(field_b1, 6))
        assert _seed_index(3.0, 1.0) == 3 and calls == [5]
        assert model.log_eigen_by_k.shape == (6,)


# -- the blocked evaluation against the row-by-row loop -------------------------


def _assert_blocked_rows_match_the_loop(exponent, b0, K):
    """The blocked rows and ``oracles.sequential_power_recurrence`` from the
    same two seed rows, k0 and k0+1 of the radial rule.  Each is within the
    stated bound, less e_seed, of the exact recurrence from those seeds, so
    they differ by at most twice that.  Returns the rows."""
    k0 = _seed_index(exponent, b0)
    lv = np.full(K, np.nan)
    lv[:k0 + 2] = toeplitz_radial_spectrum(power_profile(exponent),
                                           build_lll_basis(FieldSpec(b0), k0 + 2)).log_eigen_by_k
    a, c = 0.5 * exponent, 0.5 * b0
    toeplitz._power_recurrence(lv, k0, a, c)
    loop = sequential_power_recurrence(lv[k0], lv[k0 + 1], k0, K, a, c)
    assert np.all(np.isfinite(lv)) and np.all(np.diff(lv[k0:]) < 0.0)
    ks = np.arange(k0 + 2, K)
    bound = np.array([2 * _recurrence_bound(k, k0, exponent, b0, lv[k], lv[k0], 0.0) for k in ks])
    assert np.all(np.abs(lv[ks] - loop) <= bound)
    return lv


class TestBlockedRecurrence:
    """``toeplitz._power_recurrence`` steps blocks of ceil(sqrt(n)) rows,
    n = K - k0 - 2, and passes the pair between them; the row-by-row loop
    it replaced is the oracle."""

    # exponent 3 at b0 = 1: k0 = 3, so K = 5 + n
    @pytest.mark.parametrize("n, blocks", [(1, 1), (2, 1), (3, 2), (64, 8), (65, 8), (4000, 63)],
                             ids=["one-row", "one-block", "two-blocks", "n-is-b-squared",
                                  "n-is-b-squared-plus-one", "4000-rows"])
    def test_block_edges_match_the_loop_and_the_rule(self, n, blocks):
        size = math.isqrt(n - 1) + 1
        assert -(-n // size) == blocks
        K = _seed_index(3.0, 1.0) + 2 + n
        lv = _assert_blocked_rows_match_the_loop(3.0, 1.0, K)
        model = toeplitz_radial_spectrum(power_profile(3.0), build_lll_basis(FieldSpec(1.0), K))
        assert np.array_equal(model.log_eigen_by_k, lv)
        _assert_rows_match_the_rule(model.profile, model.basis, lv, 3.0)

    def test_a_rescale_the_loop_takes_inside_a_block(self):
        # at exponent 1000 the loop rescales its pair once lambda_k / lambda_k0
        # falls below 2^-512, which first happens in the middle of a block
        exponent, K = 1000.0, 4000
        lv = _assert_blocked_rows_match_the_loop(exponent, 1.0, K)
        k0 = _seed_index(exponent, 1.0)
        n = K - k0 - 2
        size = math.isqrt(n - 1) + 1
        first = int(np.argmax(lv[k0 + 2:] - lv[k0] < -512 * math.log(2.0)))
        assert first > size and first % size not in (0, size - 1)
        assert lv[-1] - lv[k0] < math.log(1e-308)

    @pytest.mark.parametrize("exponent, sizes", [(3.0, [512]), (1000.0, [512, 256]),
                                                 (1e4, [508, 254, 127])])
    def test_the_largest_basis_is_finite_and_strictly_decreasing(self, monkeypatch,
                                                                  exponent, sizes):
        # K = MAX_BASIS_K: blocks of 512 rows at exponent 3.  At exponent 1000
        # the first block of 512 rows falls by 657 nats, past the 2^-900 floor
        # (624 nats), and at 10^4 the first of 254 rows still does, so the
        # block size halves; kept at 512 the rows would underflow to -inf
        tried = []
        blocks = toeplitz._recurrence_blocks
        monkeypatch.setattr(toeplitz, "_recurrence_blocks",
                            lambda *args: tried.append(args[3]) or blocks(*args))
        _assert_blocked_rows_match_the_loop(exponent, 1.0, MAX_BASIS_K)
        assert tried == sizes

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.5, 2.0 ** 18), q=st.floats(0.5, 1.0), u=st.floats(2.0 ** -900, 1.0),
           v=st.floats(2.0 ** -900, 1.0), lows=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_the_pair_passes_between_blocks_in_double_double(self, p, q, u, v, lows):
        # the pass (p + p_lo) u + (q + q_lo) v must cost O(u^2), not 2u: the
        # result as hi + lo against exact rational arithmetic, with the lo
        # parts at most half an ulp of their hi parts
        p_lo, q_lo = lows[0] * 0.5 * math.ulp(p), lows[1] * 0.5 * math.ulp(q)
        hi, lo = toeplitz._dd_combination(p, p_lo, q, q_lo, u, v)
        exact = (Fraction(p) + Fraction(p_lo)) * Fraction(u) + (Fraction(q) + Fraction(q_lo)) * Fraction(v)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= Fraction(2) ** -100 * exact
        assert abs(lo) <= 0.5 * math.ulp(hi)

    def test_the_deep_compression_holds_less_than_the_loop(self):
        # The traced peak of the alpha = 3, K = 37135 compression (the
        # deep-basis power-3 case).  Measured the same way with the row-by-row
        # loop: 1_301_688 bytes (Python 3.11, numpy 2.4); the blocked form,
        # which fills the K-row output in place and keeps one exponent per
        # block, reads 1_148_520.
        basis, profile = build_lll_basis(FieldSpec(1.0), 37135), power_profile(3.0)
        toeplitz_radial_spectrum(profile, basis)
        tracemalloc.start()
        try:
            toeplitz_radial_spectrum(profile, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_301_688
