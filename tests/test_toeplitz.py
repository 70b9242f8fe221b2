import numpy as np
import pytest
from scipy.special import gammainc

from diracssf.landau import build_lll_basis
from diracssf.toeplitz import (
    CompactSupportTail,
    RadialProfile,
    ExponentialTail,
    NonIntegrableError,
    PowerLawTail,
    TruncationError,
    _log_plane_integral,
    check_raikov_bound,
    disc_profile,
    gaussian_profile,
    power_profile,
    suggest_truncation,
    toeplitz_general_matrix,
    toeplitz_radial_spectrum,
)


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


def test_zero_symbol_compresses_to_zero(basis_b2_64):
    zero = disc_profile(1.0, height=1.0)
    zero = zero.__class__(eval=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                          law=zero.law)
    model = toeplitz_radial_spectrum(zero, basis_b2_64)
    assert model.spectrum.n_plus(1e-300) == 0


def test_negative_symbol_rejected(basis_b2_64):
    bad = gaussian_profile(1.0)
    bad = bad.__class__(eval=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
                        law=bad.law)
    with pytest.raises(ValueError):
        toeplitz_radial_spectrum(bad, basis_b2_64)


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
    eg = np.sort(np.exp(general.spectrum.log_values[general.spectrum.signs == 1]))[::-1]
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
    model, mat = toeplitz_general_matrix(
        lambda r, th: np.zeros(np.broadcast(r, th).shape), basis_b2_64,
        angular_modes=2)
    assert np.max(np.abs(mat)) == 0.0
    assert model.spectrum.n_plus(1e-300) == 0


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
        prof = gaussian_profile(1.0, amplitude=1.0)
        prof = prof.__class__(eval=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                              law=prof.law)
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
    def test_power_plane_integral_closed_form(self, field_b1, alpha, q):
        # integral over the plane of (1 + r^2)^(-q alpha / 2) is
        # pi / (q alpha / 2 - 1); slow tails need the remainder past t = 60
        got = _log_plane_integral(power_profile(alpha), q, field_b1)
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


def test_tail_consistency_checks():
    assert gaussian_profile(1.0).tail_consistent(radii=(4.0, 6.0, 8.0))
    assert power_profile(3.0).tail_consistent()
    assert disc_profile(1.0).tail_consistent()
    lying = gaussian_profile(1.0).__class__(
        eval=lambda r: (1.0 + np.asarray(r) ** 2) ** -1.5,
        law=ExponentialTail(eta=1.0))
    assert not lying.tail_consistent(radii=(4.0, 6.0, 8.0))


def test_stretched_exponential_branch(field_b2):
    # beta = 1/2 tail: log U = -r, counting law (b0/2) |log s|^2
    from diracssf.asymptotics import compare_law, law_for_profile

    prof = RadialProfile(
        eval=lambda r: np.exp(-np.asarray(r, dtype=float)),
        law=ExponentialTail(eta=1.0, beta=0.5),
        log_eval=lambda r: -np.asarray(r, dtype=float),
    )
    k = suggest_truncation(prof.law, 1e-6, 2.0)
    basis = build_lll_basis(field_b2, k)
    model = toeplitz_radial_spectrum(prof, basis)
    law = law_for_profile(prof, 2.0)
    (_, n, lawv, ratio, _), = compare_law(model, law, [1e-6]).rows
    assert 0.8 <= ratio <= 1.2


def test_for_threshold_sizing(field_b2):
    from diracssf.ssf import PotentialSpec, SsfEstimator, gaussian_longitudinal

    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[2, 2] = 1.0
    pot = PotentialSpec(mat, gaussian_profile(1.0), gaussian_longitudinal(),
                        nu=5.0)
    est = SsfEstimator.for_threshold(pot, field_b2, 1e-6)
    assert est.wplus_model.adequate_for(1e-6)
