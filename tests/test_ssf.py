import math

import numpy as np
import pytest

import diracssf.ssf as ssf
from diracssf.counting import LogSpectrum, _arctan_of_log_ratio
from diracssf.kernels1d import Grid1D
from diracssf.landau import build_lll_basis
from diracssf.ssf import (
    BracketEstimate,
    PotentialSpec,
    SsfEstimator,
    build_omega1,
    build_omega_full,
    gap_edge_factor,
    gaussian_longitudinal,
    omega_threshold,
    sweep_rows,
    trace_arctan,
    trace_arctan_omega1,
)
from diracssf.toeplitz import gaussian_profile, power_profile


def diag_matrix(m11=1.0, m33=1.0, m13=0.0):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = m11
    mat[2, 2] = m33
    mat[0, 2] = mat[2, 0] = m13
    return mat


@pytest.fixture(scope="module")
def pot_exp():
    return PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=1.0),
                         gaussian_longitudinal(), nu=5.0)


@pytest.fixture(scope="module")
def est_exp(pot_exp, basis_b2_64):
    return SsfEstimator(pot_exp, basis_b2_64, m=1.0)


class TestPotentialSpec:
    def test_column_symbols_are_separable_products(self, pot_exp):
        r = np.array([0.0, 1.0, 2.0])
        want = math.sqrt(math.pi) * np.exp(-r * r)
        assert np.allclose(pot_exp.w_plus.eval(r), want, rtol=1e-12)
        assert np.allclose(pot_exp.w_minus.eval(r), want, rtol=1e-12)

    def test_rejects_shallow_decay(self):
        with pytest.raises(ValueError, match="nu"):
            PotentialSpec(diag_matrix(), gaussian_profile(1.0),
                          gaussian_longitudinal(), nu=2.5)

    def test_rejects_indefinite_matrix(self):
        bad = np.diag([1.0, -0.5, 1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            PotentialSpec(bad, gaussian_profile(1.0), gaussian_longitudinal(), nu=5.0)

    def test_longitudinal_integral(self, pot_exp):
        assert pot_exp.longitudinal_integral == pytest.approx(math.sqrt(math.pi),
                                                              rel=1e-12)


class TestThresholdMap:
    def test_symmetric_point(self):
        assert omega_threshold(0.0, "+") == pytest.approx(2.0)
        assert omega_threshold(0.0, "-") == pytest.approx(2.0)

    def test_unit_factor_point(self):
        # (m - lam)/(m + lam) = 1/4 at lam = 3m/5
        assert omega_threshold(0.6, "+") == pytest.approx(1.0, rel=1e-12)

    def test_collapse_at_edge(self):
        assert omega_threshold(1.0 - 1e-12, "+") < 1e-5

    def test_rejects_outside_gap(self):
        with pytest.raises(ValueError):
            omega_threshold(1.5, "+")


class TestInsideBracket:
    def test_counts_match_geometric_oracle(self, est_exp, pot_exp):
        lam = 1.0 - 1e-6
        c = pot_exp.longitudinal_integral
        t = omega_threshold(lam, "+")

        def oracle(thr):
            return sum(1 for k in range(64) if c * 0.5 ** (k + 1) > thr)

        br = est_exp.inside_bracket(lam, 0.1, "H-")
        assert br.lower == -oracle(0.9 * t)
        assert br.upper == -oracle(1.1 * t)

    def test_non_accumulating_pair_is_bounded(self, est_exp):
        br = est_exp.inside_bracket(0.9, 0.1, "H+")
        assert br.bounded and br.lower == br.upper == 0.0
        br2 = est_exp.inside_bracket(-0.9, 0.1, "H-")
        assert br2.bounded

    def test_mirror_symmetry(self, est_exp):
        # equal column symbols make the two edges mirror images
        plus_side = est_exp.inside_bracket(0.97, 0.1, "H-")
        minus_side = est_exp.inside_bracket(-0.97, 0.1, "H+")
        assert plus_side.lower == -minus_side.upper
        assert plus_side.upper == -minus_side.lower

    def test_endpoints_monotone_in_eps(self, est_exp):
        lam = 0.999
        widths = []
        for eps in (0.05, 0.1, 0.2):
            br = est_exp.inside_bracket(lam, eps, "H-")
            widths.append(br.upper - br.lower)
            assert br.lower <= br.upper
        assert widths[0] <= widths[1] <= widths[2]

    def test_midpoints_monotone_in_lambda(self, est_exp):
        mids = [est_exp.inside_bracket(lam, 0.1, "H-").midpoint
                for lam in (0.9, 0.99, 0.999, 0.9999)]
        # counts grow toward the edge, so the (negative) midpoints decrease
        assert all(a >= b for a, b in zip(mids, mids[1:]))

    def test_rejects_energies_outside_gap(self, est_exp):
        with pytest.raises(ValueError):
            est_exp.inside_bracket(1.5, 0.1, "H-")
        with pytest.raises(ValueError):
            est_exp.inside_bracket(0.9, 1.5, "H-")


class TestOmega1:
    def test_scale_factor(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        empty = LogSpectrum.from_log(np.empty(0))
        out = build_omega1(1.25, spec, empty, 1.0)
        assert np.exp(out.log_values[0]) == pytest.approx(1.5, rel=1e-12)

    def test_empty_minus_family(self):
        spec = LogSpectrum.from_eigenvalues([2.0, 1.0])
        empty = LogSpectrum.from_log(np.empty(0))
        out = build_omega1(2.0, spec, empty, 1.0)
        assert len(out) == 2

    def test_large_energy_limit(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        out = build_omega1(1e8, spec, spec, 1.0)
        assert np.allclose(np.exp(out.log_values), 0.5, rtol=1e-7)

    def test_rejects_gap_interior(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        with pytest.raises(ValueError):
            build_omega1(0.5, spec, spec, 1.0)


class TestTraceArctan:
    def test_single_eigenvalue(self):
        spec = LogSpectrum.from_eigenvalues([1.5])
        assert trace_arctan(spec, 1.0) == pytest.approx(math.atan(1.5), rel=1e-14)

    def test_large_scale_limit(self):
        spec = LogSpectrum.from_eigenvalues([1.0, 2.0])
        assert trace_arctan(spec, 1e12) < 1e-11

    def test_paths_agree_on_random_spectra(self, rng):
        for _ in range(25):
            wp = LogSpectrum.from_log(rng.standard_normal(30) * 8.0)
            wm = LogSpectrum.from_log(rng.standard_normal(20) * 8.0)
            lam = 1.0 + float(np.abs(rng.standard_normal())) + 1e-3
            s = float(np.abs(rng.standard_normal()) + 0.1)
            trace_arctan_omega1(lam, s, wp, wm, 1.0)  # raises on disagreement


def scalar_cauchy_counting(spec, scale):
    """Jump-by-jump loop that the vectorised cross-check must reproduce."""
    lv = np.sort(spec.log_values[spec.signs == 1])
    if lv.size == 0:
        return 0.0
    at = _arctan_of_log_ratio(lv - math.log(scale), 0.0)
    total = 0.0
    prev = 0.0
    n = lv.size
    for i in range(n):
        total += (n - i) * (at[i] - prev)
        prev = at[i]
    return float(total)


class TestCauchyCountingIntegral:
    """The second evaluation path behind the criterion-8 cross-check."""

    def assert_both_oracles(self, spec, scale):
        got = ssf._cauchy_counting_integral(spec, scale)
        tol = 1e-12 * (1.0 + abs(got))
        assert abs(got - scalar_cauchy_counting(spec, scale)) <= tol
        assert abs(got - trace_arctan(spec, scale)) <= tol

    def test_random_spectra_with_ties(self, rng):
        for size in (2, 7, 50, 400):
            lv = rng.standard_normal(size) * 6.0
            lv[: size // 2] = rng.choice(lv[size // 2:], size // 2)  # ties
            spec = LogSpectrum.from_log(lv)
            assert len(np.unique(spec.log_values)) < size
            for scale in (1e-3, 0.7, 1.0, 50.0):
                self.assert_both_oracles(spec, scale)

    def test_both_far_branches_of_the_arctan(self):
        # log-ratios beyond +30 and below -30 take the expansion branches
        lv = np.array([-95.0, -40.0, -30.5, -2.0, 0.0, 3.0, 30.5, 41.0, 88.0])
        spec = LogSpectrum.from_log(lv)
        x = lv - math.log(2.0)
        assert np.any(x > 30.0) and np.any(x < -30.0)
        self.assert_both_oracles(spec, 2.0)

    def test_single_eigenvalue(self):
        spec = LogSpectrum.from_eigenvalues([1.5])
        assert ssf._cauchy_counting_integral(spec, 1.0) == pytest.approx(
            math.atan(1.5), rel=1e-14)
        self.assert_both_oracles(spec, 0.3)

    def test_empty_spectrum(self):
        assert ssf._cauchy_counting_integral(LogSpectrum.from_log(np.empty(0)), 1.0) == 0.0

    def test_zero_and_negative_entries_are_ignored(self):
        spec = LogSpectrum.from_eigenvalues([2.0, 0.0, -3.0, 0.25, 0.0, -0.1, 0.25])
        positive = LogSpectrum.from_eigenvalues([2.0, 0.25, 0.25])
        got = ssf._cauchy_counting_integral(spec, 0.5)
        assert got == ssf._cauchy_counting_integral(positive, 0.5)
        self.assert_both_oracles(spec, 0.5)
        only_nonpositive = LogSpectrum.from_eigenvalues([0.0, -1.0, -4.0])
        assert ssf._cauchy_counting_integral(only_nonpositive, 1.0) == 0.0

    def test_cross_check_catches_a_perturbed_path(self, rng, monkeypatch):
        wp = LogSpectrum.from_log(rng.standard_normal(30) * 4.0)
        wm = LogSpectrum.from_log(rng.standard_normal(20) * 4.0)
        trace_arctan_omega1(1.3, 0.8, wp, wm, 1.0)
        exact = ssf._cauchy_counting_integral
        monkeypatch.setattr(ssf, "_cauchy_counting_integral",
                            lambda spec, scale: exact(spec, scale) + 1e-6)
        with pytest.raises(AssertionError, match="paths disagree"):
            trace_arctan_omega1(1.3, 0.8, wp, wm, 1.0)


class TestOmegaFull:
    def test_mixing_moment_vanishes_for_even_profile(self, pot_exp, basis_b2_64):
        om = build_omega_full(1.1, pot_exp, basis_b2_64, m=1.0)
        assert abs(om.moments[1]) < 1e-14

    def test_trace_bound_holds_along_sweep(self, pot_exp, basis_b2_64):
        for j in range(2, 9):
            om = build_omega_full(1.0 + 2.0**-j, pot_exp, basis_b2_64, m=1.0)
            assert om.trace_sum <= om.trace_bound * (1.0 + 1e-12)

    def test_moment_sum_is_longitudinal_integral(self, pot_exp, basis_b2_64):
        om = build_omega_full(1.25, pot_exp, basis_b2_64, m=1.0)
        assert om.moments[0] + om.moments[2] == pytest.approx(
            pot_exp.longitudinal_integral, rel=1e-10)

    def test_diagonal_structure_recovers_omega1_at_edge(self, pot_exp, basis_b2_64):
        est = SsfEstimator(pot_exp, basis_b2_64, m=1.0)
        # cos^2 -> 1 as the oscillation freezes, so the full operator's
        # arctan trace approaches the diagonal model's
        diffs = []
        for j in (2, 6, 10):
            lam = 1.0 + 2.0**-j
            full = trace_arctan(build_omega_full(lam, pot_exp, basis_b2_64,
                                                 m=1.0).spectrum, 1.0)
            diag = trace_arctan(est.omega1_spectrum(lam), 1.0)
            diffs.append(abs(full - diag))
        assert diffs[-1] < diffs[0]


class TestOutsideBracket:
    def test_eps_shrinks_bracket(self, est_exp):
        lam = 1.001
        wide = est_exp.outside_bracket(lam, 0.2, "H-")
        narrow = est_exp.outside_bracket(lam, 0.01, "H-")
        assert wide.lower <= narrow.lower <= narrow.upper <= wide.upper
        assert narrow.upper - narrow.lower < 0.1 * (wide.upper - wide.lower)

    def test_sign_conventions(self, est_exp):
        minus = est_exp.outside_bracket(1.01, 0.1, "H-")
        plus = est_exp.outside_bracket(-1.01, 0.1, "H+")
        assert minus.upper < 0.0 < plus.lower
        # equal column symbols: mirrored values
        assert minus.lower == pytest.approx(-plus.upper, rel=1e-12)

    def test_uncovered_pair_rejected(self, est_exp):
        with pytest.raises(ValueError):
            est_exp.outside_bracket(1.01, 0.1, "H+")

    def test_full_operator_close_to_diagonal(self, est_exp):
        a = est_exp.outside_bracket(1.0 + 1e-4, 0.1, "H-")
        b = est_exp.outside_bracket(1.0 + 1e-4, 0.1, "H-", use_full_omega=True)
        assert abs(a.midpoint - b.midpoint) < 0.05 * abs(a.midpoint)


class TestPredictions:
    def test_power_law_prefactor(self, basis_b2_64):
        pot = PotentialSpec(diag_matrix(), power_profile(4.0),
                            gaussian_longitudinal(), nu=5.0)
        est = SsfEstimator(pot, basis_b2_64, m=1.0)
        # tail exponent 4 gives outside/inside constant 1/(2 cos(pi/4))
        assert est.levinson_target("H-") == pytest.approx(2.0 ** -0.5, rel=1e-12)
        lam = 0.999
        inside = est.predict(lam, "inside", "H-")
        outside = est.predict(1.0 / lam, "outside", "H-")
        assert outside / inside == pytest.approx(2.0 ** -0.5, rel=1e-9)

    def test_exponential_prefactor(self, est_exp):
        assert est_exp.levinson_target("H-") == pytest.approx(0.5)
        lam = 0.999
        inside = est_exp.predict(lam, "inside", "H-")
        outside = est_exp.predict(1.0 / lam, "outside", "H-")
        assert outside / inside == pytest.approx(0.5, rel=1e-9)

    def test_signs(self, est_exp):
        assert est_exp.predict(0.999, "inside", "H-") < 0.0
        assert est_exp.predict(-0.999, "inside", "H+") > 0.0


class TestLevinsonRows:
    def test_exponential_trend(self, field_b2):
        pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=8.0),
                            gaussian_longitudinal(), nu=5.0)
        basis = build_lll_basis(field_b2, 90)
        est = SsfEstimator(pot, basis, m=1.0)
        eps = [10.0 ** (-e) for e in np.linspace(1.0, 4.0, 6)]
        rows = est.levinson_rows(eps, "H-", eps_bracket=0.1)
        ratios = [r[5] for r in rows]
        assert 0.35 <= ratios[-1] <= 0.65
        devs = [abs(r - 0.5) for r in ratios]
        assert all(a >= b for a, b in zip(devs[-4:], devs[-3:]))

    def test_zero_inside_raises(self, est_exp):
        with pytest.raises(ZeroDivisionError):
            est_exp.levinson_rows([0.49], "H-", eps_bracket=0.1)


class TestGapEdgeFactorisation:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
    def test_flip_identity_at_finite_rank(self, pot_exp, basis_b2_64, lam):
        grid = Grid1D(16.0, 256)
        factor = gap_edge_factor(pot_exp, basis_b2_64, grid, lam, "+", 1.0)
        sv = np.linalg.svd(factor, compute_uv=False)
        via_svd = np.sort(sv * sv)[::-1]
        gram = factor @ factor.conj().T
        via_gram = np.sort(np.linalg.eigvalsh(gram))[::-1]
        good = via_gram > via_gram[0] * 1e-10
        assert np.max(np.abs(via_svd[: good.sum()] / via_gram[good] - 1.0)) < 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
    def test_matches_scaled_compression(self, pot_exp, basis_b2_64, lam):
        est = SsfEstimator(pot_exp, basis_b2_64, m=1.0)
        grid = Grid1D(16.0, 256)
        factor = gap_edge_factor(pot_exp, basis_b2_64, grid, lam, "+", 1.0,
                                 tau_model=est.tau_model)
        sv = np.linalg.svd(factor, compute_uv=False)
        realized = np.sort(sv * sv)[::-1]
        scale = 0.5 * math.sqrt((1.0 + lam) / (1.0 - lam))
        target = np.sort(np.exp(est.wplus_model.log_eigen_by_k) * scale)[::-1]
        good = target > target[0] * 1e-10
        assert np.max(np.abs(realized[: good.sum()] / target[good] - 1.0)) < 1e-9


def test_bracket_estimate_invariant():
    with pytest.raises(ValueError):
        BracketEstimate(1.0, 0.0, 0.1)


def test_sweep_rows_shape(est_exp):
    rows = sweep_rows(est_exp, [0.99, 0.999], 0.1, "H-", "inside")
    assert len(rows) == 2
    lam, eps, lower, upper, pred, ratio = rows[0]
    assert lam == 0.99 and eps == 0.1
    assert lower <= upper and pred < 0.0
    assert ratio == pytest.approx(0.5 * (lower + upper) / pred)


def test_outside_prefactor_large_exponent_limit():
    from diracssf.ssf import SsfEstimator
    from diracssf.toeplitz import PowerLawTail

    # power tails approach the exponential/compact constant 1/2
    assert SsfEstimator._outside_prefactor(
        power_profile(1e9)) == pytest.approx(0.5, rel=1e-9)
    assert SsfEstimator._outside_prefactor(power_profile(4.0)) > 0.5


def test_outside_ratio_converges_to_prediction(basis_b2_64):
    # unit-amplitude column symbol removes the logarithmic offset, so the
    # bracket midpoint closes in on the leading-order prediction
    amp = math.pi ** -0.5
    pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=amp),
                        gaussian_longitudinal(), nu=5.0)
    est = SsfEstimator(pot, basis_b2_64, m=1.0)
    ratios = []
    for off in (1e-4, 1e-6, 1e-8):
        br = est.outside_bracket(1.0 + off, 0.05, "H-")
        ratios.append(br.midpoint / est.predict(1.0 + off, "outside", "H-"))
    assert ratios[0] < ratios[1] < ratios[2]
    assert abs(ratios[-1] - 1.0) < 0.05
