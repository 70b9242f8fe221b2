import collections
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from diracssf import harness
from diracssf.counting import LogSpectrum
from diracssf.kernels1d import Grid1D
from diracssf.landau import FieldSpec, build_lll_basis
from diracssf.ssf import (
    BracketEstimate,
    PotentialSpec,
    SsfEstimator,
    build_omega_full,
    edge_threshold,
    gap_edge_factor,
    gaussian_longitudinal,
    levinson_energies,
    omega1_trace,
    TruncatedTailError,
)
from diracssf.toeplitz import (ToeplitzModel, TruncationError, disc_profile, gaussian_profile,
                               power_profile, toeplitz_radial_spectrum)


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
        assert np.allclose(np.exp(pot_exp.w_plus.log_value(r)), want, rtol=1e-12)
        assert np.allclose(np.exp(pot_exp.w_minus.log_value(r)), want, rtol=1e-12)

    @pytest.mark.parametrize("profile", [gaussian_profile(1.0), power_profile(4.0),
                                         disc_profile(1.0)],
                             ids=["exponential", "power", "compact"])
    @pytest.mark.parametrize("m11", [0.0, 1.0])
    def test_column_symbols_keep_the_monotone_flag(self, profile, m11):
        # M_ii (integral L) >= 0 times a nonincreasing T is nonincreasing,
        # and so is the zero symbol of a zero diagonal entry
        pot = PotentialSpec(diag_matrix(m11, 1.0), profile, gaussian_longitudinal(), nu=5.0)
        assert profile.nonincreasing
        assert pot.w_plus.nonincreasing and pot.w_minus.nonincreasing

    def test_rejects_shallow_decay(self):
        with pytest.raises(ValueError, match="nu"):
            PotentialSpec(diag_matrix(), gaussian_profile(1.0),
                          gaussian_longitudinal(), nu=2.5)

    def test_rejects_indefinite_matrix(self):
        bad = np.diag([1.0, -0.5, 1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            PotentialSpec(bad, gaussian_profile(1.0), gaussian_longitudinal(), nu=5.0)

    def test_longitudinal_integral(self, pot_exp):
        assert pot_exp.longitudinal.integral() == math.sqrt(math.pi)
        assert pot_exp.column_scale(0) == math.sqrt(math.pi)


class TestGaussianLongitudinal:
    """L(x) = exp(-(x / w)^2): integral and moments over the whole line."""

    @pytest.mark.parametrize("width", [1e-6, 1e-3, 0.02, 1.0, 2.0])
    def test_integral_is_width_root_pi(self, width):
        assert gaussian_longitudinal(width).integral() == width * math.sqrt(math.pi)

    @pytest.mark.parametrize("width", [1e-3, 0.02, 1.0, 2.0])
    @pytest.mark.parametrize("kappa", [0.05, 1.0, 10.0])
    def test_moments_match_an_mpmath_quadrature(self, width, kappa):
        # x = w t: each moment is w times an integral of exp(-t^2) against
        # cos^2 or sin^2 of (kappa w) t, even in t; [0, 12] is cut into
        # 10 kappa w + 8 pieces or more (over two per period of the
        # squared trig) and the tail runs to infinity
        with mp.workdps(30):
            w, a = mp.mpf(width), mp.mpf(kappa) * mp.mpf(width)
            cuts = mp.linspace(0, 12, math.ceil(10 * float(a)) + 9) + [mp.inf]
            want = [2 * w * mp.quad(lambda t: mp.exp(-t * t) * trig(a * t) ** 2, cuts)
                    for trig in (mp.cos, mp.sin)]
        cos2, mixed, sin2 = gaussian_longitudinal(width).moments(kappa)
        assert mixed == 0.0
        for got, exact in zip((cos2, sin2), want):
            assert abs(got - float(exact)) <= 1e-14 * float(exact)


@pytest.fixture(scope="module")
def basis_b1_4000(field_b1):
    return build_lll_basis(field_b1, 4000)


class TestScaledEdgeCompressions:
    """The edge models are pTp scaled by M_ii (integral L), with no quadrature."""

    @pytest.mark.parametrize("m11, m33", [(1.0, 4.0), (4.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("case", ["gaussian_b2_k64", "power4_b1_k4000"])
    def test_match_direct_quadrature(self, request, case, m11, m33):
        if case == "gaussian_b2_k64":
            profile, basis = gaussian_profile(1.0), request.getfixturevalue("basis_b2_64")
        else:
            profile = power_profile(4.0, amplitude=8.0)
            basis = request.getfixturevalue("basis_b1_4000")
        pot = PotentialSpec(diag_matrix(m11, m33), profile, gaussian_longitudinal(), nu=5.0)
        est = SsfEstimator(pot, basis, m=1.0)
        for model, symbol in ((est.wplus_model, pot.w_plus), (est.wminus_model, pot.w_minus)):
            direct = toeplitz_radial_spectrum(symbol, basis)
            if direct.log_eigen_by_k is None:
                # a zero entry compresses to the zero operator on both paths
                assert model.log_eigen_by_k is None
                assert np.array_equal(model.spectrum.signs, direct.spectrum.signs)
                assert np.array_equal(model.spectrum.log_values, direct.spectrum.log_values)
                continue
            dev = np.abs(model.log_eigen_by_k - direct.log_eigen_by_k)
            assert np.max(dev) <= 1e-10
            assert np.max(np.abs(model.spectrum.log_values
                                 - direct.spectrum.log_values)) <= 1e-10
            assert model.profile is symbol

    def test_one_radial_quadrature_per_estimator(self, monkeypatch, field_b2):
        import diracssf.ssf as ssf_module
        from diracssf.discrete_model import tdiv_vs_omega_count

        calls = []
        direct = ssf_module.toeplitz_radial_spectrum

        def counted(profile, basis):
            calls.append(profile)
            return direct(profile, basis)

        monkeypatch.setattr(ssf_module, "toeplitz_radial_spectrum", counted)
        pot = PotentialSpec(diag_matrix(), gaussian_profile(1.0, amplitude=8.0),
                            gaussian_longitudinal(), nu=5.0)
        est = SsfEstimator(pot, build_lll_basis(field_b2, 90), m=1.0)
        est.levinson_rows([1e-2, 1e-3], "H-", eps_bracket=0.1)
        est.levinson_rows([1e-2], "H+", eps_bracket=0.1)
        build_omega_full(est, 1.1)
        gap_edge_factor(est, Grid1D(16.0, 64), 0.5, 1.0)
        tdiv_vs_omega_count(est, 0.9, Grid1D(16.0, 64), 1.0)
        assert calls == [pot.transverse]

    @settings(deadline=None, max_examples=150)
    @given(profile=st.sampled_from([gaussian_profile(1.0), gaussian_profile(0.3, amplitude=5.0),
                                    power_profile(4.0, amplitude=8.0), power_profile(3.0),
                                    disc_profile(1.0), disc_profile(2.5, height=0.5)]),
           K=st.integers(1, 200), b0=st.floats(0.25, 4.0), width=st.floats(0.1, 5.0),
           m11=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
           m33=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
           thresholds=st.lists(st.floats(1e-300, 1e3), max_size=4),
           picks=st.lists(st.integers(0, 199), max_size=4))
    def test_edge_spectra_are_bitwise_the_shifted_transverse_logs(
            self, profile, K, b0, width, m11, m33, thresholds, picks):
        # W+- = M_ii (integral L) T: each edge spectrum is pTp's k-ordered
        # logs plus log c, sorted, and a zero column is K exact zeros
        pot = PotentialSpec(diag_matrix(m11, m33), profile, gaussian_longitudinal(width), nu=5.0)
        est = SsfEstimator(pot, build_lll_basis(FieldSpec(b0), K), m=1.0)
        tau = est.transverse_model.log_eigen_by_k
        for model, diag_index in ((est.wplus_model, 0), (est.wminus_model, 2)):
            spec, scale = model.spectrum, pot.column_scale(diag_index)
            if scale == 0.0:
                assert model.log_eigen_by_k is None
                assert spec.log_values.tobytes() == np.zeros(K).tobytes()
                assert not np.any(spec.signs)
                assert all(spec.n_plus(s) == 0 for s in thresholds)
                continue
            shifted = tau + math.log(scale)
            assert spec.log_values.tobytes() == np.sort(shifted)[::-1].tobytes()
            assert np.all(spec.signs == 1)
            on_eigenvalues = [float(np.exp(shifted[j % K])) for j in picks]
            for s in thresholds + [s for s in on_eigenvalues if 0.0 < s < math.inf]:
                assert spec.n_plus(s) == int(np.count_nonzero(shifted > np.log(s)))


class TestThresholdMap:
    def test_symmetric_point(self):
        assert edge_threshold(0.0, 1.0) == pytest.approx(2.0)
        assert edge_threshold(0.0, -1.0) == pytest.approx(2.0)

    def test_unit_factor_point(self):
        # (m - lam)/(m + lam) = 1/4 at lam = 3m/5
        assert edge_threshold(0.6, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_collapse_at_edge(self):
        assert edge_threshold(1.0 - 1e-12, 1.0) < 1e-5

    def test_rejects_outside_gap(self, est_exp):
        # edge_threshold is defined on both sides; every gap-side reader of
        # it refuses |lambda| >= m
        from diracssf.discrete_model import tdiv_vs_omega_count

        for lam in (1.5, -1.0):
            with pytest.raises(ValueError, match="lambda"):
                est_exp.inside_bracket(lam, 0.1, "H-")
            with pytest.raises(ValueError, match="lambda"):
                gap_edge_factor(est_exp, Grid1D(16.0, 64), lam, 1.0)
            with pytest.raises(ValueError, match="lambda"):
                tdiv_vs_omega_count(est_exp, lam, Grid1D(16.0, 64), 1.0)


_MASSES = st.floats(1e-3, 1e3)


_ZERO_POTENTIAL = PotentialSpec(diag_matrix(0.0, 0.0), gaussian_profile(1.0),
                                gaussian_longitudinal(), nu=5.0)
_ZERO_BASIS = build_lll_basis(FieldSpec(2.0), 8)


@settings(deadline=None, max_examples=300)
@given(_MASSES, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_inside_threshold_map_is_the_edge_threshold(m, u):
    # zero edge symbols are adequate at every threshold, so the bracket's
    # threshold is read for any lambda in the gap
    lam = m * u
    e, pair = (1.0, "H-") if lam >= 0.0 else (-1.0, "H+")
    est = SsfEstimator(_ZERO_POTENTIAL, _ZERO_BASIS, m=m)
    assert est.inside_bracket(lam, 0.1, pair).threshold == edge_threshold(lam, e, m)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["ssf_inside", "ssf_outside",
                                  "levinson_exponential", "levinson_power"])
def test_harness_basis_floor_is_below_every_counted_level(monkeypatch, name):
    # the basis is sized for the smallest threshold the harness expects;
    # record it and every level the scenario's brackets actually read W+ at:
    # (1 - eps) t(lambda) on both sides, the inside count and the outside
    # arctan trace at s = 1 - eps
    floors, inside_levels, outside_levels = [], [], []
    build = harness._estimator

    def recording_estimator(cfg, s_min):
        floors.append(s_min)
        est = build(cfg, s_min)
        inside, outside = est.inside_bracket, est.outside_bracket

        def inside_bracket(lam, eps, pair):
            br = inside(lam, eps, pair)
            if not br.bounded:
                inside_levels.append(br.threshold * (1.0 - eps))
            return br

        def outside_bracket(lam, eps, pair):
            outside_levels.append((1.0 - eps) * edge_threshold(lam, 1.0, est.m))
            return outside(lam, eps, pair)

        est.inside_bracket, est.outside_bracket = inside_bracket, outside_bracket
        return est

    monkeypatch.setattr(harness, "_estimator", recording_estimator)
    harness.run_scenario(harness.parse_config((CONFIGS / f"{name}.cfg").read_text()))
    assert len(floors) == 1 and inside_levels + outside_levels
    assert all(floors[0] <= level for level in inside_levels + outside_levels)


class TestInsideBracket:
    def test_counts_match_geometric_oracle(self, est_exp, pot_exp):
        lam = 1.0 - 1e-6
        c = pot_exp.longitudinal.integral()
        t = edge_threshold(lam, 1.0)

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

    def test_threshold_on_an_eigenvalue_is_refused(self, est_exp):
        # place the lower end (1 - eps) t on lambda_1 of W+ and invert
        # t = 2 sqrt((1 - lam) / (1 + lam)) for lam
        eps = 0.1
        t = math.exp(est_exp.wplus_model.log_eigen_by_k[1]) / (1.0 - eps)
        q = 0.25 * t * t
        lam = (1.0 - q) / (1.0 + q)
        with pytest.raises(TruncationError, match="collides with an eigenvalue"):
            est_exp.inside_bracket(lam, eps, "H-")
        assert est_exp.inside_bracket(0.999 * lam, eps, "H-").lower == -1  # above lambda_1

    def test_rejects_energies_outside_gap(self, est_exp):
        with pytest.raises(ValueError):
            est_exp.inside_bracket(1.5, 0.1, "H-")
        with pytest.raises(ValueError):
            est_exp.inside_bracket(0.9, 1.5, "H-")


class TestOmega1:
    def test_scale_factor(self):
        # Omega1 scales the +m family by f+ = (1/2) sqrt(|lam + m| / |lam - m|)
        # and the -m family by f- = 1 / (4 f+): 3/2 and 1/6 at lam = 1.25
        spec = LogSpectrum.from_eigenvalues([1.0])
        empty = LogSpectrum.from_log(np.empty(0))
        for lam, f_plus, f_minus in ((1.25, 1.5, 1.0 / 6.0), (-1.25, 1.0 / 6.0, 1.5)):
            for s in (0.5, 1.0, 3.0):
                assert omega1_trace(lam, spec, empty, s) == pytest.approx(
                    math.atan(f_plus / s), rel=1e-12)
                assert omega1_trace(lam, empty, spec, s) == pytest.approx(
                    math.atan(f_minus / s), rel=1e-12)

    def test_empty_minus_family(self):
        # an empty family adds nothing; f+ = sqrt(3) / 2 at lam = 2
        spec = LogSpectrum.from_eigenvalues([2.0, 1.0])
        empty = LogSpectrum.from_log(np.empty(0))
        want = math.atan(math.sqrt(3.0)) + math.atan(0.5 * math.sqrt(3.0))
        assert omega1_trace(2.0, spec, empty, 1.0) == pytest.approx(want, rel=1e-14)
        assert omega1_trace(2.0, empty, empty, 1.0) == 0.0

    def test_large_energy_limit(self):
        # both scale factors tend to 1/2
        spec = LogSpectrum.from_eigenvalues([1.0])
        assert omega1_trace(1e8, spec, spec, 1.0) == pytest.approx(2.0 * math.atan(0.5),
                                                                   rel=1e-7)

    def test_rejects_gap_interior(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        for lam in (0.5, 1.0, -1.0):
            with pytest.raises(ValueError):
                omega1_trace(lam, spec, spec, 1.0)


class TestTraceArctan:
    def test_single_eigenvalue(self):
        spec = LogSpectrum.from_eigenvalues([1.5])
        assert spec.trace_arctan(1.0) == pytest.approx(math.atan(1.5), rel=1e-14)

    def test_large_scale_limit(self):
        spec = LogSpectrum.from_eigenvalues([1.0, 2.0])
        assert spec.trace_arctan(1e12) < 1e-11

    def test_far_branches_and_sign_mask(self):
        # log-ratios beyond +-30 take the expansion branches; zero and
        # negative entries contribute nothing
        lv = np.array([-95.0, -40.0, -30.5, -2.0, 0.0, 3.0, 30.5, 41.0, 88.0])
        spec = LogSpectrum(np.append(lv, [0.0, math.log(3.0)]),
                           np.append(np.ones(lv.size), [0, -1]))
        want = math.fsum(math.atan(math.exp(v) / 2.0) for v in lv)
        assert spec.trace_arctan(2.0) == pytest.approx(want, rel=1e-14)
        assert LogSpectrum.from_eigenvalues([0.0, -1.0]).trace_arctan(1.0) == 0.0


class TestOmegaFull:
    def test_mixing_moment_vanishes_for_even_profile(self, est_exp):
        om = build_omega_full(est_exp, 1.1)
        assert abs(om.moments[1]) < 1e-14

    def test_trace_bound_holds_along_sweep(self, est_exp):
        for j in range(2, 9):
            om = build_omega_full(est_exp, 1.0 + 2.0**-j)
            assert om.trace_sum <= om.trace_bound * (1.0 + 1e-12)

    def test_moment_sum_is_longitudinal_integral(self, pot_exp, est_exp):
        om = build_omega_full(est_exp, 1.25)
        assert om.moments[0] + om.moments[2] == pytest.approx(
            pot_exp.longitudinal.integral(), rel=1e-10)

    def test_diagonal_structure_recovers_omega1_at_edge(self, pot_exp, basis_b2_64):
        est = SsfEstimator(pot_exp, basis_b2_64, m=1.0)
        # cos^2 -> 1 as the oscillation freezes, so the full operator's
        # arctan trace approaches the diagonal model's
        diffs = []
        for j in (2, 6, 10):
            lam = 1.0 + 2.0**-j
            full = build_omega_full(est, lam).spectrum.trace_arctan(1.0)
            diag = omega1_trace(lam, est.wplus_model.spectrum,
                                est.wminus_model.spectrum, 1.0, est.m)
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
        lam = 1.0 + 1e-4
        a = est_exp.outside_bracket(lam, 0.1, "H-")
        full = build_omega_full(est_exp, lam).spectrum
        full_mid = -0.5 * (full.trace_arctan(1.1) + full.trace_arctan(0.9)) / math.pi
        assert abs(a.midpoint - full_mid) < 0.05 * abs(a.midpoint)


def test_one_bracket_reads_each_spectrum_once(est_exp, monkeypatch):
    # both slack thresholds go through one call per spectrum: two traces
    # outside (W+ and W-), one guarded read and one count inside
    calls = collections.Counter()

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(LogSpectrum, "trace_arctan")
    counted(LogSpectrum, "n_plus")
    counted(ToeplitzModel, "require_adequate")
    est_exp.outside_bracket(1.01, 0.1, "H-")
    assert calls == {"trace_arctan": 2}
    calls.clear()
    est_exp.inside_bracket(0.99, 0.1, "H-")
    assert calls == {"require_adequate": 1, "n_plus": 1}


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

    @pytest.mark.parametrize("profile", [gaussian_profile(1.0), power_profile(4.0),
                                         disc_profile(1.0)],
                             ids=["exponential", "power", "compact"])
    @pytest.mark.parametrize("pair, lam", [("H-", 0.99), ("H+", -0.99)])
    def test_zero_edge_symbol_predicts_zero(self, basis_b2_64, profile, pair, lam):
        # m11 = 0 zeroes W+ (the +m edge of H-), m33 = 0 zeroes W- (the -m
        # edge of H+): the zero operator predicts no eigenvalues on either side
        m11, m33 = (0.0, 1.0) if pair == "H-" else (1.0, 0.0)
        pot = PotentialSpec(diag_matrix(m11, m33), profile, gaussian_longitudinal(), nu=5.0)
        est = SsfEstimator(pot, basis_b2_64, m=1.0)
        assert est.predict(lam, "inside", pair) == 0.0
        assert est.predict(1.0 / lam, "outside", pair) == 0.0
        bracket = est.inside_bracket(lam, 0.1, pair)
        assert bracket.lower == bracket.upper == 0.0


@pytest.fixture(scope="module")
def basis_b2_400(field_b2):
    return build_lll_basis(field_b2, 400)


def _outcome(call, *args):
    """The value of ``call(*args)``, or the type of the error it raised."""
    try:
        return call(*args)
    except (TruncationError, TruncatedTailError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _mirrored_bracket(b):
    return (-b.upper, -b.lower, b.epsilon, b.threshold, b.bounded)


def _bracket(b):
    return (b.lower, b.upper, b.epsilon, b.threshold, b.bounded)


@settings(max_examples=60, deadline=None)
@given(profile=st.sampled_from(["gaussian", "power"]),
       amplitude=st.floats(0.05, 20.0),
       m11=st.sampled_from([0.0]) | st.floats(0.05, 4.0),
       m33=st.sampled_from([0.0]) | st.floats(0.05, 4.0),
       u=st.just(1.0) | st.floats(1e-4, 1.0), eps=st.floats(0.01, 0.5))
def test_charge_conjugation_mirrors_the_edges(basis_b2_400, profile, amplitude, m11, m33,
                                              u, eps):
    # swapping m11 and m33 maps H- near +m onto H+ near -m: every bracket,
    # prediction and Levinson row is the negated mirror, float for float,
    # and a refusal on one side is the same refusal on the other; u = 1
    # probes lambda = 0, the middle of the gap
    trans = (gaussian_profile(1.0, amplitude=amplitude) if profile == "gaussian"
             else power_profile(4.0, amplitude=amplitude))
    est, mirror = (SsfEstimator(PotentialSpec(diag_matrix(a, b), trans,
                                              gaussian_longitudinal(), nu=5.0),
                                basis_b2_400, m=1.0)
                   for a, b in ((m11, m33), (m33, m11)))
    lam_in, lam_out = 1.0 - u, 1.0 / u
    for lam, bracket in ((lam_in, SsfEstimator.inside_bracket),
                         (lam_out, SsfEstimator.outside_bracket)):
        got = _outcome(bracket, mirror, -lam, eps, "H+")
        want = _outcome(bracket, est, lam, eps, "H-")
        if isinstance(want, type) or isinstance(got, type):
            assert got == want
        else:
            assert _bracket(got) == _mirrored_bracket(want)
    for lam, side in ((lam_in, "inside"), (lam_out, "outside")):
        got = _outcome(mirror.predict, -lam, side, "H+")
        want = _outcome(est.predict, lam, side, "H-")
        assert got == (want if isinstance(want, type) else -want)
    got = _outcome(mirror.levinson_rows, [u], "H+", eps)
    want = _outcome(est.levinson_rows, [u], "H-", eps)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
    else:
        [(e, li, lo, mi, mo, ratio, target)] = want
        assert got == [(e, -li, -lo, -mi, -mo, ratio, target)]


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

    @pytest.mark.parametrize("pair, edge", [("H-", 1.0), ("H+", -1.0)])
    def test_rows_sit_at_the_levinson_energies(self, est_exp, pair, edge):
        [(_, lam_in, lam_out, *_)] = est_exp.levinson_rows([1e-2], pair, eps_bracket=0.1)
        assert (lam_in, lam_out) == levinson_energies(1e-2, est_exp.m, edge)
        assert lam_in * lam_out == pytest.approx(1.0, rel=1e-15)


class TestGapEdgeFactorisation:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
    def test_flip_identity_at_finite_rank(self, est_exp, lam):
        grid = Grid1D(16.0, 256)
        factor = gap_edge_factor(est_exp, grid, lam, 1.0)
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
        factor = gap_edge_factor(est, grid, lam, 1.0)
        sv = np.linalg.svd(factor, compute_uv=False)
        realized = np.sort(sv * sv)[::-1]
        scale = 0.5 * math.sqrt((1.0 + lam) / (1.0 - lam))
        target = np.sort(np.exp(est.wplus_model.log_eigen_by_k) * scale)[::-1]
        good = target > target[0] * 1e-10
        assert np.max(np.abs(realized[: good.sum()] / target[good] - 1.0)) < 1e-9


def test_bracket_estimate_invariant():
    with pytest.raises(ValueError):
        BracketEstimate(1.0, 0.0, 0.1)


def test_outside_prefactor_large_exponent_limit():
    # power tails approach the exponential/compact constant 1/2
    assert power_profile(1e9).law.outside_prefactor() == pytest.approx(0.5, rel=1e-9)
    assert power_profile(4.0).law.outside_prefactor() > 0.5


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


# -- the query path reads the stored order --------------------------------

def bits(row):
    return [float(v).hex() for v in row]


@pytest.fixture(scope="module")
def shipped_levinson():
    """(config, estimator) of both shipped Levinson configs, with the
    compressions built by a run of the scenario."""
    out = {}
    build = harness._estimator
    with pytest.MonkeyPatch.context() as mp:
        for name in ("levinson_power", "levinson_exponential"):
            cfg = harness.parse_config((CONFIGS / f"{name}.cfg").read_text())
            built = []
            mp.setattr(harness, "_estimator",
                       lambda cfg, s_min: built.append(build(cfg, s_min)) or built[-1])
            harness.run_scenario(cfg)
            out[name] = (cfg, built[0])
    return out


@pytest.mark.parametrize("name", ["levinson_power", "levinson_exponential"])
def test_levinson_queries_never_lexsort(monkeypatch, shipped_levinson, name):
    cfg, est = shipped_levinson[name]
    calls = []
    lexsort = np.lexsort

    def counting_lexsort(*args, **kwargs):
        calls.append(1)
        return lexsort(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    LogSpectrum.from_log([1.0, 2.0])
    assert len(calls) == 1  # the counter sees the constructor's sort
    calls.clear()
    est.levinson_rows(cfg.eps_values, eps_bracket=cfg.eps_bracket)
    for eps in cfg.eps_values:
        est.inside_bracket(1.0 - eps, cfg.eps_bracket, "H-")
        est.outside_bracket(1.0 / (1.0 - eps), cfg.eps_bracket, "H-")
    assert calls == []


@pytest.mark.parametrize("name", ["levinson_power", "levinson_exponential"])
def test_levinson_rows_match_the_lexsort_formulation(shipped_levinson, name):
    cfg, est = shipped_levinson[name]
    for eps in cfg.eps_values:
        [row] = est.levinson_rows([eps], eps_bracket=cfg.eps_bracket)
        assert bits(row) == bits(oracles.levinson_row(est, eps, "H-", cfg.eps_bracket))
