import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracssf.counting import (
    LogSpectrum,
    arctan_trace_identity,
    check_flip,
    check_pbound,
    check_pushnitski_bound,
    check_weyl,
    flag_near_threshold,
    mu_average_counting,
    mu_interval,
)


def herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def psd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T / n


class TestCountingQueries:
    def test_direct_count(self):
        spec = LogSpectrum.from_eigenvalues([3.0, 2.0, 0.5])
        assert spec.n_plus(1.0) == 2

    def test_sign_flip(self):
        spec = LogSpectrum.from_eigenvalues([-1.0, -2.0])
        assert spec.n_minus(0.5) == 2
        assert spec.n_plus(0.5) == 0

    def test_deep_log_domain(self):
        spec = LogSpectrum.from_log([-100.0 * math.log(10.0), -200.0 * math.log(10.0)])
        assert spec.n_plus(1e-150) == 1
        assert spec.n_plus(1e-250) == 2

    def test_threshold_is_open(self):
        spec = LogSpectrum.from_eigenvalues([1.0, 1.0])
        assert spec.n_plus(1.0) == 0

    def test_rejects_nonpositive_threshold(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        with pytest.raises(ValueError):
            spec.n_plus(0.0)
        with pytest.raises(ValueError):
            spec.n_minus(-1.0)

    def test_sorted_descending_by_signed_value(self):
        spec = LogSpectrum.from_eigenvalues([-2.0, 3.0, 0.0, -0.5, 1.0])
        vals = spec.values()
        assert np.allclose(vals, [3.0, 1.0, 0.0, -0.5, -2.0], rtol=1e-14)
        assert np.array_equal(spec.signs, [1, 1, 0, -1, -1])

    def test_counts_are_monotone_step_functions(self, rng):
        spec = LogSpectrum.from_eigenvalues(rng.standard_normal(30))
        grid = np.geomspace(1e-3, 10.0, 50)
        np_vals = [spec.n_plus(s) for s in grid]
        nm_vals = [spec.n_minus(s) for s in grid]
        assert all(a >= b for a, b in zip(np_vals, np_vals[1:]))
        assert all(a >= b for a, b in zip(nm_vals, nm_vals[1:]))

    def test_near_threshold_flag(self):
        spec = LogSpectrum.from_eigenvalues([1.0])
        assert flag_near_threshold(spec, 1.0 + 1e-15)
        assert not flag_near_threshold(spec, 1.1)


class TestWeyl:
    def test_scalar_case(self):
        assert check_weyl(1.0, 1.0, np.diag([2.0]), np.diag([2.0]))

    def test_cancellation(self):
        t = np.diag([2.0, -1.0])
        assert check_weyl(1.0, 1.0, t, -t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_weyl(1.0, 1.0, np.eye(2), np.eye(3))

    def test_randomized_sweep(self, rng):
        for _ in range(300):
            s1, s2 = np.abs(rng.standard_normal(2)) + 0.05
            assert check_weyl(s1, s2, herm(rng, 20), herm(rng, 20))


class TestSchattenBound:
    def test_boundary_adjacent(self):
        spec = LogSpectrum.from_eigenvalues([1.0, 1.0])
        assert check_pbound(1.0, spec, 1)

    def test_single_eigenvalue(self):
        assert check_pbound(1.0, LogSpectrum.from_eigenvalues([2.0]), 2)

    def test_randomized_psd(self, rng):
        for _ in range(60):
            spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(psd(rng, 30)))
            for p in (1, 2, 4):
                assert check_pbound(0.3, spec, p)


class TestMuAverage:
    def test_cauchy_tail(self):
        val = mu_average_counting(1.0, np.zeros((1, 1)), np.ones((1, 1)))
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_constant_integrand(self):
        val = mu_average_counting(1.0, np.diag([2.0]), np.zeros((1, 1)))
        assert val == pytest.approx(1.0, abs=0)

    def test_small_threshold_half_line(self):
        val = mu_average_counting(1e-12, np.zeros((1, 1)), np.diag([1.0]))
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_negative_count_side(self):
        # n_- of (t * 1) counts t < -s
        val = mu_average_counting(1.0, np.zeros((1, 1)), np.ones((1, 1)), sign=-1)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_mu_interval_normalised(self):
        assert mu_interval(-np.inf, np.inf) == pytest.approx(1.0)


class TestArctanTrace:
    def test_single_unit_eigenvalue(self):
        lhs, rhs = arctan_trace_identity(1.0, LogSpectrum.from_eigenvalues([1.0]))
        assert lhs == pytest.approx(0.25, abs=1e-14)
        assert rhs == pytest.approx(0.25, abs=1e-14)

    def test_empty_spectrum(self):
        lhs, rhs = arctan_trace_identity(2.0, LogSpectrum.from_log(np.empty(0)))
        assert lhs == rhs == 0.0

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            arctan_trace_identity(1.0, LogSpectrum.from_eigenvalues([-1.0]))

    def test_quadrature_path_matches_closed_form(self, rng):
        for _ in range(12):
            dim = int(rng.integers(5, 51))
            t = psd(rng, dim)
            spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(t),
                                                zero_floor=1e-14)
            s = float(np.abs(rng.standard_normal()) + 0.1)
            _, rhs = arctan_trace_identity(s, spec)
            quad = mu_average_counting(s, np.zeros_like(t), t)
            assert abs(quad - rhs) < 1e-10


class TestFlip:
    def test_rank_one_row(self):
        assert check_flip(np.array([[1.0, 0.0, 0.0]]))

    def test_zero_matrix(self):
        assert check_flip(np.zeros((3, 5)))

    def test_random_rectangular_with_thresholds(self, rng):
        for _ in range(40):
            b = rng.standard_normal((7, 20))
            assert check_flip(b)
            for s in np.abs(rng.standard_normal(5)) + 0.01:
                assert check_flip(b, s=float(s))


class TestCountingAverageBound:
    def test_rank_one_example(self):
        # mu((2, inf)) ~ 0.1476 vs trace bound 1/pi ~ 0.3183
        assert check_pushnitski_bound(1.0, 1.0, np.zeros((1, 1)), np.eye(1))

    def test_zero_perturbation_reduces_to_monotonicity(self, rng):
        t1 = herm(rng, 6)
        assert check_pushnitski_bound(0.5, 0.5, t1, np.zeros((6, 6)))

    def test_randomized_sweep(self, rng):
        for _ in range(50):
            t1 = herm(rng, 15)
            t2 = psd(rng, 15)
            assert check_pushnitski_bound(0.6, 0.8, t1, t2)
            assert check_pushnitski_bound(0.6, 0.8, t1, t2, sign=-1)


def test_log_spectrum_scaling_and_union():
    spec = LogSpectrum.from_eigenvalues([4.0, 1.0])
    scaled = spec.scaled(math.log(0.5))
    assert np.allclose(np.sort(scaled.values()), [0.5, 2.0])
    merged = spec.union(scaled)
    assert len(merged) == 4
    assert merged.n_plus(1.5) == 2


def log_spectra(max_size=40):
    """LogSpectrum with ties, exact zeros and both signs."""
    entry = st.one_of(
        st.tuples(st.sampled_from([-1, 1]),
                  st.sampled_from([-3.0, 0.0, 2.5])
                  | st.floats(-700.0, 700.0, allow_nan=False)),
        st.just((0, 0.0)),
    )
    return st.lists(entry, max_size=max_size).map(
        lambda es: LogSpectrum(np.array([lv for _, lv in es], dtype=float),
                               np.array([sg for sg, _ in es], dtype=np.int8)))


def assert_stored_order(spec):
    """Descending by signed value: +1 block by falling log, 0, -1 by rising log."""
    sg, lv = spec.signs, spec.log_values
    assert np.all(np.diff(sg) <= 0)
    pos = lv[sg == 1]
    assert np.array_equal(pos[::-1], np.sort(pos))
    assert np.array_equal(lv[sg == -1], np.sort(lv[sg == -1]))


class TestLogSpectrumOrdering:
    """The ascending positive view ``log_values[signs == 1][::-1]`` needs no sort."""

    @settings(deadline=None)
    @given(log_spectra())
    def test_construction(self, spec):
        assert_stored_order(spec)

    @settings(deadline=None)
    @given(log_spectra(), st.floats(-50.0, 50.0, allow_nan=False))
    def test_scaled(self, spec, log_factor):
        out = spec.scaled(log_factor)
        assert_stored_order(out)
        pos = spec.log_values[spec.signs == 1] + log_factor
        assert np.array_equal(out.log_values[out.signs == 1][::-1], np.sort(pos))

    @settings(deadline=None)
    @given(log_spectra(), log_spectra())
    def test_union(self, a, b):
        out = a.union(b)
        assert_stored_order(out)
        assert len(out) == len(a) + len(b)
        pos = np.concatenate([a.log_values[a.signs == 1], b.log_values[b.signs == 1]])
        assert np.array_equal(out.log_values[out.signs == 1][::-1], np.sort(pos))
