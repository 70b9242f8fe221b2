import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import MaskedSpectrum, masked_arctan_of_log_ratio
from diracssf.counting import (
    JumpLocalizationError,
    LogSpectrum,
    _arctan_of_log_ratio,
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


def interval_oracle(s, a, b, sign):
    """Cauchy average from scipy's definite-pencil roots and midpoint counts (b > 0)."""
    roots = np.sort(scipy.linalg.eigh(sign * s * np.eye(len(a)) - a, b, eigvals_only=True))
    edges = np.concatenate([[-np.inf], roots, [np.inf]])
    mids = np.concatenate([[roots[0] - 1.0], 0.5 * (roots[:-1] + roots[1:]),
                           [roots[-1] + 1.0]])
    return sum(int(np.count_nonzero(sign * np.linalg.eigvalsh(a + t * b) > s))
               * mu_interval(lo, hi)
               for t, lo, hi in zip(mids, edges[:-1], edges[1:]))


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

    @settings(deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
               arrays(float, (n, n), elements=st.floats(-3.0, 3.0)),
               arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))),
           st.floats(0.05, 4.0), st.sampled_from([1, -1]))
    def test_matches_interval_oracle(self, mats, s, sign):
        a, m = mats
        a = 0.5 * (a + a.T)
        b = m @ m.T + 0.5 * np.eye(len(a))
        expected = interval_oracle(s, a, b, sign)
        assert mu_average_counting(s, a, b, sign=sign) == pytest.approx(expected, abs=1e-12)

    def test_rank_deficient_b_reduces_to_its_range(self, rng):
        # A = Q diag(A1, A2) Q^T, B = Q diag(B1, 0) Q^T: the A2 block never moves
        for n, k in [(6, 2), (9, 5), (12, 1), (15, 14)]:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a1, a2 = herm(rng, k, 2.0), herm(rng, n - k, 2.0)
            b1 = psd(rng, k) + 0.2 * np.eye(k)
            a = q @ scipy.linalg.block_diag(a1, a2) @ q.T
            b = q @ scipy.linalg.block_diag(b1, np.zeros((n - k, n - k))) @ q.T
            for s in (0.3, 1.1):
                for sign in (1, -1):
                    fixed = int(np.count_nonzero(sign * np.linalg.eigvalsh(a2) > s))
                    expected = interval_oracle(s, a1, b1, sign) + fixed
                    assert mu_average_counting(s, 0.5 * (a + a.T), 0.5 * (b + b.T),
                                               sign=sign) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed, dim", [(13, 46), (11, 55)])
    def test_ill_conditioned_dense_identities_inputs(self, seed, dim):
        # drawn as the dense-identities benchmark draws them; cond(B) 7e8 and 1.5e10
        rng = np.random.default_rng(seed)
        for d in rng.permutation(np.linspace(5, 100, 50).round().astype(int)):
            a = rng.standard_normal((d, d))
            s = float(abs(rng.standard_normal()) + 0.1)
            if d == dim:
                break
        b = a @ a.T / dim
        spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(b), zero_floor=1e-14)
        _, rhs = arctan_trace_identity(s, spec)
        assert abs(mu_average_counting(s, np.zeros_like(b), b) - rhs) <= 1e-10

    @pytest.mark.parametrize("s, a, b, sign, expected", [
        (1.0, np.diag([1.0]), np.ones((1, 1)), 1, 0.5),
        (1.0, np.diag([1.0, 0.2, 3.0]), np.ones((3, 3)), 1, 1.5),
        (1.0, np.diag([-1.0, 0.5]), np.eye(2), -1, 1.0 - math.atan(1.5) / math.pi),
    ])
    def test_threshold_in_the_spectrum_of_a(self, s, a, b, sign, expected):
        assert mu_average_counting(s, a, b, sign=sign) == pytest.approx(expected, abs=1e-14)

    def test_root_next_to_the_first_centre_keeps_the_far_root(self):
        # the root near t = 0 makes one mu ~ 5e13, which cut the root at
        # t = 0.5 (mu = -2) as noise; the counts then differed by 2 against
        # 1 root and raised JumpLocalizationError
        a = np.array([[0.25, 5e-8], [5e-8, 0.0]])
        b = 0.5 * np.eye(2)
        assert mu_average_counting(0.25, a, b) == pytest.approx(
            interval_oracle(0.25, a, b, 1), abs=1e-12)

    def test_indefinite_perturbation_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            mu_average_counting(1.0, np.zeros((2, 2)), np.diag([1.0, -0.5]))

    def test_singular_pencil_rejected(self):
        # e2 spans ker B and is an eigenvector of A at exactly s, for every t
        with pytest.raises(JumpLocalizationError, match="singular"):
            mu_average_counting(1.0, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))


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


class TestLogSpectrumCounting:
    @settings(deadline=None, max_examples=300)
    @given(log_spectra(), st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
    def test_counts_non_increasing_in_s(self, spec, s1, s2):
        lo, hi = min(s1, s2), max(s1, s2)
        assert spec.n_plus(lo) >= spec.n_plus(hi)
        assert spec.n_minus(lo) >= spec.n_minus(hi)

    @settings(deadline=None, max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0))
    def test_threshold_is_open(self, v):
        spec = LogSpectrum.from_eigenvalues([v])
        assert spec.n_plus(abs(v)) == 0
        assert spec.n_minus(abs(v)) == 0


@st.composite
def spectrum_and_threshold(draw, max_size=30):
    """A LogSpectrum with mixed signs, zeros (some with a nonzero stored
    log), ties, entries exactly on the threshold and log-ratios at +-30,
    with its threshold s."""
    s = draw(st.sampled_from([1.0, 0.5, 2.0 ** -10, 7.25]) | st.floats(1e-300, 1e300))
    log_s = float(np.log(s))
    specials = [log_s, math.log(s), np.nextafter(log_s, np.inf), np.nextafter(log_s, -np.inf),
                log_s + 30.0, log_s - 30.0, 30.0, -30.0, 0.0, -0.0, 2.5]
    log_value = st.sampled_from(specials) | st.floats(-700.0, 700.0, allow_nan=False)
    entry = st.one_of(st.tuples(st.sampled_from([1, 1, -1]), log_value),
                      st.tuples(st.just(0), st.sampled_from([0.0, -0.0, -1.5])))
    entries = draw(st.lists(entry, max_size=max_size))
    spec = LogSpectrum(np.array([lv for _, lv in entries], dtype=float),
                       np.array([sg for sg, _ in entries], dtype=np.int8))
    return spec, s


class TestSortedQueriesAgainstLexsortOracle:
    """Binary-search queries on the stored order against masks and np.lexsort."""

    @settings(deadline=None, max_examples=200)
    @given(spectrum_and_threshold())
    def test_counts_margin_and_smallest(self, spec_s):
        spec, s = spec_s
        oracle = MaskedSpectrum.of(spec)
        assert spec.n_plus(s) == oracle.n_plus(s)
        assert spec.n_minus(s) == oracle.n_minus(s)
        assert spec.threshold_margin(s) == oracle.threshold_margin(s)
        # the smallest positive entry is the last of the falling group
        pos = spec.positive_logs
        assert (pos[-1] if pos.size else np.inf) == oracle.smallest_log()

    @settings(deadline=None, max_examples=200)
    @given(spectrum_and_threshold())
    def test_trace_arctan_is_bitwise_the_masked_sum(self, spec_s):
        spec, s = spec_s
        assert spec.trace_arctan(s).hex() == MaskedSpectrum.of(spec).trace_arctan(s).hex()

    @settings(deadline=None, max_examples=200)
    @given(spectrum_and_threshold())
    def test_rising_log_ratio_is_bitwise_the_masked_one(self, spec_s):
        # arctan_trace_identity's Cauchy tails read the positive group rising
        spec, s = spec_s
        lv = spec.positive_logs
        log_s = np.full_like(lv, math.log(s))
        assert (_arctan_of_log_ratio(log_s, lv).tobytes()
                == masked_arctan_of_log_ratio(log_s, lv).tobytes())


@st.composite
def spectrum_and_thresholds(draw):
    """A spectrum drawn like ``spectrum_and_threshold`` and 0, 1 or 3
    thresholds, unsorted and with repeats: its own s, levels that put an
    entry's log ratio just inside, on or just outside +-30 or past exp's
    overflow at 709.78, and any s."""
    spec, s = draw(spectrum_and_threshold())
    if draw(st.booleans()):  # long positive groups in the middle branch at s
        logs = draw(st.lists(st.floats(math.log(s) - 29.0, math.log(s) + 29.0),
                             min_size=8, max_size=200))
        spec = LogSpectrum.from_log(logs)
    logs = spec.log_values.tolist() or [0.0]
    offsets = [-740.0, -710.0, -30.5, -30.0, -29.5, 0.0, 29.5, 30.0, 30.5, 710.0]
    near_branch_edge = st.tuples(st.sampled_from(logs), st.sampled_from(offsets))
    level = st.one_of(st.just(s), st.floats(1e-300, 1e300),
                      near_branch_edge.map(lambda p: math.exp(min(max(p[0] + p[1], -744.0), 709.0))))
    size = draw(st.sampled_from([0, 1, 3]))
    return spec, draw(st.lists(level, min_size=size, max_size=size))


QUERIES = ("trace_arctan", "n_plus", "n_minus", "threshold_margin")


def _entries(values):
    """Comparable form of a query's answers: ints as they are, floats by their bits."""
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestThresholdArrays:
    """An array of thresholds is answered in one pass, each entry bitwise
    the one-threshold call."""

    @settings(deadline=None, max_examples=300)
    @given(spectrum_and_thresholds())
    def test_every_entry_is_the_float_call(self, spec_ss):
        spec, ss = spec_ss
        for query in QUERIES:
            got = getattr(spec, query)(np.array(ss, dtype=float))
            assert isinstance(got, np.ndarray) and got.shape == (len(ss),), query
            assert _entries(got.tolist()) == _entries([getattr(spec, query)(s) for s in ss]), query
        oracle = MaskedSpectrum.of(spec)
        assert (_entries(spec.trace_arctan(np.array(ss, dtype=float)).tolist())
                == _entries([oracle.trace_arctan(s) for s in ss]))

    @settings(deadline=None, max_examples=100)
    @given(spectrum_and_thresholds(), st.sampled_from([0.0, -0.0, -1.0, -np.inf, np.nan]),
           st.integers(0, 3))
    def test_a_nonpositive_threshold_raises_what_the_float_call_raises(self, spec_ss, bad, at):
        spec, ss = spec_ss
        ss = ss[:at] + [bad] + ss[at:]
        for query in QUERIES:
            with pytest.raises(ValueError) as alone:
                getattr(spec, query)(bad)
            with pytest.raises(ValueError) as in_array:
                getattr(spec, query)(np.array(ss))
            assert str(in_array.value) == str(alone.value)

    def test_one_threshold_answers_a_python_number(self):
        spec = LogSpectrum.from_eigenvalues([3.0, 0.0, -2.0])
        assert type(spec.trace_arctan(1.0)) is float and type(spec.n_plus(1.0)) is int
        assert type(spec.n_minus(np.float64(1.0))) is int
        assert type(spec.threshold_margin(np.array(1.0))) is float
        with pytest.raises(ValueError, match="1-D"):
            spec.n_plus(np.ones((2, 2)))


def dense_counts(matrix, s):
    """(n_+, n_-) of a symmetric matrix at s from a dense eigvalsh."""
    ev = np.linalg.eigvalsh(matrix)
    return int(np.count_nonzero(ev > s)), int(np.count_nonzero(-ev > s))


_ENTRIES = st.floats(-10.0, 10.0, allow_subnormal=False)
_THRESHOLDS = st.floats(1e-3, 1e3)


class TestIdentityProperties:
    """The identities scenario's checks against a dense eigvalsh count oracle."""

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        arrays(float, (n, n), elements=_ENTRIES), arrays(float, (n, n), elements=_ENTRIES))),
        _THRESHOLDS, _THRESHOLDS)
    def test_weyl(self, pair, s1, s2):
        t1, t2 = (0.5 * (a + a.T) for a in pair)
        assert check_weyl(s1, s2, t1, t2)
        (ps, ms), (p1, m1), (p2, m2) = (dense_counts(t1 + t2, s1 + s2),
                                        dense_counts(t1, s1), dense_counts(t2, s2))
        assert ps <= p1 + p2 and ms <= m1 + m2

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 12).flatmap(lambda n: arrays(float, (n, n), elements=_ENTRIES)),
           _THRESHOLDS, st.sampled_from([1, 2, 4]))
    def test_pbound(self, a, s, p):
        t = 0.5 * (a + a.T)
        ev = np.linalg.eigvalsh(t)
        assert check_pbound(s, LogSpectrum.from_eigenvalues(ev), p)
        # Markov: each of the n eigenvalues with |lambda| > s adds a term
        # (|lambda| / s)^p >= 1 to s^-p times the p-th Schatten power
        scaled_schatten = np.sum((np.abs(ev) / s) ** p)
        for n in dense_counts(t, s):
            assert n <= scaled_schatten

    @settings(deadline=None, max_examples=300)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: arrays(float, shape, elements=_ENTRIES)), _THRESHOLDS)
    def test_flip(self, b, s):
        assert check_flip(b, s=s)
        k = min(b.shape)
        left = np.sort(np.linalg.eigvalsh(b.T @ b))[::-1][:k]
        right = np.sort(np.linalg.eigvalsh(b @ b.T))[::-1][:k]
        assert np.count_nonzero(left > s) == np.count_nonzero(right > s)
