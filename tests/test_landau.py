import math
import time
import tracemalloc
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln

from diracssf.landau import (
    NORM_TOL,
    FieldSpec,
    build_ladder,
    build_lll_basis,
    compute_zeta,
    log_norms_closed_form,
    log_radial_moments,
)
from diracssf.toeplitz import (ADEQUACY_MARGIN, PowerLawTail, RadialProfile, TruncationError,
                               disc_profile, gaussian_profile, power_profile,
                               toeplitz_radial_spectrum)


def test_zeta_constant_field():
    assert compute_zeta(FieldSpec(1.0)) == pytest.approx(2.0, abs=0)


def test_zeta_constant_perturbation_has_zero_oscillation():
    fs = FieldSpec(2.0, phi_tilde=lambda r: 0.7 * np.ones_like(r))
    assert fs.osc == pytest.approx(0.0, abs=1e-14)
    assert compute_zeta(fs) == pytest.approx(4.0, abs=1e-12)


def test_zeta_half_oscillation():
    # oscillation 0.5 gives 2 b0 / e
    fs = FieldSpec(1.0, phi_tilde=lambda r: 0.5 * np.clip(r, 0.0, 1.0))
    assert fs.osc == pytest.approx(0.5, abs=1e-9)
    assert compute_zeta(fs) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-8)


def test_field_rejects_nonpositive_b0():
    with pytest.raises(ValueError):
        FieldSpec(0.0)
    with pytest.raises(ValueError):
        FieldSpec(-1.0)


# The flat basis reads its norms from the closed form, so the radial
# quadrature that perturbed fields use is held to the Gamma integrals here.


def test_norms_match_gamma_integral():
    # weight e^(-r^2) at b0 = 2: squared norm of mode k is k!/2
    want = 0.5 * (np.log(0.5) + gammaln(np.arange(64) + 1.0))
    got = 0.5 * log_radial_moments(FieldSpec(2.0), np.arange(64))
    assert np.max(np.abs(got - want)) < 1e-10


def test_norms_closed_form_general_b0():
    got = 0.5 * log_radial_moments(FieldSpec(0.7), np.arange(40))
    want = log_norms_closed_form(0.7, np.arange(40))
    assert np.max(np.abs(got - want)) < 1e-10


def test_k0_norm_is_half():
    # integral of r e^(-r^2) over the half line is 1/2
    assert np.exp(log_radial_moments(FieldSpec(2.0), [0])[0]) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("b0", [0.7, 1.0, 2.0])
def test_radial_quadrature_meets_the_closed_form_across_4000_rows(b0):
    ks = np.arange(4000)
    got = log_radial_moments(FieldSpec(b0), ks)
    assert np.max(np.abs(got - 2.0 * log_norms_closed_form(b0, ks))) <= 5.82e-11


def closed_form_ulp_scale(b0, ks):
    """log 2 + (k+1)|log(2/b0)| + lgamma(k+1): a bound on |log integral| and on
    every partial sum either closed form forms on the way to it."""
    ks = np.asarray(ks, dtype=float)
    return math.log(2.0) + (ks + 1.0) * abs(math.log(2.0 / b0)) + gammaln(ks + 1.0)


@pytest.mark.parametrize("b0", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("K", [1, 64, 37141])
def test_flat_basis_is_the_gamma_closed_form_to_rounding(b0, K):
    # Each side rounds log(2/b0) times (k+1), its lgamma value and two
    # sums, every one within an ulp or two of the scale S_k; halving the
    # log-integral halves the error, so the two sides of a log-norm stay
    # within 4 ulp(S_k) of each other.  Measured: 2.0 ulp, 8.7e-11 at
    # K = 37141 and b0 = 1.
    ks = np.arange(K)
    got = build_lll_basis(FieldSpec(b0), K).log_norms
    want = log_norms_closed_form(b0, ks)
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(closed_form_ulp_scale(b0, ks)))


def test_flat_basis_runs_no_quadrature():
    basis = build_lll_basis(FieldSpec(2.0), 64)
    assert basis.quad_nodes == 0
    assert basis.quad_r_max == 0.0


# -- gauge: phi_tilde == c ties the quadrature path to the closed form ----------

# A quadrature log-integral is accepted once two node rungs agree to
# NORM_TOL, so each is trusted to NORM_TOL.  A log-norm is half of one;
# a log-eigenvalue is one moment minus one norm integral, which is two
# quadratures on the gauged side and one on the flat side.  Measured over
# 40 random draws: 3.4e-13 and 6.8e-13.
GAUGE_NORM_TOL = 0.5 * NORM_TOL
GAUGE_EIG_TOL = 3.0 * NORM_TOL


def _require_adequate_verdict(model, s):
    try:
        model.require_adequate(s)
    except TruncationError:
        return False
    return True


def _clear_of_boundaries(model, s, tol):
    """True when log s is farther than ``tol`` from every eigenvalue and from
    the depth-margin edge, so no verdict can turn on the last digits."""
    edge = model._smallest_log() - math.log(s) - math.log(ADEQUACY_MARGIN)
    return model.spectrum.threshold_margin(s) > tol and not abs(edge) <= tol


def _assert_same_compression(got, want, s, tol):
    """log-eigenvalues within ``tol``; counts and both verdicts equal where
    log s is clear of every boundary by ``tol``."""
    assert np.max(np.abs(got.log_eigen_by_k - want.log_eigen_by_k)) <= tol
    if _clear_of_boundaries(want, s, tol):
        assert got.spectrum.n_plus(s) == want.spectrum.n_plus(s)
        assert got.count_certified(s) == want.count_certified(s)
        assert _require_adequate_verdict(got, s) == _require_adequate_verdict(want, s)


@settings(max_examples=30, deadline=None)
@given(b0=st.floats(0.3, 5.0), c=st.floats(-3.0, 3.0), K=st.integers(1, 400),
       log_s=st.floats(-30.0, -0.05))
def test_constant_gauge_shift_moves_only_the_norms(b0, c, K, log_s):
    # phi_tilde == c scales exp(-2 phi) by exp(-2c): every log-norm drops by
    # c, and every moment with it, so the compression is unchanged.  Passed
    # as a callable, the constant takes the quadrature path; the flat field
    # takes the closed form.
    gauged = build_lll_basis(FieldSpec(b0, phi_tilde=lambda r: np.full(np.shape(r), c)), K)
    flat = build_lll_basis(FieldSpec(b0), K)
    assert gauged.quad_nodes > 0 and flat.quad_nodes == 0
    assert np.max(np.abs(gauged.log_norms - (flat.log_norms - c))) <= GAUGE_NORM_TOL
    s = math.exp(log_s)
    for profile in (power_profile(3.0), gaussian_profile(eta=0.4), disc_profile(radius=2.0)):
        _assert_same_compression(toeplitz_radial_spectrum(profile, gauged),
                                 toeplitz_radial_spectrum(profile, flat), s, GAUGE_EIG_TOL)


# -- magnetic scaling: r = a rho maps (U, b0, phi~) onto (U(a .), a^2 b0, phi~(a .)) --

# Both sides of a log-eigenvalue are one moment minus one norm integral,
# each a quadrature trusted to NORM_TOL (the flat field's norm is the
# closed form, exact to rounding), so the two sides differ by at most four
# of them.  Measured at K = 400, b0 = 1.3, phi~ = 0.7 tanh: 4.5e-13 (power,
# Gaussian) and 6.8e-13 (disc); over 40 random draws of the properties
# below, 4.6e-13 for scaling and for phi~ + c, and 2.3e-13 on the norms.
SCALING_EIG_TOL = 4.0 * NORM_TOL


def _field_of(b0, amp, c=0.0, a=1.0):
    """b0 with phi~(r) = amp tanh(a r) + c; the flat field when both vanish."""
    if amp == 0.0 and c == 0.0:
        return FieldSpec(b0)
    return FieldSpec(b0, phi_tilde=lambda r: amp * np.tanh(a * np.asarray(r)) + c)


def _profile_pairs(a):
    """(U, U(a .)) for the power (alpha = 3), Gaussian and disc profiles."""
    power = power_profile(3.0)
    power_scaled = RadialProfile(lambda r: power.log_value(a * np.asarray(r)),
                                 PowerLawTail(3.0, a ** -3.0), nonincreasing=True)
    return [(power, power_scaled),
            (gaussian_profile(eta=0.4), gaussian_profile(eta=0.4 * a * a)),
            (disc_profile(radius=2.0), disc_profile(radius=2.0 / a))]


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.5, 2.0), b0=st.floats(0.3, 5.0),
       amp=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), K=st.integers(1, 400),
       log_s=st.floats(-30.0, -0.05))
def test_magnetic_scaling_keeps_every_eigenvalue(a, b0, amp, K, log_s):
    base = build_lll_basis(_field_of(b0, amp), K)
    scaled = build_lll_basis(_field_of(a * a * b0, amp, a=a), K)
    s = math.exp(log_s)
    for profile, profile_scaled in _profile_pairs(a):
        _assert_same_compression(toeplitz_radial_spectrum(profile_scaled, scaled),
                                 toeplitz_radial_spectrum(profile, base), s, SCALING_EIG_TOL)


@settings(max_examples=40, deadline=None)
@given(b0=st.floats(0.3, 5.0), amp=st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
       c=st.floats(-3.0, 3.0), K=st.integers(1, 400), log_s=st.floats(-30.0, -0.05))
def test_gauge_shift_of_a_perturbed_field_moves_only_the_norms(b0, amp, c, K, log_s):
    # phi~ + c against phi~ = amp tanh: both take the quadrature, so a
    # log-norm (half of one log-integral) moves by -c within NORM_TOL, and a
    # log-eigenvalue (two quadratures a side) within 4 NORM_TOL
    shifted = build_lll_basis(_field_of(b0, amp, c), K)
    base = build_lll_basis(_field_of(b0, amp), K)
    assert np.max(np.abs(shifted.log_norms - (base.log_norms - c))) <= NORM_TOL
    s = math.exp(log_s)
    for profile in (power_profile(3.0), gaussian_profile(eta=0.4), disc_profile(radius=2.0)):
        _assert_same_compression(toeplitz_radial_spectrum(profile, shifted),
                                 toeplitz_radial_spectrum(profile, base), s, SCALING_EIG_TOL)


def test_norms_with_perturbation_finite_and_growing():
    fs = FieldSpec(2.0, phi_tilde=lambda r: 0.3 * np.tanh(r))
    basis = build_lll_basis(fs, 50)
    assert np.all(np.isfinite(basis.log_norms))
    assert np.all(np.diff(basis.log_norms[5:]) > 0.0)


def test_norms_growth_eventually_monotone(basis_b2_220):
    assert np.all(np.diff(basis_b2_220.log_norms[3:]) > 0.0)


def test_basis_requires_positive_size(field_b2):
    with pytest.raises(ValueError):
        build_lll_basis(field_b2, 0)


def test_ladder_level_spectra():
    lad = build_ladder(1.0, 5)
    hm = np.sort(np.linalg.eigvalsh(lad.h_perp_minus))
    hp = np.sort(np.linalg.eigvalsh(lad.h_perp_plus))
    assert np.allclose(hm, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)
    # raising-then-lowering side: interior values shifted up by one level,
    # plus one spurious zero from the cut top level
    assert np.allclose(hp, [0.0, 2.0, 4.0, 6.0, 8.0], atol=1e-12)
    interior_hp = np.sort(np.diag(lad.h_perp_plus)[lad.interior])
    assert np.allclose(interior_hp, [2.0, 4.0, 6.0, 8.0], atol=1e-12)
    assert interior_hp[0] == pytest.approx(2.0)


def test_ladder_commutator_defect():
    lad = build_ladder(3.0, 2)
    assert lad.commutator_defect[0, 0] == pytest.approx(6.0, rel=1e-14)
    lad5 = build_ladder(1.5, 6)
    interior = lad5.commutator_defect[:-1, :-1]
    assert np.max(np.abs(interior - 3.0 * np.eye(5))) < 1e-12


def test_ladder_spectral_gap():
    # no transverse level inside (0, 2 b0) for a constant field
    for b0 in (0.5, 1.0, 4.0):
        lad = build_ladder(b0, 9)
        eigs = np.linalg.eigvalsh(lad.h_perp_minus)
        inside = eigs[(eigs > 1e-12) & (eigs < 2.0 * b0 - 1e-10)]
        assert inside.size == 0


def test_ladder_requires_two_levels():
    with pytest.raises(ValueError):
        build_ladder(1.0, 1)


def test_basis_records_quadrature_descriptor():
    basis = build_lll_basis(FieldSpec(2.0, phi_tilde=lambda r: 0.3 * np.tanh(r)), 64)
    assert basis.quad_nodes >= 64
    assert basis.quad_r_max > np.sqrt((2.0 * 63 + 1.0) / 2.0)


def test_combined_transverse_gap():
    # neither component puts an eigenvalue inside (0, 2 b0)
    lad = build_ladder(2.0, 7)
    both = np.concatenate([np.linalg.eigvalsh(lad.h_perp_minus),
                           np.linalg.eigvalsh(lad.h_perp_plus)])
    inside = both[(both > 1e-12) & (both < 4.0 - 1e-10)]
    assert inside.size == 0


def test_log_integral_batch_failure_names_the_change_beside_a_zero_row(monkeypatch):
    from diracssf import _quad

    def log_f(nodes, rows):
        out = np.sin(1e4 * nodes)  # second row never settles
        out[0] = -np.inf           # first row is a zero integrand
        return out

    monkeypatch.setattr(_quad, "LOG_NODE_CAP", 512)
    with pytest.raises(_quad.QuadratureError, match="last change"):
        _quad.log_integral_batch(log_f, [0.0, 0.0], [1.0, 1.0], tol=1e-10, n0=64)


def test_log_integral_batch_rejects_an_empty_node_ladder(monkeypatch):
    from diracssf import _quad

    monkeypatch.setattr(_quad, "LOG_NODE_CAP", 128)
    with pytest.raises(ValueError, match="ladder 256..128"):
        _quad.log_integral_batch(lambda nodes, rows: nodes, [0.0], [1.0], tol=1e-10, n0=256)


def test_panel_integral_failure_counts_the_rules_it_compared(monkeypatch):
    from diracssf import _quad

    # three rules (16, 32, 64) on an unresolved oscillation: a real, nonzero change
    monkeypatch.setattr(_quad, "PANEL_MAX_ORDER", 64)
    with pytest.raises(_quad.QuadratureError,
                       match=r"3 rules compared \(orders 16\.\.64\), last change [1-9]"):
        _quad.panel_integral(lambda x: np.sin(1e4 * x), 0.0, 1.0, 1.0)


# -- cache-blocked node evaluation ---------------------------------------------


def one_shot_log_integral(log_f, lo, hi, *, tol, n0, n_max=8192):
    """The unblocked rule: each rung evaluates every row's nodes at once."""
    from diracssf._quad import _row_logsumexp, gauss_legendre

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    prev = None
    n = n0
    while n <= n_max:
        x, w = gauss_legendre(n)
        nodes = half[:, None] * x[None, :] + mid[:, None]
        logw = np.log(half)[:, None] + np.log(w)[None, :]
        cur = _row_logsumexp(log_f(nodes, slice(None)) + logw)
        if prev is not None:
            with np.errstate(invalid="ignore"):
                delta = np.abs(cur - prev)
            delta[np.isneginf(cur) & np.isneginf(prev)] = 0.0
            if np.max(delta) <= tol:
                return cur, n
        prev = cur
        n *= 2
    raise AssertionError("reference rule did not stabilise")


def rowwise_log_integrand(k, zero_rows=(), calls=None):
    """g_k(r) = (2k+1) log r - r^2/2, read at ``rows``; ``zero_rows`` are -inf.

    ``calls`` collects (node count, rows) for every evaluation.
    """
    k = np.asarray(k, dtype=float)
    zero = np.isin(np.arange(k.size), zero_rows)

    def log_f(nodes, rows):
        if calls is not None:
            calls.append((nodes.shape[1], rows))
        with np.errstate(divide="ignore"):
            out = (2.0 * k[rows, None] + 1.0) * np.log(nodes) - 0.5 * nodes * nodes
        out[zero[rows]] = -np.inf
        return out

    return log_f


@pytest.mark.parametrize("m, zero_rows, budget", [
    (1553, (1500,), None),   # ragged last block; a -inf row in a later block
    (5, (), None),           # the whole batch is smaller than one block
    (37, (30,), 100),        # a budget below one row: one row per block
])
def test_blocked_log_integral_is_bitwise_the_one_shot_rule(monkeypatch, m, zero_rows, budget):
    from diracssf import _quad

    if budget is not None:
        monkeypatch.setattr(_quad, "BLOCK_ELEMENTS", budget)
    k = np.random.default_rng(m).uniform(0.0, 400.0, m)
    peak = np.sqrt(2.0 * k + 1.0)
    lo, hi = np.maximum(peak - 13.0, 1e-3), peak + 13.0
    calls = []
    got = _quad.log_integral_batch(rowwise_log_integrand(k, zero_rows, calls), lo, hi,
                                   tol=1e-10, n0=64)
    want = one_shot_log_integral(rowwise_log_integrand(k, zero_rows), lo, hi,
                                 tol=1e-10, n0=64)
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0])
    assert np.all(np.isneginf(got[0][list(zero_rows)]))
    # every rung tiles the batch with blocks of max(1, budget // n) rows
    for n in {c[0] for c in calls}:
        step = max(1, _quad.BLOCK_ELEMENTS // n)
        starts = [rows.start for nn, rows in calls if nn == n]
        assert starts == list(range(0, m, step))
        assert all(rows.stop - rows.start == step for nn, rows in calls if nn == n)


@pytest.mark.parametrize("case", ["tanh field", "disc support"])
def test_blocked_radial_moments_are_bitwise_one_block_per_chunk(monkeypatch, case):
    from diracssf import _quad
    from diracssf.landau import MOMENT_CHUNK, log_radial_moments
    from diracssf.toeplitz import disc_profile

    if case == "tanh field":
        fs, kwargs = FieldSpec(1.0, phi_tilde=lambda r: 0.5 * np.tanh(r)), {}
    else:
        fs, kwargs = FieldSpec(1.0), dict(log_symbol=disc_profile(1.3).log_value, support=1.3)
    ks = np.arange(2 * MOMENT_CHUNK + 301)  # three chunks, the last one short
    runs = []
    for budget in (1 << 40, 1000, _quad.BLOCK_ELEMENTS):
        monkeypatch.setattr(_quad, "BLOCK_ELEMENTS", budget)
        info = {}
        runs.append((log_radial_moments(fs, ks, info=info, **kwargs), info))
    (want, want_info), *blocked = runs
    for got, got_info in blocked:
        assert np.array_equal(got, want)
        assert got_info == want_info


def test_radial_build_never_holds_a_chunk_by_nodes_matrix():
    from diracssf.toeplitz import power_profile, toeplitz_radial_spectrum

    tracemalloc.start()
    try:
        basis = build_lll_basis(FieldSpec(1.0), 4096)
        toeplitz_radial_spectrum(power_profile(3.0), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, (
        f"traced peak {peak / 2**20:.1f} MiB: node evaluation must be cache-blocked "
        f"and never hold a full chunk x n matrix")


# -- the _quad searches and the row log-sum-exp ----------------------------------


def flat_log_integrand(k, b0=1.0):
    """g_k(r) = (2k+1) log r - b0 r^2/2, peaked at sqrt((2k+1)/b0)."""
    k = np.asarray(k, dtype=float)

    def g(r):
        r = np.asarray(r, dtype=float)
        kk = k.reshape((-1,) + (1,) * (r.ndim - 1)) if r.ndim > 1 else k
        with np.errstate(divide="ignore"):
            return (2.0 * kk + 1.0) * np.log(r) - 0.5 * b0 * r * r

    return g


@pytest.mark.parametrize("b0", [1.0, 2.5])
@pytest.mark.parametrize("guess", [0.2, 1.0, 3.0])
def test_find_peak_matches_the_flat_field_peak(b0, guess):
    from diracssf._quad import find_peak

    k = np.arange(40001.0)
    want = np.sqrt((2.0 * k + 1.0) / b0)
    got = find_peak(flat_log_integrand(k, b0), guess * want)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-8


@pytest.mark.parametrize("side", ["left", "right"])
def test_bracket_drop_sits_80_nats_below_the_peak(side):
    from diracssf._quad import bracket_drop

    k = np.array([0.0, 1.0, 5.0, 50.0, 500.0, 37000.0])
    g = flat_log_integrand(k)
    peak = np.sqrt(2.0 * k + 1.0)
    g_peak = g(peak)
    edge = bracket_drop(g, peak, g_peak, side=side)
    assert np.all(edge < peak) if side == "left" else np.all(edge > peak)
    assert np.max(np.abs(g_peak - g(edge) - 80.0)) <= 1e-6


def test_compact_support_rows_end_at_the_cap():
    from diracssf._quad import bracket_drop, find_peak

    # disc of radius 1 at b0 = 2: every k >= 1 peaks beyond the edge
    k = np.array([1.0, 5.0, 40.0])
    flat = flat_log_integrand(k, 2.0)

    def g(r):
        return np.where(np.asarray(r) <= 1.0, flat(r), -np.inf)

    peak = find_peak(g, np.minimum(np.sqrt((2.0 * k + 1.0) / 2.0), 0.95), hi_cap=1.0)
    assert np.all(peak == 1.0)
    g_peak = g(peak)
    assert np.all(bracket_drop(g, peak, g_peak, side="right", hard_limit=1.0) == 1.0)
    left = bracket_drop(g, peak, g_peak, side="left")
    assert np.max(np.abs(g_peak - g(left) - 80.0)) <= 1e-6


def test_searches_refuse_a_nan_log_integrand():
    from diracssf._quad import QuadratureError, bracket_drop, find_peak

    def g(r):
        return np.full(np.shape(r), np.nan)

    with pytest.raises(QuadratureError, match="find_peak"):
        find_peak(g, np.ones(3))
    with pytest.raises(QuadratureError, match="bracket_drop"):
        bracket_drop(g, np.ones(3), np.zeros(3), side="right")


def test_searches_raise_at_their_iteration_caps(monkeypatch):
    from diracssf import _quad

    k = np.array([3.0, 900.0])
    g = flat_log_integrand(k)
    peak = np.sqrt(2.0 * k + 1.0)
    # a log-integrand that never turns over or never falls exhausts the expansion
    with pytest.raises(_quad.QuadratureError, match="find_peak.*expansions"):
        _quad.find_peak(lambda r: np.log(r), np.ones(2))
    with pytest.raises(_quad.QuadratureError, match="bracket_drop.*expansions"):
        _quad.bracket_drop(lambda r: np.zeros(np.shape(r)), np.ones(2), np.zeros(2),
                           side="right")
    monkeypatch.setattr(_quad, "PEAK_ITERS", 1)
    with pytest.raises(_quad.QuadratureError, match="find_peak.*largest step"):
        _quad.find_peak(g, 3.0 * peak)
    monkeypatch.setattr(_quad, "DROP_ITERS", 1)
    with pytest.raises(_quad.QuadratureError, match="bracket_drop.*nats"):
        _quad.bracket_drop(g, peak, g(peak), side="left")


_SPECIAL = st.sampled_from([-np.inf, np.inf, np.nan])


@st.composite
def logsumexp_rows(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 24))
    # quarter-integers make ties at the row maximum common
    a = draw(arrays(np.float64, (m, n), elements=st.one_of(
        st.integers(-40, 40).map(lambda i: i / 4.0),
        st.floats(-700.0, 700.0),
        st.just(-np.inf),
    )))
    for i in range(m):
        kind = draw(st.sampled_from(["plain", "all -inf", "special"]))
        if kind == "all -inf":
            a[i] = -np.inf
        elif kind == "special":
            a[i, draw(st.integers(0, n - 1))] = draw(_SPECIAL)
    return a


@settings(max_examples=150, deadline=None)
@given(logsumexp_rows())
def test_row_logsumexp_is_bitwise_scipy(a):
    from scipy.special import logsumexp

    from diracssf._quad import _row_logsumexp

    got = _row_logsumexp(a)
    want = logsumexp(a, axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def log_vectors(draw, allow_neg_inf):
    elements = [st.integers(-40, 40).map(lambda i: i / 4.0), st.floats(-700.0, 700.0)]
    if allow_neg_inf:
        elements.append(st.just(-np.inf))
    return draw(arrays(np.float64, draw(st.integers(0, 24)),
                       elements=st.one_of(*elements)))


def _bitwise_equal(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=150, deadline=None)
@given(log_vectors(allow_neg_inf=True))
def test_spectrum_logsum_is_bitwise_scipy(lv):
    from scipy.special import logsumexp

    from diracssf.ssf import spectrum_logsum

    assert _bitwise_equal(spectrum_logsum(lv), float(logsumexp(lv)))


@settings(max_examples=150, deadline=None)
@given(log_vectors(allow_neg_inf=False), st.data())
def test_log_schatten_pth_power_is_bitwise_scipy(lv, data):
    from scipy.special import logsumexp

    from diracssf.counting import LogSpectrum

    signs = data.draw(arrays(np.int8, lv.shape, elements=st.sampled_from([-1, 0, 1])))
    spec = LogSpectrum(np.where(signs != 0, lv, 0.0), signs)
    p = data.draw(st.integers(1, 4))
    kept = spec.log_values[spec.signs != 0]
    want = float(logsumexp(p * kept)) if kept.size else -np.inf
    assert _bitwise_equal(spec.log_schatten_pth_power(p), want)


# -- Gauss-Legendre rule against 40-digit roots ------------------------------------


@lru_cache(maxsize=None)
def _mp_recurrence_coefficients(n):
    with mp.workdps(40):
        return [(mp.mpf(2 * k + 1) / (k + 1), mp.mpf(k) / (k + 1)) for k in range(n)]


def _mp_newton_step(coeffs, n, x):
    """P_n(x) / P_n'(x) and P_n'(x), with P_n, P_{n-1} from the recurrence."""
    p_prev, p = mp.mpf(1), x
    for a, b in coeffs[1:]:
        p_prev, p = p, a * (x * p) - b * p_prev
    dp = n * (p_prev - x * p) / (1 - x * x)
    return p / dp, dp


def mp_gauss_legendre_node(n, x0):
    """40-digit node and weight of the n-point rule nearest the double ``x0``.

    One Newton step on P_n from an ulp-sized start leaves the root good
    to about 1e-25; the next step measures that, and the weight
    w = 2 / ((1 - x^2) P_n'(x)^2) is taken at the refined root.
    """
    coeffs = _mp_recurrence_coefficients(n)
    with mp.workdps(40):
        x = mp.mpf(float(x0))
        x -= _mp_newton_step(coeffs, n, x)[0]
        step, dp = _mp_newton_step(coeffs, n, x)
        # d log w / dx = -2x / (1 - x^2) at a root, so this bounds the
        # weight's own relative error far below the 1e-13 it is held to
        assert abs(step) * 2 / (1 - x * x) <= 1e-16
        return x, 2 / ((1 - x * x) * dp * dp)


# 2^-52 is the requirement; the rule reaches 0.6 * 2^-52, while running the
# recurrence in 1 - x at every node would put the middle nodes at 1.0 * 2^-52
GL_NODE_TOL = 0.75 * 2.0**-52


def _assert_matches_mpmath(n, indices):
    from diracssf._quad import gauss_legendre

    x, w = gauss_legendre(n)
    for i in indices:
        xr, wr = mp_gauss_legendre_node(n, x[i])
        assert abs(float(xr - mp.mpf(float(x[i])))) <= GL_NODE_TOL, (n, i)
        assert abs(float((mp.mpf(float(w[i])) - wr) / wr)) <= 1e-13, (n, i)


@pytest.mark.parametrize("n", [16, 32, 64, 96, 128, 256])
def test_gauss_legendre_matches_mpmath_at_every_node(n):
    from diracssf._quad import gauss_legendre

    x, w = gauss_legendre(n)
    # ascending and exactly mirrored, so the upper half stands for every node
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    _assert_matches_mpmath(n, range(n // 2, n))


@pytest.mark.parametrize("n", [1024, 8192])
def test_gauss_legendre_matches_mpmath_at_sampled_nodes(n):
    _assert_matches_mpmath(n, sorted({0, 1, 2, 3, n // 2, *range(0, n, n // 32)}))


@pytest.mark.parametrize("n", [16, 32, 64, 96, 128, 256])
def test_gauss_legendre_is_exact_on_even_monomials(n):
    from diracssf._quad import gauss_legendre

    x, w = gauss_legendre(n)
    j = np.arange(n)
    got = (x[None, :] ** (2 * j[:, None])) @ w
    assert np.max(np.abs(got - 2.0 / (2 * j + 1))) <= 2e-14


@lru_cache(maxsize=None)
def _scipy_rule(n):
    from scipy.special import roots_legendre

    start = time.perf_counter()
    x, w = roots_legendre(n)
    return x, w, time.perf_counter() - start


@pytest.mark.parametrize("n", [16, 64, 96, 128, 256, 1024, 4096, 8192])
def test_gauss_legendre_agrees_with_scipy(n):
    # scipy's own weights drift from the 40-digit ones (1.8e-9 at n = 1024),
    # so the weights are only compared up to there
    from diracssf._quad import gauss_legendre

    x, w = gauss_legendre(n)
    xs, ws, _ = _scipy_rule(n)
    assert np.max(np.abs(x - xs)) <= 2 * 2.0**-52
    if n <= 1024:
        assert np.max(np.abs(w / ws - 1.0)) <= 1e-8


def test_gauss_legendre_8192_fits_in_memory_and_time():
    # a fresh (uncached) rule: no n x n intermediate, and no slower than
    # twice scipy's Golub-Welsch rule on the same machine
    from diracssf._quad import gauss_legendre

    tracemalloc.start()
    try:
        gauss_legendre.__wrapped__(8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    start = time.perf_counter()
    gauss_legendre.__wrapped__(8192)
    elapsed = time.perf_counter() - start
    assert elapsed <= 2.0 * _scipy_rule(8192)[2]


def test_gauss_legendre_small_orders():
    from diracssf._quad import gauss_legendre

    assert np.array_equal(gauss_legendre(1)[0], [0.0])
    assert np.array_equal(gauss_legendre(1)[1], [2.0])
    x, w = gauss_legendre(3)
    assert x[1] == 0.0
    assert np.allclose(x, [-math.sqrt(0.6), 0.0, math.sqrt(0.6)], rtol=0, atol=2e-16)
    assert np.allclose(w, [5 / 9, 8 / 9, 5 / 9], rtol=2e-16, atol=0)
    with pytest.raises(ValueError, match="positive"):
        gauss_legendre.__wrapped__(0)


def test_gauss_legendre_raises_at_its_newton_cap(monkeypatch):
    from diracssf import _quad

    monkeypatch.setattr(_quad, "GL_NEWTON_ITERS", 1)
    with pytest.raises(_quad.QuadratureError, match="Newton not converged"):
        _quad.gauss_legendre.__wrapped__(64)


# -- mpmath oracles across the whole truncation -----------------------------------


def mp_log_integral(log_integrand, center, width):
    """30-digit log of the integral over (0, inf) of exp(log_integrand(x)).

    The integrand must peak near ``center`` and fall off on the scale
    ``width``; the range is split there so tanh-sinh sees the peak.
    """
    with mp.workdps(30):
        center, width = mp.mpf(center), mp.mpf(width)
        shift = log_integrand(center)
        cuts = sorted({mp.mpf(0), max(mp.mpf(0), center - 40 * width), center,
                       center + 40 * width})
        total = mp.quad(lambda x: mp.exp(log_integrand(x) - shift), cuts + [mp.inf])
        return float(mp.log(total) + shift)


def test_power_law_compression_matches_mpmath_at_full_depth():
    # eigenvalue_k is the Gamma(k+1) average of (1 + 2u/b0)^(-alpha/2)
    from diracssf.toeplitz import power_profile, suggest_truncation, toeplitz_radial_spectrum

    alpha, b0 = 3.0, 1.0
    prof = power_profile(alpha)
    K = suggest_truncation(prof.law, 1e-4, b0)
    assert K > 30000
    model = toeplitz_radial_spectrum(prof, build_lll_basis(FieldSpec(b0), K))
    for k in (0, 1, K // 2, K - 1):
        want = mp_log_integral(
            lambda u, k=k: k * mp.log(u) - u - alpha / 2 * mp.log1p(2 * u / b0),
            max(k, 1), math.sqrt(k + 1.0)) - math.lgamma(k + 1.0)
        assert abs(math.expm1(model.log_eigen_by_k[k] - want)) <= 1e-8, k


def test_tanh_field_norms_match_mpmath_at_full_depth():
    # phi = r^2/4 + tanh(r)/2 at b0 = 1, so exp(-2 phi) = exp(-r^2/2 - tanh r)
    K = 1671
    basis = build_lll_basis(FieldSpec(1.0, phi_tilde=lambda r: 0.5 * np.tanh(r)), K)
    for k in (0, 1, K // 2, K - 1):
        want = 0.5 * mp_log_integral(
            lambda r, k=k: (2 * k + 1) * mp.log(r) - r * r / 2 - mp.tanh(r),
            math.sqrt(2.0 * k + 1.0), 1.0)
        assert abs(basis.log_norms[k] - want) <= 1e-8, k
