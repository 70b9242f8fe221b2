import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diracssf.discrete_model import (
    build_h0,
    check_gap,
    check_square_identity,
    fiber_eigenvalues,
    roundoff_bounds,
    spectrum_symmetry_residual,
    square_identity_within_roundoff,
    tdiv_spectrum,
    tdiv_vs_omega_count,
)
from diracssf.kernels1d import Grid1D
from diracssf.landau import build_lll_basis
from diracssf.ssf import PotentialSpec, SsfEstimator, gaussian_longitudinal
from diracssf.toeplitz import gaussian_profile
from oracles import dense_h0_matrix, gather_fibers


@pytest.fixture(scope="module")
def h0_ref():
    return build_h0(1.0, 1.0, 8, 32, 20.0)


def test_pure_lowest_level_dispersion():
    h0 = build_h0(1.0, 1.0, 1, 16, 20.0)
    eigs = np.sort(np.linalg.eigvalsh(h0.matrix))
    branch = np.sqrt(h0.momenta**2 + 1.0)
    want = np.sort(np.concatenate([np.repeat(branch, 2), -np.repeat(branch, 2)]))
    assert np.max(np.abs(eigs - want)) < 1e-12


def test_massless_zero_momentum_fiber():
    h0 = build_h0(1.0, 0.0, 2, 4, 10.0)
    mags = np.sort(np.abs(np.linalg.eigvalsh(h0.matrix)))
    assert mags[0] < 1e-12  # zero pair from the lowest level
    assert np.min(np.abs(mags - np.sqrt(2.0))) < 1e-12


def test_spectrum_symmetric_about_zero(h0_ref):
    assert spectrum_symmetry_residual(h0_ref) < 1e-10


def test_square_identity_interior(h0_ref):
    interior, full = check_square_identity(h0_ref)
    assert interior < 1e-10
    # the cut leaks exactly 2 b0 L on the top raised level
    assert full == pytest.approx(2.0 * 1.0 * 8, rel=1e-12)


def test_square_identity_massless():
    h0 = build_h0(1.0, 0.0, 6, 8, 10.0)
    interior, _ = check_square_identity(h0)
    assert interior < 1e-10


def dense_square_identity(h0):
    """The square identity from one dense product of the full matrix."""
    L, N, m = h0.L, h0.N, h0.m
    b0 = h0.ladder.b0
    p_sq = np.diag(h0.momenta**2)
    minus_levels = 2.0 * b0 * np.arange(L)
    plus_levels = 2.0 * b0 * (np.arange(L) + 1.0)

    def block(levels):
        return np.kron(np.diag(levels), np.eye(N)) + np.kron(np.eye(L), p_sq) \
            + m * m * np.eye(L * N)

    reference = np.zeros_like(h0.matrix)
    ln = L * N
    for i, levels in enumerate((minus_levels, plus_levels, minus_levels, plus_levels)):
        reference[i * ln:(i + 1) * ln, i * ln:(i + 1) * ln] = block(levels)
    diff = np.abs(h0.matrix @ h0.matrix - reference)
    full = float(np.max(diff))
    mask = np.repeat(h0.interior_mask(), h0.N)
    interior = float(np.max(diff[np.ix_(mask, mask)]))
    return interior, full


SHAPES = pytest.mark.parametrize("b0, m, L, N, X", [
    (1.0, 1.0, 8, 32, 20.0), (1.0, 2.0, 8, 32, 20.0), (2.5, 0.5, 5, 12, 7.0),
    (1.0, 1.0, 1, 16, 20.0), (1.0, 0.0, 6, 8, 10.0),
])


@SHAPES
def test_fiber_square_identity_matches_dense_product(b0, m, L, N, X):
    h0 = build_h0(b0, m, L, N, X)
    assert check_square_identity(h0) == dense_square_identity(h0)


@SHAPES
def test_fibers_are_the_dense_kron_assembly(b0, m, L, N, X):
    h0 = build_h0(b0, m, L, N, X)
    dense = dense_h0_matrix(b0, m, L, N, X)
    assert h0.fibers.shape == (N, 4 * L, 4 * L)
    assert np.array_equal(h0.matrix, dense)
    assert np.array_equal(gather_fibers(dense, L, N), h0.fibers)


def test_off_fiber_entry_is_refused(h0_ref):
    # couple momentum 0 to momentum 1 inside the first spinor block
    doctored = h0_ref.matrix  # a fresh array on every read
    doctored[0, 1] = doctored[1, 0] = 1e-3
    with pytest.raises(AssertionError, match="fibers not decoupled"):
        gather_fibers(doctored, h0_ref.L, h0_ref.N)


def test_square_identity_peak_memory(h0_ref):
    # a dense 1024 x 1024 product and its reference peak at 24 MiB
    tracemalloc.start()
    try:
        check_square_identity(h0_ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_gap_equals_mass(h0_ref):
    assert check_gap(h0_ref) == pytest.approx(1.0, rel=1e-12)


def test_gap_scales_with_mass():
    h0 = build_h0(1.0, 2.0, 8, 32, 20.0)
    assert check_gap(h0) == pytest.approx(2.0, rel=1e-12)


def test_no_levels_in_transverse_gap(h0_ref):
    # raised channels start at sqrt(m^2 + 2 b0); only the lowest level
    # fills (m, sqrt(m^2 + 2 b0)) through its momentum dispersion
    eigs = np.abs(np.linalg.eigvalsh(h0_ref.matrix))
    window = eigs[(eigs > 1.0 + 1e-9) & (eigs < np.sqrt(3.0) - 1e-9)]
    branch = np.sqrt(h0_ref.momenta**2 + 1.0)
    lowest = branch[(branch > 1.0 + 1e-9) & (branch < np.sqrt(3.0) - 1e-9)]
    assert window.size == 4 * lowest.size  # two spinor pairs, +- branches


def test_fiber_formula(h0_ref):
    fiber = fiber_eigenvalues(h0_ref)
    actual = np.sort(np.linalg.eigvalsh(h0_ref.matrix))
    assert fiber.shape == actual.shape
    assert np.max(np.abs(fiber - actual)) < 1e-9


@pytest.mark.parametrize("b0, L, N, X", [(1.0, 8, 32, 1e-5), (1.0, 8, 32, 1e-3),
                                          (1.0, 8, 32, 20.0), (1.0, 8, 32, 1e3),
                                          (1.0, 4, 8, 20.0), (3.0, 12, 16, 0.1)])
def test_roundoff_bounds_hold_from_tiny_to_wide_boxes(b0, L, N, X):
    # ||H0|| runs from 3.9 to 5e6 over these boxes; the residuals that
    # absolute tolerances would call failures stay within the derived bounds
    h0 = build_h0(b0, 1.0, L, N, X)
    _, eig_tol = roundoff_bounds(h0)
    assert square_identity_within_roundoff(h0)
    assert abs(float(np.min(np.abs(h0.eigenvalues))) - 1.0) <= eig_tol
    assert np.max(np.abs(fiber_eigenvalues(h0) - h0.eigenvalues)) <= eig_tol


@pytest.mark.parametrize("b0, L, N, X", [(1.0, 8, 32, 1e-5), (1.0, 8, 32, 20.0),
                                          (3.0, 12, 16, 0.1)])
def test_entrywise_square_bound_is_within_the_norm_bound(b0, L, N, X):
    # (|F| |F|)_ij <= ||row i|| ||column j|| <= ||H0||^2 (Cauchy-Schwarz), so the
    # entrywise bound is at most (4 L + 4) eps ||H0||^2 at every entry
    h0 = build_h0(b0, 1.0, L, N, X)
    square_bound, _ = roundoff_bounds(h0)
    norm_bound = (4 * L + 4) * np.finfo(float).eps * np.max(np.abs(h0.eigenvalues)) ** 2
    assert square_bound.shape == h0.fibers.shape
    assert np.all(square_bound <= norm_bound)


def _shifted_zero_momentum_fiber(h0, delta):
    fibers = h0.fibers.copy()
    fibers[h0.N // 2] += delta * np.eye(fibers.shape[1])
    return replace(h0, fibers=fibers)


def test_check_gap_accepts_round_off_on_a_tiny_box():
    # ||H0|| is about 5e6 at grid_x = 1e-5, so min |eig| misses the mass by
    # far more than 1e-10 relative, yet within the eigenvalue round-off bound
    h0 = build_h0(1.0, 1.0, 8, 32, 1e-5)
    _, eig_tol = roundoff_bounds(h0)
    assert abs(check_gap(h0) - 1.0) <= eig_tol
    # the p = 0 fiber holds the gap states: a shift by twice the bound is refused
    with pytest.raises(AssertionError, match="spectral gap violated"):
        check_gap(_shifted_zero_momentum_fiber(h0, 2.0 * eig_tol))


@pytest.mark.parametrize("delta", [1e-6, 0.02])
def test_entrywise_square_bound_catches_a_shift_the_norm_bound_misses(delta):
    # on the tiny box (4 L + 4) eps ||H0||^2 is 0.2, set by the top momentum,
    # while the p = 0 fiber's entries are O(1); a shift by delta moves its
    # diagonal squared entries by 2 m delta, far past their entrywise bounds
    h0 = _shifted_zero_momentum_fiber(build_h0(1.0, 1.0, 8, 32, 1e-5), delta)
    interior, _ = check_square_identity(h0)
    norm_bound = (4 * 8 + 4) * np.finfo(float).eps * np.max(np.abs(h0.eigenvalues)) ** 2
    assert interior <= norm_bound
    assert not square_identity_within_roundoff(h0)


def test_build_guards():
    with pytest.raises(ValueError):
        build_h0(1.0, 1.0, 8, 7, 20.0)  # odd momentum grid
    with pytest.raises(ValueError):
        build_h0(1.0, 1.0, 0, 8, 20.0)
    with pytest.raises(ValueError):
        build_h0(1.0, 1.0, 8, 8, -1.0)


@pytest.fixture(scope="module")
def setup(field_b2):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[2, 2] = 1.0
    pot = PotentialSpec(mat, gaussian_profile(1.0, amplitude=1.0),
                        gaussian_longitudinal(), nu=5.0)
    est = SsfEstimator(pot, build_lll_basis(field_b2, 80), m=1.0)
    grid = Grid1D(20.0, 256)
    return est, grid


class TestDivergentPartCounts:

    def test_counts_diverge_difference_bounded(self, setup):
        est, grid = setup
        tdiv_counts, omega_counts, diffs = [], [], []
        for j in range(4, 17):
            lam = 1.0 - 2.0**-j
            ct, co, diff = tdiv_vs_omega_count(est, lam, grid, 1.0)
            tdiv_counts.append(ct)
            omega_counts.append(co)
            diffs.append(abs(diff))
        assert tdiv_counts[-1] >= 3 * tdiv_counts[0]
        assert omega_counts[-1] >= 3 * omega_counts[0]
        assert max(diffs) <= 3

    def test_large_threshold_empty(self, setup):
        est, grid = setup
        ct, co, diff = tdiv_vs_omega_count(est, 0.9, grid, 1e9)
        assert ct == co == diff == 0

    def test_divergent_part_has_both_signs(self, setup):
        est, grid = setup
        spec = tdiv_spectrum(est, 0.5, grid)
        assert spec.n_plus(1e-6) > 0
        assert spec.n_minus(1e-6) > 0
        # positive family dominates near the upper edge
        assert spec.n_plus(0.1) > spec.n_minus(0.1)

    def test_gap_guard(self, setup):
        est, grid = setup
        with pytest.raises(ValueError):
            tdiv_spectrum(est, 1.5, grid)
