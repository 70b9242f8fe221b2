import numpy as np
import pytest

from diracssf.discrete_model import (
    build_h0,
    check_gap,
    check_square_identity,
    fiber_eigenvalues,
    spectrum_symmetry_residual,
    tdiv_spectrum,
    tdiv_vs_omega_count,
)
from diracssf.kernels1d import Grid1D
from diracssf.landau import build_lll_basis
from diracssf.ssf import PotentialSpec, gaussian_longitudinal
from diracssf.toeplitz import gaussian_profile, toeplitz_radial_spectrum


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
    basis = build_lll_basis(field_b2, 80)
    grid = Grid1D(20.0, 256)
    tau = toeplitz_radial_spectrum(pot.transverse, basis)
    wp = toeplitz_radial_spectrum(pot.w_plus, basis)
    return pot, basis, grid, tau, wp


class TestDivergentPartCounts:

    def test_counts_diverge_difference_bounded(self, setup):
        pot, basis, grid, tau, wp = setup
        tdiv_counts, omega_counts, diffs = [], [], []
        for j in range(4, 17):
            lam = 1.0 - 2.0**-j
            ct, co, diff = tdiv_vs_omega_count(lam, pot, basis, grid, 1.0, 1.0,
                                               wplus_model=wp, tau_model=tau)
            tdiv_counts.append(ct)
            omega_counts.append(co)
            diffs.append(abs(diff))
        assert tdiv_counts[-1] >= 3 * tdiv_counts[0]
        assert omega_counts[-1] >= 3 * omega_counts[0]
        assert max(diffs) <= 3

    def test_large_threshold_empty(self, setup):
        pot, basis, grid, tau, wp = setup
        ct, co, diff = tdiv_vs_omega_count(0.9, pot, basis, grid, 1e9, 1.0,
                                           wplus_model=wp, tau_model=tau)
        assert ct == co == diff == 0

    def test_divergent_part_has_both_signs(self, setup):
        pot, basis, grid, tau, _ = setup
        spec = tdiv_spectrum(0.5, pot, basis, grid, 1.0, tau_model=tau)
        assert spec.n_plus(1e-6) > 0
        assert spec.n_minus(1e-6) > 0
        # positive family dominates near the upper edge
        assert spec.n_plus(0.1) > spec.n_minus(0.1)

    def test_gap_guard(self, setup):
        pot, basis, grid, tau, _ = setup
        with pytest.raises(ValueError):
            tdiv_spectrum(1.5, pot, basis, grid, 1.0, tau_model=tau)
