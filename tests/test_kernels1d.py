import numpy as np
import pytest

from diracssf.kernels1d import (
    Grid1D,
    GridResolutionError,
    RankTwoImS,
    im_s_dense_matrix,
    im_s_grid_singular_values,
    im_s_norm_rows,
    im_s_schatten,
    j_kernel_hs_distance,
    resolvent_kernel,
    s_kernel,
    s_matrix,
)


class TestResolventKernel:
    def test_at_origin_below(self):
        assert resolvent_kernel(-1.0, 0.0) == pytest.approx(0.5)

    def test_decaying_value(self):
        assert resolvent_kernel(-4.0, 1.0) == pytest.approx(np.exp(-2.0) / 4.0)

    def test_oscillatory_at_origin(self):
        assert resolvent_kernel(1.0, 0.0) == pytest.approx(0.5j)

    def test_oscillatory_modulus(self):
        for x in (0.0, 1.3, -7.0):
            assert abs(resolvent_kernel(4.0, x)) == pytest.approx(0.25)

    def test_rejects_critical_value(self):
        with pytest.raises(ValueError):
            resolvent_kernel(0.0, 1.0)


class TestSKernel:
    def test_diagonal_vanishes(self):
        assert s_kernel(2.0, 2.0, 0.7, 0.7) == 0.0

    def test_explicit_value(self):
        want = 0.5j * 2.0 ** -0.5 * np.exp(1j * np.sqrt(3.0))
        assert s_kernel(2.0, 2.0, 1.0, 0.0) == pytest.approx(want)

    def test_antisymmetric_weighted(self):
        a = s_kernel(2.0, 2.0, 1.0, -0.5)
        b = s_kernel(2.0, 2.0, -0.5, 1.0)
        # kernel(x, x') has symmetric weights, antisymmetric sign factor
        assert a == pytest.approx(-b)

    def test_gap_branch_decays(self):
        # inside the gap the root continues to i sqrt(m^2 - z^2)
        near = abs(s_kernel(0.5, 2.0, 1.0, 0.0))
        far = abs(s_kernel(0.5, 2.0, 9.0, 0.0))
        assert far < near * 1e-2

    def test_gap_operator_is_hermitian(self):
        grid = Grid1D(40.0, 257)
        for lam in (0.0, 0.5, -0.9):
            m = s_matrix(lam, 2.0, grid)
            assert np.max(np.abs(m - m.conj().T)) < 1e-10


class TestRankTwoImS:
    def test_requires_energy_above_gap(self):
        with pytest.raises(ValueError):
            RankTwoImS(0.5, 2.0)

    def test_requires_integrable_weight(self):
        with pytest.raises(ValueError):
            RankTwoImS(2.0, 0.5)

    def test_orthogonality(self):
        ops = RankTwoImS(2.0, 2.0, 1.0, half_width=200.0)
        assert abs(ops.inner_vu()) < 1e-10

    def test_exact_norms_weight_two(self):
        # closed forms via the Fourier transform of the Cauchy weight
        k = np.sqrt(3.0)
        ops = RankTwoImS(2.0, 2.0, 1.0)
        u2 = (np.pi / 2.0) * (1.0 - np.exp(-2.0 * k))
        v2 = (np.pi / 8.0) * (1.0 + np.exp(-2.0 * k))
        assert ops.norm_u() ** 2 == pytest.approx(u2, rel=1e-10)
        assert ops.norm_v() ** 2 == pytest.approx(v2, rel=1e-10)

    def test_norm_vanishes_at_edge(self):
        # ||u||^2 ~ pi k near the edge, so the decay is square-root slow
        mid = RankTwoImS(1.0 + 1e-4, 2.0, 1.0).norm_u()
        small = RankTwoImS(1.0 + 1e-8, 2.0, 1.0).norm_u()
        assert small < 0.05
        assert small < 0.2 * mid


class TestSchattenNorms:
    @pytest.mark.parametrize("lam", [1.01, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_closed_form_matches_grid_svd(self, lam, p):
        grid = Grid1D(200.0, 2**14)
        [(_, _, closed, gridv)] = im_s_norm_rows([lam], 2.0, [p], 1.0, grid)
        assert abs(closed - gridv) / gridv < 1e-6

    def test_rank_two_svd_matches_dense(self):
        grid = Grid1D(200.0, 1024)
        fast = im_s_grid_singular_values(2.0, 2.0, 1.0, grid)
        dense = np.linalg.svd(im_s_dense_matrix(2.0, 2.0, 1.0, grid),
                              compute_uv=False)
        assert np.allclose(np.sort(fast), np.sort(dense[:2]), rtol=1e-12)
        assert np.max(dense[2:]) < 1e-14

    def test_p2_equals_symmetrised_form(self):
        # at p = 2 the norm is (2 ||u||^2 ||v||^2)^(1/2)
        ops = RankTwoImS(1.5, 2.0, 1.0)
        want = np.sqrt(2.0) * ops.norm_u() * ops.norm_v()
        assert im_s_schatten(1.5, 2.0, 2) == pytest.approx(want, rel=1e-12)

    def test_norm_decreases_to_edge(self):
        vals = [im_s_schatten(1.0 + 2.0**-j, 2.0, 1, half_width=200.0)
                for j in range(1, 11)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_uniform_bound_over_sweep(self):
        vals = [im_s_schatten(lam, 2.0, 1) for lam in (1.01, 1.5, 2.0, 5.0, 50.0)]
        # the p=1 norm saturates at 2 ||u|| ||v|| <= pi/2
        assert max(vals) <= np.pi / 2.0 + 1e-9


class TestEdgeKernelComparison:
    def test_positive_at_gap_centre(self):
        grid = Grid1D(40.0, 513)
        assert j_kernel_hs_distance(0.0, 4.0, grid) > 0.1

    def test_decreases_toward_edge(self):
        grid = Grid1D(40.0, 513)
        d_mid = j_kernel_hs_distance(0.5, 4.0, grid)
        d_near = j_kernel_hs_distance(0.99, 4.0, grid)
        assert d_near < d_mid

    def test_monotone_sequence(self):
        grid = Grid1D(40.0, 513)
        vals = [j_kernel_hs_distance(lam, 4.0, grid) for lam in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]

    def test_requires_heavy_weight(self):
        with pytest.raises(ValueError):
            j_kernel_hs_distance(0.0, 2.5, Grid1D(40.0, 64))

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            j_kernel_hs_distance(0.0, 4.0, Grid1D(40.0, 6))


def test_grid_properties():
    grid = Grid1D(10.0, 11)
    assert grid.h == pytest.approx(2.0)
    assert grid.nodes[0] == -10.0 and grid.nodes[-1] == 10.0
    assert np.sum(grid.trapezoid_weights) == pytest.approx(20.0)
    fine = grid.refined()
    assert fine.n == 21 and fine.half_width == 10.0
    with pytest.raises(ValueError):
        Grid1D(10.0, 1)
