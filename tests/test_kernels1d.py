import mpmath as mp
import numpy as np
import pytest

from diracssf.kernels1d import (
    Grid1D,
    GridResolutionError,
    RankTwoImS,
    _weight_cos_halfline,
    _weight_halfline_integral,
    im_s_grid_singular_values,
    im_s_norm_rows,
    im_s_schatten,
    j_kernel_hs_distance,
    resolvent_kernel,
    s_kernel,
    s_matrix,
)
from oracles import im_s_dense_matrix


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


def _mp_weight_integrals(nu3, omega):
    """40-digit (I, C(omega)): the half-line integral of <x>^(-nu3) and its
    cosine transform, sqrt(pi) / Gamma(nu3/2) (omega/2)^a K_a(omega) with
    a = (nu3 - 1)/2 (Basset's integral)."""
    with mp.workdps(40):
        nu3, omega = mp.mpf(nu3), mp.mpf(omega)
        a = (nu3 - 1) / 2
        whole = mp.sqrt(mp.pi) / 2 * mp.gamma(a) / mp.gamma(nu3 / 2)
        cos = mp.sqrt(mp.pi) / mp.gamma(nu3 / 2) * (omega / 2) ** a * mp.besselk(a, omega)
        return whole, cos


@pytest.mark.parametrize("nu3", [3.0, 8.0])
def test_mpmath_cosine_transform_is_the_oscillatory_quadrature(nu3):
    # Basset's closed form against a direct 40-digit oscillatory quadrature
    with mp.workdps(40):
        quad = mp.quadosc(lambda x: (1 + x * x) ** (-mp.mpf(nu3) / 2) * mp.cos(2 * x),
                          [0, mp.inf], omega=2)
        assert abs(quad / _mp_weight_integrals(nu3, 2.0)[1] - 1) < mp.mpf(10) ** -30


@pytest.mark.parametrize("nu3", [2.0, 3.0, 8.0])
def test_full_line_norms_match_mpmath(nu3):
    # ||u||^2 = I - C(2 kappa) and ||v||^2 = (I + C(2 kappa)) / 4 at the kappa the
    # code computes.  I and C each come from gamma and kv within 3 eps relative
    # at these orders, C <= I, and the difference, the square root in the norm
    # and its square add 3 roundings: each norm^2 is off by at most 10 eps I
    # absolute, a relative bound of about 10 eps I / ||u||^2 where I - C cancels
    eps = np.finfo(float).eps
    for gap in np.geomspace(1e-6, 49.0, 12):
        ops = RankTwoImS(1.0 + gap, nu3)
        whole, cos = _mp_weight_integrals(nu3, 2.0 * ops.kappa)
        bound = 10.0 * eps * float(whole)
        assert abs(ops.norm_u() ** 2 - float(whole - cos)) <= bound
        assert abs(ops.norm_v() ** 2 - float((whole + cos) / 4)) <= bound


@pytest.mark.parametrize("nu3", [2.5, 5.0])
def test_full_line_norms_add_nothing_to_the_errors_of_i_and_c(nu3):
    # at a fractional order a = (nu3 - 1)/2 kv is not within 3 eps (at
    # a = 0.75 it errs by about 25 eps I), so 10 eps I does not hold; the
    # code's own I and C are measured against mpmath here, and each norm^2
    # may miss by their errors plus the roundings the code adds: I -+ C
    # (eps/2) and the square root, squared (eps), relative to I -+ C
    eps = np.finfo(float).eps
    for gap in np.geomspace(1e-6, 49.0, 12):
        ops = RankTwoImS(1.0 + gap, nu3)
        omega = 2.0 * ops.kappa
        whole, cos = _mp_weight_integrals(nu3, omega)
        with mp.workdps(40):
            err = (abs(_weight_halfline_integral(nu3) - whole)
                   + abs(_weight_cos_halfline(nu3, omega) - cos))
            u2, v2 = whole - cos + err, (whole + cos + err) / 4
            assert abs(mp.mpf(ops.norm_u()) ** 2 - (whole - cos)) <= err + 2 * eps * u2
            assert abs(mp.mpf(ops.norm_v()) ** 2 - (whole + cos) / 4) <= err / 4 + 2 * eps * v2


def _mp_box_integrals(nu3, kappa, half_width, *, quadrature=None):
    """30-digit (||u||^2, ||v||^2) on the box [-X, X].

    With I = int <x>^(-nu3) and C = int <x>^(-nu3) cos(2 kappa x), both over
    the box, sin^2 = (1 - cos)/2 gives ||u||^2 = (I - C)/2 and ||v||^2 =
    (I + C)/8.  At nu3 = 2, I = 2 arctan X, and C = pi e^(-w) - 2 Re T with
    w = 2 kappa and T the tail beyond X: partial fractions of 1/(1 + x^2)
    give T = (e^(-w) E1(-w - i w X) - e^w E1(w - i w X)) / (2i), whose E1
    arguments stay off the branch cut.  Otherwise, or with ``quadrature``,
    mp.quad (Gauss-Legendre) integrates between consecutive zeros of
    cos(2 kappa x)."""
    with mp.workdps(30):
        w, x_max = 2 * mp.mpf(kappa), mp.mpf(half_width)
        if quadrature is None and nu3 == 2.0:
            tail = (mp.exp(-w) * mp.e1(-w - 1j * w * x_max)
                    - mp.exp(w) * mp.e1(w - 1j * w * x_max)) / 2j
            whole, cos = 2 * mp.atan(x_max), mp.pi * mp.exp(-w) - 2 * mp.re(tail)
        else:
            half = -mp.mpf(nu3) / 2
            zeros = [(j + mp.mpf(1) / 2) * mp.pi / w
                     for j in range(int((x_max * w / mp.pi) + 1))]
            cuts = [mp.mpf(0)] + [z for z in zeros if z < x_max] + [x_max]
            cos = 2 * mp.quad(lambda x: (1 + x * x) ** half * mp.cos(w * x), cuts,
                              method="gauss-legendre")
            whole = 2 * mp.quad(lambda x: (1 + x * x) ** half, [0, 1, 4, 16, 64, x_max],
                                method="gauss-legendre")
        return (whole - cos) / 2, (whole + cos) / 8


def test_the_two_box_oracles_agree_at_nu3_two():
    for kappa in (0.05, 0.3):
        closed = _mp_box_integrals(2.0, kappa, 200.0)
        quad = _mp_box_integrals(2.0, kappa, 200.0, quadrature=True)
        with mp.workdps(30):
            assert all(abs(a / b - 1) < mp.mpf(10) ** -28 for a, b in zip(closed, quad))


# What the box integrals may be off by, relative to ||u||^2 and ||v||^2 and,
# for <v, u> (exactly 0: its integrand is odd), to ||u|| ||v||.  The rule
# stops once every panel's Gauss-Legendre sum changes by at most BOX_TOL =
# 1e-10 relative on doubling, and it returns the doubled sum, whose
# truncation lies far below this; what is left is rounding, summed over up
# to 1250 panels.
BOX_BOUND = 4e-15


@pytest.mark.parametrize("nu3", [2.0, 8.0])
def test_box_integrals_match_mpmath(nu3):
    for lam in (1.0 + 2.0**-10, 1.01, 2.0, 5.0):
        ops = RankTwoImS(lam, nu3, 1.0, half_width=200.0)
        u2, v2 = _mp_box_integrals(nu3, ops.kappa, 200.0)
        norm_u, norm_v = ops.norm_u(), ops.norm_v()
        with mp.workdps(30):
            assert abs(mp.mpf(norm_u) ** 2 / u2 - 1) <= BOX_BOUND, lam
            assert abs(mp.mpf(norm_v) ** 2 / v2 - 1) <= BOX_BOUND, lam
        assert abs(ops.inner_vu()) <= BOX_BOUND * norm_u * norm_v, lam


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
