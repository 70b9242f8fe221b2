"""Longitudinal (1-D) kernel ingredients.

Boundary values of the free 1-D resolvent, the weighted momentum-resolvent
kernel S_z, the rank-two imaginary part of its boundary value above the
gap (with exact Schatten norms), and the Hilbert-Schmidt comparison of the
gap-side kernel against its limit at the gap edge.
"""

from dataclasses import dataclass

import numpy as np

from ._quad import gauss_legendre, panel_integral

GRID_DEFAULT_HALF_WIDTH = 200.0
GRID_DEFAULT_POINTS = 2**14


class GridResolutionError(RuntimeError):
    """Richardson check between grid refinements failed."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric grid on [-half_width, half_width]."""

    half_width: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least two points")
        if not self.half_width > 0:
            raise ValueError("grid half-width must be positive")

    @property
    def h(self):
        return 2.0 * self.half_width / (self.n - 1)

    @property
    def nodes(self):
        return np.linspace(-self.half_width, self.half_width, self.n)

    @property
    def trapezoid_weights(self):
        w = np.full(self.n, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def refined(self):
        """Same extent, doubled resolution (nested nodes)."""
        return Grid1D(self.half_width, 2 * self.n - 1)


def resolvent_kernel(lam: float, x3: float) -> complex:
    """Convolution kernel of the boundary value of (P3^2 - lam)^(-1).

    Below zero the kernel decays; above zero it is the outgoing
    oscillatory boundary value exp(i sqrt(lam)|x|) / (2 sqrt(lam)) * i.
    lam == 0 is the critical value and is rejected.
    """
    if lam == 0:
        raise ValueError("resolvent boundary value undefined at 0")
    ax = abs(x3)
    if lam < 0:
        root = np.sqrt(-lam)
        return complex(np.exp(-root * ax) / (2.0 * root))
    root = np.sqrt(lam)
    return 1j * np.exp(1j * root * ax) / (2.0 * root)


def _branch_root(z: complex, m: float) -> complex:
    """sqrt(z^2 - m^2) on the branch with nonnegative imaginary part."""
    w = np.sqrt(complex(z) ** 2 - m * m + 0j)
    if w.imag < 0:
        w = -w
    return w


def s_kernel(z: complex, nu3: float, x3: float, x3p: float, m: float = 1.0) -> complex:
    """Integral kernel of the weighted operator <Q>^(-nu3/2) P3 R <Q>^(-nu3/2).

    Antisymmetric sign factor with sgn(0) = 0 on the diagonal (the
    diagonal carries no measure).  For real z inside the gap the root
    continues to i sqrt(m^2 - z^2), giving a decaying real profile times
    the i/2 prefactor.
    """
    if x3 == x3p:
        return 0.0j
    root = _branch_root(z, m)
    sgn = 1.0 if x3 > x3p else -1.0
    w1 = (1.0 + x3 * x3) ** (-nu3 / 4.0)
    w2 = (1.0 + x3p * x3p) ** (-nu3 / 4.0)
    return 0.5j * w1 * sgn * np.exp(1j * root * abs(x3 - x3p)) * w2


def s_matrix(z: complex, nu3: float, grid: Grid1D, m: float = 1.0) -> np.ndarray:
    """Symmetrised Nystrom discretisation of the S_z kernel."""
    x = grid.nodes
    sw = np.sqrt(grid.trapezoid_weights)
    diff = np.subtract.outer(x, x)
    root = _branch_root(z, m)
    w = (1.0 + x * x) ** (-nu3 / 4.0)
    kern = 0.5j * np.sign(diff) * np.exp(1j * root * np.abs(diff))
    kern *= np.outer(w, w)
    return kern * np.outer(sw, sw)


def _weight_halfline_integral(nu3: float) -> float:
    """integral_0^inf (1+x^2)^(-nu3/2) dx."""
    from scipy.special import gamma

    return 0.5 * np.sqrt(np.pi) * gamma(0.5 * (nu3 - 1.0)) / gamma(0.5 * nu3)


def _weight_cos_halfline(nu3: float, omega: float) -> float:
    """integral_0^inf (1+x^2)^(-nu3/2) cos(omega x) dx.

    The cosine transform of the Bessel-potential weight: a modified
    Bessel function of the second kind.  At nu3 = 2 this reduces to
    (pi/2) e^(-omega).
    """
    from scipy.special import gamma, kv

    if omega == 0.0:
        return _weight_halfline_integral(nu3)
    order = 0.5 * (nu3 - 1.0)
    val = np.sqrt(np.pi) / gamma(0.5 * nu3) * (0.5 * omega) ** order * kv(order, omega)
    return float(val) if np.isfinite(val) else 0.0


def _weighted_trig_sq(nu3: float, k: float, trig: str, half_width: float | None):
    """integral of <x>^(-nu3) trig(kx)^2 over the line or over [-X, X].

    Oscillation-aware panels (width capped by both the half period and
    the unit weight scale) cover the head; on the full line the two tail
    pieces are exact: a tangent substitution for the plain weight and the
    Bessel cosine transform minus the head for the oscillatory part.
    """
    def f(x):
        w = (1.0 + x * x) ** (-nu3 / 2.0)
        t = np.sin(k * x) if trig == "sin" else np.cos(k * x)
        return w * t * t

    # panels must resolve both the oscillation and the unit weight scale
    panel = min(np.pi / (2.0 * max(k, 1e-12)), 8.0)
    if half_width is not None:
        core = panel_integral(f, 0.0, half_width, min(panel, half_width / 8.0))
        return 2.0 * core

    x_cut = max(48.0, 6.0 / max(k, 0.125))
    core = panel_integral(f, 0.0, x_cut, min(panel, x_cut / 8.0))

    # plain-weight tail: t = tan(theta) maps it onto a smooth finite integral
    theta0 = np.arctan(x_cut)
    x, w = gauss_legendre(96)
    theta = 0.5 * (np.pi / 2.0 - theta0) * (x + 1.0) + theta0
    t0 = float(np.sum(w * 0.5 * (np.pi / 2.0 - theta0)
                      * np.cos(theta) ** (nu3 - 2.0)))

    # oscillatory tail: exact transform minus the head panels
    omega = 2.0 * k
    head_cos = panel_integral(
        lambda x: (1.0 + x * x) ** (-nu3 / 2.0) * np.cos(omega * x),
        0.0, x_cut, min(panel, x_cut / 8.0))
    tc = _weight_cos_halfline(nu3, omega) - head_cos

    sign = -1.0 if trig == "sin" else 1.0
    return 2.0 * (core + 0.5 * (t0 + sign * tc))


@dataclass(frozen=True)
class RankTwoImS:
    """Rank-two imaginary part of S_lambda above the gap.

    Im S = <v, .> u + <u, .> v with u = <x>^(-nu3/2) sin(x kappa) and
    v = -(i/2) <x>^(-nu3/2) cos(x kappa), kappa = sqrt(lam^2 - m^2).
    Since <v, u> = 0 the eigenvalues are +-||u|| ||v||, each simple.
    """

    lam: float
    nu3: float
    m: float = 1.0
    half_width: float | None = None

    def __post_init__(self):
        if abs(self.lam) <= self.m:
            raise ValueError("rank-two structure requires |lambda| > m")
        if not self.nu3 > 1:
            raise ValueError("weight exponent nu3 must exceed 1 for integrability")

    @property
    def kappa(self):
        return float(np.sqrt(self.lam**2 - self.m**2))

    def u(self, x):
        x = np.asarray(x, dtype=float)
        return (1.0 + x * x) ** (-self.nu3 / 4.0) * np.sin(self.kappa * x)

    def v(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5j * (1.0 + x * x) ** (-self.nu3 / 4.0) * np.cos(self.kappa * x)

    def norm_u(self) -> float:
        return float(np.sqrt(_weighted_trig_sq(self.nu3, self.kappa, "sin", self.half_width)))

    def norm_v(self) -> float:
        return 0.5 * float(np.sqrt(_weighted_trig_sq(self.nu3, self.kappa, "cos", self.half_width)))

    def inner_vu(self) -> complex:
        """<v, u>; vanishes because the integrand is odd."""
        k = self.kappa
        x_cut = self.half_width if self.half_width is not None else max(64.0, 16.0 / max(k, 1e-3))

        def f(x):
            return (1.0 + x * x) ** (-self.nu3 / 2.0) * np.sin(k * x) * np.cos(k * x)

        val = panel_integral(f, -x_cut, x_cut, min(np.pi / (2.0 * max(k, 1e-12)), 8.0))
        return 0.5j * val


def im_s_schatten(lam: float, nu3: float, p: int, m: float = 1.0,
                  half_width: float | None = None) -> float:
    """Schatten p-norm of Im S_lambda from the rank-two closed form.

    The two nonzero eigenvalues are +-||u|| ||v||, so the norm is
    2^(1/p) ||u|| ||v||; at p = 2 this coincides with
    (||u||^2 ||v||^2 + ||v||^2 ||u||^2)^(1/2).
    """
    if p < 1:
        raise ValueError("Schatten index p must be >= 1")
    ops = RankTwoImS(lam, nu3, m, half_width)
    sigma = ops.norm_u() * ops.norm_v()
    return float(2.0 ** (1.0 / p) * sigma)


def im_s_grid_singular_values(lam: float, nu3: float, m: float, grid: Grid1D) -> np.ndarray:
    """Singular values of the discretised Im S kernel on the grid.

    The Nystrom matrix is exactly rank two, an outer-product combination
    of the sine and cosine columns, so its SVD reduces to a 2x2 problem
    after a QR factorisation of those columns; this is the exact SVD of
    the discretised kernel, not an approximation.
    """
    ops = RankTwoImS(lam, nu3, m, half_width=grid.half_width)
    x = grid.nodes
    sw = np.sqrt(grid.trapezoid_weights)
    a = sw * ops.u(x)
    c = sw * (1.0 + x * x) ** (-nu3 / 4.0) * np.cos(ops.kappa * x)
    q, r = np.linalg.qr(np.stack([a, c], axis=1))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    core = 0.5 * r @ j @ r.T
    return np.linalg.svd(core, compute_uv=False)


def im_s_dense_matrix(lam: float, nu3: float, m: float, grid: Grid1D) -> np.ndarray:
    """Dense Nystrom matrix of the Im S kernel (test oracle for small N)."""
    ops = RankTwoImS(lam, nu3, m, half_width=grid.half_width)
    x = grid.nodes
    sw = np.sqrt(grid.trapezoid_weights)
    w = (1.0 + x * x) ** (-nu3 / 4.0)
    diff = np.subtract.outer(x, x)
    kern = 0.5j * np.outer(w, w) * np.sin(ops.kappa * diff)
    return kern * np.outer(sw, sw)


def j_kernel_hs_distance(lam: float, nu_prime: float, grid: Grid1D,
                         m: float = 1.0, richardson_tol: float = 1e-6) -> float:
    """Hilbert-Schmidt distance between the gap-side kernel and its edge limit.

    The gap-side kernel carries (1 - exp(-kappa |x - x'|)) / (2 kappa)
    with kappa = sqrt(m^2 - lam^2); at the edge this becomes |x - x'| / 2.
    Requires nu_prime > 3 so the edge kernel is Hilbert-Schmidt.  A
    Richardson check between N and 2N-1 nodes guards the resolution.
    """
    if not nu_prime > 3:
        raise ValueError("weight exponent nu_prime must exceed 3")
    if not abs(lam) < m:
        raise ValueError("gap-side comparison requires |lambda| < m")
    kappa = float(np.sqrt(m * m - lam * lam))

    def hs_sq(g: Grid1D) -> float:
        x = g.nodes
        w = g.trapezoid_weights
        wt = (1.0 + x * x) ** (-nu_prime / 4.0)
        diff = np.abs(np.subtract.outer(x, x))
        inner = -np.expm1(-kappa * diff) / (2.0 * kappa) - 0.5 * diff
        kern = np.outer(wt, wt) * inner
        return float(np.einsum("i,ij,j->", w, kern**2, w))

    coarse = hs_sq(grid)
    fine = hs_sq(grid.refined())
    if abs(fine - coarse) > richardson_tol * max(fine, 1e-300):
        raise GridResolutionError(
            f"grid too coarse for the Hilbert-Schmidt comparison: "
            f"{coarse:.6e} vs {fine:.6e} after refinement"
        )
    return float(np.sqrt(fine))


def im_s_norm_rows(lams, nu3: float, p_values, m: float = 1.0,
                   grid: Grid1D | None = None):
    """(lambda, p, closed form, grid value) rows for CSV export.

    Only the power p differs between a lambda's rows, so the rank-two
    norms ||u|| ||v|| and the grid singular values are computed once per
    lambda: the closed form is 2^(1/p) ||u|| ||v|| (as in ``im_s_schatten``)
    and the grid value the p-norm of the grid singular values.
    """
    if grid is None:
        grid = Grid1D(GRID_DEFAULT_HALF_WIDTH, GRID_DEFAULT_POINTS)
    if min(p_values) < 1:
        raise ValueError("Schatten index p must be >= 1")
    rows = []
    for lam in lams:
        ops = RankTwoImS(lam, nu3, m, half_width=grid.half_width)
        sigma = ops.norm_u() * ops.norm_v()
        sv = im_s_grid_singular_values(lam, nu3, m, grid)
        rows += [(float(lam), int(p), float(2.0 ** (1.0 / p) * sigma),
                  float(np.sum(sv**p) ** (1.0 / p))) for p in p_values]
    return rows
