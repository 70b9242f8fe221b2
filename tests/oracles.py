"""Earlier formulations kept as oracles for the code that replaced them.

``MaskedSpectrum`` is the formulation the package used before the stored
order became an invariant the queries read: every derived spectrum goes
back through ``np.lexsort``, and every query masks the sign array.  The
tests compare the binary-search queries and the Levinson rows built on
them against it, bitwise.

``dense_h0_matrix`` and ``gather_fibers`` are the free operator as it was
built before its momentum fibers became the stored form: one dense
``kron`` / ``np.block`` assembly, and the fibers gathered back out of it
after a check that no entry couples two momenta.

``one_shot_log_integral`` is ``_quad.log_integral_batch`` without its row
blocks: every rule evaluates every row's nodes at once, with the same
per-row shift, remainder and ``einsum`` weighting, so the blocked kernel
must match it bit for bit.  ``gaussian_log_value`` and ``power_log_value``
are the profile logs as the plain expressions they were before they were
built in place.

``toeplitz_general_matrix`` is the dense compression of a bounded symbol
U(r, theta), moved here unchanged with its ``FOURIER_TAIL_TOL``: no run
reads it, and the tests hold the radial (diagonal) path to it.

``mp_power_log_eig`` is the flat-field power-law eigenvalue by mpmath, at
a stated precision, so that a test can check the oracle's own convergence
by asking at two precisions.

``compute_zeta`` and ``h_perp_plus`` are the spectral-gap constant and the
second transverse Pauli component, moved here unchanged from ``landau``,
where no run read them.

``sequential_power_recurrence`` is ``toeplitz._power_recurrence`` as the
row-by-row loop it was before its blocks: one interpreted step per row,
the pair rescaled by an exact power of two whenever it falls below
2^-512.

``im_s_dense_matrix`` is the dense Nystrom matrix of the Im S kernel,
moved here unchanged from ``kernels1d``, where no run read it; a test
holds the rank-two SVD of the grid kernel to it.
"""

import math
from array import array
from typing import Callable

import numpy as np

from diracssf._quad import gauss_legendre
from diracssf.counting import LogSpectrum
from diracssf.kernels1d import Grid1D, RankTwoImS
from diracssf.landau import FieldSpec, LadderModel, LLLBasis, build_ladder
from diracssf.ssf import edge_threshold


def masked_arctan_of_log_ratio(log_num, log_den) -> np.ndarray:
    """arctan(exp(log_num - log_den)) without overflow, by three masks."""
    x = log_num - log_den
    out = np.empty_like(x)
    big = x > 30.0
    small = x < -30.0
    mid = ~(big | small)
    out[mid] = np.arctan(np.exp(x[mid]))
    out[big] = np.pi / 2.0 - np.exp(-x[big])
    out[small] = np.exp(x[small])
    return out


class MaskedSpectrum:
    """(log_values, signs) in lexsort order, descending by signed value."""

    def __init__(self, log_values, signs):
        lv = np.asarray(log_values, dtype=float)
        sg = np.asarray(signs, dtype=np.int8)
        order = np.lexsort((-lv * sg, -sg))
        self.log_values, self.signs = lv[order], sg[order]

    @classmethod
    def of(cls, spec):
        return cls(spec.log_values, spec.signs)

    def n_plus(self, s):
        return int(np.count_nonzero(self.log_values[self.signs == 1] > np.log(s)))

    def n_minus(self, s):
        return int(np.count_nonzero(self.log_values[self.signs == -1] > np.log(s)))

    def threshold_margin(self, s):
        lv = self.log_values[self.signs != 0]
        if lv.size == 0:
            return np.inf
        return float(np.min(np.abs(lv - np.log(s))))

    def smallest_log(self):
        return float(np.min(self.log_values[self.signs == 1], initial=np.inf))

    def trace_arctan(self, s):
        lv = self.log_values[self.signs == 1]
        if lv.size == 0:
            return 0.0
        return float(np.sum(masked_arctan_of_log_ratio(lv, math.log(s))))


def levinson_row(est, eps, pair="H-", eps_bracket=0.1):
    """One ``SsfEstimator.levinson_rows`` row, with every spectrum and query
    taken from ``MaskedSpectrum``: the column spectra are the sorted
    transverse logs shifted by log M_ii (integral L) and sorted again, and
    Omega1's trace at s sums W+- traced at s t(lam, +-1)."""
    e, _, _ = est._edge(pair)
    m = est.m
    tau = est.transverse_model.spectrum
    wplus, wminus = (MaskedSpectrum(tau.log_values + math.log(est.pot.column_scale(i)), tau.signs)
                     for i in (0, 2))
    lam_in, lam_out = e * m * (1.0 - eps), e * m / (1.0 - eps)

    t = edge_threshold(lam_in, e, m)
    edge_spec = wplus if e > 0 else wminus
    lower, upper = sorted((-e * edge_spec.n_plus((1.0 - eps_bracket) * t),
                           -e * edge_spec.n_plus((1.0 + eps_bracket) * t)))
    mid_in = 0.5 * (lower + upper)

    def omega1_trace(s):
        return (wplus.trace_arctan(s * edge_threshold(lam_out, 1.0, m))
                + wminus.trace_arctan(s * edge_threshold(lam_out, -1.0, m)))

    tr_lo = omega1_trace(1.0 + eps_bracket)
    tr_hi = omega1_trace(1.0 - eps_bracket)
    lower, upper = sorted((-e * tr_lo / math.pi, -e * tr_hi / math.pi))
    mid_out = 0.5 * (lower + upper)
    return (float(eps), lam_in, lam_out, mid_in, mid_out, float(mid_out / mid_in),
            est.levinson_target(pair))


def compute_zeta(fs: FieldSpec) -> float:
    """Lower bound 2 b0 exp(-2 osc) for the first positive transverse level."""
    return 2.0 * fs.b0 * float(np.exp(-2.0 * fs.osc))


def h_perp_plus(ladder: LadderModel):
    """The raising-then-lowering transverse component a_star @ a."""
    return ladder.a_star @ ladder.a


def dense_h0_matrix(b0, m, L, N, X):
    """The (4 L N)-dimensional free operator from four ``kron`` products."""
    ladder = build_ladder(b0, L)
    momenta = (np.pi / X) * (np.arange(N) - N // 2)
    eye_ln = np.eye(L * N)
    p3 = np.kron(np.eye(L), np.diag(momenta))
    a_up = np.kron(ladder.a, np.eye(N))
    a_dn = np.kron(ladder.a_star, np.eye(N))
    z = np.zeros_like(p3)
    return np.block([
        [m * eye_ln, z, p3, a_up],
        [z, m * eye_ln, a_dn, -p3],
        [p3, a_up, -m * eye_ln, z],
        [a_dn, -p3, z, -m * eye_ln],
    ])


def gather_fibers(matrix, L, N):
    """The (N, 4 L, 4 L) fibers of a dense matrix, row c N + j for state c of
    fiber j; refuses a matrix with an entry between different momenta."""
    idx = np.arange(4 * L)[None, :] * N + np.arange(N)[:, None]
    fibers = matrix[idx[:, :, None], idx[:, None, :]]
    if np.count_nonzero(fibers) != np.count_nonzero(matrix):
        raise AssertionError("momentum fibers not decoupled: the matrix has "
                             "entries between different p3 values")
    return fibers


def one_shot_log_integral(log_f, lo, hi, *, tol, n0, n_max=8192):
    """The unblocked rule: each rule evaluates every row's nodes at once.

    The shift is each row's maximum over the first rule; the node count
    doubles on the remainder
    rem = log(sum w exp(log_f - shift)); the value is shift + (log(half) + rem).
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    shift = prev = None
    n = n0
    while n <= n_max:
        x, w = gauss_legendre(n)
        vals = log_f(half[:, None] * x[None, :] + mid[:, None], slice(None))
        if shift is None:
            shift = np.max(vals, axis=1)
        rem = np.log(np.einsum("ij,j->i", np.exp(vals - shift[:, None]), w))
        if prev is not None:
            if np.max(np.abs(rem - prev)) <= tol:
                return shift + (np.log(half) + rem), n
        prev = rem
        n *= 2
    raise AssertionError("reference rule did not stabilise")


def gaussian_log_value(eta, amplitude):
    """log of amplitude * exp(-eta r^2) as one expression."""
    log_amp = math.log(amplitude)
    return lambda r: log_amp - eta * np.asarray(r, dtype=float) ** 2


def power_log_value(exponent, amplitude):
    """log of amplitude * (1 + r^2)^(-exponent/2) as one expression."""
    log_amp = math.log(amplitude)
    return lambda r: log_amp - 0.5 * exponent * np.log1p(np.asarray(r, dtype=float) ** 2)


# general compression: angular Fourier tail allowed beyond the kept modes
FOURIER_TAIL_TOL = 1e-10


def toeplitz_general_matrix(symbol: Callable, basis: LLLBasis, angular_modes: int):
    """Dense hermitian compression of a bounded symbol U(r, theta).

    Entries <psi_j, U psi_k> couple angular momenta through the (j-k)-th
    Fourier coefficient of U; coefficients beyond ``angular_modes`` must be
    below ``FOURIER_TAIL_TOL`` times the leading one or the truncation is
    refused.  Returns (spectrum, matrix).
    """
    K = basis.K
    fs = basis.field
    n_theta = 1
    while n_theta < max(4 * angular_modes + 8, 2 * K + 2, 64):
        n_theta *= 2
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta

    # radial window covering every basis function's mass
    ks = np.arange(K)
    r_peaks = np.sqrt((2.0 * ks + 1.0) / fs.b0)
    r_hi = float(np.max(r_peaks)) + 12.0 / np.sqrt(fs.b0) + 4.0
    n_r = 256
    prev = None
    while n_r <= 16384:
        x, w = gauss_legendre(n_r)
        r = 0.5 * r_hi * (x + 1.0)
        wr = 0.5 * r_hi * w
        vals = np.asarray(symbol(r[:, None], theta[None, :]), dtype=float)
        if np.any(vals < -1e-12):
            raise ValueError("symbol must be nonnegative")
        coeffs = np.fft.fft(vals, axis=1) / n_theta  # c_m(r_i) for m >= 0 mod n
        lead = np.max(np.abs(coeffs[:, 0]), initial=0.0)
        if lead > 0.0:
            tail_idx = np.arange(angular_modes + 1, min(2 * angular_modes + 1, n_theta // 2))
            if tail_idx.size:
                tail = float(np.max(np.abs(coeffs[:, tail_idx])))
                if tail > FOURIER_TAIL_TOL * lead:
                    raise ValueError(
                        f"angular mode cutoff {angular_modes} too small: "
                        f"Fourier tail {tail:.3e} vs leading {lead:.3e}"
                    )
        # normalised radial factors w_k(r) = exp((k+1/2) ln r - phi - log_norm)
        with np.errstate(divide="ignore"):
            logs = (ks[:, None] + 0.5) * np.log(r)[None, :] - fs.phi(r)[None, :] \
                - basis.log_norms[:, None]
        wk = np.exp(logs)
        mat = np.zeros((K, K), dtype=complex)
        for m in range(0, min(angular_modes, K - 1) + 1):
            cm = coeffs[:, m]
            for j in range(m, K):
                k = j - m
                entry = np.sum(wr * wk[j] * wk[k] * cm)
                mat[j, k] = entry
                mat[k, j] = np.conj(entry)
        if prev is not None and np.max(np.abs(mat - prev)) <= 1e-12 + 1e-10 * np.max(np.abs(mat)):
            break
        prev = mat
        n_r *= 2
    eigs = np.linalg.eigvalsh(mat)
    scale = np.max(np.abs(eigs), initial=0.0)
    if scale > 0.0 and np.min(eigs) < -1e-10 * scale:
        raise ValueError(f"compression not positive semidefinite: min eigenvalue {np.min(eigs):.3e}")
    eigs = np.clip(eigs, 0.0, None)
    return LogSpectrum.from_eigenvalues(eigs, zero_floor=1e-300), mat


def mp_power_log_eig(k, exponent, b0, dps):
    """log lambda_k / A (k >= 1) for U = A (1 + r^2)^(-exponent/2) on the
    flat field, by mpmath at ``dps`` digits: the Gamma(k+1) average of
    (1 + u/c)^(-a) with a = exponent/2 and c = b0/2, integrated from the
    exact peak u* of k log u - u - a log(1 + u/c) with cuts at u* + j w,
    w the curvature width there, so that a steep exponent does not move
    the peak off the cuts."""
    import mpmath as mp

    with mp.workdps(dps):
        a, c = mp.mpf(exponent) / 2, mp.mpf(b0) / 2

        def g(u):
            return k * mp.log(u) - u - a * mp.log(1 + u / c)

        d = k - a - c
        peak = (d + mp.sqrt(d * d + 4 * k * c)) / 2
        width = 1 / mp.sqrt(k / peak ** 2 - a / (c + peak) ** 2)
        top = g(peak)
        cuts = [peak + j * width for j in (-40, -12, -4, 0, 4, 12, 40)]
        points = [mp.mpf(0)] + [x for x in cuts if x > 0] + [mp.inf]
        return mp.log(mp.quad(lambda u: mp.exp(g(u) - top), points)) + top - mp.loggamma(k + 1)


def sequential_power_recurrence(log_seed0: float, log_seed1: float, k0: int, K: int,
                                a: float, c: float) -> np.ndarray:
    """log lambda_k for k0+2 <= k < K from the logs of rows k0 and k0+1, by
    the forward recurrence of the module docstring.  The pair is carried
    relative to lambda_(k0); whenever it falls below 2^-512 both entries
    are rescaled by the same exact power of two, whose exponent the log of
    each later row adds back."""
    s, tiny = a + c, 2.0 ** -512
    x0, x1 = 1.0, math.exp(log_seed1 - log_seed0)
    # flat arrays, not lists of float objects, which held 2 MiB more at K = 37135
    n = K - k0 - 2
    xs, exps = array("d", bytes(8 * n)), array("q", bytes(8 * n))
    e = 0
    for j, k2 in enumerate(range(k0 + 2, K)):
        x0, x1 = x1, ((k2 - s) * x1 + c * x0) / k2
        if x1 < tiny:
            x1, shift = math.frexp(x1)
            x0 = math.ldexp(x0, -shift)
            e += shift
        xs[j] = x1
        exps[j] = e
    return log_seed0 + (np.log(xs) + np.multiply(exps, math.log(2.0)))


def im_s_dense_matrix(lam: float, nu3: float, m: float, grid: Grid1D) -> np.ndarray:
    """Dense Nystrom matrix of the Im S kernel (test oracle for small N)."""
    ops = RankTwoImS(lam, nu3, m, half_width=grid.half_width)
    x = grid.nodes
    sw = np.sqrt(grid.trapezoid_weights)
    w = (1.0 + x * x) ** (-nu3 / 4.0)
    diff = np.subtract.outer(x, x)
    kern = 0.5j * np.outer(w, w) * np.sin(ops.kappa * diff)
    return kern * np.outer(sw, sw)
