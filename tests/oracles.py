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
"""

import math

import numpy as np

from diracssf._quad import gauss_legendre
from diracssf.landau import build_ladder
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
