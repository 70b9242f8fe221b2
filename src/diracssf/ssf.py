"""Spectral-shift estimators at the gap edges.

Inside the gap the shift function is bracketed by eigenvalue counts of a
scaled Toeplitz compression of the column-integrated potential entries;
outside the gap by arctan-traces of the diagonal operator Omega1 built
from the same two compressions, which are one compression pTp scaled:
for V = M T(r) L(x3) the symbols are W+- = M_ii (integral L) T, i = 1, 3.
The full block operator, assembled from longitudinal trigonometric
moments, is kept as a reference for Omega1.
Both sides count at one threshold map t(lam), ``edge_threshold``.
Leading-order predictions read the transverse tail law: its counting
law n(t) and, outside the gap, its outside-to-inside constant
(1 / (2 cos(pi/alpha)) for power tails, 1/2 otherwise).
Both brackets carry a (1 +- eps) slack and exclude unknown bounded terms,
so every consumer works with ratios or differences where those terms are
negligible.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._quad import _row_logsumexp, panel_integral
from .counting import LogSpectrum, _arctan_of_log_ratio
from .kernels1d import Grid1D
from .landau import LLLBasis
from .toeplitz import RadialProfile, ToeplitzModel, toeplitz_radial_spectrum

ARC_TAIL_TOL = 0.02
# LongitudinalProfile integrals run over [-LONG_HALF_WIDTH, LONG_HALF_WIDTH]
LONG_HALF_WIDTH = 16.0
# Narrowest Gaussian width the fixed longitudinal panels resolve.
# `LongitudinalProfile.integral` uses panels of LONG_HALF_WIDTH / 16 and
# `moments` panels of up to LONG_HALF_WIDTH / 8.  The integral is exact at
# width 0.005 and fails to stabilise at 0.003; the moments are exact at
# 0.01 and fail at 0.005; width 1e-6 silently integrates to 0.  The bound
# keeps a 2x margin over the moments.
MIN_LONG_WIDTH = 0.02


@dataclass(frozen=True)
class LongitudinalProfile:
    """Nonnegative profile of the field-direction coordinate.

    Its integrals run over [-LONG_HALF_WIDTH, LONG_HALF_WIDTH].
    """

    eval: Callable[[np.ndarray], np.ndarray]

    def integral(self) -> float:
        return panel_integral(lambda x: np.asarray(self.eval(x), dtype=float),
                              -LONG_HALF_WIDTH, LONG_HALF_WIDTH, LONG_HALF_WIDTH / 16.0)

    def moments(self, k_lambda: float):
        """(cos^2, sin*cos, sin^2) moments against the profile."""
        x_hi = LONG_HALF_WIDTH
        panel = min(np.pi / (2.0 * max(k_lambda, 1e-12)), x_hi / 8.0)

        def make(f):
            return panel_integral(
                lambda x: np.asarray(self.eval(x), dtype=float) * f(k_lambda * x),
                -x_hi, x_hi, panel)

        m_cos2 = make(lambda y: np.cos(y) ** 2)
        m_mix = make(lambda y: np.sin(y) * np.cos(y))
        m_sin2 = make(lambda y: np.sin(y) ** 2)
        return m_cos2, m_mix, m_sin2


def gaussian_longitudinal(width: float = 1.0) -> LongitudinalProfile:
    if not width >= MIN_LONG_WIDTH:
        raise ValueError(f"longitudinal width {width!r} is below {MIN_LONG_WIDTH!r}, "
                         "the narrowest the fixed panels resolve")
    return LongitudinalProfile(lambda x: np.exp(-(np.asarray(x, dtype=float) / width) ** 2))


@dataclass(frozen=True)
class PotentialSpec:
    """Separable matrix potential M * T(r_perp) * L(x3) with decay metadata.

    The matrix part must be positive semidefinite and the scalar factors
    nonnegative, so the potential is sign-definite; ``nu`` records the
    joint decay exponent and must exceed 3 for the shift function to be
    defined through resolvent-difference traces.
    """

    matrix_part: np.ndarray
    transverse: RadialProfile
    longitudinal: LongitudinalProfile
    nu: float

    def __post_init__(self):
        m = np.asarray(self.matrix_part, dtype=complex)
        if m.shape != (4, 4) or np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("matrix part must be a hermitian 4x4 matrix")
        eig = np.linalg.eigvalsh(m)
        if eig[0] < -1e-12 * max(1.0, eig[-1]):
            raise ValueError("matrix part must be positive semidefinite")
        if not self.nu > 3:
            raise ValueError("potential decay exponent nu must exceed 3")
        x = np.linspace(-LONG_HALF_WIDTH, LONG_HALF_WIDTH, 128)
        if np.any(np.asarray(self.longitudinal.eval(x)) < 0):
            raise ValueError("longitudinal profile must be nonnegative")
        object.__setattr__(self, "matrix_part", m)

    @cached_property
    def longitudinal_integral(self) -> float:
        return self.longitudinal.integral()

    def column_scale(self, diag_index: int) -> float:
        """M_ii times the integral of L: the column symbol is this times T."""
        return float(self.matrix_part[diag_index, diag_index].real) * self.longitudinal_integral

    def _column_profile(self, diag_index: int) -> RadialProfile:
        scale = self.column_scale(diag_index)
        trans = self.transverse
        if scale == 0.0:
            return RadialProfile(lambda r: np.full(np.shape(r), -np.inf), trans.law.scaled(0.0))
        log_scale = math.log(scale)
        return RadialProfile(lambda r: log_scale + trans.log_value(r), trans.law.scaled(scale))

    @cached_property
    def w_plus(self) -> RadialProfile:
        """x3-integrated (1,1) entry, the symbol governing the +m edge."""
        return self._column_profile(0)

    @cached_property
    def w_minus(self) -> RadialProfile:
        """x3-integrated (3,3) entry, the symbol governing the -m edge."""
        return self._column_profile(2)


def edge_threshold(lam: float, edge: float, m: float = 1.0) -> float:
    """Threshold map 2 sqrt(|lam - edge m| / |lam + edge m|) at the edge
    edge * m (edge = +-1), on either side of the gap; it collapses to 0 as
    lam approaches that edge, which is the divergence mechanism."""
    return 2.0 * math.sqrt(abs(lam - edge * m) / abs(lam + edge * m))


@dataclass(frozen=True)
class BracketEstimate:
    """(lower, upper) bracket with its slack; bounded terms excluded."""

    lower: float
    upper: float
    epsilon: float
    threshold: float | None = None
    bounded: bool = False

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError("bracket lower end exceeds upper end")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def omega1_log_factors(lam: float, m: float = 1.0) -> tuple[float, float]:
    """Logs of the Omega1 scale factors (1/2) sqrt(|lam+-m| / |lam-+m|).

    The first scales the +m family, the second the -m family.
    """
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    log_fp = math.log(0.5) + 0.5 * (math.log(abs(lam + m)) - math.log(abs(lam - m)))
    log_fm = math.log(0.5) + 0.5 * (math.log(abs(lam - m)) - math.log(abs(lam + m)))
    return log_fp, log_fm


def build_omega1(lam: float, wplus_spec: LogSpectrum, wminus_spec: LogSpectrum,
                 m: float = 1.0) -> LogSpectrum:
    """Spectrum of the diagonal outside-gap block operator, in log storage."""
    log_fp, log_fm = omega1_log_factors(lam, m)
    return wplus_spec.scaled(log_fp).union(wminus_spec.scaled(log_fm))


def trace_arctan(spec: LogSpectrum, s: float) -> float:
    """Tr arctan(T / s) for a positive spectrum in log storage.

    Reads the sorted positive group, split at log(T/s) = +-30 into
    contiguous slices by binary search.
    """
    if not s > 0:
        raise ValueError("scale s must be positive")
    lv = spec.positive_logs
    if lv.size == 0:
        return 0.0
    return float(np.sum(_arctan_of_log_ratio(lv, math.log(s))))


@dataclass(frozen=True)
class OmegaModel:
    """Tensor-factored outside-gap block operator for a separable potential.

    For V = M * T(r) L(x3) the operator factorises into a 2x2 Gram matrix
    of (cos, sin) under L, the Toeplitz compression of T, and a 2x2
    spinor block; the spectrum is the product set of the three factors
    over 2 kappa.
    """

    lam: float
    m: float
    moments: tuple
    q_eigs: np.ndarray
    spinor_eigs: np.ndarray
    log_tau: np.ndarray
    spectrum: LogSpectrum
    trace_sum: float
    trace_bound: float


def build_omega_full(est: "SsfEstimator", lam: float) -> OmegaModel:
    """Assemble the full outside-gap operator and its spectrum."""
    pot, m = est.pot, est.m
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    kappa = math.sqrt(lam * lam - m * m)
    m1, m2, m3 = pot.longitudinal.moments(kappa)
    q = np.array([[m1, m2], [m2, m3]])
    q_eigs = np.clip(np.linalg.eigvalsh(q), 0.0, None)

    mp = pot.matrix_part
    spinor = np.array(
        [
            [abs(lam + m) * mp[0, 0].real, kappa * mp[0, 2]],
            [kappa * np.conj(mp[0, 2]), abs(lam - m) * mp[2, 2].real],
        ],
        dtype=complex,
    )
    spinor_eigs = np.clip(np.linalg.eigvalsh(spinor), 0.0, None)

    log_tau = est.transverse_model.log_eigen_by_k

    logs = []
    for qa in q_eigs:
        for cb in spinor_eigs:
            if qa <= 0.0 or cb <= 0.0:
                continue
            logs.append(log_tau + math.log(qa) + math.log(cb) - math.log(2.0 * kappa))
    spectrum = LogSpectrum.from_log(np.concatenate(logs) if logs else np.empty(0))

    tau_trace = float(np.exp(spectrum_logsum(log_tau)))
    trace_sum = float(np.sum(q_eigs) * np.sum(spinor_eigs) * tau_trace / (2.0 * kappa))
    # Tr W+- = M_ii (integral L) Tr pTp
    bound = tau_trace * (math.sqrt(abs(lam + m) / abs(lam - m)) * pot.column_scale(0)
                         + math.sqrt(abs(lam - m) / abs(lam + m)) * pot.column_scale(2))
    if trace_sum > bound * (1.0 + 1e-9):
        raise AssertionError(f"trace bound violated: {trace_sum} > {bound}")
    return OmegaModel(lam, m, (m1, m2, m3), q_eigs, spinor_eigs, log_tau,
                      spectrum, trace_sum, bound)


def spectrum_logsum(log_values: np.ndarray) -> float:
    if log_values.size == 0:
        return -math.inf
    return float(_row_logsumexp(log_values[None, :])[0])


class SsfEstimator:
    """Shared state for gap-edge shift-function estimates.

    Holds the Toeplitz compression of the transverse profile in one
    basis, whose truncation must be adequate for the requested threshold
    range, and the two column-symbol compressions as scaled views of it.
    """

    def __init__(self, pot: PotentialSpec, basis: LLLBasis, m: float = 1.0):
        self.pot = pot
        self.m = m
        self.basis = basis

    @cached_property
    def transverse_model(self) -> ToeplitzModel:
        """pTp: the estimator's one radial quadrature."""
        return toeplitz_radial_spectrum(self.pot.transverse, self.basis)

    def _column_model(self, profile: RadialProfile, diag_index: int) -> ToeplitzModel:
        """pWp for W = M_ii (integral L) T: pTp times that scale, no quadrature."""
        tau, scale = self.transverse_model, self.pot.column_scale(diag_index)
        if scale == 0.0 or tau.log_eigen_by_k is None:  # the zero operator
            return ToeplitzModel(self.basis, profile,
                                 LogSpectrum.from_eigenvalues(np.zeros(self.basis.K)))
        log_scale = math.log(scale)
        return ToeplitzModel(self.basis, profile, tau.spectrum.scaled(log_scale),
                             log_eigen_by_k=tau.log_eigen_by_k + log_scale)

    @cached_property
    def wplus_model(self) -> ToeplitzModel:
        return self._column_model(self.pot.w_plus, 0)

    @cached_property
    def wminus_model(self) -> ToeplitzModel:
        return self._column_model(self.pot.w_minus, 2)

    def _edge(self, pair: str):
        """(edge sign e, column symbol, its compression): H- diverges at the
        +m edge (e = 1, W+), H+ at the -m edge (e = -1, W-)."""
        if pair == "H-":
            return 1.0, self.pot.w_plus, self.wplus_model
        if pair == "H+":
            return -1.0, self.pot.w_minus, self.wminus_model
        raise ValueError("pair must be 'H+' or 'H-'")

    # -- inside the gap ------------------------------------------------

    def inside_bracket(self, lam: float, eps: float, pair: str) -> BracketEstimate:
        """Counting bracket for the shift function inside the gap.

        The pair whose eigenvalues do not accumulate at the probed edge
        gets the degenerate bracket [0, 0] flagged ``bounded``.
        """
        if not abs(lam) < self.m:
            raise ValueError("inside bracket requires |lambda| < m")
        if not 0.0 < eps < 1.0:
            raise ValueError("slack eps must lie in (0, 1)")
        e, _, model = self._edge(pair)
        if (lam >= 0.0) != (e > 0):
            return BracketEstimate(0.0, 0.0, eps, None, bounded=True)
        t = edge_threshold(lam, e, self.m)
        s_lo, s_hi = (1.0 - eps) * t, (1.0 + eps) * t
        model.require_adequate(s_lo)
        model.require_adequate(s_hi)
        # H- counts -n_+ at the +m edge, H+ counts +n_+ at the -m edge
        lower, upper = sorted((-e * model.spectrum.n_plus(s_lo),
                               -e * model.spectrum.n_plus(s_hi)))
        return BracketEstimate(lower, upper, eps, t)

    # -- outside the gap -----------------------------------------------

    def outside_bracket(self, lam: float, eps: float, pair: str) -> BracketEstimate:
        """arctan-trace bracket for the shift function outside the gap."""
        if not 0.0 < eps < 1.0:
            raise ValueError("slack eps must lie in (0, 1)")
        if not abs(lam) > self.m:
            raise ValueError("outside bracket requires |lambda| > m")
        e, _, _ = self._edge(pair)
        if not e * lam > self.m:
            raise ValueError(
                "divergent asymptotics outside the gap pair H- with the +m edge "
                "and H+ with the -m edge; other combinations are not estimated"
            )
        omega1 = build_omega1(lam, self.wplus_model.spectrum,
                              self.wminus_model.spectrum, self.m)
        tr_lo = trace_arctan(omega1, 1.0 + eps)
        tr_hi = trace_arctan(omega1, 1.0 - eps)
        self._check_arctan_tail(lam, 1.0 - eps, tr_hi)
        # H- (+m edge) carries the minus sign, H+ (-m edge) the plus sign
        lower, upper = sorted((-e * tr_lo / math.pi, -e * tr_hi / math.pi))
        return BracketEstimate(lower, upper, eps)

    def _check_arctan_tail(self, lam: float, s: float, trace_value: float):
        """Abort when the truncated arctan sum visibly misses tail mass.

        The tail contribution is bounded by the scaled tail eigenvalue sum
        (arctan is below its argument); it must stay negligible against
        the computed trace.
        """
        budget = max(ARC_TAIL_TOL, 1e-2 * abs(trace_value))
        for model, log_f in zip((self.wplus_model, self.wminus_model),
                                omega1_log_factors(lam, self.m)):
            lv = model.spectrum.positive_logs[::-1]  # ascending
            if lv.size < 4:
                continue
            ratio = math.exp(lv[0] - lv[1])  # local decay at the bottom
            if not ratio < 0.999999:
                raise TruncatedTailError("spectrum bottom is not decaying")
            # crude upper envelope: geometric continuation for exponential
            # tails, k^(-2)-type continuation otherwise
            tail_geo = math.exp(lv[0]) * ratio / (1.0 - ratio)
            tail_pow = math.exp(lv[0]) * lv.size
            tail_sum = min(tail_geo, tail_pow) if ratio > 0.99 else tail_geo
            tail = math.exp(log_f) * tail_sum / s
            if tail > budget:
                raise TruncatedTailError(
                    f"arctan tail estimate {tail:.3e} exceeds "
                    f"budget {budget:.3e}; enlarge the basis"
                )

    # -- leading-order predictions and Levinson ratios ------------------

    def predict(self, lam: float, side: str, pair: str) -> float:
        """Leading asymptotic value of the shift function near the edge e m:
        -e n(edge_threshold(lam, e)) on both sides of the gap, with the edge
        symbol's counting law n, times its outside prefactor outside.  A
        zero edge symbol compresses to the zero operator and predicts 0
        under every law."""
        e, profile, model = self._edge(pair)
        if model.log_eigen_by_k is None:
            return 0.0
        value = profile.law.count(edge_threshold(lam, e, self.m), self.basis.field.b0)
        if side != "inside":
            value *= profile.law.outside_prefactor()
        return -e * value

    def levinson_target(self, pair: str) -> float:
        return self._edge(pair)[1].law.outside_prefactor()

    def levinson_rows(self, eps_sequence, pair: str = "H-",
                      eps_bracket: float = 0.1):
        """Midpoint ratio outside/inside at mirrored distances from the edge.

        Rows are (eps, lambda_inside, lambda_outside, mid_inside,
        mid_outside, ratio, target); the ratio converges to the target as
        eps decreases.
        """
        target = self.levinson_target(pair)
        e = self._edge(pair)[0]
        rows = []
        for eps in eps_sequence:
            lam_in = e * self.m * (1.0 - eps)
            lam_out = e * self.m / (1.0 - eps)
            inside = self.inside_bracket(lam_in, eps_bracket, pair)
            outside = self.outside_bracket(lam_out, eps_bracket, pair)
            if inside.midpoint == 0.0:
                raise ZeroDivisionError(
                    "inside estimate vanished; lambda too far from the edge "
                    "or truncation too small"
                )
            ratio = outside.midpoint / inside.midpoint
            rows.append((float(eps), lam_in, lam_out, inside.midpoint,
                         outside.midpoint, float(ratio), target))
        return rows


class TruncatedTailError(RuntimeError):
    """The truncated spectrum misses non-negligible arctan tail mass."""


# -- finite-rank realisation of the factorised gap-edge operators --------

def gap_edge_factor(est: SsfEstimator, grid: Grid1D, lam: float,
                    edge: float) -> np.ndarray:
    """Explicit factor K of the scaled gap-edge operator c * K^H K at the
    edge ``edge`` * m (edge = +-1).

    The transverse action of the square-rooted potential is realised
    through the matrix square root of the Toeplitz compression (diagonal
    here), the longitudinal action through pointwise square roots on the
    grid, and the spinor action through the PSD square root of the matrix
    part.  This makes K K^H equal a projected multiplication operator
    literally at finite rank, so the nonzero spectra of K^H K and K K^H
    must coincide exactly.
    """
    pot, m = est.pot, est.m
    if not abs(lam) < m:
        raise ValueError("gap-edge factorisation requires |lambda| < m")
    theta = np.exp(0.5 * est.transverse_model.log_eigen_by_k)

    x = grid.nodes
    w = grid.trapezoid_weights
    long_vals = np.asarray(pot.longitudinal.eval(x), dtype=float)
    sqrt_long = np.sqrt(np.clip(long_vals * w, 0.0, None))

    eigval, eigvec = np.linalg.eigh(pot.matrix_part)
    sqrt_m = (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.conj().T
    row = sqrt_m[0] if edge > 0 else sqrt_m[2]
    # the gap-edge operator is the compression over its threshold map
    prefactor = 1.0 / edge_threshold(lam, edge, m)
    factor = np.kron(np.diag(theta), np.kron(sqrt_long, row))
    return math.sqrt(prefactor) * factor


def sweep_rows(estimator: SsfEstimator, lams, eps: float, pair: str, side: str):
    """(lambda, eps, lower, upper, prediction, midpoint/prediction) rows.

    Lambdas too far from the edge fall outside the validity window of the
    logarithmic laws; those rows carry nan predictions instead of dying.
    """
    rows = []
    for lam in lams:
        if side == "inside":
            br = estimator.inside_bracket(lam, eps, pair)
        else:
            br = estimator.outside_bracket(lam, eps, pair)
        try:
            pred = estimator.predict(lam, side, pair)
        except ValueError:
            pred = math.nan
        ratio = br.midpoint / pred if pred != 0.0 else math.nan
        rows.append((float(lam), float(eps), br.lower, br.upper, pred, ratio))
    return rows
