"""Spectral-shift estimators at the gap edges.

Inside the gap the shift function is bracketed by eigenvalue counts of a
scaled Toeplitz compression of the column-integrated potential entries;
outside the gap by arctan-traces of a positive block operator assembled
from longitudinal trigonometric moments.  Both brackets carry a
(1 +- eps) slack and exclude unknown bounded terms, so every consumer
works with ratios or differences where those terms are negligible.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ._quad import panel_integral
from .counting import LogSpectrum, _arctan_of_log_ratio, flag_near_threshold
from .kernels1d import Grid1D
from .landau import LLLBasis
from .toeplitz import (CompactSupportTail, ExponentialTail, PowerLawTail,
                       RadialProfile, ToeplitzModel, suggest_truncation,
                       toeplitz_radial_spectrum)

ARC_TAIL_TOL = 0.02
PATH_CROSSCHECK_TOL = 1e-10


@dataclass(frozen=True)
class LongitudinalProfile:
    """Nonnegative profile of the field-direction coordinate.

    ``decay`` is the tail exponent used only to pick the quadrature
    window; ``half_width`` can override it for rapidly decaying profiles.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    decay: float = math.inf
    half_width: float = 16.0

    def integral(self) -> float:
        return panel_integral(lambda x: np.asarray(self.eval(x), dtype=float),
                              -self.half_width, self.half_width, self.half_width / 16.0)

    def moments(self, k_lambda: float):
        """(cos^2, sin*cos, sin^2) moments against the profile."""
        x_hi = self.half_width
        panel = min(np.pi / (2.0 * max(k_lambda, 1e-12)), x_hi / 8.0)

        def make(f):
            return panel_integral(
                lambda x: np.asarray(self.eval(x), dtype=float) * f(k_lambda * x),
                -x_hi, x_hi, panel)

        m_cos2 = make(lambda y: np.cos(y) ** 2)
        m_mix = make(lambda y: np.sin(y) * np.cos(y))
        m_sin2 = make(lambda y: np.sin(y) ** 2)
        return m_cos2, m_mix, m_sin2


def gaussian_longitudinal(width: float = 1.0, half_width: float = 16.0) -> LongitudinalProfile:
    return LongitudinalProfile(
        eval=lambda x: np.exp(-(np.asarray(x, dtype=float) / width) ** 2),
        half_width=half_width,
    )


def _scaled_tail(law, scale: float):
    if isinstance(law, PowerLawTail):
        return PowerLawTail(law.alpha, law.u_value * scale)
    if isinstance(law, ExponentialTail):
        return law
    if isinstance(law, CompactSupportTail):
        return CompactSupportTail(law.radius, law.lower * scale)
    raise TypeError(f"unknown tail law {law!r}")


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
        r = np.linspace(0.0, 20.0, 128)
        if np.any(np.asarray(self.transverse.eval(r)) < 0):
            raise ValueError("transverse profile must be nonnegative")
        x = np.linspace(-self.longitudinal.half_width, self.longitudinal.half_width, 128)
        if np.any(np.asarray(self.longitudinal.eval(x)) < 0):
            raise ValueError("longitudinal profile must be nonnegative")
        object.__setattr__(self, "matrix_part", m)

    @cached_property
    def longitudinal_integral(self) -> float:
        return self.longitudinal.integral()

    def _column_profile(self, diag_index: int) -> RadialProfile:
        scale = float(self.matrix_part[diag_index, diag_index].real) * self.longitudinal_integral
        trans = self.transverse
        if scale == 0.0:
            return RadialProfile(eval=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                                 law=_scaled_tail(trans.law, 0.0))
        log_scale = math.log(scale)
        return RadialProfile(
            eval=lambda r: scale * np.asarray(trans.eval(r), dtype=float),
            law=_scaled_tail(trans.law, scale),
            log_eval=lambda r: log_scale + trans.log_value(r),
        )

    @cached_property
    def w_plus(self) -> RadialProfile:
        """x3-integrated (1,1) entry, the symbol governing the +m edge."""
        return self._column_profile(0)

    @cached_property
    def w_minus(self) -> RadialProfile:
        """x3-integrated (3,3) entry, the symbol governing the -m edge."""
        return self._column_profile(2)


def omega_threshold(lam: float, sign: str, m: float = 1.0) -> float:
    """Threshold map factor for the scaled gap-edge compressions.

    Counting at level s on the scaled operator equals counting the plain
    compression at s times this factor; it collapses to 0 as lam
    approaches the matching edge, which is the divergence mechanism.
    """
    if not abs(lam) < m:
        raise ValueError("threshold map defined only inside the gap")
    if sign == "+":
        return 2.0 * math.sqrt((m - lam) / (m + lam))
    if sign == "-":
        return 2.0 * math.sqrt((m + lam) / (m - lam))
    raise ValueError("sign must be '+' or '-'")


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


def build_omega1(lam: float, wplus_spec: LogSpectrum, wminus_spec: LogSpectrum,
                 m: float = 1.0) -> LogSpectrum:
    """Spectrum of the diagonal outside-gap block operator.

    Scales the +m family by (1/2) sqrt(|lam+m| / |lam-m|) and the -m
    family by the reciprocal factor, entirely in the log domain.
    """
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    log_fp = math.log(0.5) + 0.5 * (math.log(abs(lam + m)) - math.log(abs(lam - m)))
    log_fm = math.log(0.5) + 0.5 * (math.log(abs(lam - m)) - math.log(abs(lam + m)))
    return wplus_spec.scaled(log_fp).union(wminus_spec.scaled(log_fm))


def trace_arctan(spec: LogSpectrum, s: float) -> float:
    """Tr arctan(T / s) for a positive spectrum in log storage."""
    if not s > 0:
        raise ValueError("scale s must be positive")
    lv = spec.log_values[spec.signs == 1]
    if lv.size == 0:
        return 0.0
    return float(np.sum(_arctan_of_log_ratio(lv, math.log(s))))


def _cauchy_counting_integral(spec: LogSpectrum, scale: float) -> float:
    """integral_0^inf dt/(1+t^2) n_+(scale * t; spec), jump by jump.

    The integrand drops by one at t_j = lambda_j / scale; the integral is
    accumulated as count * (arctan step) over the constancy intervals.
    Summation by parts makes this equal to the plain sum of the arctans,
    so it is not an independent evaluation of them.
    """
    lv = spec.log_values[spec.signs == 1][::-1]  # ascending eigenvalues
    at = _arctan_of_log_ratio(lv - math.log(scale), 0.0)
    counts = np.arange(lv.size, 0, -1, dtype=float)
    return float(np.dot(counts, np.diff(at, prepend=0.0)))


def trace_arctan_omega1(lam: float, s: float, wplus_spec: LogSpectrum,
                        wminus_spec: LogSpectrum, m: float = 1.0) -> float:
    """Tr arctan of the outside-gap diagonal operator at scale s.

    Evaluated twice: as the direct arctan sum over the scaled spectrum
    and as the pair of Cauchy-weighted counting integrals of the plain
    compressions; the two paths must agree to 1e-10.  Both share
    ``_arctan_of_log_ratio`` and the count-step sum reduces to the plain
    sum, so the check guards only the Omega1 scale factors and the sign
    masks, not the arctan evaluation itself.
    """
    omega1 = build_omega1(lam, wplus_spec, wminus_spec, m)
    direct = trace_arctan(omega1, s)

    scale_p = 2.0 * s * math.sqrt(abs(lam - m) / abs(lam + m))
    scale_m = 2.0 * s * math.sqrt(abs(lam + m) / abs(lam - m))
    via_counting = _cauchy_counting_integral(wplus_spec, scale_p) \
        + _cauchy_counting_integral(wminus_spec, scale_m)
    if abs(direct - via_counting) > PATH_CROSSCHECK_TOL * (1.0 + abs(direct)):
        raise AssertionError(
            f"arctan-trace paths disagree: {direct!r} vs {via_counting!r}"
        )
    return direct


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


def build_omega_full(lam: float, pot: PotentialSpec, basis: LLLBasis,
                     grid: Grid1D | None = None,
                     tau_model: ToeplitzModel | None = None,
                     m: float = 1.0) -> OmegaModel:
    """Assemble the full outside-gap operator and its spectrum."""
    if not abs(lam) > m:
        raise ValueError("outside-gap operator requires |lambda| > m")
    kappa = math.sqrt(lam * lam - m * m)
    long_prof = pot.longitudinal
    if grid is not None:
        long_prof = LongitudinalProfile(long_prof.eval, long_prof.decay, grid.half_width)
    m1, m2, m3 = long_prof.moments(kappa)
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

    if tau_model is None:
        tau_model = toeplitz_radial_spectrum(pot.transverse, basis)
    log_tau = tau_model.log_eigen_by_k

    logs = []
    for qa in q_eigs:
        for cb in spinor_eigs:
            if qa <= 0.0 or cb <= 0.0:
                continue
            logs.append(log_tau + math.log(qa) + math.log(cb) - math.log(2.0 * kappa))
    if logs:
        spectrum = LogSpectrum.from_log(np.concatenate(logs))
    else:
        spectrum = LogSpectrum.from_log(np.empty(0))

    trace_sum = float(np.sum(q_eigs) * np.sum(spinor_eigs)
                      * np.exp(spectrum_logsum(log_tau)) / (2.0 * kappa))
    i_long = pot.longitudinal_integral
    w_plus_tr = mp[0, 0].real * i_long * float(np.exp(spectrum_logsum(log_tau)))
    w_minus_tr = mp[2, 2].real * i_long * float(np.exp(spectrum_logsum(log_tau)))
    bound = math.sqrt(abs(lam + m) / abs(lam - m)) * w_plus_tr \
        + math.sqrt(abs(lam - m) / abs(lam + m)) * w_minus_tr
    if trace_sum > bound * (1.0 + 1e-9):
        raise AssertionError(f"trace bound violated: {trace_sum} > {bound}")
    return OmegaModel(lam, m, (m1, m2, m3), q_eigs, spinor_eigs, log_tau,
                      spectrum, trace_sum, bound)


def spectrum_logsum(log_values: np.ndarray) -> float:
    from scipy.special import logsumexp

    if log_values.size == 0:
        return -math.inf
    return float(logsumexp(log_values))


class SsfEstimator:
    """Shared state for gap-edge shift-function estimates.

    Holds the Toeplitz compressions of the two column-integrated symbols
    at a truncation adequate for the requested threshold range, plus the
    bare transverse compression used by the outside-gap block operator.
    """

    def __init__(self, pot: PotentialSpec, basis_plus: LLLBasis,
                 basis_minus: LLLBasis | None = None, m: float = 1.0):
        self.pot = pot
        self.m = m
        self.basis_plus = basis_plus
        self.basis_minus = basis_minus if basis_minus is not None else basis_plus

    @classmethod
    def for_threshold(cls, pot: PotentialSpec, field, s_min: float, m: float = 1.0,
                      k_cap: int = 200_000):
        """Size the basis from the symbol law so counting at s_min is valid."""
        from .landau import build_lll_basis

        k_plus = min(suggest_truncation(pot.w_plus.law, s_min, field.b0), k_cap)
        k_minus = min(suggest_truncation(pot.w_minus.law, s_min, field.b0), k_cap)
        bp = build_lll_basis(field, max(k_plus, 8))
        bm = bp if k_minus <= k_plus else build_lll_basis(field, k_minus)
        return cls(pot, bp, bm, m)

    @cached_property
    def wplus_model(self) -> ToeplitzModel:
        return toeplitz_radial_spectrum(self.pot.w_plus, self.basis_plus)

    @cached_property
    def wminus_model(self) -> ToeplitzModel:
        return toeplitz_radial_spectrum(self.pot.w_minus, self.basis_minus)

    @cached_property
    def tau_model(self) -> ToeplitzModel:
        return toeplitz_radial_spectrum(self.pot.transverse, self.basis_plus)

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
        toward_plus = lam >= 0.0
        if (pair == "H+" and toward_plus) or (pair == "H-" and not toward_plus):
            return BracketEstimate(0.0, 0.0, eps, None, bounded=True)
        if pair == "H-":
            t = omega_threshold(lam, "+", self.m)
            model = self.wplus_model
            s_lo, s_hi = (1.0 - eps) * t, (1.0 + eps) * t
            self._check_thresholds(model, (s_lo, s_hi))
            lower = -float(model.spectrum.n_plus(s_lo))
            upper = -float(model.spectrum.n_plus(s_hi))
        elif pair == "H+":
            t = omega_threshold(lam, "-", self.m)
            model = self.wminus_model
            s_lo, s_hi = (1.0 - eps) * t, (1.0 + eps) * t
            self._check_thresholds(model, (s_lo, s_hi))
            lower = float(model.spectrum.n_plus(s_hi))
            upper = float(model.spectrum.n_plus(s_lo))
        else:
            raise ValueError("pair must be 'H+' or 'H-'")
        return BracketEstimate(lower, upper, eps, t)

    def _check_thresholds(self, model: ToeplitzModel, thresholds):
        for s in thresholds:
            model.require_adequate(s)
            if flag_near_threshold(model.spectrum, s):
                raise ValueError(
                    f"threshold {s:g} collides with an eigenvalue; shift lambda"
                )

    # -- outside the gap -----------------------------------------------

    def omega1_spectrum(self, lam: float) -> LogSpectrum:
        return build_omega1(lam, self.wplus_model.spectrum,
                            self.wminus_model.spectrum, self.m)

    def outside_bracket(self, lam: float, eps: float, pair: str,
                        use_full_omega: bool = False,
                        grid: Grid1D | None = None) -> BracketEstimate:
        """arctan-trace bracket for the shift function outside the gap."""
        if not 0.0 < eps < 1.0:
            raise ValueError("slack eps must lie in (0, 1)")
        if not abs(lam) > self.m:
            raise ValueError("outside bracket requires |lambda| > m")
        if pair == "H-" and lam > self.m:
            sign = -1.0
        elif pair == "H+" and lam < -self.m:
            sign = 1.0
        else:
            raise ValueError(
                "divergent asymptotics outside the gap pair H- with the +m edge "
                "and H+ with the -m edge; other combinations are not estimated"
            )
        if use_full_omega:
            spec = build_omega_full(lam, self.pot, self.basis_plus, grid,
                                    tau_model=self.tau_model, m=self.m).spectrum
            tr_lo = trace_arctan(spec, 1.0 + eps)
            tr_hi = trace_arctan(spec, 1.0 - eps)
        else:
            wp, wm = self.wplus_model.spectrum, self.wminus_model.spectrum
            tr_lo = trace_arctan_omega1(lam, 1.0 + eps, wp, wm, self.m)
            tr_hi = trace_arctan_omega1(lam, 1.0 - eps, wp, wm, self.m)
        self._check_arctan_tail(lam, 1.0 - eps, tr_hi)
        if sign < 0:
            return BracketEstimate(-tr_hi / math.pi, -tr_lo / math.pi, eps)
        return BracketEstimate(tr_lo / math.pi, tr_hi / math.pi, eps)

    def _check_arctan_tail(self, lam: float, s: float, trace_value: float):
        """Abort when the truncated arctan sum visibly misses tail mass.

        The tail contribution is bounded by the scaled tail eigenvalue sum
        (arctan is below its argument); it must stay negligible against
        the computed trace.
        """
        budget = max(ARC_TAIL_TOL, 1e-2 * abs(trace_value))
        for model, edge in ((self.wplus_model, "+"), (self.wminus_model, "-")):
            spec = model.spectrum
            lv = spec.log_values[spec.signs == 1][::-1]  # ascending
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
            factor = 0.5 * math.sqrt(abs(lam + self.m) / abs(lam - self.m))
            if edge == "-":
                factor = 0.5 * math.sqrt(abs(lam - self.m) / abs(lam + self.m))
            if factor * tail_sum / s > budget:
                raise TruncatedTailError(
                    f"arctan tail estimate {factor * tail_sum / s:.3e} exceeds "
                    f"budget {budget:.3e}; enlarge the basis"
                )

    # -- leading-order predictions and Levinson ratios ------------------

    def predict(self, lam: float, side: str, pair: str) -> float:
        """Leading asymptotic value of the shift function near an edge."""
        from .asymptotics import law_for_profile

        m = self.m
        if pair == "H-":
            profile, b0 = self.pot.w_plus, self.basis_plus.field.b0
            if side == "inside":
                arg = 2.0 * math.sqrt((m - lam) / (m + lam))
                return -law_for_profile(profile, b0).value(arg)
            arg = 2.0 * math.sqrt(abs(lam - m) / abs(lam + m))
            return -self._outside_prefactor(profile) \
                * law_for_profile(profile, b0).value(arg)
        if pair == "H+":
            profile, b0 = self.pot.w_minus, self.basis_minus.field.b0
            if side == "inside":
                arg = 2.0 * math.sqrt((m + lam) / (m - lam))
                return law_for_profile(profile, b0).value(arg)
            arg = 2.0 * math.sqrt(abs(lam + m) / abs(lam - m))
            return self._outside_prefactor(profile) \
                * law_for_profile(profile, b0).value(arg)
        raise ValueError("pair must be 'H+' or 'H-'")

    @staticmethod
    def _outside_prefactor(profile: RadialProfile) -> float:
        """Ratio of the outside to the inside leading constant."""
        law = profile.law
        if isinstance(law, PowerLawTail):
            return 1.0 / (2.0 * math.cos(math.pi / law.alpha))
        return 0.5

    def levinson_target(self, pair: str) -> float:
        profile = self.pot.w_plus if pair == "H-" else self.pot.w_minus
        return self._outside_prefactor(profile)

    def levinson_rows(self, eps_sequence, pair: str = "H-",
                      eps_bracket: float = 0.1):
        """Midpoint ratio outside/inside at mirrored distances from the edge.

        Rows are (eps, lambda_inside, lambda_outside, mid_inside,
        mid_outside, ratio, target); the ratio converges to the target as
        eps decreases.
        """
        target = self.levinson_target(pair)
        sgn = 1.0 if pair == "H-" else -1.0
        rows = []
        for eps in eps_sequence:
            lam_in = sgn * self.m * (1.0 - eps)
            lam_out = sgn * self.m / (1.0 - eps)
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

def gap_edge_factor(pot: PotentialSpec, basis: LLLBasis, grid: Grid1D,
                    lam: float, sign: str, m: float = 1.0,
                    tau_model: ToeplitzModel | None = None) -> np.ndarray:
    """Explicit factor K of the scaled gap-edge operator c * K^H K.

    The transverse action of the square-rooted potential is realised
    through the matrix square root of the Toeplitz compression (diagonal
    here), the longitudinal action through pointwise square roots on the
    grid, and the spinor action through the PSD square root of the matrix
    part.  This makes K K^H equal a projected multiplication operator
    literally at finite rank, so the nonzero spectra of K^H K and K K^H
    must coincide exactly.
    """
    if not abs(lam) < m:
        raise ValueError("gap-edge factorisation requires |lambda| < m")
    if tau_model is None:
        tau_model = toeplitz_radial_spectrum(pot.transverse, basis)
    theta = np.exp(0.5 * tau_model.log_eigen_by_k)

    x = grid.nodes
    w = grid.trapezoid_weights
    long_vals = np.asarray(pot.longitudinal.eval(x), dtype=float)
    sqrt_long = np.sqrt(np.clip(long_vals * w, 0.0, None))

    eigval, eigvec = np.linalg.eigh(pot.matrix_part)
    sqrt_m = (eigvec * np.sqrt(np.clip(eigval, 0.0, None))) @ eigvec.conj().T
    row = sqrt_m[0] if sign == "+" else sqrt_m[2]

    if sign == "+":
        prefactor = 0.5 * math.sqrt((m + lam) / (m - lam))
    else:
        prefactor = 0.5 * math.sqrt((m - lam) / (m + lam))
    factor = np.kron(np.diag(theta), np.kron(sqrt_long, row))
    return math.sqrt(prefactor) * factor


def sweep_rows(estimator: SsfEstimator, lams, eps: float, pair: str,
               side: str, use_full_omega: bool = False):
    """(lambda, eps, lower, upper, prediction, midpoint/prediction) rows.

    Lambdas too far from the edge fall outside the validity window of the
    logarithmic laws; those rows carry nan predictions instead of dying.
    """
    rows = []
    for lam in lams:
        if side == "inside":
            br = estimator.inside_bracket(lam, eps, pair)
        else:
            br = estimator.outside_bracket(lam, eps, pair, use_full_omega)
        try:
            pred = estimator.predict(lam, side, pair)
        except ValueError:
            pred = math.nan
        ratio = br.midpoint / pred if pred != 0.0 else math.nan
        rows.append((float(lam), float(eps), br.lower, br.upper, pred, ratio))
    return rows
