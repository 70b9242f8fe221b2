"""Berezin-Toeplitz compressions pUp in the truncated zero-mode basis.

Radial symbols have a fast path: the compression is diagonal in angular
momentum and each eigenvalue is a ratio of weighted radial moments,
evaluated as a difference of log-integrals.  General bounded symbols go
through a dense hermitian matrix whose (j, k) entry picks out the
(j-k)-th angular Fourier coefficient of the symbol.

A radial symbol's decay class is one of three tail laws, and each tail
owns everything that depends on its class: the small-threshold counting
law n(s) of pUp (a power of s for power tails, powers of |log s| for
stretched exponentials, |log s| / log|log s| for compact support, all
from the level-set form b0 / 2 pi times the area where U > s), the basis
depth that resolves a threshold, its rescaling by a constant factor, and
the outside-to-inside constant of the Levinson ratio.

Two truncation rules size a radial basis.  ``suggest_truncation`` inverts
the law for an eigenvalue depth of ``ADEQUACY_MARGIN`` times the smallest
threshold; the gap-edge estimators use it (the arctan trace needs tail
mass), and the Toeplitz-asymptotics scenario uses it only as the fallback
when the count certificate fails.  ``count_truncation`` sizes K from the
law's count instead, and ``ToeplitzModel.count_certified`` accepts it: for
a radially nonincreasing U, lambda_k is the mean of U under densities
p_k ~ r^(2k+1) e^(-2 phi) whose ratio p_(k+1) / p_k ~ r^2 increases, so
lambda_k is nonincreasing in k for every phi-tilde (monotone likelihood
ratio), and n_+(s) is exact once lambda_(K-1) < s.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import gauss_legendre, log_integral_batch
from .counting import THRESHOLD_FLAG_TOL, LogSpectrum, flag_near_threshold
from .landau import LLLBasis, log_radial_moments

ADEQUACY_MARGIN = 1e-3
# general compression: angular Fourier tail allowed beyond the kept modes
FOURIER_TAIL_TOL = 1e-10
# both truncation rules: K = ceil(TRUNCATION_MARGIN * law estimate) + TRUNCATION_SPARE
TRUNCATION_MARGIN = 1.6
TRUNCATION_SPARE = 8
# _log_plane_integral: the node count doubles from PLANE_N0 until the
# log-integral is stable to PLANE_TOL
PLANE_TOL = 1e-11
PLANE_N0 = 128


class TruncationError(RuntimeError):
    """The compression cannot count exactly at the requested threshold:
    the basis is too small, or an eigenvalue sits on the threshold."""


class NonIntegrableError(ValueError):
    """Symbol power is not integrable over the plane."""


@dataclass(frozen=True)
class PowerLawTail:
    """U(r) ~ u_value * r^(-alpha) at infinity (radial angular factor)."""

    alpha: float
    u_value: float = 1.0

    def count(self, s: float, b0: float) -> float:
        """n(s) ~ s^(-2/alpha) * b0/(4 pi) * integral of u^(2/alpha) d theta."""
        if not s > 0:
            raise ValueError("threshold must be positive")
        angular_integral = 2.0 * np.pi * self.u_value ** (2.0 / self.alpha)
        return s ** (-2.0 / self.alpha) * b0 / (4.0 * np.pi) * angular_integral

    def depth(self, target: float, b0: float) -> float:
        """Index k where the predicted lambda_k falls to ``target``."""
        # lambda_k ~ u (2k/b0)^(-alpha/2)
        return 0.5 * b0 * (max(self.u_value, 1e-300) / target) ** (2.0 / self.alpha)

    def scaled(self, c: float) -> "PowerLawTail":
        """The tail of c * U."""
        return PowerLawTail(self.alpha, self.u_value * c)

    def outside_prefactor(self) -> float:
        """Ratio of the outside to the inside leading constant."""
        return 1.0 / (2.0 * math.cos(math.pi / self.alpha))


@dataclass(frozen=True)
class ExponentialTail:
    """log U(r) ~ -eta * r^(2 beta) at infinity."""

    eta: float
    beta: float = 1.0

    def count(self, s: float, b0: float) -> float:
        """Three-branch law in the stretch exponent beta, valid on (0, 1/e)."""
        _require_log_domain(s)
        al = abs(math.log(s))
        if self.beta < 1.0:
            return 0.5 * b0 * self.eta ** (-1.0 / self.beta) * al ** (1.0 / self.beta)
        if self.beta == 1.0:
            return al / math.log1p(2.0 * self.eta / b0)
        return self.beta / (self.beta - 1.0) * al / math.log(al)

    def depth(self, target: float, b0: float) -> float:
        al = abs(np.log(target))
        if self.beta == 1.0:
            # lambda_k ~ (b0 / (b0 + 2 eta))^k
            return al / np.log1p(2.0 * self.eta / b0)
        if self.beta < 1.0:
            # invert lambda_k ~ exp(-eta (2k/b0)^beta)
            return 0.5 * b0 * (al / self.eta) ** (1.0 / self.beta) + al
        # log-log slow regime; the count law plus generous slack
        return self.beta / (self.beta - 1.0) * al / max(np.log(al), 1.0) + 4.0 * al

    def scaled(self, c: float) -> "ExponentialTail":
        return self

    def outside_prefactor(self) -> float:
        return 0.5


LOG_DOMAIN_EDGE = math.exp(-1.0)


def _require_log_domain(s: float):
    if not 0.0 < s < LOG_DOMAIN_EDGE:
        raise ValueError("threshold must lie in (0, 1/e) for the log-scale laws")


def phi_inf(s: float) -> float:
    """|log s| / log|log s|, the compact-support law on (0, 1/e)."""
    _require_log_domain(s)
    al = abs(math.log(s))
    return al / math.log(al)


@dataclass(frozen=True)
class CompactSupportTail:
    """U supported in the disc of radius R and bounded below by a positive
    constant inside it, as the law assumes; only R is recorded."""

    radius: float

    def count(self, s: float, b0: float) -> float:
        """n(s) ~ |log s| / log|log s| on (0, 1/e); no shape parameters."""
        return phi_inf(s)

    def depth(self, target: float, b0: float) -> float:
        # lambda_k ~ (b0 R^2/2)^k / k!: solve k (ln k - ln(e b0 R^2/2)) = |ln target|
        c = np.log(abs(np.log(target)) + 3.0)
        k = abs(np.log(target)) / max(c - np.log(b0 * self.radius**2 / 2.0) - 1.0, 0.5) + 8.0
        for _ in range(40):
            k = abs(np.log(target)) / max(np.log(k) - np.log(b0 * self.radius**2 / 2.0) - 1.0, 0.5) + 8.0
        return k

    def scaled(self, c: float) -> "CompactSupportTail":
        return self

    def outside_prefactor(self) -> float:
        return 0.5


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative bounded radial symbol U, given by its log, with its
    decay classification.

    ``log_value(r)`` is log U(r), -inf where U vanishes: a symbol that
    falls to e^-400 and below keeps its value where a linear form would
    underflow, and the form cannot be negative.  ``nonincreasing``
    declares U nonincreasing in r, which the count certificate of
    ``ToeplitzModel`` requires.
    """

    log_value: Callable[[np.ndarray], np.ndarray]
    law: PowerLawTail | ExponentialTail | CompactSupportTail
    nonincreasing: bool = False

    def support_radius(self):
        return self.law.radius if isinstance(self.law, CompactSupportTail) else None


def gaussian_profile(eta: float = 1.0, amplitude: float = 1.0) -> RadialProfile:
    """U(r) = amplitude * exp(-eta r^2)."""
    log_amp = math.log(amplitude)

    def log_value(r):
        # log_amp - eta r^2, in one owned buffer
        out = np.array(r, dtype=float)
        np.square(out, out=out)
        out *= eta
        return np.subtract(log_amp, out, out=out)[()]

    return RadialProfile(log_value, ExponentialTail(eta=eta, beta=1.0), nonincreasing=eta >= 0.0)


def power_profile(exponent: float, amplitude: float = 1.0) -> RadialProfile:
    """U(r) = amplitude * (1 + r^2)^(-exponent/2), tail ~ amplitude r^-exponent."""
    log_amp = math.log(amplitude)
    half_exponent = 0.5 * exponent

    def log_value(r):
        # log_amp - (exponent / 2) log1p(r^2), in one owned buffer
        out = np.array(r, dtype=float)
        np.square(out, out=out)
        np.log1p(out, out=out)
        out *= half_exponent
        return np.subtract(log_amp, out, out=out)[()]

    return RadialProfile(log_value, PowerLawTail(alpha=exponent, u_value=amplitude),
                         nonincreasing=exponent >= 0.0)


def disc_profile(radius: float = 1.0, height: float = 1.0) -> RadialProfile:
    """Indicator of the disc of given radius, scaled by ``height``."""
    log_h = math.log(height)
    return RadialProfile(
        log_value=lambda r: np.where(np.asarray(r, dtype=float) <= radius, log_h, -np.inf),
        law=CompactSupportTail(radius=radius),
        nonincreasing=height >= 0.0,
    )


@dataclass(frozen=True)
class ToeplitzModel:
    """pUp at truncation K: its log-eigenvalues in k order, None for the
    zero operator, and the sorted ``spectrum`` derived from them once."""

    basis: LLLBasis
    profile: RadialProfile
    log_eigen_by_k: np.ndarray | None
    spectrum: LogSpectrum = field(init=False)

    def __post_init__(self):
        lv = self.log_eigen_by_k
        object.__setattr__(self, "spectrum", LogSpectrum.from_eigenvalues(np.zeros(self.K))
                           if lv is None else LogSpectrum.from_log(lv))

    @property
    def K(self):
        return self.basis.K

    def _smallest_log(self) -> float:
        """log of the smallest positive kept eigenvalue (inf if none): the
        last entry of the falling positive group."""
        pos = self.spectrum.positive_logs
        return float(pos[-1]) if pos.size else math.inf

    def adequate_for(self, s: float) -> bool:
        """Truncation rule: the smallest kept eigenvalue must sit well
        below the counting threshold (factor 1e-3)."""
        smallest = self._smallest_log()
        if np.isinf(smallest):
            return True  # zero operator is adequate at every threshold
        return smallest < np.log(s) + np.log(ADEQUACY_MARGIN)

    def _certificate_failure(self, s: float) -> str | None:
        """The first failing condition of the count certificate at s, or None."""
        if not self.profile.nonincreasing:
            return "the symbol is not flagged radially nonincreasing"
        lv = self.log_eigen_by_k
        if lv is None:
            return None  # zero symbol: the count is 0 at every K
        rises = np.flatnonzero(np.diff(lv) > 0.0)
        if rises.size:
            return f"the computed eigenvalues are not nonincreasing in k (rise at k={rises[0] + 1})"
        if not lv[-1] < np.log(s):
            return f"lambda_(K-1) = exp({lv[-1]:.6g}) is not below s = exp({np.log(s):.6g})"
        if flag_near_threshold(self.spectrum, s):
            return f"an eigenvalue lies within {THRESHOLD_FLAG_TOL:g} (log scale) of the threshold"
        return None

    def count_certified(self, s: float) -> bool:
        """Exact-count certificate: n_+(s) of the full compression equals
        the count at this K.  It needs a symbol flagged nonincreasing,
        computed lambda_k nonincreasing in k, lambda_(K-1) < s and no
        eigenvalue flagged near s."""
        return self._certificate_failure(s) is None

    def require_adequate(self, s: float):
        """The one guarded read of a count at s: refuse a threshold that
        sits on an eigenvalue, then pass when the depth margin holds at s
        or the count is certified."""
        if flag_near_threshold(self.spectrum, s):
            raise TruncationError(
                f"threshold {float(s)!r} collides with an eigenvalue (within "
                f"{THRESHOLD_FLAG_TOL:g} on the log scale); shift it"
            )
        if self.adequate_for(s):
            return
        failure = self._certificate_failure(s)
        if failure is not None:
            raise TruncationError(
                f"basis K={self.K} inadequate for threshold {s:g}: "
                f"smallest positive log-eigenvalue {self._smallest_log():.2f} "
                f"vs required {np.log(s) + np.log(ADEQUACY_MARGIN):.2f}, "
                f"and the count is not certified: {failure}"
            )


def toeplitz_radial_spectrum(profile: RadialProfile, basis: LLLBasis) -> ToeplitzModel:
    """Diagonal compression of a radial symbol.

    eigenvalue_k = (integral U r^(2k+1) e^(-2 phi)) / (integral r^(2k+1)
    e^(-2 phi)), computed as a log-moment difference that reads the
    symbol's log directly, so that values like e^-400 survive untouched.
    The moments use the radial rule of the basis norms (``NORM_TOL``).
    A symbol whose log is -inf on the whole probe [0, r_probe] compresses
    to the zero operator.  No sign check is needed: a log form cannot be
    negative, and a NaN log is refused by the quadrature.
    """
    ks = np.arange(basis.K)
    r_probe = max(20.0, 2.5 * np.sqrt((2.0 * basis.K + 1.0) / basis.field.b0))
    if np.all(np.isneginf(profile.log_value(np.linspace(0.0, r_probe, 1025)))):
        return ToeplitzModel(basis, profile, None)
    log_num = log_radial_moments(basis.field, ks, log_symbol=profile.log_value,
                                 support=profile.support_radius())
    return ToeplitzModel(basis, profile, log_num - basis.log_moment_integrals)


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


@dataclass(frozen=True)
class RaikovCheck:
    ok: bool
    eigen_sum: float
    bound: float

    def __bool__(self):
        return self.ok


def _log_plane_integral(profile: RadialProfile, q: int) -> float:
    """log of integral over the plane of U^q (radial symbol).

    Compact supports integrate on [0, R] directly; unbounded tails go
    through the log-radius substitution r = e^t, which turns power and
    stretched-exponential tails alike into well-behaved bumps.  A power
    tail still above the drop target at t = 60 gets its remainder beyond
    the cutoff added in closed form.  The rule is ``log_integral_batch``
    with ``PLANE_N0`` first nodes and stability ``PLANE_TOL``.
    """
    law = profile.law
    if isinstance(law, PowerLawTail) and q * law.alpha <= 2.0:
        raise NonIntegrableError(
            f"U^{q} with tail exponent {law.alpha} is not integrable over the plane"
        )
    support = profile.support_radius()

    def integrate(lo, hi, log_f):
        val, _ = log_integral_batch(log_f, [lo], [hi], tol=PLANE_TOL, n0=PLANE_N0)
        return float(val[0])

    with np.errstate(divide="ignore"):
        if support is not None:
            val = integrate(0.0, support,
                            lambda r, rows: q * profile.log_value(r) + np.log(r))
        else:
            # r = e^t: integrand becomes U(e^t)^q e^(2t)
            t_hi = np.log(16.0)
            tail = None
            while q * float(profile.log_value(np.asarray(np.exp(t_hi)))) \
                    + 2.0 * t_hi > -90.0:
                t_hi += np.log(2.0)
                if t_hi > 60.0:
                    if not isinstance(law, PowerLawTail):
                        raise NonIntegrableError(
                            "symbol tail decays too slowly to integrate")
                    # exact remainder of u^q e^((2 - q alpha) t) beyond t_hi
                    qa = q * law.alpha
                    tail = q * np.log(law.u_value) + (2.0 - qa) * t_hi \
                        - np.log(qa - 2.0)
                    break
            val = integrate(-40.0, t_hi,
                            lambda t, rows: q * profile.log_value(np.exp(t)) + 2.0 * t)
            if tail is not None:
                val = np.logaddexp(val, tail)
    return val + np.log(2.0 * np.pi)


def check_raikov_bound(model: ToeplitzModel, q: int) -> RaikovCheck:
    """Schatten-q bound: sum lambda_k^q <= (b0/2pi) e^(2 osc) integral U^q.

    The left side only grows with the truncation, so the bound must hold
    at every K.  The zero operator passes with both sides 0, before any
    quadrature: its symbol has no plane integral to compute.
    """
    if q < 1:
        raise ValueError("Schatten index q must be >= 1")
    fs = model.basis.field
    log_lhs = model.spectrum.log_schatten_pth_power(q)
    if np.isneginf(log_lhs):
        return RaikovCheck(True, 0.0, 0.0)
    log_rhs = np.log(fs.b0 / (2.0 * np.pi)) + 2.0 * fs.osc \
        + _log_plane_integral(model.profile, q)
    return RaikovCheck(bool(log_lhs <= log_rhs + 1e-10), float(np.exp(log_lhs)),
                       float(np.exp(log_rhs)))


def suggest_truncation(law, s_min: float, b0: float) -> int:
    """Basis size so the adequacy rule holds at threshold ``s_min``.

    Uses the law's predicted eigenvalue decay; callers must still verify
    adequacy a posteriori on the computed spectrum.  It sizes the gap-edge
    estimators, and the Toeplitz-asymptotics scenario only when the count
    certificate fails at the ``count_truncation`` size.
    """
    depth = law.depth(s_min * ADEQUACY_MARGIN, b0)
    return int(np.ceil(TRUNCATION_MARGIN * depth)) + TRUNCATION_SPARE


def count_truncation(law, s_min: float, b0: float) -> int:
    """Basis size from the law's count at ``s_min``, with the
    ``TRUNCATION_MARGIN`` and ``TRUNCATION_SPARE`` of ``suggest_truncation``.

    ``ToeplitzModel.count_certified`` decides a posteriori whether the
    count at this size is exact.
    """
    return int(np.ceil(TRUNCATION_MARGIN * law.count(s_min, b0))) + TRUNCATION_SPARE
