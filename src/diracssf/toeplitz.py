"""Berezin-Toeplitz compressions pUp in the truncated zero-mode basis.

A radial symbol's compression is diagonal in angular momentum, and each
eigenvalue is a ratio of weighted radial moments, evaluated as a
difference of log-integrals.  The power profile on the flat field has an
exact three-term recurrence instead: with U = A (1 + r^2)^(-a), a half
the exponent, c = b0/2 and t = r^2, lambda_k = A c^(k+1)/k! times the
integral of t^k e^(-ct) (1+t)^(-a) dt, and two integrations by parts give

    (k+2) lambda_(k+2) = (k+2-a-c) lambda_(k+1) + c lambda_k.

Rows 0 ... k0+1 are quadrature and every later row is the forward
recurrence from rows k0 and k0+1, with k0 = ceil(max(c, a+c)) + 1.  From
k0 on both coefficients are nonnegative, so each new row is a positive
combination of the two before it: nothing cancels, its relative error is
at most the larger of theirs plus the rounding of one step, and the other
solution, which decays like (-c)^k/k!, dies out.  A seed at ceil(c) + 1
alone lets k+2-a-c turn negative once the exponent passes 6 or so, and
the recurrence then cancels: at b0 = 1, K = 400 some rows came out
nonpositive from exponent 36 on, and the last row was 2.2e-5 off at
exponent 50.  Against the exact lambda_k, row k >= k0+2 is off in the
log by at most

    e_seed + 4u (k - k0) + u (a + c) ln(1 + (k - k0)/2)
           + 8u (1 + |log lambda_k| + |log lambda_k0|)

to first order in the unit roundoff u = 2^-53.  e_seed is the seed rows'
error.  A step ((k+2-s) x1 + c x0)/(k+2), s = a + c, adds two nonnegative
terms, so it costs the larger of its inputs' errors plus the roundings
along one term: on the x1 term the subtraction k+2-s, the product, the
sum and the division, 4u; on the x0 term 3u.  Row k takes k - k0 - 1
steps, so the second term leaves 4u over.  The third term is the
rounding of s, an absolute u (a + c) in a first coefficient that is at
least k - k0 + 3, and the last the exp and the logs taken at the two
ends.

The rows are evaluated in blocks of about sqrt(n) rows, n = K - k0 - 2,
fewer for steep exponents at large K, where a block must not underflow.
Each block steps the two solutions that start from (1, 0) and (0, 1)
with the same step, and its rows are X0 U + X1 V, with (X0, X1) the pair
the block starts from.  The pair passed from one block to the next is
summed in double-double, so a pass costs O(u^2) and the chain of pairs
costs 4u per step, as a row-by-row loop does.  Rounding the pair to
doubles and forming X0 U + X1 V then cost u and 2u once per row, not
once per block, and the 4u left over covers them; a pair passed in plain
floats would add 2u per block, about 2u sqrt(n) by the last row.  The
pair is normalised by an exact power of two at every block, so a row far
below 1e-308 keeps its log.  Perturbed fields, every other profile and a
basis with K <= k0 + 2 take the quadrature for every row.

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

from ._quad import log_integral_batch
from .counting import THRESHOLD_FLAG_TOL, LogSpectrum, flag_near_threshold
from .errors import DiracSsfError
from .landau import LLLBasis, log_radial_moments

ADEQUACY_MARGIN = 1e-3
# both truncation rules: K = ceil(TRUNCATION_MARGIN * law estimate) + TRUNCATION_SPARE
TRUNCATION_MARGIN = 1.6
TRUNCATION_SPARE = 8
# _log_plane_integral: the node count doubles from PLANE_N0 until the
# log-integral is stable to PLANE_TOL
PLANE_TOL = 1e-11
PLANE_N0 = 128


class TruncationError(DiracSsfError, RuntimeError):
    """The compression cannot count exactly at the requested threshold:
    the basis is too small, or an eigenvalue sits on the threshold."""


class NonIntegrableError(DiracSsfError, ValueError):
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
    ``ToeplitzModel`` requires.  ``power_form`` is (exponent, amplitude)
    when U is exactly amplitude * (1 + r^2)^(-exponent/2), which lets
    ``toeplitz_radial_spectrum`` run the flat-field recurrence.
    """

    log_value: Callable[[np.ndarray], np.ndarray]
    law: PowerLawTail | ExponentialTail | CompactSupportTail
    nonincreasing: bool = False
    power_form: tuple[float, float] | None = None

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
                         nonincreasing=exponent >= 0.0, power_form=(exponent, amplitude))


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
    A profile with a ``power_form`` on the flat field takes that rule for
    rows 0 ... k0+1 only, k0 = ceil(max(c, a+c)) + 1 with a half the
    exponent and c = b0/2, and the three-term recurrence of the module
    docstring for every later row, in blocks of about sqrt(K - k0) rows;
    when K <= k0 + 2 every row is quadrature.  The guard k0 makes both
    coefficients k+2-a-c and c nonnegative, so no step cancels, and row k
    is then off in the log by at most e_seed + 4u (k - k0)
    + u (a + c) ln(1 + (k - k0)/2) + 8u (1 + |log lambda_k| + |log lambda_k0|),
    u = 2^-53, with e_seed the seed rows' error (derived in the module
    docstring: 4u per step, and the blocks' u + 2u per row within the 4u
    that the k - k0 - 1 steps of row k leave over).  A symbol whose log is
    -inf on the whole probe [0, r_probe] compresses to the zero operator.
    No sign check is needed: a log form cannot be negative, and a NaN log
    is refused by the quadrature.
    """
    fs = basis.field
    r_probe = max(20.0, 2.5 * np.sqrt((2.0 * basis.K + 1.0) / fs.b0))
    if np.all(np.isneginf(profile.log_value(np.linspace(0.0, r_probe, 1025)))):
        return ToeplitzModel(basis, profile, None)
    n_quad = basis.K
    if profile.power_form is not None and fs.phi_tilde is None:
        a, c = 0.5 * profile.power_form[0], 0.5 * fs.b0
        k0 = math.ceil(max(c, a + c)) + 1
        n_quad = min(basis.K, k0 + 2)
    log_num = log_radial_moments(fs, np.arange(n_quad), log_symbol=profile.log_value,
                                 support=profile.support_radius())
    log_eig = np.empty(basis.K)
    np.subtract(log_num, 2.0 * basis.log_norms[:n_quad], out=log_eig[:n_quad])
    if n_quad < basis.K:
        _power_recurrence(log_eig, k0, a, c)
    return ToeplitzModel(basis, profile, log_eig)


def _power_recurrence(log_eig: np.ndarray, k0: int, a: float, c: float):
    """Fill log_eig[k] = log lambda_k for k0+2 <= k < K = len(log_eig) from
    rows k0 and k0+1, by the forward recurrence of the module docstring,
    evaluated in blocks.

    The n = K - k0 - 2 rows split into blocks of B = ceil(sqrt(n)) rows,
    the last one cut at K.  Each block steps its two fundamental
    solutions, from (1, 0) and (0, 1), with the step of the module
    docstring, all blocks at once as numpy rows.  A loop over the blocks
    then carries the pair relative to lambda_(k0), in double-double, from
    each block's last two rows to the next block, and normalises it there
    by an exact power of two, one exponent per block, which the log of
    each of its rows adds back.  A row is X0 U + X1 V with (X0, X1) the
    block's pair rounded to doubles.  A block whose rows fall below 2^-900
    of its pair could lose them to underflow, so B halves until none does.
    Only steep exponents at large K get there: at K = 2^18 exponent 1000
    halves B once and exponent 10^4 twice.  B = 1 always passes, since one
    step from a pair normalised to [1/2, 1) falls by at most a factor
    2K/3.  No BLAS product is used, so the bits do not depend on the
    thread count.
    """
    n = len(log_eig) - k0 - 2
    size = math.isqrt(n - 1) + 1
    while True:
        rows, exps = _recurrence_blocks(log_eig[k0 + 1] - log_eig[k0], k0, n, size, a + c, c)
        if size == 1 or rows.min() >= -900.0 * math.log(2.0):
            break
        size = (size + 1) // 2
    rows += np.multiply(exps, math.log(2.0))
    rows += log_eig[k0]
    # block b's rows are log_eig[k0 + 2 + b size:][:size], the last block cut at K
    rest, full = log_eig[k0 + 2:], n // size
    rest[:full * size].reshape(full, size)[...] = rows[:, :full].T
    if full < rows.shape[1]:
        rest[full * size:] = rows[:n - full * size, full]


def _recurrence_blocks(log_ratio: float, k0: int, n: int, size: int, s: float, c: float):
    """The blocks of ``_power_recurrence`` at block size ``size``: the
    (size, blocks) logs of X0 U + X1 V, row i of block b in [i, b], and
    each block's exponent."""
    blocks = -(-n // size)
    # w[i + 2] is step i of both solutions of every block, w[0] and w[1] their
    # starts; the last block steps on past K and its extra rows are dropped
    w = np.empty((size + 2, 2, blocks))
    w[0, 0], w[0, 1], w[1, 0], w[1, 1] = 1.0, 0.0, 0.0, 1.0
    first = k0 + 2.0 + size * np.arange(blocks)
    k2, coef, c_x0 = np.empty(blocks), np.empty(blocks), np.empty((2, blocks))
    for i in range(size):
        np.add(first, i, out=k2)
        np.subtract(k2, s, out=coef)
        np.multiply(w[i + 1], coef, out=w[i + 2])
        np.multiply(w[i], c, out=c_x0)
        w[i + 2] += c_x0
        w[i + 2] /= k2
    ends = w[size:size + 2].tolist()
    x0, x1, exps = [], [], []
    p, p_lo, q, q_lo, e = 1.0, 0.0, math.exp(log_ratio), 0.0, 0
    for b in range(blocks):
        shift = math.frexp(q)[1]
        p, p_lo, q, q_lo = (math.ldexp(v, -shift) for v in (p, p_lo, q, q_lo))
        e += shift
        x0.append(p)
        x1.append(q)
        exps.append(e)
        if b + 1 < blocks:
            p, p_lo, q, q_lo = (*_dd_combination(p, p_lo, q, q_lo, ends[0][0][b], ends[0][1][b]),
                                *_dd_combination(p, p_lo, q, q_lo, ends[1][0][b], ends[1][1][b]))
    rows, other = w[2:, 0], w[2:, 1]
    rows *= x0
    other *= x1
    rows += other
    with np.errstate(divide="ignore"):
        np.log(rows, out=rows)
    return rows, exps


def _two_product(x: float, y: float) -> tuple[float, float]:
    """x y as a float and its exact rounding error (Dekker's split)."""
    p = x * y
    t = 134217729.0 * x
    xh = t - (t - x)
    t = 134217729.0 * y
    yh = t - (t - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _dd_combination(p: float, p_lo: float, q: float, q_lo: float,
                    u: float, v: float) -> tuple[float, float]:
    """(p + p_lo) u + (q + q_lo) v as a double-double (hi, lo), with an
    error of order u^2 relative to the sum of the two nonnegative terms."""
    x, ex = _two_product(p, u)
    y, ey = _two_product(q, v)
    hi = x + y
    z = hi - x
    lo = ((x - (hi - z)) + (y - z)) + (ex + ey + p_lo * u + q_lo * v)
    top = hi + lo
    return top, lo - (top - hi)


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
