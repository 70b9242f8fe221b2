"""Counting functions n_+/n_- and the identities that control them.

A LogSpectrum stores eigenvalues as (log magnitude, sign) pairs so that
counting queries at thresholds far below double-precision underflow stay
exact.  Thresholds are open intervals: n_+(s) counts eigenvalues strictly
greater than s.  The module also hosts the Cauchy-measure average of
counting functions over a matrix pencil, evaluated by locating the integer
jumps exactly and doing arctan arithmetic between them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

THRESHOLD_FLAG_TOL = 1e-13


class JumpLocalizationError(RuntimeError):
    """The piecewise-constant integrand could not be partitioned."""


@dataclass(frozen=True)
class LogSpectrum:
    """Eigenvalues of a compact self-adjoint operator in log storage.

    ``log_values[i]`` is log|lambda_i| and ``signs[i]`` in {+1, -1, 0};
    entries are sorted descending by signed value.  Exact zeros carry
    sign 0 with log value 0.0 so every stored number stays finite.
    """

    log_values: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        lv = np.asarray(self.log_values, dtype=float)
        sg = np.asarray(self.signs, dtype=np.int8)
        if lv.shape != sg.shape:
            raise ValueError("log_values and signs must have matching shapes")
        if not np.all(np.isfinite(lv)):
            raise ValueError("log spectrum entries must be finite")
        order = np.lexsort((-lv * sg, -sg))
        object.__setattr__(self, "log_values", lv[order])
        object.__setattr__(self, "signs", sg[order])

    @classmethod
    def from_eigenvalues(cls, values, zero_floor: float = 0.0):
        values = np.asarray(values, dtype=float)
        signs = np.sign(values).astype(np.int8)
        signs[np.abs(values) <= zero_floor] = 0
        with np.errstate(divide="ignore"):
            lv = np.where(signs != 0, np.log(np.abs(values)), 0.0)
        return cls(lv, signs)

    @classmethod
    def from_log(cls, log_values, signs=None):
        log_values = np.asarray(log_values, dtype=float)
        if signs is None:
            signs = np.ones(log_values.shape, dtype=np.int8)
        return cls(log_values, signs)

    def __len__(self):
        return self.log_values.shape[0]

    def n_plus(self, s: float) -> int:
        if not s > 0:
            raise ValueError("counting threshold s must be positive")
        mask = self.signs == 1
        return int(np.count_nonzero(self.log_values[mask] > np.log(s)))

    def n_minus(self, s: float) -> int:
        if not s > 0:
            raise ValueError("counting threshold s must be positive")
        mask = self.signs == -1
        return int(np.count_nonzero(self.log_values[mask] > np.log(s)))

    def scaled(self, log_factor: float):
        """Spectrum of c*T for c = exp(log_factor) > 0."""
        lv = np.where(self.signs != 0, self.log_values + log_factor, 0.0)
        return LogSpectrum(lv, self.signs.copy())

    def union(self, other: "LogSpectrum"):
        return LogSpectrum(
            np.concatenate([self.log_values, other.log_values]),
            np.concatenate([self.signs, other.signs]),
        )

    def log_schatten_pth_power(self, p: int) -> float:
        """log of sum |lambda_i|^p over the nonzero eigenvalues."""
        lv = self.log_values[self.signs != 0]
        if lv.size == 0:
            return -np.inf
        return float(logsumexp(p * lv))

    def threshold_margin(self, s: float) -> float:
        """Min log-distance of any nonzero eigenvalue to the threshold."""
        lv = self.log_values[self.signs != 0]
        if lv.size == 0:
            return np.inf
        return float(np.min(np.abs(lv - np.log(s))))

    def values(self) -> np.ndarray:
        """Eigenvalues in linear scale (may underflow; for small cases)."""
        return self.signs * np.exp(self.log_values) * (self.signs != 0)


def flag_near_threshold(spec: LogSpectrum, s: float, tol=THRESHOLD_FLAG_TOL) -> bool:
    """True when an eigenvalue sits within ``tol`` (log scale) of s."""
    return spec.threshold_margin(s) < tol


def _counts(matrix, s: float):
    spec = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(matrix))
    return spec.n_plus(s), spec.n_minus(s)


def check_weyl(s1: float, s2: float, t1, t2) -> bool:
    """Subadditivity of counting functions under operator sums."""
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    if t1.shape != t2.shape:
        raise ValueError("dimension mismatch between the two operators")
    ps, ms = _counts(t1 + t2, s1 + s2)
    p1, m1 = _counts(t1, s1)
    p2, m2 = _counts(t2, s2)
    return ps <= p1 + p2 and ms <= m1 + m2


def check_pbound(s: float, spec: LogSpectrum, p: int) -> bool:
    """n_+-(s) <= s^-p * (p-th Schatten norm)^p, all in the log domain."""
    if p < 1:
        raise ValueError("Schatten index p must be >= 1")
    log_bound = spec.log_schatten_pth_power(p) - p * np.log(s)
    for n in (spec.n_plus(s), spec.n_minus(s)):
        if n > 0 and np.log(n) > log_bound + 1e-14:
            return False
    return True


def mu_interval(a: float, b: float) -> float:
    """Normalised Cauchy measure of (a, b)."""
    return (np.arctan(b) - np.arctan(a)) / np.pi


def _pencil_jumps(a, b, shift: float):
    """Real finite t with det(a + t b - shift) = 0.

    With b = R^T S R (rank-revealing split of the hermitian perturbation)
    the finite roots are t = -1/mu over the real nonzero eigenvalues mu of
    S R (a - shift)^(-1) R^T, which is far better conditioned than a QZ
    sweep on the singular pencil.  If ``shift`` sits (numerically) in the
    spectrum of ``a``, zero itself is a jump and the resolvent is taken at
    a nudged shift; the caller's probe pass absorbs the nudge.
    """
    n = a.shape[0]
    w, q = np.linalg.eigh(b)
    scale_b = np.max(np.abs(w), initial=0.0)
    keep = np.abs(w) > 1e-14 * scale_b
    if not np.any(keep):
        return np.empty(0)
    r = (q[:, keep] * np.sqrt(np.abs(w[keep]))).T
    signs = np.sign(w[keep])

    m = a - shift * np.eye(n)
    eig_m = np.linalg.eigvalsh(m)
    scale_m = np.max(np.abs(eig_m), initial=1.0)
    extra = []
    if np.min(np.abs(eig_m)) < 1e-13 * scale_m:
        extra = [0.0]
        m = m + (1e-10 * scale_m) * np.eye(n)
    core = (signs[:, None] * (r @ np.linalg.solve(m, r.T)))
    mu = np.linalg.eigvals(core) if np.any(signs < 0) else \
        np.linalg.eigvalsh(0.5 * (core + core.T))
    mu = np.asarray(mu)
    real = mu[np.abs(mu.imag) <= 1e-10 * (1.0 + np.abs(mu.real))].real \
        if np.iscomplexobj(mu) else mu
    real = real[np.abs(real) > 1e-300]
    return np.concatenate([-1.0 / real, np.asarray(extra)])


def mu_average_counting(s: float, a, b, sign: int = 1) -> float:
    """integral d_mu(t) of n_sign(s; A + t B).

    The integrand is an integer staircase in t; its jumps are generalized
    eigenvalues of the pencils (s - A, B) and (-s - A, B).  Candidates are
    refined by bisection on the count itself, then the Cauchy measure of
    each constancy interval is accumulated exactly.
    """
    if not s > 0:
        raise ValueError("counting threshold s must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between A and B")

    def count(t):
        eig = np.linalg.eigvalsh(a + t * b)
        if sign == 1:
            return int(np.count_nonzero(eig > s))
        return int(np.count_nonzero(-eig > s))

    if np.max(np.abs(b)) == 0.0:
        return float(count(0.0))

    def dedupe(ts):
        ts = np.sort(np.asarray(ts, dtype=float))
        keep = []
        for t in ts:
            if not keep or t - keep[-1] > 1e-13 * (1.0 + abs(t)):
                keep.append(t)
        return keep

    def probes_for(lo, hi):
        if np.isinf(lo) and np.isinf(hi):
            return [-17.0, -1.0, 0.0, 1.0, 17.0]
        if np.isinf(lo):
            return [hi - d for d in (1.0, 3.0, 17.0)]
        if np.isinf(hi):
            return [lo + d for d in (1.0, 3.0, 17.0)]
        return [lo + f * (hi - lo) for f in (0.25, 0.5, 0.75)]

    jumps = dedupe(np.concatenate([_pencil_jumps(a, b, s), _pencil_jumps(a, b, -s)]))
    # the pencil eigenvalues carry the jump locations to machine accuracy;
    # the probe pass below catches any the eigensolver lost and recovers
    # them by bisection on the (integer) count itself
    for _ in range(40):
        edges = np.concatenate([[-np.inf], jumps, [np.inf]])
        total = 0.0
        missing = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi <= lo:
                continue
            pts = probes_for(lo, hi)
            counts = [count(t) for t in pts]
            if len(set(counts)) != 1:
                i = next(j for j in range(len(counts) - 1) if counts[j] != counts[j + 1])
                missing = (pts[i], pts[i + 1])
                break
            total += counts[0] * mu_interval(lo, hi)
        if missing is None:
            return total
        lo, hi = missing
        ref = count(lo)
        for _ in range(300):
            mid = 0.5 * (lo + hi)
            if count(mid) == ref:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1e-30, abs(lo), abs(hi)):
                break
        jumps = dedupe(jumps + [0.5 * (lo + hi)])
    raise JumpLocalizationError(
        f"failed to localise all jump points; partition at {jumps}"
    )


def _arctan_of_log_ratio(log_num, log_den) -> np.ndarray:
    """arctan(exp(log_num - log_den)) without overflow; broadcasts."""
    x = log_num - log_den
    out = np.empty_like(x)
    big = x > 30.0
    small = x < -30.0
    mid = ~(big | small)
    out[mid] = np.arctan(np.exp(x[mid]))
    out[big] = np.pi / 2.0 - np.exp(-x[big])
    out[small] = np.exp(x[small])
    return out


def arctan_trace_identity(s: float, spec: LogSpectrum):
    """Both sides of the Cauchy-average / arctan-trace identity.

    For a positive trace-class T the mu-average of n_+(s; tT) equals
    (1/pi) Tr arctan(T/s).  The left side is assembled from per-eigenvalue
    Cauchy tails mu((s/lambda_j, inf)), the right side from the arctan sum;
    they are asserted equal to 1e-12 and returned as a pair so callers can
    cross-check the matrix quadrature path against either.
    """
    if not s > 0:
        raise ValueError("threshold s must be positive")
    if np.any(spec.signs < 0):
        raise ValueError("identity requires a positive operator")
    lv = spec.log_values[spec.signs == 1]
    if lv.size == 0:
        return 0.0, 0.0
    log_s = float(np.log(s))
    # mu((s/lambda, inf)) = 1/2 - arctan(s/lambda)/pi
    tails = 0.5 - _arctan_of_log_ratio(np.full_like(lv, log_s), lv) / np.pi
    lhs = float(np.sum(tails))
    rhs = float(np.sum(_arctan_of_log_ratio(lv, log_s))) / np.pi
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
        raise AssertionError(f"arctan-trace identity violated: {lhs} vs {rhs}")
    return lhs, rhs


def check_flip(b, s: float | None = None, rtol: float = 1e-12) -> bool:
    """Nonzero spectra of B*B and BB* coincide (counting functions agree).

    The two products share their leading min(m, n) eigenvalues; anything
    beyond that index is exact zero polluted by eigensolver noise, so the
    comparison is made against the top eigenvalue's scale.
    """
    b = np.asarray(b, dtype=float)
    k = min(b.shape)
    left = np.sort(np.linalg.eigvalsh(b.T @ b))[::-1]
    right = np.sort(np.linalg.eigvalsh(b @ b.T))[::-1]
    scale = max(left[0] if left.size else 0.0, right[0] if right.size else 0.0)
    if scale == 0.0:
        return True
    if np.max(np.abs(left[:k] - right[:k])) > rtol * scale:
        return False
    # everything past the shared rank must be numerically zero
    if left[k:].size and np.max(np.abs(left[k:])) > 1e-11 * scale:
        return False
    if right[k:].size and np.max(np.abs(right[k:])) > 1e-11 * scale:
        return False
    if s is not None:
        floor = 1e-11 * scale
        sl = LogSpectrum.from_eigenvalues(left, zero_floor=floor)
        sr = LogSpectrum.from_eigenvalues(right, zero_floor=floor)
        if sl.n_plus(s) != sr.n_plus(s) or sl.n_minus(s) != sr.n_minus(s):
            return False
    return True


def check_pushnitski_bound(s1: float, s2: float, t1, t2, sign: int = 1) -> bool:
    """mu-average of n(s1+s2; T1 + t T2) against n(s1; T1) + ||T2||_1/(pi s2)."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    lhs = mu_average_counting(s1 + s2, t1, t2, sign=sign)
    spec1 = LogSpectrum.from_eigenvalues(np.linalg.eigvalsh(t1))
    n1 = spec1.n_plus(s1) if sign == 1 else spec1.n_minus(s1)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(t2))))
    return lhs <= n1 + trace_norm / (np.pi * s2) + 1e-10
