"""Counting functions n_+/n_- and the identities that control them.

A LogSpectrum stores eigenvalues as (log magnitude, sign) pairs so that
counting queries at thresholds far below double-precision underflow stay
exact.  Thresholds are open intervals: n_+(s) counts eigenvalues strictly
greater than s.  The stored order is an invariant the queries read: the
positives with falling log values, then the zeros, then the negatives with
rising log values, each sign group a known contiguous range.  The
constructor sorts (O(n log n)); counts and the threshold margin are
binary searches (O(log n)); the smallest positive entry is the last of
its group (O(1)).  Every threshold query also takes a 1-D array of
thresholds and answers them all in one pass, each entry bitwise the
answer of the one-threshold call.
The module also hosts the Cauchy-measure average of counting
functions over a matrix pencil A + tB with B >= 0, evaluated in closed
form from the pencil roots.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DiracSsfError

THRESHOLD_FLAG_TOL = 1e-13
FLIP_RTOL = 1e-12      # check_flip: shared eigenvalues agree to this times the top one
PSD_TOL = 1e-12        # eigenvalues of B below -PSD_TOL * ||B|| make it indefinite
RECENTRE_GAIN = 1e3    # pencil-root error gain: eps * gain bounds each Cauchy tail


class JumpLocalizationError(DiracSsfError, RuntimeError):
    """The pencil roots could not be located or do not explain the counts."""


class IdentityViolationError(DiracSsfError, AssertionError):
    """The two sides of the arctan-trace identity disagree."""


@dataclass(frozen=True)
class LogSpectrum:
    """Eigenvalues of a compact self-adjoint operator in log storage.

    ``log_values[i]`` is log|lambda_i| and ``signs[i]`` in {+1, -1, 0};
    entries are sorted descending by signed value.  Exact zeros carry
    sign 0 with log value 0.0 so every stored number stays finite.

    The order is kept as three contiguous groups: ``[0, _pos_end)`` holds
    the positives with log values falling, ``[_pos_end, _neg_start)`` the
    zeros, ``[_neg_start, n)`` the negatives with log values rising.
    Ties keep their input order, as a stable sort leaves them.  Both
    arrays are read-only.  Costs: construction checks and sorts,
    O(n log n); ``n_plus``, ``n_minus`` and ``threshold_margin`` are
    O(log n) binary searches; ``positive_logs`` and ``negative_logs`` are
    O(1) views.

    The four threshold queries (the three above and ``trace_arctan``)
    take one threshold, answered as a Python number, or a 1-D array of m
    thresholds, answered as an array in one pass: one vectorised binary
    search for the counts and the margin, O(m log n), and one (m, n_+)
    block of arctan values summed row by row for the trace.  Each entry
    is bitwise the one-threshold answer, so a bracket that reads a
    spectrum at both slack thresholds pays the per-call overhead once.
    """

    log_values: np.ndarray
    signs: np.ndarray
    _pos_end: int = field(init=False, repr=False, compare=False)
    _neg_start: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lv = np.asarray(self.log_values, dtype=float)
        sg = np.asarray(self.signs, dtype=np.int8)
        if lv.shape != sg.shape:
            raise ValueError("log_values and signs must have matching shapes")
        if not np.all(np.isfinite(lv)):
            raise ValueError("log spectrum entries must be finite")
        order = np.lexsort((-lv * sg, -sg))
        lv, sg = lv[order], sg[order]
        lv.flags.writeable = False
        sg.flags.writeable = False
        object.__setattr__(self, "log_values", lv)
        object.__setattr__(self, "signs", sg)
        object.__setattr__(self, "_pos_end", int(np.count_nonzero(sg == 1)))
        object.__setattr__(self, "_neg_start", int(np.count_nonzero(sg >= 0)))

    @classmethod
    def from_eigenvalues(cls, values, zero_floor: float = 0.0):
        values = np.asarray(values, dtype=float)
        signs = np.sign(values).astype(np.int8)
        signs[np.abs(values) <= zero_floor] = 0
        with np.errstate(divide="ignore"):
            lv = np.where(signs != 0, np.log(np.abs(values)), 0.0)
        return cls(lv, signs)

    @classmethod
    def from_log(cls, log_values):
        log_values = np.asarray(log_values, dtype=float)
        return cls(log_values, np.ones(log_values.shape, dtype=np.int8))

    def __len__(self):
        return self.log_values.shape[0]

    @property
    def positive_logs(self) -> np.ndarray:
        """Log values of the positive eigenvalues, falling (a view)."""
        return self.log_values[:self._pos_end]

    @property
    def negative_logs(self) -> np.ndarray:
        """Log magnitudes of the negative eigenvalues, rising (a view)."""
        return self.log_values[self._neg_start:]

    def n_plus(self, s):
        flat, one = _thresholds(s, "counting threshold s must be positive")
        pos = self.positive_logs
        return _answer(pos.size - np.searchsorted(pos[::-1], np.log(flat), side="right"), one)

    def n_minus(self, s):
        flat, one = _thresholds(s, "counting threshold s must be positive")
        neg = self.negative_logs
        return _answer(neg.size - np.searchsorted(neg, np.log(flat), side="right"), one)

    def log_schatten_pth_power(self, p: int) -> float:
        """log of sum |lambda_i|^p over the nonzero eigenvalues.

        scipy.special.logsumexp's arithmetic for finite real input, so the
        result is bitwise equal to it: the maximum is split off with its
        multiplicity and the rest is summed shifted by it.
        """
        a = p * self.log_values[self.signs != 0]
        if a.size == 0:
            return -np.inf
        top = np.max(a)
        at_top = a == top
        shifted = np.exp(a - top)
        shifted[at_top] = 0.0
        count = np.count_nonzero(at_top)
        return float(np.log1p(np.sum(shifted) / count) + np.log(count) + top)

    def trace_arctan(self, s):
        """Tr arctan(T / s) over the positive eigenvalues.

        Reads the sorted positive group against every log s at once: one
        (m, n_+) block of log ratios, each row split at log(T/s) = +-30
        into contiguous slices by binary search, then summed row by row.
        """
        flat, one = _thresholds(s, "scale s must be positive")
        # libm's log entry by entry; numpy's vectorised log need not match its bits
        log_s = np.array([math.log(v) for v in flat.tolist()])
        block = _arctan_of_log_ratio(self.positive_logs, log_s[:, None])
        return _answer(np.add.reduce(block, axis=1), one)

    def threshold_margin(self, s):
        """Min log-distance of any nonzero eigenvalue to the threshold.

        In each sorted group the nearest entries are the two around the
        insertion point of log s.
        """
        flat, one = _thresholds(s, "counting threshold s must be positive")
        log_s = np.log(flat)
        margin = np.full(flat.shape, np.inf)
        for group, falling in ((self.positive_logs, True), (self.negative_logs, False)):
            if group.size:
                i = np.searchsorted(group[::-1] if falling else group, log_s)
                if falling:
                    i = group.size - i  # the same two neighbours, counted from the front
                margin = np.minimum(margin, np.minimum(
                    np.abs(group.take(i - 1, mode="clip") - log_s),
                    np.abs(group.take(i, mode="clip") - log_s)))
        return _answer(margin, one)

    def values(self) -> np.ndarray:
        """Eigenvalues in linear scale (may underflow; for small cases)."""
        return self.signs * np.exp(self.log_values) * (self.signs != 0)


def _thresholds(s, message: str) -> tuple[np.ndarray, bool]:
    """A query's thresholds as a 1-D float array, and whether s was one
    number; ValueError(message) unless every entry is positive."""
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("thresholds must be one number or a 1-D array")
    flat = s.reshape(-1)
    if not all(v > 0 for v in flat.tolist()):  # NaN fails too
        raise ValueError(message)
    return flat, s.ndim == 0


def _answer(values: np.ndarray, one: bool):
    """The Python number for a one-threshold query, else the array."""
    return values.item() if one else values


def flag_near_threshold(spec: LogSpectrum, s):
    """True when an eigenvalue sits within ``THRESHOLD_FLAG_TOL`` (log scale)
    of s; elementwise for an array of thresholds."""
    return spec.threshold_margin(s) < THRESHOLD_FLAG_TOL


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


def _pencil_roots(a, b, shift: float):
    """Real t with det(a + t b - shift) = 0, repeated by multiplicity.

    ``b`` must be positive semidefinite.  With the rank-revealing split
    b = R R^T the finite roots are t = t0 - 1/mu over the nonzero
    eigenvalues mu of the hermitian R^T (a + t0 b - shift)^(-1) R, so a
    double root comes out twice.  An eigvalsh error of eps * max|mu| moves
    root j by that times (t_j - t0)^2, so the centre t0 walks a fixed
    ladder and yields the roots at every centre where that gain, measured
    in the Cauchy weight, stays below RECENTRE_GAIN; this also re-centres
    when shift is an eigenvalue of a.  A root next to t0 makes max|mu| so
    large that a genuine root's mu falls below the zero cut; the caller
    then moves on to the next centre.
    """
    w, q = np.linalg.eigh(b)
    scale_b = np.max(np.abs(w), initial=0.0)
    if np.min(w, initial=0.0) < -PSD_TOL * scale_b:
        raise ValueError("perturbation B must be positive semidefinite: the "
                         "closed-form Cauchy average needs every eigenvalue of "
                         "A + tB nondecreasing in t")
    keep = w > 1e-14 * scale_b
    if not np.any(keep):
        yield np.empty(0)
        return
    r = q[:, keep] * np.sqrt(w[keep])

    unit = (np.linalg.norm(a) + abs(shift)) / scale_b
    for step in (0, 1, -1, 2, -2, 3, -3):
        t0 = step * unit
        d, v = np.linalg.eigh(a + t0 * b)
        d = d - shift
        if np.min(np.abs(d)) <= 1e-14 * np.max(np.abs(d)):
            continue
        p = v.T @ r
        mu = np.linalg.eigvalsh(p.T @ (p / d[:, None]))
        mu = mu[np.abs(mu) > 1e-13 * np.max(np.abs(mu))]
        roots = t0 - 1.0 / mu
        gain = np.max(np.abs(mu), initial=0.0) * np.max(
            (roots - t0) ** 2 / (1.0 + roots ** 2), initial=0.0)
        if gain < RECENTRE_GAIN:
            yield roots


def mu_average_counting(s: float, a, b, sign: int = 1) -> float:
    """integral d_mu(t) of n_sign(s; A + t B) for positive semidefinite B.

    With B >= 0 every eigenvalue of A + tB is nondecreasing in t
    (Hellmann-Feynman), so n_+(s; .) rises by one at each root t_j of
    det(A + tB - s) and n_-(s; .) falls by one at each root of
    det(A + tB + s), roots counted with multiplicity.  The average is the
    count on the side where it is lowest plus one Cauchy tail per root:

        n_+:  n_+(s; A + t_left B)  + sum_j mu((t_j, inf)),
        n_-:  n_-(s; A + t_right B) + sum_j mu((-inf, t_j)),

    with mu((t, inf)) = 1/2 - arctan(t)/pi.  The counts at one probe left
    and one probe right of every root must differ by the number of roots;
    a lost or spurious root moves to the next centre of the root search,
    and JumpLocalizationError is raised when no centre explains the counts.
    An indefinite B raises ValueError.
    """
    if not s > 0:
        raise ValueError("counting threshold s must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 (n_+) or -1 (n_-)")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch between A and B")

    def count(t):
        return int(np.count_nonzero(sign * np.linalg.eigvalsh(a + t * b) > s))

    for roots in _pencil_roots(a, b, sign * s):
        far = 2.0 * (1.0 + np.max(np.abs(roots), initial=0.0))
        low, high = count(-sign * far), count(sign * far)
        if high - low == roots.size:
            # mu is symmetric, so mu((-inf, t)) = mu((-t, inf))
            return low + float(np.sum(mu_interval(sign * roots, np.inf)))
    raise JumpLocalizationError(
        f"no centre gives roots of det(A + tB - {sign * s!r}) that explain the "
        "counts on either side; the pencil is singular if the shift is an "
        "eigenvalue of A on the kernel of B")


# x < -30 and x <= 30 as one left-sided binary search
_BRANCH_EDGES = np.array([-30.0, math.nextafter(30.0, math.inf)])


def _arctan_of_log_ratio(log_num, log_den) -> np.ndarray:
    """arctan(exp(x)) for x = log_num - log_den, without overflow.

    x is one row or, broadcast, a block of rows.  Each row must be
    monotone in either direction, as a sorted ``LogSpectrum`` group
    against one threshold is, so the branches x < -30, |x| <= 30 and
    x > 30 are contiguous slices of it found by one binary search.  When
    the ends of every row lie within +-30, each row is one middle slice
    and the whole block is evaluated by one exp and one arctan call.
    """
    x = log_num - log_den
    out = np.empty_like(x)
    if x.size == 0:
        return out
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    if np.abs(rows[:, [0, -1]]).max() <= 30.0:
        return np.arctan(np.exp(x, out=out), out=out)
    for row, res in zip(rows, out.reshape(-1, n)):
        falling = n > 1 and row[0] > row[-1]
        lo, hi = np.searchsorted(row[::-1] if falling else row, _BRANCH_EDGES)
        if falling:
            big, mid, small = slice(0, n - hi), slice(n - hi, n - lo), slice(n - lo, n)
        else:
            small, mid, big = slice(0, lo), slice(lo, hi), slice(hi, n)
        res[mid] = np.arctan(np.exp(row[mid]))
        res[big] = np.pi / 2.0 - np.exp(-row[big])
        res[small] = np.exp(row[small])
    return out


def arctan_trace_identity(s: float, spec: LogSpectrum):
    """Both sides of the Cauchy-average / arctan-trace identity.

    For a positive trace-class T the mu-average of n_+(s; tT) equals
    (1/pi) Tr arctan(T/s).  The left side is assembled from per-eigenvalue
    Cauchy tails mu((s/lambda_j, inf)), the right side is
    ``LogSpectrum.trace_arctan``; they must agree to 1e-12
    (``IdentityViolationError`` otherwise) and are returned as a pair so
    callers can cross-check the matrix quadrature path against either.
    """
    if not s > 0:
        raise ValueError("threshold s must be positive")
    if spec.negative_logs.size:
        raise ValueError("identity requires a positive operator")
    lv = spec.positive_logs
    # mu((s/lambda, inf)) = 1/2 - arctan(s/lambda)/pi
    tails = 0.5 - _arctan_of_log_ratio(np.full_like(lv, math.log(s)), lv) / np.pi
    lhs = float(np.sum(tails))
    rhs = spec.trace_arctan(s) / np.pi
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
        raise IdentityViolationError(f"arctan-trace identity violated: {lhs} vs {rhs}")
    return lhs, rhs


def check_flip(b, s: float | None = None) -> bool:
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
    if np.max(np.abs(left[:k] - right[:k])) > FLIP_RTOL * scale:
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
