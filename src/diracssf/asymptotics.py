"""Closed-form eigenvalue-counting laws and the level-set comparator.

Three regimes for the small-threshold counting function of a compressed
nonnegative symbol: power-law tails give a power of the threshold times
an angular integral, stretched-exponential tails give powers of |log s|,
and compact support gives |log s| / log|log s|.  The level-set form
(field strength / 2 pi times the area where the symbol exceeds s) is the
geometric ancestor of all three and is exposed for cross-checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .toeplitz import (CompactSupportTail, ExponentialTail, PowerLawTail,
                       RadialProfile, ToeplitzModel)

LOG_DOMAIN_EDGE = math.exp(-1.0)


@dataclass(frozen=True)
class PowerLawCount:
    """n(s) ~ s^(-2/alpha) * b0/(4 pi) * integral of u^(2/alpha) d theta."""

    alpha: float
    angular_integral: float
    b0: float

    @classmethod
    def from_radial(cls, law: PowerLawTail, b0: float):
        return cls(law.alpha, 2.0 * np.pi * law.u_value ** (2.0 / law.alpha), b0)

    def value(self, s: float) -> float:
        if not s > 0:
            raise ValueError("threshold must be positive")
        return s ** (-2.0 / self.alpha) * self.b0 / (4.0 * np.pi) * self.angular_integral


@dataclass(frozen=True)
class ExponentialCount:
    """Three-branch law in the stretch exponent beta, valid on (0, 1/e)."""

    beta: float
    eta: float
    b0: float

    @classmethod
    def from_radial(cls, law: ExponentialTail, b0: float):
        return cls(law.beta, law.eta, b0)

    def value(self, s: float) -> float:
        _require_log_domain(s)
        al = abs(math.log(s))
        if self.beta < 1.0:
            return 0.5 * self.b0 * self.eta ** (-1.0 / self.beta) * al ** (1.0 / self.beta)
        if self.beta == 1.0:
            return al / math.log1p(2.0 * self.eta / self.b0)
        return self.beta / (self.beta - 1.0) * al / math.log(al)


@dataclass(frozen=True)
class CompactSupportCount:
    """n(s) ~ |log s| / log|log s| on (0, 1/e); no shape parameters."""

    @classmethod
    def from_radial(cls, law: CompactSupportTail, b0: float):
        return cls()

    def value(self, s: float) -> float:
        return phi_inf(s)


AsymptoticLaw = PowerLawCount | ExponentialCount | CompactSupportCount


def _require_log_domain(s: float):
    if not 0.0 < s < LOG_DOMAIN_EDGE:
        raise ValueError("threshold must lie in (0, 1/e) for the log-scale laws")


def phi_inf(s: float) -> float:
    _require_log_domain(s)
    al = abs(math.log(s))
    return al / math.log(al)


def law_for_profile(profile: RadialProfile, b0: float) -> AsymptoticLaw:
    """The counting law matching a profile's tail classification."""
    law = profile.law
    if isinstance(law, PowerLawTail):
        return PowerLawCount.from_radial(law, b0)
    if isinstance(law, ExponentialTail):
        return ExponentialCount.from_radial(law, b0)
    if isinstance(law, CompactSupportTail):
        return CompactSupportCount()
    raise TypeError(f"unsupported tail classification {law!r}")


def levelset_count(u, s: float, b0: float, r_max: float = 1e6,
                   samples: int = 4096):
    """(b0 / 2 pi) * area of the super-level set {U > s}, with an error bar.

    Radial callables are handled by root finding on a dense radial scan
    (the level set is a union of annuli); 2-D callables fall back to grid
    counting on an adaptive box.  Unbounded level sets are rejected.
    """
    from scipy.optimize import brentq

    if not s > 0:
        raise ValueError("level must be positive")
    if isinstance(u, RadialProfile):
        fn, support = u.eval, u.support_radius()
    else:
        fn, support = u, None

    try:
        probe = np.asarray(fn(np.array([0.5, 1.0])))
        radial = probe.shape == (2,)
    except TypeError:
        radial = False

    if radial:
        if support is not None:
            hi = support * 1.000001
        else:
            hi = 8.0
            while float(fn(np.asarray(hi))) > s:
                hi *= 2.0
                if hi > r_max:
                    raise ValueError("super-level set appears unbounded at the scan radius")
            hi *= 1.5
        xtol = 1e-13 * max(1.0, hi)
        r = np.linspace(0.0, hi, samples)
        vals = np.asarray(fn(r), dtype=float) - s
        area = 0.0
        inside = vals[0] > 0
        start = 0.0
        roots = []
        for i in range(1, samples):
            if (vals[i] > 0) != inside:
                root = brentq(lambda x: float(fn(np.asarray(x))) - s, r[i - 1], r[i],
                              xtol=xtol)
                roots.append(root)
                if inside:
                    area += np.pi * (root**2 - start**2)
                else:
                    start = root
                inside = not inside
        if inside:
            area += np.pi * (hi**2 - start**2)
        err = 2.0 * np.pi * sum(roots) * 2.0 * xtol  # root tolerance footprint
        return b0 / (2.0 * np.pi) * area, b0 / (2.0 * np.pi) * err

    # general 2-D symbol: adaptive box + counting grid
    box = 4.0
    for _ in range(40):
        edge = np.linspace(-box, box, 65)
        xs, ys = np.meshgrid(edge, edge)
        rr = np.hypot(xs, ys)
        th = np.arctan2(ys, xs)
        boundary = np.concatenate([rr[0], rr[-1], rr[:, 0], rr[:, -1]])
        bvals = fn(boundary, np.concatenate([th[0], th[-1], th[:, 0], th[:, -1]]))
        if np.max(bvals) <= s:
            break
        box *= 2.0
    else:
        raise ValueError("super-level set appears unbounded")
    n = 1024
    edge = np.linspace(-box, box, n)
    h = edge[1] - edge[0]
    xs, ys = np.meshgrid(edge, edge)
    rr = np.hypot(xs, ys)
    th = np.arctan2(ys, xs)
    mask = fn(rr, th) > s
    area = float(np.count_nonzero(mask)) * h * h
    # perimeter cells dominate the error
    per_cells = np.count_nonzero(mask[:-1, :] != mask[1:, :]) \
        + np.count_nonzero(mask[:, :-1] != mask[:, 1:])
    err = per_cells * h * h
    return b0 / (2.0 * np.pi) * area, b0 / (2.0 * np.pi) * err


@dataclass(frozen=True)
class LawComparison:
    rows: list  # (s, n_plus, law_value, ratio, staircase_halfwidth)
    slope: float
    intercept: float


def compare_law(model: ToeplitzModel, law: AsymptoticLaw, s_sequence) -> LawComparison:
    """Ratio table n_+(s) / law(s) over a threshold sequence.

    Counting functions are integer staircases while the laws are smooth,
    so each row carries a half-width 1/law(s) error bar.  The convergence
    diagnostic fits ratio - 1 against 1/|log s|, the generic first
    correction scale of all three laws.
    """
    rows = []
    xs, ys = [], []
    for s in sorted(s_sequence, reverse=True):
        model.require_adequate(s)
        n = model.spectrum.n_plus(s)
        lv = law.value(s)
        ratio = n / lv
        rows.append((float(s), int(n), float(lv), float(ratio), float(1.0 / lv)))
        xs.append(1.0 / abs(math.log(s)))
        ys.append(ratio - 1.0)
    if len(xs) >= 2:
        slope, intercept = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    else:
        slope, intercept = math.nan, ys[0]
    return LawComparison(rows, float(slope), float(intercept))
