"""Closed-form eigenvalue-counting laws and the law-vs-spectrum comparator.

Three regimes for the small-threshold counting function of a compressed
nonnegative symbol: power-law tails give a power of the threshold times
an angular integral, stretched-exponential tails give powers of |log s|,
and compact support gives |log s| / log|log s|.  All three descend from
the level-set form, field strength / 2 pi times the area where the
symbol exceeds s.
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
