"""Law-vs-spectrum ratio tables.

The small-threshold counting laws themselves belong to the tail classes
of `toeplitz` (`PowerLawTail.count`, `ExponentialTail.count`,
`CompactSupportTail.count`); this module binds a profile's law to a
field strength and tabulates the counting function of a compression
against it.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .toeplitz import RadialProfile, ToeplitzModel


def law_for_profile(profile: RadialProfile, b0: float) -> Callable[[float], float]:
    """The counting law s -> n(s) matching a profile's tail classification."""
    return partial(profile.law.count, b0=b0)


@dataclass(frozen=True)
class LawComparison:
    rows: list  # (s, n_plus, law_value, ratio, staircase_halfwidth)


def compare_law(model: ToeplitzModel, law: Callable[[float], float],
                s_sequence) -> LawComparison:
    """Ratio table n_+(s) / law(s) over a threshold sequence.

    Counting functions are integer staircases while the laws are smooth,
    so each row carries a half-width 1/law(s) error bar.  The thresholds,
    falling, are checked and counted in one pass each; errors come in
    threshold order, a threshold's adequacy before its law.
    """
    s_falling = sorted(s_sequence, reverse=True)
    laws = []
    for s in s_falling:
        try:
            laws.append(law(s))
        except Exception:
            model.require_adequate(s_falling[:len(laws) + 1])
            raise
    model.require_adequate(s_falling)
    counts = model.spectrum.n_plus(s_falling).tolist()
    return LawComparison([(float(s), n, float(lv), float(n / lv), float(1.0 / lv))
                          for s, n, lv in zip(s_falling, counts, laws)])
