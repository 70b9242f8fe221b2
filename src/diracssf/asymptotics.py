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
    so each row carries a half-width 1/law(s) error bar.
    """
    rows = []
    for s in sorted(s_sequence, reverse=True):
        model.require_adequate(s)
        n = model.spectrum.n_plus(s)
        lv = law(s)
        rows.append((float(s), int(n), float(lv), float(n / lv), float(1.0 / lv)))
    return LawComparison(rows)
