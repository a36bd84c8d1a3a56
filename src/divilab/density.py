"""Density estimates: a point value plus a rigorous or statistical bracket.

Every density produced anywhere in the package carries its method tag, so
no bare number ever escapes to the CLI untagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

# Method tags in use.  "exact_ie" is the exact density of a finite set of
# multiples from the valuation DP (multiples.py), "valuation_bracket" its
# bracket past the state budget, "exact_period" Lambda_k(d) (locallaws.py),
# "sieve_count" the exact share of multiples up to x, and "logarithmic" a
# float sum whose ends bound its own rounding.
METHODS = (
    "exact_ie",
    "valuation_bracket",
    "exact_period",
    "bonferroni",
    "sieve_count",
    "logarithmic",
    "sequential",
    "monte_carlo",
)


@dataclass(frozen=True)
class DensityEstimate:
    point: float
    lower: float
    upper: float
    method: str
    params: dict = field(default_factory=dict)
    exact: Fraction | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown density method tag {self.method!r}")
        if not (0 <= self.lower <= self.point <= self.upper <= 1
                and (self.exact is None or self.lower <= self.exact <= self.upper)):
            raise DomainError(f"bad bracket lower={self.lower} point={self.point} "
                              f"upper={self.upper} exact={self.exact}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def as_record(self) -> dict:
        rec = {
            "point": self.point,
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
        }
        if self.exact is not None:
            rec["exact"] = self.exact
        if self.params:
            rec["params"] = dict(self.params)
        return rec


def outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """Float ends around [lo, hi]: the nearest float to each, moved one ulp
    outward when rounding took it inside."""
    lower, upper = float(lo), float(hi)
    return (math.nextafter(lower, -math.inf) if lower > lo else lower,
            math.nextafter(upper, math.inf) if upper < hi else upper)


def bracket(lo: Fraction, hi: Fraction, method: str, **params) -> DensityEstimate:
    """The estimate for a density proven to lie in [lo, hi]: the float
    nearest the midpoint, the ends rounded outward, and `exact` set when
    lo == hi."""
    point = float(lo) if lo == hi else float((lo + hi) / 2)
    return DensityEstimate(point, *outward(lo, hi), method, params=params,
                           exact=lo if lo == hi else None)
