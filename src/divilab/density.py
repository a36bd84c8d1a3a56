"""Density estimates: a point value plus a rigorous or statistical bracket.

Every density produced anywhere in the package carries its method tag, so
no bare number ever escapes to the CLI untagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError

# Method tags in use.  "exact_ie" is the exact density of a finite set of
# multiples from the valuation DP (multiples.py), lower == upper always, and
# "valuation_bracket" that DP's rigorous bracket past its state budget.
# "exact_period" is Lambda_k(d) (locallaws.py), exact from the subset-lcm DP.
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

_SLACK = 1e-12


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
        if not (-_SLACK <= self.lower <= self.point + _SLACK
                and self.point <= self.upper + _SLACK
                and self.upper <= 1 + _SLACK):
            raise DomainError(
                f"bad bracket lower={self.lower} point={self.point} upper={self.upper}"
            )
        if self.method == "exact_ie" and self.lower != self.upper:
            raise DomainError("exact_ie requires lower == upper")

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
        if self.params:
            rec["params"] = dict(self.params)
        return rec


def exact_density(value: Fraction, method: str = "exact_ie", **params) -> DensityEstimate:
    v = float(value)
    return DensityEstimate(v, v, v, method, params=params, exact=value)
