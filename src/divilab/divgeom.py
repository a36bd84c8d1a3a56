"""Per-integer divisor-structure statistics.

All window suprema are computed combinatorially over contiguous runs of the
sorted divisors.  A run i..j is admissible iff d_j < e d_i; equality never
holds since e is irrational.  The float gap log d_j - log d_i decides it
outside a guard band of 1e-12 around 1: below 2^63 each log is within one
ulp (7e-15) of the truth.  Inside the band the integers decide it against a
rational enclosure E_LO < e < E_HI of about 60 digits; by the irrationality
measure of e no integers d, d' < 2^64 have d E_LO < d' < d E_HI.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from .arith import DivisorSpectrum, Factored
from .errors import DomainError, ResourceError


# ---------------------------------------------------------------------------
# oscillating weights on divisors

def _moebius_weights(divs: Sequence[int]) -> list[float]:
    """mu(d) over the ascending divisors of n = divs[-1].  The distinct primes
    of n are the divisors > 1 that no smaller prime divisor divides: each is
    the smallest divisor left dividing n once the smaller primes are divided
    out.  mu(d) is (-1)^k on the products of k distinct primes, else 0."""
    primes = []
    m = divs[-1]
    for d in divs:
        if m == 1:
            break
        if d > 1 and m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
    mu = {1: 1}
    for p in primes:
        for d, sign in list(mu.items()):
            mu[d * p] = -sign
    return [float(mu.get(d, 0)) for d in divs]


class OscWeight:
    """Bounded oscillating weight f on divisors: unit, Moebius, or a real
    Dirichlet character given by its period table (zero off the coprime
    residues, per the principal-character convention)."""

    def __init__(self, kind: str, modulus: int = 0, table: Sequence[float] = ()):
        self.kind = kind
        self.modulus = modulus
        self.table = tuple(table)
        if kind == "dirichlet_character":
            self._validate_character()
        elif kind not in ("unit", "moebius"):
            raise DomainError(f"unknown weight kind {kind!r}")

    @classmethod
    def unit(cls) -> "OscWeight":
        return cls("unit")

    @classmethod
    def moebius(cls) -> "OscWeight":
        return cls("moebius")

    @classmethod
    def dirichlet_character(cls, modulus: int, table: Sequence[float]) -> "OscWeight":
        return cls("dirichlet_character", modulus, table)

    def _validate_character(self):
        m, t = self.modulus, self.table
        if m < 1 or len(t) != m:
            raise DomainError("character table length must equal the modulus")
        if any(abs(v) > 1 + 1e-12 for v in t):
            raise DomainError("character values must lie in [-1, 1]")
        for a in range(m):
            if math.gcd(a, m) > 1 and t[a] != 0:
                raise DomainError(f"character must vanish at gcd({a},{m}) > 1")
        for a in range(m):
            for b in range(m):
                if abs(t[a] * t[b] - t[a * b % m]) > 1e-9:
                    raise DomainError("character table is not completely multiplicative")

    def weights(self, divs: Sequence[int]) -> list[float]:
        """Weights of the ascending divisors of some n."""
        if self.kind == "unit":
            return [1.0] * len(divs)
        if self.kind == "moebius":
            return _moebius_weights(divs)
        m, t = self.modulus, self.table
        return [float(t[d % m]) for d in divs]


# ---------------------------------------------------------------------------
# ratio weights for adjacent-divisor statistics

class RatioWeight:
    """Weight on adjacent-divisor ratios in (0, 1]: a step indicator over
    (threshold, 1], a tabulated function with linear interpolation, or an
    arbitrary callable."""

    def __init__(self, form: str, threshold: float = 0.0,
                 points: Sequence[tuple[float, float]] = (),
                 fn: Callable[[float], float] | None = None):
        self.form = form
        self.threshold = threshold
        self.points = tuple(sorted(points))
        self.fn = fn
        if form == "indicator" and not 0.0 < threshold < 1.0:
            raise DomainError(f"indicator threshold must be in (0,1), got {threshold}")
        if form == "table" and len(self.points) < 2:
            raise DomainError("table weight needs at least two sample points")
        if form == "smooth" and fn is None:
            raise DomainError("smooth weight needs a callable")
        if form not in ("indicator", "table", "smooth"):
            raise DomainError(f"unknown ratio weight form {form!r}")

    @classmethod
    def indicator(cls, threshold: float) -> "RatioWeight":
        return cls("indicator", threshold=threshold)

    @classmethod
    def table(cls, points: Sequence[tuple[float, float]]) -> "RatioWeight":
        return cls("table", points=points)

    @classmethod
    def smooth(cls, fn: Callable[[float], float]) -> "RatioWeight":
        return cls("smooth", fn=fn)

    def value(self, r: float) -> float:
        if self.form == "indicator":
            return 1.0 if r > self.threshold else 0.0
        if self.form == "smooth":
            return float(self.fn(r))
        pts = self.points
        if r <= pts[0][0]:
            return pts[0][1]
        if r >= pts[-1][0]:
            return pts[-1][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= r <= x1:
                if x1 == x0:
                    return y0
                w = (r - x0) / (x1 - x0)
                return y0 * (1 - w) + y1 * w
        return pts[-1][1]


# ---------------------------------------------------------------------------
# window statistics

# e = sum 1/k!, and the tail past k = N is below 1/(N! N):
# E_LO = _E_NUM/_E_DEN <= e < E_HI = (_E_NUM N + 1)/(_E_DEN N), width 8e-62.
_E_TERMS = 47
_E_DEN = math.factorial(_E_TERMS)
_E_NUM = sum(_E_DEN // math.factorial(k) for k in range(_E_TERMS + 1))
_BAND_LO, _BAND_HI = 1.0 - 1e-12, 1.0 + 1e-12


def _below_e(d: int, d2: int) -> bool:
    """Whether d2 < e d, decided in integers against the enclosure of e."""
    if d2 * _E_DEN <= d * _E_NUM:
        return True
    if d2 * _E_DEN * _E_TERMS >= d * (_E_NUM * _E_TERMS + 1):
        return False
    raise ResourceError(f"cannot separate {d2}/{d} from e with the enclosure")


def _window_ends(divs: Sequence[int], logs: Sequence[float]) -> list[int]:
    """For each start index i of one n's ascending divisors and their logs
    (`DivisorSpectrum.logs`), the largest j with d_j < e d_i.  This is the
    per-n form of `tables._delta_window`, which runs over a range of n."""
    tau = len(logs)
    ends = []
    j = 0
    for i, li in enumerate(logs):
        if j < i:
            j = i
        while j + 1 < tau:
            gap = logs[j + 1] - li
            if gap >= _BAND_LO and (gap > _BAND_HI or not _below_e(divs[i], divs[j + 1])):
                break
            j += 1
        ends.append(j)
    return ends


def delta(spec: DivisorSpectrum) -> int:
    """Maximum number of divisors in any window (e^u, e^{u+1}]."""
    ends = _window_ends(spec.divisors, spec.logs)
    return max(map(operator.sub, ends, range(-1, len(ends) - 1)))  # ends[i] - i + 1


def delta_osc(spec: DivisorSpectrum, f: OscWeight) -> float:
    """Weighted window supremum sup |sum of f over divisors in (e^u, e^{u+v}]|,
    0 <= v <= 1, with the empty window giving the floor value 0."""
    w = f.weights(spec.divisors)
    tau = len(w)
    prefix = [0.0] * (tau + 1)
    for i, v in enumerate(w):
        prefix[i + 1] = prefix[i] + v
    ends = _window_ends(spec.divisors, spec.logs)
    best = 0.0
    for i in range(tau):
        base = prefix[i]
        for j in range(i, ends[i] + 1):
            best = max(best, abs(prefix[j + 1] - base))
    return best


def tau_plus(spec: DivisorSpectrum) -> int:
    """Number of occupied dyadic cells (2^k, 2^{k+1}]; cell index by integer
    bit length of d-1, so powers of two never misclassify."""
    return len({(d - 1).bit_length() for d in spec.divisors})


def e_r(spec: DivisorSpectrum, r: int) -> float:
    """Minimal log-gap between divisors r apart in sorted order."""
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    tau = spec.tau
    if tau <= r:
        raise DomainError(f"E_r undefined: tau({spec.n}) = {tau} <= r = {r}")
    logs = spec.logs
    return min(logs[j + r] - logs[j] for j in range(tau - r))


def g_sum(spec: DivisorSpectrum) -> float:
    """Sum of adjacent divisor ratios d_i / d_{i+1} (empty sum 0 for n = 1)."""
    d = spec.divisors
    return sum(d[i] / d[i + 1] for i in range(len(d) - 1))


def f_theta(spec: DivisorSpectrum, theta: RatioWeight) -> float:
    """Average of theta over adjacent-divisor ratios, normalized by tau(n)."""
    d = spec.divisors
    tau = len(d)
    if tau < 2:
        raise DomainError(f"f_theta undefined for tau({spec.n}) = 1")
    total = sum(theta.value(d[i] / d[i + 1]) for i in range(tau - 1))
    return total / tau


# ---------------------------------------------------------------------------
# normalized prime-factor positions

def u_stat(f: Factored, j: int) -> float:
    """Normalized position (ln ln p_j - j)/sqrt(j) of the j-th distinct prime
    factor.  p_j = 2 gives ln ln 2 < 0, returned as-is."""
    if j < 1:
        raise DomainError(f"need j >= 1, got {j}")
    if f.omega < j:
        raise DomainError(f"omega({f.n}) = {f.omega} < j = {j}")
    p = f.factors[j - 1][0]
    return (math.log(math.log(p)) - j) / math.sqrt(j)


def h_alpha(f: Factored, alpha: Sequence[float]) -> int:
    """Count of k with |ln ln p_k - k| <= alpha_k, for the given non-increasing
    tolerance sequence (must cover k = 1..omega(n))."""
    om = f.omega
    if len(alpha) < om:
        raise DomainError(f"alpha has {len(alpha)} entries, need omega({f.n}) = {om}")
    for a, b in zip(alpha, alpha[1:om]):
        if b > a:
            raise DomainError("alpha must be non-increasing")
    if any(a < 0 for a in alpha[:om]):
        raise DomainError("alpha entries must be >= 0")
    count = 0
    for k, (p, _) in enumerate(f.factors, start=1):
        if abs(math.log(math.log(p)) - k) <= alpha[k - 1]:
            count += 1
    return count
