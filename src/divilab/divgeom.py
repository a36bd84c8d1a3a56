"""Per-integer divisor-structure statistics.

All window suprema are computed combinatorially over contiguous runs of the
sorted divisors.  A run i..j is admissible iff d_j < e d_i, that is iff
d_j <= floor(e d_i), as e d_i is irrational.  The integers decide it: for
the first convergent p/q of e with q > d, floor(e d) = p d // q, since no
fraction m/d with d < q lies between p/q and e or equals p/q.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from typing import Callable, Sequence

from .arith import DivisorSpectrum, Factored
from .errors import DEFAULT_LIMIT_CAP, DomainError


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

def _e_convergent(bound: int) -> tuple[int, int]:
    """The first convergent p/q of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...] with
    q > bound.  Consecutive convergents differ by 1/(q q'), so a fraction
    strictly between p/q and e has a denominator of at least q + q'."""
    p0, p, q0, q = 1, 2, 0, 1
    k = 0
    while q <= bound:
        a = 2 * (k // 3 + 1) if k % 3 == 1 else 1
        p0, p, q0, q = p, a * p + p0, q, a * q + q0
        k += 1
    return p, q


# (14013652689, 5155334720): exact for every d < _E_Q, and d _E_P fits int64
# for every d <= DEFAULT_LIMIT_CAP, as `tables._delta_window` needs
_E_P, _E_Q = _e_convergent(DEFAULT_LIMIT_CAP)


def _window_ends(divs: Sequence[int]) -> list[int]:
    """For each start index i of one n's ascending divisors, the largest j
    with d_j <= floor(e d_i) = p d_i // q, p/q from `_e_convergent` past
    n = divs[-1].  This is the per-n form of `tables._delta_window`, which
    runs over a range of n."""
    p, q = (_E_P, _E_Q) if divs[-1] < _E_Q else _e_convergent(divs[-1])
    return [bisect_right(divs, p * d // q) - 1 for d in divs]


def delta(spec: DivisorSpectrum) -> int:
    """Maximum number of divisors in any window (e^u, e^{u+1}]."""
    ends = _window_ends(spec.divisors)
    return max(map(operator.sub, ends, range(-1, len(ends) - 1)))  # ends[i] - i + 1


def delta_osc(spec: DivisorSpectrum, f: OscWeight) -> float:
    """Weighted window supremum sup |sum of f over divisors in (e^u, e^{u+v}]|,
    0 <= v <= 1, with the empty window giving the floor value 0."""
    w = f.weights(spec.divisors)
    tau = len(w)
    prefix = [0.0] * (tau + 1)
    for i, v in enumerate(w):
        prefix[i + 1] = prefix[i] + v
    ends = _window_ends(spec.divisors)
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
    """Minimal log-gap between divisors r apart in sorted order: the least
    ratio d_(j+r) / d_j is found in integers and its log correctly rounded
    (`_log_ratio`), where a difference of two float logs would cancel."""
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    tau = spec.tau
    if tau <= r:
        raise DomainError(f"E_r undefined: tau({spec.n}) = {tau} <= r = {r}")
    d = spec.divisors
    lo, hi = d[0], d[r]
    for a, b in zip(d, d[r:]):
        if b * lo < hi * a:  # b / a < hi / lo, in integers
            lo, hi = a, b
    return _log_ratio(lo, hi)


# floor(ln(i / 16) 2^128) for i = 16..32, checked against `decimal` in tests
_LN_16THS = (
    0x00000000000000000000000000000000, 0x0F85186008B15330BE64B8B775997898,
    0x1E27076E2AF2E5E9EA87FFE1FE9E155D, 0x2BFE60E14F27A790E7C4140E424775FC,
    0x391FEF8F353443584BB03DE5FF734495, 0x459D72AEAE98380E731F55C41B8B823F,
    0x51862F08717B09F42DECDECCF1CD1057, 0x5CE75FDAEF401A7389314FEB4FBDE5AA,
    0x67CC8FB2FE612FCADA35D9BD01488606, 0x723FDF1E6A6886B097607BCBFEE6892B,
    0x7C4A3D7EBC1BB2CD720EC44C73D75CF5, 0x85F39721295415B4C4BDD99EFFE69B64,
    0x8F42FAF3820681EF62CD2F9F1E35F2E7, 0x983EB99A7885F0FDAC850FAB36CDEE18,
    0xA0EC7F423395732325E617A300BBCA9C, 0xA9516932DE2D5773BE4578AD97AEA7BE,
    0xB17217F7D1CF79ABC9E3B39803F2F6AF,
)
_LOG_GUARD = 72  # fixed-point bits below the leading bit of ln(hi / lo)


def _log_ratio(lo: int, hi: int) -> float:
    """ln(hi / lo) for integers hi > lo >= 1, correctly rounded.  With
    2^k <= hi / lo < 2^(k+1) and i = 16..32 nearest to 16 hi / (lo 2^k),
    ln(hi / lo) = k ln 2 + ln(i / 16) + 2 atanh(z), z = (16 hi - i lo 2^k)
    / (16 hi + i lo 2^k), |z| <= 1/64.  The series is summed in fixed point
    `_LOG_GUARD` bits below the value's leading bit; each truncation, and
    each table entry, is off by under one unit.  The float is returned when
    both ends of that bound round to it; otherwise (about 2^-20 of calls)
    `decimal` takes the log at 60 digits."""
    k = (hi // lo).bit_length() - 1
    i = round(math.ldexp(16 * hi / lo, -k))
    a, b = hi << 4, (lo * i) << k
    num, den = abs(a - b), a + b
    near = k == 0 and i == 16  # then ln(hi / lo) = 2 atanh(z) may be tiny
    prec = _LOG_GUARD + (den.bit_length() - num.bit_length() if near else 6)
    z = (num << prec) // den
    z2 = z * z >> prec
    term = total = z
    j = 1
    while term:
        term = term * z2 >> prec
        j += 2
        total += term // j
    s = 2 * total if a >= b else -2 * total
    err = j + 10
    if not near:  # ln(hi / lo) >= ln(33/32) > 2^-6
        shift = 128 - prec
        s += (_LN_16THS[i - 16] >> shift) + k * (_LN_16THS[16] >> shift)
        err += k + 1
    one = 1 << prec
    v = (s - err) / one
    if v == (s + err) / one:
        return v
    import decimal  # only here, where the bound leaves the rounding open
    return float(decimal.Context(prec=60).divide(hi, lo).ln())


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
