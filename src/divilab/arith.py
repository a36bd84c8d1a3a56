"""Factorization, divisor enumeration, and the elementary arithmetic functions.

Everything here is a pure function of a Factored value (or of the sieve),
so concurrent evaluation over disjoint integers is safe.  The module imports
no numpy: the window and table paths (`factor_window`, `psi1_count`) import
it when called, so a single-n query (`factor_int`, `divisors`) starts without
it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DEFAULT_LIMIT_CAP, DomainError, ResourceError

if TYPE_CHECKING:
    from .sieve import SpfSieve

DEFAULT_DIVISOR_CAP = 10**6


class Infinity:
    """Tagged infinity sentinel for P^-(1) and d_1 misses.

    Deliberately not orderable: code must test `x is INFINITE` explicitly
    instead of relying on numeric comparisons against a max value.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def _refuse(self, other):
        raise TypeError("infinity sentinel does not support ordering; test identity")

    __lt__ = __le__ = __gt__ = __ge__ = _refuse


INFINITE = Infinity()


@dataclass(frozen=True)
class Factored:
    """Prime-power decomposition of one integer.

    factors is ((p, e), ...) with primes strictly ascending; empty iff n == 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"Factored needs n >= 1, got {self.n}")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise DomainError(f"bad factorization of {self.n}: {self.factors}")
            last = p
            prod *= p**e
        if prod != self.n:
            raise DomainError(f"factors {self.factors} do not reconstruct {self.n}")

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def big_omega(self) -> int:
        return sum(e for _, e in self.factors)

    @property
    def p_plus(self) -> int:
        """Largest prime factor; 1 for n = 1."""
        return self.factors[-1][0] if self.factors else 1

    @property
    def p_minus(self):
        """Smallest prime factor; the infinity sentinel for n = 1."""
        return self.factors[0][0] if self.factors else INFINITE

    def prime_list(self) -> list[int]:
        return [p for p, _ in self.factors]


def factor(n: int, sieve: SpfSieve) -> Factored:
    """Factor n via the SPF chain; requires 1 <= n <= sieve.limit."""
    if not 1 <= n <= sieve.limit:
        raise DomainError(f"n={n} outside sieve range 1..{sieve.limit}")
    return Factored(n, tuple(sieve.factor_pairs(n)))


def factor_window(lo: int, hi: int) -> Iterator[Factored]:
    """Factor every n in [lo, hi], in ascending order, without an SPF table.

    Each segment of the window divides its sieving primes (p <= sqrt(hi))
    out of their multiples; a cofactor > 1 left over is a single prime.
    Time O(sqrt(hi) + (hi - lo) log log hi), memory O(SEGMENT).
    """
    _check_window(lo, hi)
    import numpy as np

    from .sieve import segments

    for a, b, ps, starts in segments(lo, hi):
        rest = np.arange(a, b, dtype=np.int64)
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(b - a)]
        for p, j in zip(ps.tolist(), starts.tolist()):
            v = rest[j::p]  # a view: dividing v divides rest
            v //= p
            e = np.ones(len(v), dtype=np.int64)
            idx = np.flatnonzero(v % p == 0)
            while len(idx):
                v[idx] //= p
                e[idx] += 1
                idx = idx[v[idx] % p == 0]
            for i, k in zip(range(j, b - a, p), e.tolist()):
                pairs[i].append((p, k))
        for n, r, fs in zip(range(a, b), rest.tolist(), pairs):
            if r > 1:
                fs.append((r, 1))
            yield Factored(n, tuple(fs))


def _check_window(lo: int, hi: int) -> None:
    """The errors `factor_window(lo, hi)` raises before it walks its window:
    DomainError unless 1 <= lo <= hi, ResourceError past DEFAULT_LIMIT_CAP."""
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > DEFAULT_LIMIT_CAP:
        raise ResourceError(f"sieve limit {hi} exceeds cap {DEFAULT_LIMIT_CAP}")


def factor_int(n: int) -> Factored:
    """Factor one n by trial division to sqrt(n): O(sqrt(n)) time, O(1) memory,
    no sieve and no numpy.

    This is the single-n path: for 1 <= n <= DEFAULT_LIMIT_CAP it returns the
    same Factored as next(factor_window(n, n)), and the CLI calls it after
    _check_window(n, n).  It takes any n >= 1; beyond the cap it is slow
    (about sqrt(n)/2 divisions), not refused."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    m = n
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return Factored(n, tuple(out))


@dataclass(frozen=True)
class DivisorSpectrum:
    """Strictly ascending divisors of n with their natural logarithms."""

    n: int
    divisors: tuple[int, ...]
    logs: tuple[float, ...] = field(repr=False)

    @property
    def tau(self) -> int:
        return len(self.divisors)


def divisors(f: Factored, cap: int = DEFAULT_DIVISOR_CAP) -> DivisorSpectrum:
    """Divisor spectrum of f, generated by exponent-vector products then sorted."""
    count = 1
    for _, e in f.factors:
        count *= e + 1
    if count > cap:
        raise ResourceError(f"tau({f.n}) = {count} exceeds divisor cap {cap}")
    divs = [1]
    for p, e in f.factors:
        pe = 1
        block = list(divs)
        for _ in range(e):
            pe *= p
            divs.extend(d * pe for d in block)
    divs.sort()
    return DivisorSpectrum(f.n, tuple(divs), tuple(math.log(d) for d in divs))


@dataclass(frozen=True)
class ArithValues:
    tau: int
    sigma: int
    omega: int
    big_omega: int
    mu: int
    phi: int
    p_plus: int
    p_minus: object  # int, or INFINITE for n = 1


def basic_fns(f: Factored) -> ArithValues:
    """The multiplicative basics of one integer (P^+(1)=1, P^-(1)=infinity sentinel)."""
    tau = 1
    sigma = 1
    phi = 1
    mu = 1
    for p, e in f.factors:
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
        phi *= (p - 1) * p ** (e - 1)
        mu = 0 if e > 1 else -mu
    return ArithValues(
        tau=tau,
        sigma=sigma,
        omega=f.omega,
        big_omega=f.big_omega,
        mu=mu,
        phi=phi,
        p_plus=f.p_plus,
        p_minus=f.p_minus,
    )


def psi1_count(x: int, y: int) -> int:
    """Psi_1(x, y): the number of squarefree n <= x with largest prime
    factor <= y (P^+(1) = 1 counts), from recurrences over the quotients
    V = {x // i} (`tables._quotients`), in O(sqrt(x)) memory.

    F(v) counts the squarefree n <= v over the primes taken so far, from
    F = 1 (n = 1); taking a prime p adds the n = p m with m <= v // p, so
    F(v) += F(v // p) for each prime p <= min(y, s), s = isqrt(x).  An n <= x
    with a prime p > s has only that one, and its cofactor m <= x // p < p is
    smooth already, so those n add sum_{s < p <= y} Q(x // p), Q(t) the
    number of squarefree m <= t: the primes with x // p = t are counted from
    Lucy's prime counts on V (`tables._prime_pi`).
    """
    import numpy as np

    from .sieve import primes_upto
    from .tables import _check_cap, _prime_pi, _quotients

    _check_cap(x)
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    y = min(y, x)
    s = math.isqrt(x)
    V, index = _quotients(x)
    F = np.ones(len(V), dtype=np.int64)
    for p in primes_upto(min(y, s)):
        F[p - 1:] += F[index(V[p - 1:] // p)]  # V[p - 1] = p; the gather reads F before p
    count = int(F[-1])
    if y > s:
        sq = np.ones(s + 1, dtype=bool)
        sq[0] = False
        for d in range(2, math.isqrt(s) + 1):
            sq[d * d::d * d] = False
        Q = np.cumsum(sq)
        _, _, pi = _prime_pi(x)
        # pi(y) when y is not a quotient: Lucy's sieve on y's own quotients
        pi_y = int(pi[index(y)]) if V[index(y)] == y else int(_prime_pi(y)[2][-1])
        # the p > s with x // p = t lie in (x // (t + 1), x // t], and
        # x // (t + 1) >= s for every t <= x // (s + 1)
        t = np.arange(1, x // (s + 1) + 1, dtype=np.int64)
        top = x // t
        hi = np.where(top <= y, pi[index(top)], pi_y)
        count += int(np.sum(Q[t] * np.maximum(hi - pi[index(x // (t + 1))], 0)))
    return count
