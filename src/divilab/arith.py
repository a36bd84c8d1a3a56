"""Factorization, divisor enumeration, and the elementary arithmetic functions.

Everything here is a pure function of a Factored value (or of the sieve),
so concurrent evaluation over disjoint integers is safe.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError
from .sieve import DEFAULT_LIMIT_CAP, SpfSieve, segments
from .tables import _check_cap, _spf_walk

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
    if not 1 <= lo <= hi:
        raise DomainError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > DEFAULT_LIMIT_CAP:
        raise ResourceError(f"sieve limit {hi} exceeds cap {DEFAULT_LIMIT_CAP}")
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


def factor_int(n: int) -> Factored:
    """Sieve-free trial-division factorization (for occasional large inputs)."""
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


def divisor_mobius(f: Factored) -> list[tuple[int, int]]:
    """(divisor, mu(divisor)) pairs sorted by divisor."""
    pairs = [(1, 1)]
    for p, e in f.factors:
        block = list(pairs)
        pe = 1
        for j in range(1, e + 1):
            pe *= p
            mu_fac = -1 if j == 1 else 0
            pairs.extend((d * pe, m * mu_fac) for d, m in block)
    pairs.sort()
    return pairs


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
    """Number of squarefree n <= x with largest prime factor <= y (P^+(1)=1 counts)."""
    _check_cap(x)
    if y < 2:
        raise DomainError(f"need y >= 2, got {y}")
    ok = np.zeros(x + 1, dtype=bool)
    ok[1] = True
    # n = p*m is squarefree and y-smooth iff m is and p = spf[n] is new and <= y
    for lo, hi, p, m, spf in _spf_walk(x):
        ok[lo:hi] = ok[m] & (spf[m] != p) & (p <= y)
    return int(np.count_nonzero(ok))
