"""Reference computations the checks compare against.

Nothing here imports divilab: every value is computed by the benchmark's own
code (plain Eratosthenes, period counts, floor sums, exact rationals), so a
check never compares the program against itself or a stored copy of its
output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n by an odd-only Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2, dtype=bool)  # odd[i] stands for 2i + 3
    for i in range((math.isqrt(n) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2::p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 3)).astype(np.int64)


def spf_table(n: int, primes: np.ndarray) -> np.ndarray:
    """Smallest prime factor of 0..n (n < 2**31): each prime p <= sqrt(n)
    marks p*p, p*p+p, ... in descending order of p, so the smallest prime
    factor writes last.  A multiple of p below p*p has a smaller prime
    factor q, and q*q is at most that multiple."""
    spf = np.arange(n + 1, dtype=np.int32)
    spf[:2] = 0
    for p in primes[primes <= math.isqrt(n)][::-1].tolist():
        spf[p * p::p] = p
    return spf


def factor_tables(n: int, spf: np.ndarray) -> dict[str, np.ndarray]:
    """omega, Omega and the largest prime factor of 0..n (P+(1) = 1), by
    dividing every integer down its smallest-prime-factor chain at once."""
    omega = np.zeros(n + 1, dtype=np.int8)
    big = np.zeros(n + 1, dtype=np.int8)
    gpf = np.ones(n + 1, dtype=np.int32)
    idx = np.arange(2, n + 1, dtype=np.int32)
    rest = idx.copy()
    last = np.zeros(len(idx), dtype=np.int32)
    while len(idx):
        p = spf[rest]
        big[idx] += 1
        omega[idx] += p != last
        gpf[idx] = p
        last = p
        rest //= p
        keep = rest > 1
        idx, rest, last = idx[keep], rest[keep], last[keep]
    return {"omega": omega, "Omega": big, "gpf": gpf}


def tau_sum(x: int) -> int:
    """sum_{n<=x} tau(n) = sum_{d<=x} floor(x/d), by the hyperbola identity."""
    r = math.isqrt(x)
    return 2 * sum(x // d for d in range(1, r + 1)) - r * r


def prime_floor_sum(x: int, primes: np.ndarray, powers: bool) -> int:
    """sum over primes p <= x of floor(x/p); with powers, over prime powers."""
    total = 0
    for p in primes[primes <= x].tolist():
        q = p
        while q <= x:
            total += x // q
            if not powers:
                break
            q *= p
    return total


def divisor_lists(x: int) -> list[list[int]]:
    """Ascending divisors of 0..x (index 0 empty), by appending each d to
    the lists of its multiples."""
    lists: list[list[int]] = [[] for _ in range(x + 1)]
    for d in range(1, x + 1):
        for m in range(d, x + 1, d):
            lists[m].append(d)
    return lists


def delta_of(divs: list[int]) -> int:
    """Most divisors in a window (e^u, e^{u+1}]: for each start divisor,
    count the divisors within log-distance < 1 above it."""
    logs = [math.log(d) for d in divs]
    best, j = 0, 0
    for i in range(len(logs)):
        j = max(j, i)
        while j + 1 < len(logs) and logs[j + 1] - logs[i] < 1.0:
            j += 1
        best = max(best, j - i + 1)
    return best


def tau_plus_of(divs: list[int]) -> int:
    """Occupied dyadic cells (2^k, 2^{k+1}], cell -1 holding d = 1."""
    return len({(d - 1).bit_length() for d in divs})


def multiples_mask(gens, x: int) -> np.ndarray:
    """Members of M(gens) in 0..x (index 0 left False)."""
    mask = np.zeros(x + 1, dtype=bool)
    for a in gens:
        mask[a::a] = True
    mask[0] = False
    return mask


def period_density(gens, period: int) -> Fraction:
    """Exact density of M(gens) when every generator divides `period`: the
    share of one period's residues that are multiples."""
    if any(period % a for a in gens):
        raise ValueError("every generator must divide the period")
    return Fraction(int(np.count_nonzero(multiples_mask(gens, period))), period)


def exactly_one_count(gens, x: int) -> int:
    """Number of n <= x with exactly one divisor among gens."""
    cnt = np.zeros(x + 1, dtype=np.int64)
    for a in gens:
        cnt[a::a] += 1
    return int(np.count_nonzero(cnt[1:] == 1))


def e_coeffs(p: int, primes: np.ndarray) -> tuple[np.ndarray, float]:
    """e_j over {1/(q-1): q prime < p} for every j, and prod_{q<p}(1 - 1/q).

    lambda_k(p) = prod * e_{k-1} / p."""
    qs = primes[primes < p].tolist()
    e = np.zeros(len(qs) + 1)
    e[0] = 1.0
    prod = 1.0
    for i, q in enumerate(qs, start=1):
        e[1:i + 1] += e[:i] / (q - 1)
        prod *= 1.0 - 1.0 / q
    return e, prod


def lambda_exact(k: int, p: int, primes: np.ndarray) -> Fraction:
    """lambda_k(p) in exact rationals (small p only)."""
    e = [Fraction(1)] + [Fraction(0)] * k
    prod = Fraction(1)
    for q in primes[primes < p].tolist():
        for j in range(k, 0, -1):
            e[j] += e[j - 1] / (q - 1)
        prod *= Fraction(q - 1, q)
    return prod * e[k - 1] / p


def golden_ratio(digits: int = 40) -> Fraction:
    """(1 + sqrt 5)/2 to `digits` decimals, from an integer square root."""
    s = 10**digits
    return Fraction(s + math.isqrt(5 * s * s), 2 * s)


def dist_to_int(t: Fraction) -> Fraction:
    fr = t - math.floor(t)
    return min(fr, 1 - fr)


def constants() -> dict[str, float]:
    """Closed forms of the named constants (A and b = 1/3 + A, which rest
    on Mertens' constant, are checked on their own)."""
    ln2, ln3 = math.log(2.0), math.log(3.0)
    delta = 1.0 - (1.0 + math.log(ln2)) / ln2

    def beta_r(m):  # m with 2^{m-1} < r + 1 <= 2^m
        return (ln3 - 1.0) ** m / (ln3 - 1.0 / 3.0) ** (m - 1)

    return {
        "delta": delta,
        "beta": 1.0 - (1.0 + math.log(ln3)) / ln3,
        "gamma_delta": ln2 / math.log((1.0 - 1.0 / math.log(27.0)) / (1.0 - 1.0 / ln3)),
        "lambda_star": math.log(4.0) - 1.0,
        "sigma0": ln2 / (1.0 - ln2),
        "c_pseudo": (1.0 - ln2) / delta,
        "hall_c": 0.5 - math.log(math.pi**2 / 6.0) / math.log(4.0),
        "two_minus_log4": 2.0 - math.log(4.0),
        "beta_1": beta_r(1),
        "beta_2": beta_r(2),
        "beta_4": beta_r(3),
    }


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))
