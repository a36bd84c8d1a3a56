"""Vectorized whole-range tables for counting scans up to ~10^8.

Prime-factor tables (omega, Omega, P^+) are derived from the SPF sieve by
one recurrence: `_spf_walk` visits n = 2..x in ascending chunks below 2*lo,
so the cofactor m = n/spf[n] < lo of every n in a chunk is already finished,
and each table fills a whole chunk with one numpy expression in t[m], spf[n]
and spf[m].

Single counts up to x (`arith.psi1_count`,
`experiments.omega_median_count`) need no table: they come from recurrences
over the about 2 sqrt(x) values floor(x/i) (`_quotients`), as in the
Legendre / Meissel-Lehmer method, with prime counts from Lucy's sieve
(`_prime_pi`).

Divisor-indexed tables share one hyperbola walker, `_hyperbola`: in a window
[a, b), each divisor d <= sqrt(b) marks one strided slice, and larger ones go
by one strided slice per cofactor m = n/d <= sqrt(b).  The divisor scans walk
[1, x] in the L2-sized windows of `_windows`, as slices over a whole x-sized
table would stride through all of it once per divisor.  Per-n statistics
read `_divisor_pairs`: every (n, d) with d | n in a window, as one sorted
int64 key per pair; `_divisor_spectra` cuts those windows into one sorted
divisor list per n for `fn --range`.

Scans partition cleanly over segments with associative merges; results are
deterministic and independent of partitioning.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterator

import numpy as np

from .arith import DivisorSpectrum
from .errors import DEFAULT_SCAN_CAP, DomainError, ResourceError
from .sieve import SpfSieve, primes_upto

# Entries per window of `_windows`; 2^20 uint16 tau entries fill a 2 MB L2.  At
# 1e7, windows of 2^18 / 2^19 / 2^20 took 285 / 204 / 177 ms (tau table), 27.7 /
# 18.7 / 14.2 ms (h_count) and 330 / 266 / 293 ms (tauplus_window), 2-vCPU VM.
_WINDOW = 1 << 20


def _windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """[a, b) over [lo, hi) in ascending windows of at most _WINDOW entries."""
    for a in range(lo, hi, _WINDOW):
        yield a, min(a + _WINDOW, hi)


def _check_cap(x: int) -> None:
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if x > DEFAULT_SCAN_CAP:
        raise ResourceError(f"scan size {x} exceeds cap {DEFAULT_SCAN_CAP}")


def _spf_walk(x: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (lo, hi, p, m, spf) over n = 2..x in ascending chunks [lo, hi),
    with p = spf[lo:hi] and m = n // p.  Since hi <= 2*lo, m <= n/2 < lo: a
    table filled as t[lo:hi] = f(t[m], p, spf[m]) reads only finished entries."""
    spf = SpfSieve.build(max(x, 2)).spf
    lo = 2
    while lo <= x:
        hi = min(2 * lo, lo + _WINDOW, x + 1)
        p = spf[lo:hi]
        yield lo, hi, p, np.arange(lo, hi, dtype=p.dtype) // p, spf
        lo = hi


def _quotients(x: int):
    """(V, index): V = {x // i : i >= 1} ascending as int64, about 2 sqrt(x)
    values, and the position of each w in V, vectorized: w - 1 for
    w <= s = isqrt(x), len(V) - x // w above.  Every v // p with v = x // i
    in V is x // (i p), in V too, so a recurrence over V reads only V."""
    s = math.isqrt(x)
    V = np.concatenate((np.arange(1, s + 1, dtype=np.int64),
                        x // np.arange(x // (s + 1), 0, -1, dtype=np.int64)))
    n = len(V)

    def index(w):
        return np.where(w <= s, w - 1, n - x // w)
    return V, index


def _prime_pi(x: int):
    """(V, index, pi) with pi[i] = pi(V[i]) on the quotients of x, by Lucy's
    sieve: from pi(v) = v - 1, each prime p <= sqrt(x) in turn removes from
    every v >= p^2 the pi(v // p) - pi(p - 1) numbers whose smallest prime
    factor is p.  The gather reads the values from before p."""
    V, index = _quotients(x)
    pi = V - 1
    for p in primes_upto(math.isqrt(x)):
        j = int(np.searchsorted(V, p * p))
        pi[j:] -= pi[index(V[j:] // p)] - pi[p - 2]
    return V, index, pi


def _hyperbola(a: int, b: int, d_lo: int = 1, d_hi: int | None = None):
    """Cover the pairs (n, d) with a <= n < b, d | n and d_lo <= d <= d_hi
    (default b - 1), for a >= 1, by runs (n0, n1, step, d0, d1) of n = n0,
    n0 + step, ..., n1.  A divisor d <= sqrt(b - 1) takes one run of its
    multiples: d0 = d1 = d, step d.  Larger divisors go by cofactor m: one
    run of n = m d for d = d0..d1, step m.  So O(sqrt(b)) runs cover any
    window, each a strided slice of it."""
    d_hi = b - 1 if d_hi is None else min(d_hi, b - 1)
    root = math.isqrt(b - 1)
    for d in range(d_lo, min(d_hi, root) + 1):
        n0 = -(-a // d) * d
        if n0 < b:
            yield n0, (b - 1) // d * d, d, d, d
    lo = max(d_lo, root + 1)
    for m in range(1, (b - 1) // lo + 1 if lo <= d_hi else 1):
        d0, d1 = max(lo, -(-a // m)), min(d_hi, (b - 1) // m)
        if d0 <= d1:
            yield m * d0, m * d1, m, d0, d1


def _count_divisors(t: np.ndarray, a: int) -> np.ndarray:
    """Add tau(n) to t[n - a] for every n in [a, a + len(t)); returns t."""
    for n0, n1, step, _, _ in _hyperbola(a, a + len(t)):
        t[n0 - a:n1 - a + 1:step] += 1
    return t


def tau_table(x: int) -> np.ndarray:
    """tau(n) for 0..x (index 0 unused)."""
    _check_cap(x)
    tau = np.zeros(x + 1, dtype=np.uint16)
    for a, b in _windows(1, x + 1):
        _count_divisors(tau[a:b], a)
    return tau


def interval_hits_count(x: int, lo_d: int, hi_d: int) -> int:
    """Number of n in [1, x] with a divisor in (lo_d, hi_d]."""
    _check_cap(x)
    hit = np.empty(min(x, _WINDOW), dtype=bool)
    count = 0
    for a, b in _windows(1, x + 1):
        hit[:] = False
        for n0, n1, step, _, _ in _hyperbola(a, b, lo_d + 1, hi_d):
            hit[n0 - a:n1 - a + 1:step] = True
        count += int(np.count_nonzero(hit[:b - a]))
    return count


def tauplus_window(lo: int, hi: int) -> np.ndarray:
    """tau^+(n) for n in [lo, hi) as uint8: the number of dyadic cells
    (2^(k-1), 2^k] occupied by divisors of n, cell k = bitlen(d - 1).

    In each window [a, b) of `_windows`, every divisor d ORs 1 << k into
    a uint32 mask of its multiples, one `_hyperbola` run at a time; a run of
    large divisors splits where d crosses a power of two.  Below the scan
    cap every d < 2^28, so the 29 cells fit."""
    if not 1 <= lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    _check_cap(hi - 1)
    out = np.empty(hi - lo, dtype=np.uint8)
    for a, b in _windows(lo, hi):
        mask = np.zeros(b - a, dtype=np.uint32)
        for n0, n1, step, d, d1 in _hyperbola(a, b):
            if d == d1:
                mask[n0 - a:n1 - a + 1:step] |= 1 << (d - 1).bit_length()
                continue
            while d <= d1:
                k = (d - 1).bit_length()
                top = min(d1, 1 << k)
                mask[step * d - a:step * top - a + 1:step] |= 1 << k
                d = top + 1
        out[a - lo:b - lo] = np.bitwise_count(mask)
    return out


_PAIR_WINDOW = 1 << 16  # n - a < 2^16 and d < 2^32 share one int64 key


def _divisor_pairs(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(n - a, d) over every divisor d of every n in [a, b), b - a <= 2^16,
    as flat int64 arrays sorted by n and then d.  Each `_hyperbola` run is
    one arithmetic progression of the key (n - a) << 32 | d: step d << 32
    for the multiples of one d, (m << 32) + 1 along a cofactor run."""
    keys = [np.arange((n0 - a) << 32 | d0, ((n1 - a) << 32 | d1) + 1,
                      step << 32 | (d0 != d1), dtype=np.int64)
            for n0, n1, step, d0, d1 in _hyperbola(a, b)]
    key = np.sort(np.concatenate(keys))
    return key >> 32, key & 0xFFFFFFFF


def _divisor_spectra(lo: int, hi: int) -> Iterator[DivisorSpectrum]:
    """The DivisorSpectrum of each n in [lo, hi], ascending, read from
    `_divisor_pairs` windows: n's divisors run from its d == 1 to the next
    n's.  The caller checks the range; d < 2^32 holds below DEFAULT_LIMIT_CAP."""
    for a in range(lo, hi + 1, _PAIR_WINDOW):
        b = min(a + _PAIR_WINDOW, hi + 1)
        d = _divisor_pairs(a, b)[1]
        starts = np.flatnonzero(d == 1).tolist()
        d = d.tolist()
        for n, s, e in zip(range(a, b), starts, starts[1:] + [len(d)]):
            divs = tuple(d[s:e])
            yield DivisorSpectrum(n, divs, tuple(map(math.log, divs)))


def gpf_table(x: int) -> np.ndarray:
    """Largest prime factor of 0..x (gpf[1] = 1 by convention)."""
    _check_cap(x)
    gpf = np.ones(x + 1, dtype=np.int64 if x >= 1 << 31 else np.int32)
    for lo, hi, p, m, _ in _spf_walk(x):
        gpf[lo:hi] = np.maximum(gpf[m], p)
    return gpf


def omega_table(x: int, with_multiplicity: bool = False) -> np.ndarray:
    """omega(n) (distinct primes) or Omega(n) (with multiplicity) for 0..x."""
    _check_cap(x)
    om = np.zeros(x + 1, dtype=np.uint8)
    for lo, hi, p, m, spf in _spf_walk(x):
        om[lo:hi] = om[m] + 1 if with_multiplicity else om[m] + (spf[m] != p)
    return om


def e_set_mask(x: int) -> np.ndarray:
    """Boolean mask of the products d*d' with d < d' < 2d, up to x."""
    _check_cap(x)
    mask = np.zeros(x + 1, dtype=bool)
    for d in range(1, math.isqrt(x) + 1):
        hi = min(2 * d - 1, x // d)
        if hi > d:
            mask[d * (d + 1): d * hi + 1: d] = True
    return mask


def multiples_mask(generators, x: int) -> np.ndarray:
    """Membership mask of the set of multiples of the given generators on
    0..x.

    Generators up to T = max(sqrt(x), x // #generators) mark one strided
    slice each, in ascending order, skipping any already marked (its
    multiples are a subset).  The unmarked ones above T have fewer than
    x / T multiples each, so they go by cofactor: for each m, one
    fancy-index write of m a over every such a <= x / m."""
    _check_cap(x)
    if isinstance(generators, np.ndarray):  # np.unique is far slower than np.sort
        bad, gens = generators[generators <= 0], np.sort(generators[generators <= x])
    else:  # a Python int may not fit int64
        ints = [int(a) for a in generators]
        bad, gens = [a for a in ints if a <= 0], sorted(a for a in ints if a <= x)
    if len(bad):
        raise DomainError(f"generators must be positive, got {bad[0]}")
    out = np.zeros(x + 1, dtype=bool)
    if not len(gens):
        return out
    T = max(math.isqrt(x), x // len(gens))
    split = bisect.bisect_right(gens, T)
    for a in gens[:split]:
        if not out[a]:
            out[a::a] = True
    big = np.asarray(gens[split:], dtype=np.int64)
    big = big[~out[big]]
    for m in range(1, x // T + 1):
        k = int(np.searchsorted(big, x // m, side="right"))
        if k == 0:
            break
        out[big[:k] * m] = True
    return out
