"""Vectorized whole-range tables for counting scans up to ~10^8.

Prime-factor tables (omega, Omega, P^+, and the squarefree smooth count in
`arith.psi1_count`) are derived from the SPF sieve by one recurrence:
`_spf_walk` visits n = 2..x in ascending chunks below 2*lo, so the cofactor
m = n/spf[n] < lo of every n in a chunk is already finished, and each table
fills a whole chunk with one numpy expression in t[m], spf[n] and spf[m].

Divisor-indexed tables use the hyperbola split: divisors d <= sqrt(x) are
marked with one strided slice per d, and larger divisors are covered by one
strided slice per cofactor m = n/d <= sqrt(x), so a full tau table costs
O(sqrt(x)) numpy operations over O(x log x) cells.  tau^+ comes from a
per-divisor cell bitmask: each divisor d ORs the bit of its dyadic cell,
1 << bitlen(d - 1), into a uint32 mask of every multiple, window by window,
and the occupied cells are the mask's set bits.

Scans partition cleanly over segments with associative merges; results are
deterministic and independent of partitioning.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import DEFAULT_SCAN_CAP, DomainError, ResourceError
from .sieve import SpfSieve

_WALK_CHUNK = 1 << 20  # bounds the per-chunk temporaries


def _check_cap(x: int, cap: int = DEFAULT_SCAN_CAP) -> None:
    if x < 1:
        raise DomainError(f"need x >= 1, got {x}")
    if x > cap:
        raise ResourceError(f"scan size {x} exceeds cap {cap}")


def _spf_walk(x: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (lo, hi, p, m, spf) over n = 2..x in ascending chunks [lo, hi),
    with p = spf[lo:hi] and m = n // p.  Since hi <= 2*lo, m <= n/2 < lo: a
    table filled as t[lo:hi] = f(t[m], p, spf[m]) reads only finished entries."""
    spf = SpfSieve.build(max(x, 2)).spf
    lo = 2
    while lo <= x:
        hi = min(2 * lo, lo + _WALK_CHUNK, x + 1)
        p = spf[lo:hi]
        yield lo, hi, p, np.arange(lo, hi, dtype=p.dtype) // p, spf
        lo = hi


def tau_table(x: int) -> np.ndarray:
    """tau(n) for 0..x (index 0 unused)."""
    _check_cap(x)
    tau = np.zeros(x + 1, dtype=np.uint16)
    D = math.isqrt(x)
    for d in range(1, D + 1):
        tau[d::d] += 1
    for m in range(1, x // (D + 1) + 1):
        tau[m * (D + 1): m * (x // m) + 1: m] += 1
    return tau


def interval_multiples_hits(x: int, lo_d: int, hi_d: int) -> np.ndarray:
    """Boolean mask on 0..x of integers having a divisor in (lo_d, hi_d]."""
    _check_cap(x)
    out = np.zeros(x + 1, dtype=bool)
    hi_d = min(hi_d, x)
    if lo_d >= hi_d:
        return out
    D = math.isqrt(x)
    for d in range(lo_d + 1, min(hi_d, D) + 1):
        out[d::d] = True
    if hi_d > D:
        for m in range(1, x // (D + 1) + 1):
            lo = max(D, lo_d)
            hi = min(hi_d, x // m)
            if hi > lo:
                out[m * (lo + 1): m * hi + 1: m] = True
    return out


def tauplus_window(lo: int, hi: int) -> np.ndarray:
    """tau^+(n) for n in [lo, hi) as uint8: the number of dyadic cells
    (2^(k-1), 2^k] occupied by divisors of n, cell k = bitlen(d - 1).

    In each window [a, b) of 2^20 entries, every divisor d ORs 1 << k into
    a uint32 mask of its multiples: d <= sqrt(b - 1) takes one strided
    slice, and larger d one slice per cofactor m, split where d crosses a
    power of two.  Below the scan cap every d < 2^28, so the 29 cells fit."""
    if not 1 <= lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    _check_cap(hi - 1)
    out = np.empty(hi - lo, dtype=np.uint8)
    for a in range(lo, hi, _WALK_CHUNK):
        b = min(a + _WALK_CHUNK, hi)
        mask = np.zeros(b - a, dtype=np.uint32)
        root = math.isqrt(b - 1)
        for d in range(1, root + 1):
            mask[-a % d::d] |= 1 << (d - 1).bit_length()
        for m in range(1, (b - 1) // (root + 1) + 1):
            d = max(root + 1, -(-a // m))
            d_hi = (b - 1) // m
            while d <= d_hi:
                k = (d - 1).bit_length()
                top = min(d_hi, 1 << k)
                mask[m * d - a: m * top - a + 1: m] |= 1 << k
                d = top + 1
        out[a - lo:b - lo] = np.bitwise_count(mask)
    return out


def tauplus_table(x: int) -> np.ndarray:
    """tau^+(n) for 0..x (index 0 unused)."""
    _check_cap(x)
    out = np.zeros(x + 1, dtype=np.uint8)
    out[1:] = tauplus_window(1, x + 1)
    return out


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
    0..x.  Generators already covered by an earlier mark are skipped (their
    multiples are a subset)."""
    _check_cap(x)
    out = np.zeros(x + 1, dtype=bool)
    for a in generators:
        a = int(a)
        if a <= 0:
            raise DomainError(f"generators must be positive, got {a}")
        if a <= x and not out[a]:
            out[a::a] = True
    return out


def interval_divisor_counts(x: int, y: int, z: int, closed_left: bool = False) -> np.ndarray:
    """Number of divisors of each n <= x lying in (y, z] (or [y, z]),
    saturating at 255."""
    _check_cap(x)
    cnt = np.zeros(x + 1, dtype=np.uint8)
    lo = y if not closed_left else y - 1
    for d in range(max(1, lo + 1), min(z, x) + 1):
        sl = cnt[d::d]
        np.add(sl, 1, out=sl, where=sl < 255)
    return cnt


def divisor_lists(x: int, segment: int = 200_000, start: int = 1) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield (base, lists) segments where lists[i] holds the ascending
    divisors of base + i, covering start..x.

    Small divisors d <= sqrt(hi) are appended d-major (ascending); large
    divisors are appended via cofactors m-major with m descending, which
    also lands ascending per n -- so no per-n sort is needed.
    """
    _check_cap(x)
    for base in range(start, x + 1, segment):
        hi = min(base + segment, x + 1)
        lists: list[list[int]] = [[] for _ in range(hi - base)]
        root = math.isqrt(hi - 1)
        for d in range(1, root + 1):
            first = ((base + d - 1) // d) * d
            for nn in range(first, hi, d):
                lists[nn - base].append(d)
        for m in range(root, 0, -1):
            d_lo = max(root + 1, (base + m - 1) // m)
            d_hi = (hi - 1) // m
            for d in range(d_lo, d_hi + 1):
                lists[m * d - base].append(d)
        yield base, lists
