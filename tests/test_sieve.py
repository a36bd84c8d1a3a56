import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divilab.sieve as sieve_mod
from divilab import DomainError, ResourceError, SpfSieve, build_sieve, is_prime_u64
from divilab.sieve import _CHUNK_BYTES, primes_upto

from oracles import eratosthenes_primes, spf_table, trial_factor


def test_spf_small_values():
    sv = build_sieve(10)
    assert [int(sv.spf[n]) for n in range(2, 11)] == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_limit_two():
    sv = build_sieve(2)
    assert int(sv.spf[2]) == 2
    assert sv.is_prime(2)


def test_spf_invariants():
    sv = build_sieve(20000)
    for n in range(2, 20001):
        p = int(sv.spf[n])
        assert n % p == 0
        assert is_prime_u64(p)
        assert (p == n) == is_prime_u64(n)


def test_factor_matches_trial_division(sieve_1e4):
    for n in range(2, 3000):
        assert sieve_1e4.factor_pairs(n) == trial_factor(n)


def _spf_primes(sv):
    """The n in 2..limit with spf[n] == n, read off the table."""
    ns = np.arange(2, sv.limit + 1)
    return ns[sv.spf[2:] == ns]


def test_primes_listing():
    sv = build_sieve(100)
    assert _spf_primes(sv).tolist() == primes_upto(100).tolist()
    assert list(primes_upto(10)) == [2, 3, 5, 7]


def test_primes_upto_matches_full_sieve():
    # the odds-only sieve against the sieve over every integer that it
    # replaced: every n <= 3000, both sides of each p^2, and 10^6
    ns = {*range(3001), 10**6}
    for p in eratosthenes_primes(200).tolist():
        ns |= {p * p - 1, p * p, p * p + 1}
    for n in sorted(ns):
        got = primes_upto(n)
        assert got.dtype == np.int64 and np.array_equal(got, eratosthenes_primes(n)), n


def test_build_deterministic():
    a = build_sieve(5000)
    b = build_sieve(5000)
    assert a.spf.tobytes() == b.spf.tobytes()


def test_limit_errors():
    with pytest.raises(DomainError):
        build_sieve(1)
    with pytest.raises(ResourceError):
        build_sieve(10**13)


_HEAP_PROBE = """
import os, sys
import numpy as np
from divilab import sieve

if sys.argv[1] == "off":
    sieve._malloc_trim = None

def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

a = np.ones(3 << 20)
del a  # a freed 24 MB mapping raises glibc's mmap and trim thresholds
base = rss_mb()
b = [np.ones(1 << 20) for _ in range(4)]
del b  # 32 MB freed onto the heap, under the trim threshold
held = rss_mb() - base
sieve.SpfSieve.build(1000)
print(held, rss_mb() - base)
"""


def test_build_returns_freed_heap():
    """A build starts from what is live, not from what earlier calls freed."""
    if sieve_mod._malloc_trim is None or not Path("/proc/self/statm").exists():
        pytest.skip("needs glibc's malloc_trim and /proc")
    env = dict(os.environ)
    src = str(Path(sieve_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def probe(mode):
        out = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode], env=env,
                             capture_output=True, text=True, check=True)
        return [float(v) for v in out.stdout.split()]

    held, kept_without = probe("off")
    if held < 16 or kept_without < 16:
        pytest.skip("this C library hands freed heap back by itself")
    _, kept = probe("on")
    assert kept < 8


def test_cache_roundtrip(tmp_path):
    sv = build_sieve(12345)
    path = tmp_path / "cache.dvl"
    sv.save(path)
    loaded = SpfSieve.load(path)
    assert loaded.limit == sv.limit
    assert np.array_equal(loaded.spf, sv.spf)
    raw = path.read_bytes()
    assert raw[:4] == b"DVL1"


def test_cache_save_is_atomic(tmp_path, monkeypatch):
    import builtins

    import divilab.sieve as sieve_mod

    path = tmp_path / "cache.dvl"
    build_sieve(1000).save(path)

    class DiskFull:  # writes the header, then half the entries, then fails
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) > 16:
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(sieve_mod, "open", lambda f, mode: DiskFull(builtins.open(f, mode)),
                        raising=False)
    with pytest.raises(OSError):
        build_sieve(5000).save(path)
    monkeypatch.undo()
    assert SpfSieve.load(path).limit == 1000  # the old cache survives whole
    assert [p.name for p in tmp_path.iterdir()] == ["cache.dvl"]


def test_cache_bad_magic(tmp_path):
    path = tmp_path / "bad.dvl"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DomainError):
        SpfSieve.load(path)


def test_miller_rabin_agrees_with_sieve():
    sv = build_sieve(50000)
    pr = set(_spf_primes(sv).tolist())
    for n in range(2, 50001, 37):
        assert is_prime_u64(n) == (n in pr)
    # known strong-pseudoprime traps
    for n in (3215031751, 3825123056546413051):
        assert not is_prime_u64(n)
    assert is_prime_u64(2**61 - 1)


def test_out_of_range_factor(sieve_1e4):
    with pytest.raises(DomainError):
        sieve_1e4.factor_pairs(10**5)


@pytest.mark.slow
def test_build_1e8_prime_entry():
    sv = build_sieve(10**8)
    assert int(sv.spf[99999989]) == 99999989
    assert is_prime_u64(99999989)
    assert int(sv.spf[99999988]) == 2


# -- the SPF table against the unsegmented oracle ----------------------------

def _same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


CHUNK = _CHUNK_BYTES // 4  # uint32 entries per chunk of `prime_runs`


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 1000, CHUNK - 1, CHUNK,
                                   CHUNK + 1, 2 * CHUNK + 7, 10**6 + 7])
def test_build_matches_unsegmented_oracle(limit):
    _same(SpfSieve.build(limit).spf, spf_table(limit))


# Chunks double from [2, 4) until they reach `segment` entries, then advance
# by it.
@pytest.mark.parametrize("segment,limit", [
    (7, 50),       # 49 = 7^2 ends [43, 50), the first chunk 7 sieves
    (49, 1000),    # 121 = 11^2 is in [113, 162), the first chunk 11 sieves
    (50, 1000),    # 961 = 31^2 is in [914, 964), next to the short [964, 1001)
    (11, 121),     # 121 = 11^2 = limit ends the short chunk [115, 122)
    (11, 122),     # and 122 = 2 * 61 is hit by 2 only, after 11
    (64, 10007),   # 10007 is prime, past every run of [9984, 10008)
    (1000, 10**5 + 3),
    (1, 200),      # one integer per chunk from 2 on
])
def test_build_tiny_segments(segment, limit, monkeypatch):
    monkeypatch.setattr(sieve_mod, "_CHUNK_BYTES", 4 * segment)
    _same(SpfSieve.build(limit).spf, spf_table(limit))
