import numpy as np
import pytest

from divilab import DomainError, ResourceError, SpfSieve, build_sieve, is_prime_u64
from divilab.sieve import primes_upto

from oracles import trial_factor


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


def test_primes_listing():
    sv = build_sieve(100)
    assert list(sv.primes()) == [int(p) for p in primes_upto(100)]
    assert list(primes_upto(10)) == [2, 3, 5, 7]


def test_build_deterministic():
    a = build_sieve(5000)
    b = build_sieve(5000)
    assert a.spf.tobytes() == b.spf.tobytes()


def test_limit_errors():
    with pytest.raises(DomainError):
        build_sieve(1)
    with pytest.raises(ResourceError):
        build_sieve(10**13)


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
    pr = set(int(p) for p in sv.primes())
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
