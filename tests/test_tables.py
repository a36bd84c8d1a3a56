"""The SPF-derived tables against the per-prime strided sieves they replaced,
and the tau^+ bitmask kernel against the per-cell builder it replaced.

The listed sizes straddle the walker's chunk boundaries: its chunks double
up to 2**20 cells and then advance by 2**20, so x = 2**20 - 1, 2**20 + 3,
2**21 + 3 and 3 * 2**20 + 7 end inside the first capped chunks.
"""

import numpy as np
import pytest

from divilab import DomainError, psi1_count
from divilab.tables import gpf_table, omega_table, tauplus_table, tauplus_window

from oracles import cell_tauplus_table, sieve_gpf_table, sieve_omega_table, sieve_psi1_mask

XS = (1, 2, 3, 4, 10, 1000, 2**20 - 1, 2**20 + 3, 2**21 + 3, 3 * 2**20 + 7)
YS = (2, 3, 97, 1000, 2**20)
XMAX = max(XS)


def _same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def oracle_tables():
    # each table on 0..x is the prefix of the table on 0..XMAX
    return {
        "omega": sieve_omega_table(XMAX),
        "Omega": sieve_omega_table(XMAX, with_multiplicity=True),
        "gpf": sieve_gpf_table(XMAX),
        "psi1": {y: np.cumsum(sieve_psi1_mask(XMAX, y)) for y in YS},
        "tauplus": cell_tauplus_table(XMAX),
    }


@pytest.mark.parametrize("x", XS)
def test_omega_tables_match_oracle(oracle_tables, x):
    _same(omega_table(x), oracle_tables["omega"][:x + 1])
    _same(omega_table(x, with_multiplicity=True), oracle_tables["Omega"][:x + 1])


@pytest.mark.parametrize("x", XS)
def test_gpf_table_matches_oracle(oracle_tables, x):
    _same(gpf_table(x), oracle_tables["gpf"][:x + 1])


@pytest.mark.parametrize("x", XS)
def test_psi1_count_matches_oracle(oracle_tables, x):
    for y in YS:
        got = psi1_count(x, y)
        assert type(got) is int
        assert got == int(oracle_tables["psi1"][y][x])


@pytest.mark.parametrize("x", XS)
def test_tauplus_table_matches_oracle(oracle_tables, x):
    _same(tauplus_table(x), oracle_tables["tauplus"][:x + 1])


@pytest.mark.parametrize("lo, hi", [(10**6 - 5, 10**6 + 2**20 + 3), (2, 3), (1023, 1025),
                                    (2**20 - 7, 2**20 + 9), (3 * 2**20 - 1, 3 * 2**20 + 8)])
def test_tauplus_window_matches_oracle(oracle_tables, lo, hi):
    _same(tauplus_window(lo, hi), oracle_tables["tauplus"][lo:hi])


def test_tauplus_window_domain():
    for lo, hi in ((0, 5), (5, 5), (6, 5)):
        with pytest.raises(DomainError):
            tauplus_window(lo, hi)
