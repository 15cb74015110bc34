import functools
import math

import numpy as np
import pytest

from binomfactor import PrimeTable
from binomfactor.primes import _CHUNK


@pytest.fixture(scope="session")
def table_small():
    """Enough for the worked decomposition examples and unit checks."""
    return PrimeTable(20_000)


@pytest.fixture(scope="session")
def table_medium():
    """Covers identity grids up to n*k = 10^6."""
    return PrimeTable(1_000_000)


@pytest.fixture(scope="session")
def table_large():
    """Acceptance scale: pi up to 10^7."""
    return PrimeTable(10_000_000)


def reference_sieve(limit: int) -> np.ndarray:
    """Independent second sieve: odd-only wheel, incremental marking.

    Deliberately a different algorithm from the production segmented
    sieve so a bit-for-bit comparison is meaningful.
    """
    flags = np.zeros(limit + 1, dtype=bool)
    if limit >= 2:
        flags[2] = True
    sieve = bytearray([1]) * ((limit + 1) // 2)  # index i -> odd number 2i+1
    sieve[0] = 0
    i = 1
    while (2 * i + 1) * (2 * i + 1) <= limit:
        if sieve[i]:
            p = 2 * i + 1
            start = (p * p - 1) // 2
            sieve[start::p] = bytearray(len(sieve[start::p]))
        i += 1
    odds = np.frombuffer(bytes(sieve), dtype=np.uint8).astype(bool)
    odd_values = 2 * np.arange(len(sieve), dtype=np.int64) + 1
    flags[odd_values[odds]] = True
    return flags


def _von_mangoldt(limit: int, primes: np.ndarray) -> np.ndarray:
    """Lambda(n) for every 0 <= n <= limit: log p at n = p^e (e >= 1), else
    0.  A prime weighs ``np.log`` of itself and a higher prime power
    ``math.log`` of its base; the two logs differ in the last bit at some
    primes."""
    lam = np.zeros(limit + 1, dtype=np.float64)
    lam[primes] = np.log(primes.astype(np.float64))
    root = math.isqrt(limit)
    for p in primes[primes <= root].tolist():
        lp = math.log(p)
        q = p * p
        while q <= limit:
            lam[q] = lp
            q *= p
    return lam


def _psi_prefix(lam: np.ndarray) -> np.ndarray:
    """The dense psi oracle: cumulative sums of Lambda, accumulated in
    80-bit extended precision over 2^20-wide chunks, each chunk's total
    carried into the next.  `PrimeTable.psi_at` must equal it to the bit."""
    out = np.empty(lam.shape, dtype=np.float64)
    carry = np.longdouble(0.0)
    for lo in range(0, len(lam), _CHUNK):
        hi = min(lo + _CHUNK, len(lam))
        c = np.cumsum(lam[lo:hi], dtype=np.longdouble)
        c += carry
        out[lo:hi] = c
        carry = c[-1]
    return out


@functools.lru_cache(maxsize=1)
def dense_psi(limit: int) -> np.ndarray:
    """psi(n) for every 0 <= n <= limit from the dense oracle over the
    primes of `reference_sieve`, read-only; the latest limit is kept."""
    psi = _psi_prefix(_von_mangoldt(limit, np.flatnonzero(reference_sieve(limit))))
    psi.setflags(write=False)
    return psi


@functools.lru_cache(maxsize=1)
def dense_log_factorial(limit: int) -> np.ndarray:
    """The dense log-factorial oracle: log(0!), ..., log(limit!) as one
    read-only float64 array, the running sum of the logs accumulated in
    80-bit extended precision over 2^20-wide chunks, each chunk's total
    carried into its first log before its cumsum.  `log_factorial` must
    equal it to the bit; the latest limit is kept."""
    out = np.empty(limit + 1, dtype=np.float64)
    carry = np.longdouble(0.0)
    for lo in range(0, limit + 1, _CHUNK):
        hi = min(lo + _CHUNK, limit + 1)
        c = np.arange(lo, hi, dtype=np.longdouble)
        if lo == 0:
            c[0] = 1.0  # log(0!) = log(1)
        np.log(c, out=c)
        c[0] += carry
        np.cumsum(c, out=c)
        out[lo:hi] = c
        carry = c[-1]
    out.setflags(write=False)
    return out


def floored_pairs(cols):
    """(floor(lower), floor(upper)) of each interval of a (6, m) block of
    decomposition columns, num // den, in column order."""
    return list(zip((cols[0] // cols[1]).tolist(), (cols[2] // cols[3]).tolist()))
