import numpy as np
import pytest

from binomfactor import PrimeTable


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
