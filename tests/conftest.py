import struct

import numpy as np
import pytest

from zml import sieve, zeros


@pytest.fixture(scope="session")
def sieve_10k():
    return sieve.build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_1e6():
    return sieve.build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve_1e7():
    return sieve.build_sieve(10**7)


def _damaged_sieve(good: bytes, damage: str) -> bytes:
    """The bytes of the sieve cache `good` damaged one way."""
    head = len(sieve.SIEVE_MAGIC) + 16
    limit, count = struct.unpack("<QQ", good[len(sieve.SIEVE_MAGIC): head])
    if damage == "v1 file":
        table = sieve.build_sieve(limit)
        lam = [sieve.mangoldt(table, n) for n in range(1, limit + 1)]
        return (b"ZML-SIEVE1" + struct.pack("<Q", limit) + table.mobius[1:].tobytes()
                + np.array(lam, dtype="<f8").tobytes())
    if damage == "count header":
        return good[: head - 8] + struct.pack("<Q", count - 1) + good[head:]
    primes = np.frombuffer(good, "<u4", offset=head + limit).copy()
    if damage == "composite prime":
        primes[primes == 541] = 529                 # 23^2, mu = 0
    elif damage == "composite prime, mu -1":
        primes[primes == 103] = 102                 # 2 * 3 * 17
    elif damage == "swapped primes":
        at_97, at_101 = primes == 97, primes == 101
        primes[at_97], primes[at_101] = 101, 97
    else:
        return {"truncated": good[: len(good) // 2], "extra bytes": good + bytes(1),
                "wrong magic": b"ZML-SIEVE0" + good[10:],
                "short header": good[: len(sieve.SIEVE_MAGIC) + 3]}[damage]
    return good[: head + limit] + primes.tobytes()


@pytest.fixture(scope="session")
def damaged_sieve():
    """f(good, damage): a valid sieve cache's bytes damaged one way:
    truncated, extra bytes, wrong magic, short header, v1 file (the
    former ZML-SIEVE1 layout with a dense f64 Lambda column), count header
    (one less than stored), composite prime, composite prime, mu -1,
    swapped primes."""
    return _damaged_sieve


@pytest.fixture(scope="session")
def zeros_110():
    return zeros.scan_and_refine(10.0, 110.0)


@pytest.fixture(scope="session")
def zeros_1010():
    return zeros.scan_and_refine(10.0, 1010.0)


@pytest.fixture(scope="session")
def zeros_10k_timed():
    """(ZeroList to 10005, wall seconds for the scan)."""
    import time

    t0 = time.perf_counter()
    zlist = zeros.scan_and_refine(10.0, 10005.0)
    return zlist, time.perf_counter() - t0
