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
    head = len(sieve.SIEVE_MAGIC) + sieve.SIEVE_HEADER.size
    limit, count, crc = sieve.SIEVE_HEADER.unpack(good[len(sieve.SIEVE_MAGIC): head])
    if damage == "v1 file":
        table = sieve.build_sieve(limit)
        lam = [sieve.mangoldt(table, n) for n in range(1, limit + 1)]
        return (b"ZML-SIEVE1" + struct.pack("<Q", limit) + table.mobius[1:].tobytes()
                + np.array(lam, dtype="<f8").tobytes())
    if damage == "v2 file":
        return b"ZML-SIEVE2" + struct.pack("<QQ", limit, count) + good[head:]
    if damage == "count header":
        return good[: head - 12] + struct.pack("<Q", count - 1) + good[head - 4:]
    if damage == "mu(6) -1":
        mobius = bytearray(good[head: head + limit])
        mobius[6 - 1] = 0xFF
        return good[:head] + bytes(mobius) + good[head + limit:]
    primes = np.frombuffer(good, "<u4", offset=head + limit).copy()
    if damage == "composite prime":
        primes[primes == 541] = 529                 # 23^2, mu = 0
    elif damage == "composite prime, mu -1":
        primes[primes == 103] = 102                 # 2 * 3 * 17
    elif damage == "swapped primes":
        at_97, at_101 = primes == 97, primes == 101
        primes[at_97], primes[at_101] = 101, 97
    elif damage == "97 deleted, count lowered":
        primes = primes[primes != 97]
        header = sieve.SIEVE_HEADER.pack(limit, count - 1, crc)
        return sieve.SIEVE_MAGIC + header + good[head: head + limit] + primes.tobytes()
    else:
        return {"truncated": good[: len(good) // 2], "extra bytes": good + bytes(1),
                "wrong magic": b"ZML-SIEVE0" + good[10:],
                "short header": good[: len(sieve.SIEVE_MAGIC) + 3]}[damage]
    return good[: head + limit] + primes.tobytes()


@pytest.fixture(scope="session")
def damaged_sieve():
    """f(good, damage): a valid sieve cache's bytes damaged one way:
    truncated, extra bytes, wrong magic, short header, v1 file (the
    former ZML-SIEVE1 layout with a dense f64 Lambda column), v2 file (the
    former ZML-SIEVE2 layout, without the CRC), count header (one less than
    stored), composite prime, composite prime, mu -1, swapped primes, and
    two that only the CRC catches: mu(6) -1 (mu(6) = 1 overwritten) and
    97 deleted, count lowered."""
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
