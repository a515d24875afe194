import struct
import zlib

import numpy as np
import pytest

from zml import cli, sieve, zeros


@pytest.fixture(autouse=True)
def _empty_store():
    """Each test starts with cli's artifact store empty, so that the order
    of the tests cannot decide whether a step computes what it writes."""
    cli._store.clear()


@pytest.fixture(scope="session")
def sieve_10k():
    """mu(0..10^4)."""
    return sieve.build_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_1e6():
    """mu(0..10^6)."""
    return sieve.build_sieve(10**6)


def _sieve_file(limit, count, payload, crc=None) -> bytes:
    """A sieve container holding payload, with the CRC of payload unless
    crc is given."""
    crc = zlib.crc32(payload) if crc is None else crc
    head = f"{sieve.SIEVE_MAGIC}\n# limit {limit}\n# primes {count}\n# crc32 {crc:08x}\n"
    return head.encode() + payload


def _damaged_sieve(good: bytes, damage: str) -> bytes:
    """The bytes of the sieve container `good` damaged one way."""
    lines = good.split(b"\n", 4)
    limit, count = (int(line.split()[-1]) for line in lines[1:3])
    crc, payload = int(lines[3].split()[-1], 16), lines[4]
    primes = np.frombuffer(payload, "<i8", count=count).copy()
    mobius = bytearray(payload[8 * count:])             # mu(0..limit)
    old = bytes(mobius[1:]) + primes.astype("<u4").tobytes()   # the ZML-SIEVE2/3 payload
    if damage == "v1 file":
        lam = [sieve.mangoldt(n) for n in range(1, limit + 1)]
        return (b"ZML-SIEVE1" + struct.pack("<Q", limit) + bytes(mobius[1:])
                + np.array(lam, dtype="<f8").tobytes())
    if damage == "v2 file":
        return b"ZML-SIEVE2" + struct.pack("<QQ", limit, count) + old
    if damage == "v3 file":
        return b"ZML-SIEVE3" + struct.pack("<QQI", limit, count, zlib.crc32(old)) + old
    if damage == "count header":
        return _sieve_file(limit, count - 1, payload, crc)
    if damage == "mu(6) -1":
        mobius[6] = 0xFF
        return _sieve_file(limit, count, primes.tobytes() + bytes(mobius), crc)
    if damage == "97 deleted, count lowered":
        return _sieve_file(limit, count - 1, primes[primes != 97].tobytes() + bytes(mobius), crc)
    if damage == "composite prime":
        primes[primes == 541] = 529                 # 23^2, mu = 0
    elif damage == "composite prime, mu -1":
        primes[primes == 103] = 102                 # 2 * 3 * 17
    elif damage == "swapped primes":
        at_97, at_101 = primes == 97, primes == 101
        primes[at_97], primes[at_101] = 101, 97
    else:
        return {"truncated": good[: len(good) // 2], "extra bytes": good + bytes(1),
                "wrong magic": good.replace(b" v4\n", b" v0\n", 1),
                "short header": good[: len(sieve.SIEVE_MAGIC) + 3]}[damage]
    return _sieve_file(limit, count, primes.tobytes() + bytes(mobius))


def _container(mobius) -> bytes:
    """The sieve container of mu(0..N) = mobius and the primes <= N."""
    limit = len(mobius) - 1
    primes = sieve._primes_upto(limit)
    return _sieve_file(limit, len(primes), primes.astype("<i8").tobytes() + mobius.tobytes())


@pytest.fixture(scope="session")
def sieve_container():
    """f(mobius): the bytes of the sieve container holding mu(0..N) =
    mobius (from build_sieve) and the primes <= N, as sieve.load_sieve
    reads it."""
    return _container


@pytest.fixture(scope="session")
def damaged_sieve():
    """f(good, damage): a valid sieve container's bytes damaged one way:
    truncated, extra bytes, wrong magic, short header, v1 file (the
    former ZML-SIEVE1 layout with a dense f64 Lambda column), v2 file (the
    former ZML-SIEVE2 layout, without the CRC), v3 file (the former
    ZML-SIEVE3 binary header), count header (one less than stored), three
    with a forged matching CRC that the prime-list checks catch (composite
    prime, composite prime, mu -1, swapped primes), and two that only the
    CRC catches: mu(6) -1 (mu(6) = 1 overwritten) and 97 deleted, count
    lowered."""
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
