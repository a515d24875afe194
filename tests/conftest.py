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
