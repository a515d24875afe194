import numpy as np

from zml import transform


def _sources(seed, n):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-transform.HALF_WIDTH, transform.HALF_WIDTH, n)).astype(np.longdouble)
    c = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(np.arange(1, n + 1))
    tau = np.append(rng.uniform(0.0, transform.BLOCK, 300),
                    [0.0, np.nextafter(transform.BLOCK, 0.0)])
    return x, c, tau


def test_prefix_columns_against_long_double_sums():
    # sum c_n e^(-i u x_n), u = tau - BLOCK/2, for prefixes of one source
    # list, against direct sums with the phases in long double
    x, c, tau = _sources(3, 3000)
    counts = [3000, 1700, 1, 0]
    plan = transform.spread_plan(x)
    h = transform.interpolate(transform.spectra(transform.grids(plan, c, counts)),
                              transform.targets(tau))
    u = tau.astype(np.longdouble) - np.longdouble(transform.BLOCK / 2)
    for col, count in enumerate(counts):
        phase = np.multiply.outer(u, x[:count])
        ref = (np.cos(phase).astype(float) - 1j * np.sin(phase).astype(float)) @ c[:count]
        err = np.abs(h[:, col] - ref).max()
        # measured 2.6e-16 of sum |c_n| for many sources, 3.2e-15 for one
        assert err <= (1e-15 if count > 1 else 1e-14) * max(np.abs(c[:count]).sum(), 1e-300)


def test_columns_and_targets_do_not_depend_on_each_other():
    x, c, tau = _sources(4, 800)
    plan = transform.spread_plan(x)
    counts = [800, 500, 123]
    grids = transform.grids(plan, c, counts)
    # a prefix's grid is the bits of spreading that prefix alone
    for row, count in zip(grids, counts):
        alone = transform.grids(transform.Spread(plan.start[:count], plan.weights[:count]),
                                c[:count], [count])
        assert np.array_equal(alone[0], row)
    g = transform.spectra(grids)
    h = transform.interpolate(g, transform.targets(tau))
    assert np.array_equal(transform.spectra(grids[1:2])[:, 0], g[:, 1])
    assert np.array_equal(transform.interpolate(g[:, 2:], transform.targets(tau[7:9])),
                          h[7:9, 2:])
