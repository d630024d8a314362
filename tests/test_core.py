"""The numeric kernels against plain-Python reference code."""

import numpy as np
import pytest

from itfmap._core import correlate_full, kalman_local_level
from itfmap.denoise import estimate_kalman_vars


def kalman_reference(z, q, r):
    """The local-level recursion, one Python float at a time."""
    out = []
    for k, zk in enumerate(float(v) for v in z):
        if k == 0:
            x, p = zk, r
        else:
            pp = p + q
            gain = pp / (pp + r)
            x = x + gain * (zk - x)
            p = (1.0 - gain) * pp
        out.append(x)
    return np.array(out)


def correlate_reference(x, y):
    """c[i] = sum_m x[m] * y[m + k] with k = i - (n-1), zero outside bounds."""
    n = len(x)
    out = np.zeros(2 * n - 1)
    for i in range(2 * n - 1):
        k = i - (n - 1)
        out[i] = sum(x[m] * y[m + k] for m in range(n) if 0 <= m + k < n)
    return out


def assert_matches_recursion(out, z, ref):
    """Once the variance settles the tail runs as a constant-gain `lfilter`,
    which rounds differently from the loop: bound the difference by the
    signal scale, not per element (a relative bound blows up at zero
    crossings)."""
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.max(np.abs(z)))


@pytest.mark.parametrize("q, r", [(0.01, 0.5), (1.0, 0.1), (1e-6, 2.0)])
def test_kalman_matches_reference_recursion(q, r):
    z = np.random.default_rng(1).normal(size=2000)
    assert_matches_recursion(kalman_local_level(z, q, r), z, kalman_reference(z, q, r))


def test_kalman_long_record_at_the_estimated_variances():
    rng = np.random.default_rng(4)
    z = np.cumsum(rng.normal(0, 0.01, 100_000)) + rng.normal(size=100_000)
    q, r = estimate_kalman_vars(z)
    assert_matches_recursion(kalman_local_level(z, q, r), z, kalman_reference(z, q, r))


@pytest.mark.parametrize("at", [20, 5000])
def test_kalman_nan_before_and_after_the_switch(at):
    """q = r/100 settles within a few hundred samples: a NaN at sample 20
    poisons the loop, one at 5000 the constant-gain tail.  Both leave the
    NaN pattern of the recursion."""
    z = np.random.default_rng(5).normal(size=10_000)
    z[at] = np.nan
    out, ref = kalman_local_level(z, 0.01, 1.0), kalman_reference(z, 0.01, 1.0)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    assert np.isnan(out[at:]).all() and not np.isnan(out[:at]).any()
    assert_matches_recursion(out[:at], z[:at], ref[:at])


def test_kalman_slow_convergence_stays_on_the_loop():
    """At q/r = 5e-7 the variance is still moving after 2,000 samples, so the
    filter never switches to the constant-gain tail and matches exactly."""
    z = np.random.default_rng(6).normal(size=2000)
    assert (kalman_local_level(z, 5e-7, 1.0) == kalman_reference(z, 5e-7, 1.0)).all()


def test_kalman_without_process_noise_is_the_running_mean():
    z = np.random.default_rng(2).normal(loc=3.0, size=5000)
    out = kalman_local_level(z, 0.0, 1.0)
    assert (out == kalman_reference(z, 0.0, 1.0)).all()
    running_mean = np.cumsum(z) / np.arange(1, z.size + 1)
    np.testing.assert_allclose(out, running_mean, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_kalman_short_records(n):
    z = np.array([2.5, -1.0][:n])
    out = kalman_local_level(z, 0.1, 0.4)
    assert out.shape == (n,)
    assert (out == kalman_reference(z, 0.1, 0.4)).all()
    if n:
        assert out[0] == z[0]


@pytest.mark.parametrize("n", [1, 2, 5, 64, 300])
def test_correlate_full_matches_double_sum(n):
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n)
    out = correlate_full(x, y)
    assert out.shape == (2 * n - 1,)
    np.testing.assert_allclose(out, correlate_reference(x, y), rtol=0, atol=1e-12)


def test_correlate_full_accepts_non_contiguous_input():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=512)[::2], rng.normal(size=512)[::2]
    assert not x.flags.c_contiguous
    np.testing.assert_allclose(
        correlate_full(x, y), correlate_reference(x, y), rtol=0, atol=1e-12
    )
    assert (correlate_full(x, y) == correlate_full(x.copy(), y.copy())).all()


@pytest.mark.parametrize("shape_y", [(9,), (8, 1), ()])
def test_correlate_full_rejects_unequal_lengths(shape_y):
    with pytest.raises(ValueError, match="equal-length"):
        correlate_full(np.ones(8), np.ones(shape_y))
