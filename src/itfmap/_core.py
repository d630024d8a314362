"""The two numeric kernels under the correlation and Kalman layers."""

from __future__ import annotations

import numpy as np


def correlate_full(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Time-domain cross-correlation over all lags.

    Returns c of length 2n-1 with c[i] = sum_n x[n] * y[n + i - (n-1)],
    i.e. lag k = i - (n-1) runs from -(n-1) to n-1 and a positive-lag peak
    means y is delayed relative to x.  Zero padding outside bounds.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("correlate_full expects two equal-length 1-D arrays")
    # np.correlate uses a direct (time-domain) sliding dot product
    return np.correlate(y, x, mode="full")


def kalman_local_level(z: np.ndarray, q: float, r: float) -> np.ndarray:
    """Scalar local-level Kalman filter, diffuse start.

    State model x_k = x_{k-1} + w (var q), observation z_k = x_k + v (var r).
    The first posterior equals the first sample with variance r, which makes
    the q=0 filter reproduce the running mean of the observations.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    if z.size == 0:
        return out
    x = z[0]
    p = r
    out[0] = x
    for k in range(1, z.size):
        pp = p + q
        gain = pp / (pp + r)
        x = x + gain * (z[k] - x)
        p = (1.0 - gain) * pp
        out[k] = x
    return out
