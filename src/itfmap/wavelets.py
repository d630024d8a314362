"""Orthogonal wavelet machinery: filter banks, periodic DWT, undecimated
(shift-invariant) decomposition, and denoising threshold rules.

Filter coefficients ship as embedded constants (`_wavelet_tables`, generated
once by tools/make_wavelet_tables.py) and are trusted only as far as the
quadrature-mirror identities they are required to satisfy; see
`perfect_reconstruction_residual` and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from itfmap._wavelet_tables import SCALING_FILTERS

THRESHOLD_RULES = ("sure", "universal")
TAP_BLOCK = 16384  # DWT outputs summed together: bounds the accumulators to cache


@dataclass(frozen=True)
class WaveletBasis:
    """One orthogonal filter bank, identified by its short name (e.g. sym4).

    `rec_lo` is the synthesis lowpass h (DC gain sqrt(2)); the other three
    filters follow from h by the alternating-flip quadrature-mirror relation.
    """

    name: str
    rec_lo: np.ndarray
    rec_hi: np.ndarray
    dec_lo: np.ndarray
    dec_hi: np.ndarray

    @property
    def length(self) -> int:
        return len(self.rec_lo)


def available_bases() -> tuple[str, ...]:
    return tuple(SCALING_FILTERS)


def get_basis(name: str) -> WaveletBasis:
    """Look up a shipped filter bank; accepts e.g. 'sym4', 'coif5', 'db10', 'fk14'."""
    key = name.lower()
    if key not in SCALING_FILTERS:
        raise KeyError(f"unknown wavelet basis {name!r}; available: {', '.join(SCALING_FILTERS)}")
    h = np.array(SCALING_FILTERS[key], dtype=np.float64)
    sign = (-1.0) ** np.arange(len(h))
    g = sign * h[::-1]  # highpass by alternating flip
    return WaveletBasis(
        name=key,
        rec_lo=h,
        rec_hi=g,
        dec_lo=h[::-1].copy(),
        dec_hi=g[::-1].copy(),
    )


def perfect_reconstruction_residual(basis: WaveletBasis) -> float:
    """Worst-case violation of the orthonormality/QMF identities.

    Checks sum_n h[n] h[n+2k] = delta_k, the lowpass DC gain sqrt(2), and the
    highpass DC null.  Zero (to rounding) for a valid orthogonal bank.
    """
    h = basis.rec_lo
    L = len(h)
    worst = abs(float(np.sum(h)) - sqrt(2.0))
    worst = max(worst, abs(float(np.sum(basis.rec_hi))))
    for k in range(L // 2):
        target = 1.0 if k == 0 else 0.0
        worst = max(worst, abs(float(np.dot(h[: L - 2 * k], h[2 * k :])) - target))
    return worst


# ----------------------------------------------------------------------
# Periodic (decimating) DWT
# ----------------------------------------------------------------------

def _tap_sums(terms: list, out: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Fill the two rows `out`: out[row][k] sums c * src[o + k] over the
    (row, c, src, o) terms in order from +0.0, `TAP_BLOCK` outputs at a time in
    accumulators that stay in cache; the bytes do not depend on the block size."""
    width = len(out[0])
    acc = np.empty((3, min(TAP_BLOCK, width)))  # two accumulator rows, then the product row
    for k0 in range(0, width, TAP_BLOCK):
        k1 = min(k0 + TAP_BLOCK, width)
        acc[:2] = 0.0
        *rows, t = acc[:, : k1 - k0]
        for row, c, src, o in terms:
            np.multiply(c, src[o + k0 : o + k1], out=t)
            np.add(rows[row], t, out=rows[row])
        for dest, r in zip(out, rows):
            dest[k0:k1] = r
    return out


def _analysis_step(x: np.ndarray, basis: WaveletBasis) -> tuple[np.ndarray, np.ndarray, int]:
    """One periodic analysis level; odd-length inputs are padded by repeating
    the last sample (the original length is returned for the inverse).

    Correlation convention: a[k] = sum_m h[m] x[(2k+m) mod n].  The matching
    synthesis expands over circular 2k-shifts of the very same filters, which
    makes it the exact transpose of this (orthogonal) analysis operator.
    """
    n0 = len(x)
    if n0 % 2:
        x = np.concatenate([x, x[-1:]])
    n, L = len(x), basis.length  # L is even for every orthogonal bank
    half = n // 2
    # the even and odd phases of x extended circularly by L samples, one
    # contiguous row each: every tap then reads its source at unit stride
    phases = np.empty((2, half + L // 2))
    phases[:, :half] = x.reshape(-1, 2).T
    phases[:, half:] = x[np.arange(L) % n].reshape(-1, 2).T
    terms = [(row, f[m], phases[m % 2], m // 2)
             for m in range(L) for row, f in enumerate((basis.rec_lo, basis.rec_hi))]
    a, d = _tap_sums(terms, (np.empty(half), np.empty(half)))
    return a, d, n0


def _synthesis_step(a: np.ndarray, d: np.ndarray, basis: WaveletBasis, n0: int) -> np.ndarray:
    """Transpose of `_analysis_step`, out[(2k + m) mod n] += f[m] c[k]: each
    output phase sums its taps in index order, h taps first, then g."""
    half, p = len(a), basis.length // 2
    out = np.empty(2 * half)  # before the temporaries: on a 1M-sample map this saves 7 MiB of peak RSS
    wrap = np.arange(-p, 0) % half  # c circularly extended by p at the front
    terms = [(m % 2, f[m], src, p - m // 2)
             for c, f in ((a, basis.rec_lo), (d, basis.rec_hi))
             for src in [np.concatenate([c[wrap], c])] for m in range(len(f))]
    _tap_sums(terms, (out[0::2], out[1::2]))  # the even and odd output phases
    return out[:n0]


def wavedec(x: np.ndarray, basis: WaveletBasis, levels: int) -> list[np.ndarray]:
    """Multi-level periodic DWT.

    Returns ``[a_J, d_J, d_{J-1}, ..., d_1, lengths]``: the coefficient
    arrays, then an integer array of the input length at each level, which
    `waverec` needs to invert odd lengths.  Requires len(x) >= 2**levels.
    """
    x = np.asarray(x, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if len(x) < 2**levels:
        raise ValueError(f"signal of {len(x)} samples too short for {levels} levels")
    details: list[np.ndarray] = []
    lengths: list[int] = []
    a = x
    for _ in range(levels):
        a, d, n0 = _analysis_step(a, basis)
        details.append(d)
        lengths.append(n0)
    coeffs = [a] + details[::-1]
    coeffs.append(np.array(lengths))  # bookkeeping for odd-length inverses
    return coeffs


def waverec(coeffs: list[np.ndarray], basis: WaveletBasis) -> np.ndarray:
    """Inverse of `wavedec` (exact, by filter-bank orthonormality)."""
    *parts, lengths = coeffs
    a = parts[0]
    details = parts[1:]
    for d, n0 in zip(details, [int(v) for v in lengths[::-1]]):
        a = _synthesis_step(a, d, basis, n0)
    return a


# ----------------------------------------------------------------------
# Undecimated (shift-invariant) transform
# ----------------------------------------------------------------------

def level_filters(basis: WaveletBasis, levels: int) -> list[np.ndarray]:
    """(lowpass, highpass) rows of each undecimated level 1 .. `levels`: the
    bank's pair scaled by 1/sqrt(2) and upsampled by 2^(j-1)."""
    bank = np.array([basis.dec_lo, basis.dec_hi]) / sqrt(2.0)
    out = []
    for j in range(levels):
        pair = np.zeros((2, (basis.length - 1) * 2**j + 1))
        pair[:, :: 2**j] = bank
        out.append(pair)
    return out


def modwt_levels(x: np.ndarray, filters: list[np.ndarray], approximation: bool = True) -> list[np.ndarray]:
    """`modwt` along the last axis of a float64 block `x` on prebuilt `level_filters`,
    unchecked; the last approximation is computed and returned only with `approximation`."""
    n, out, v = x.shape[-1], [], x

    def causal(s, f):  # s[..., t] -> sum_i f[i] s[..., t - i], taps added in index order
        y = np.zeros_like(s)
        for i in np.flatnonzero(f[:n]):  # taps at or past the length add nothing
            y[..., i:] += f[i] * s[..., : n - i]
        return y

    for j, (hj, gj) in enumerate(filters, start=1):
        out.append(causal(v, gj))
        if approximation or j < len(filters):
            v = causal(v, hj)
    return out + [v] if approximation else out


def modwt(x: np.ndarray, basis: WaveletBasis, levels: int) -> list[np.ndarray]:
    """Undecimated (shift-invariant) pyramid: per-level detail sequences,
    each the length of the input.

    Level j spans the octave (fs/2^(j+1), fs/2^j); filters are the bank's
    pair scaled by 1/sqrt(2) and upsampled by 2^(j-1).  The boundary is
    zero-padded (linear convolution, causal alignment) rather than circular:
    the window segments fed to wavelet-domain correlation are aperiodic, and
    circular wrap-around measurably biases the correlation peak.  A time
    shift of the input shifts every output sequence by exactly the same
    amount, with no wrap artifacts.

    Returns ``[d_1, ..., d_J, a_J]``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if n < 2**levels:
        raise ValueError(f"signal of {n} samples too short for {levels} levels")
    return modwt_levels(x, level_filters(basis, levels))


def level_band(level: int, dt: float) -> tuple[float, float]:
    """Nominal pass-band (Hz) of undecimated detail `level` at sample step dt."""
    fs = 1.0 / dt
    return fs / 2 ** (level + 1), fs / 2**level


def levels_in_band(levels: int, dt: float, band: tuple[float, float]) -> list[int]:
    """Detail levels (1-based) whose octave intersects the open band."""
    lo, hi = band
    picked = []
    for j in range(1, levels + 1):
        blo, bhi = level_band(j, dt)
        if max(blo, lo) < min(bhi, hi):
            picked.append(j)
    return picked


# ----------------------------------------------------------------------
# Denoising thresholds
# ----------------------------------------------------------------------

def noise_sigma(detail: np.ndarray) -> float:
    """Robust per-level noise scale: median(|d|) / 0.6745."""
    return float(np.median(np.abs(detail))) / 0.6745


def universal_threshold(sigma: float, n: int) -> float:
    """sigma * sqrt(2 ln n) with n the full signal length."""
    return sigma * sqrt(2.0 * log(n)) if n > 1 else 0.0


def sure_threshold(detail: np.ndarray, sigma: float) -> float:
    """Stein-unbiased-risk threshold for one detail level.

    Minimizes the SURE risk of soft thresholding on the sigma-normalized
    coefficients, then rescales by sigma.
    """
    if sigma <= 0:
        return 0.0
    x = np.abs(detail / sigma)
    x.sort()
    return _sure_of_sorted(x, sigma)


def _sure_of_sorted(x: np.ndarray, sigma: float) -> float:
    """`sure_threshold` from the sorted |detail / sigma|, sigma > 0, which it
    overwrites with their squares.  The risk of thresholding at the i-th
    value is (n - 2i + cumsum(x**2)[i] + (n - i) x[i]**2) / n, i = 1 .. n,
    summed in that order on exact float ramps."""
    n = len(x)
    x *= x
    risk = np.arange(n - 2, -n - 1, -2, dtype=np.float64)  # n - 2i
    risk += np.cumsum(x)
    ramp = np.arange(n - 1, -1, -1, dtype=np.float64)  # n - i
    ramp *= x
    risk += ramp
    risk /= n
    return sigma * float(np.sqrt(x[np.argmin(risk)]))


def level_threshold(detail: np.ndarray, rule: str, n: int) -> float:
    """The threshold of one detail level under `rule`: `universal_threshold`
    or `sure_threshold` at the `noise_sigma` of `detail`, bit for bit, from
    one sorted copy of |detail|, which the SURE risk then reuses (`n` is the
    full signal length)."""
    a = np.abs(detail)
    a.sort()
    k = len(a) // 2
    # np.median: the middle value, or the mean of the middle two; NaN if any
    median = np.nan if np.isnan(a[-1]) else a[k] if len(a) % 2 else (a[k - 1] + a[k]) / 2.0
    sigma = float(median) / 0.6745
    if rule == "universal":
        return universal_threshold(sigma, n)
    if sigma <= 0:
        return 0.0
    # dividing by sigma > 0 keeps the order: sort(|d|) / sigma is sort(|d / sigma|)
    a /= sigma
    return _sure_of_sorted(a, sigma)


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _soft_threshold_inplace(x: np.ndarray, t: float) -> np.ndarray:
    """`soft_threshold(x, t)` of a float64 array, written over `x`: the same
    operations with their operands in the same order, so every byte, NaN
    bits included, matches."""
    sign = np.sign(x)
    np.abs(x, out=x)
    x -= t
    np.maximum(x, 0.0, out=x)
    return np.multiply(sign, x, out=x)
