"""Classical channel-pair baselines: band coherence and relative band power.

Pairwise band coherence (PBC) is the maximum squared lagged cross-correlation
between two band-pass filtered channels; region values average PBC over all
cross-region channel pairs.  Relative band power (RBP) is the share of a
channel's block-averaged periodogram power falling inside one band relative
to the union of the analysed bands.

The result of `pbc` is defined by `_corr_at_lag`, the correlation of each lag
computed on its own overlapping samples.  `pbc` screens every lag in one pass
(cross products by one FFT, window moments from the sums of the dropped end
samples), bounds the screen's distance to `_corr_at_lag` by a stated δ, and
evaluates `_corr_at_lag` only at the lags that can hold the maximum; inputs on
which the bound does not hold (extreme magnitudes, a window whose
variance or offset swamps the rounding) evaluate every lag.  δ's FFT term
rests on an assumed error constant (see `_screen`); while δ bounds the
screen's error, the result equals the all-lag evaluation bit for bit.
`sosfiltfilt` filters each column on its
own, so `pbc_table` filters all region channels once per band, in one call,
and takes each region's columns from that array; the values equal filtering
region by region for every pair.
"""
from __future__ import annotations

from itertools import product

import numpy as np
from scipy import fft as sfft
from scipy import signal

from .spectral import (
    CANONICAL_BANDS,
    EmptyBandError,
    FrequencyBand,
    TimeSeriesMatrix,
    block_periodograms,
)

__all__ = [
    "bandpass",
    "min_samples",
    "pbc",
    "pbc_matrix",
    "pbc_table",
    "region_pbc",
    "rbp",
]

DEFAULT_FILTER_ORDER = 4
DEFAULT_MAX_LAG = 50


def bandpass(ts: TimeSeriesMatrix, band: FrequencyBand) -> np.ndarray:
    """Zero-phase (forward-backward) Butterworth band-pass of every channel.

    The two-pass application doubles the effective order and cancels the
    phase response.  The band must sit strictly inside (0, fs/2).
    """
    nyq = ts.fs / 2.0
    if not (0 < band.lo_hz < band.hi_hz < nyq):
        raise ValueError(
            f"band ({band.lo_hz}, {band.hi_hz}] must lie strictly inside (0, {nyq})")
    sos = signal.butter(DEFAULT_FILTER_ORDER, [band.lo_hz, band.hi_hz], btype="bandpass",
                        fs=ts.fs, output="sos")
    return signal.sosfiltfilt(sos, ts.data, axis=0)


def min_samples(max_lag: int = DEFAULT_MAX_LAG) -> int:
    """Shortest channel `pbc` accepts: every lag in range, 30 of them overlapping."""
    return max(2 * max_lag + 2, max_lag + 30)


def _corr_at_lag(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    """Pearson correlation of x[t] with y[t+lag] on the overlapping samples."""
    if lag >= 0:
        xw = x[: x.size - lag] if lag else x
        yw = y[lag:]
    else:
        xw = x[-lag:]
        yw = y[: y.size + lag]
    xc = xw - xw.mean()
    yc = yw - yw.mean()
    denom = np.sqrt((xc @ xc) * (yc @ yc))
    if denom == 0:
        return 0.0
    return float((xc @ yc) / denom)


def _lag_moments(v: np.ndarray, max_lag: int, leading: bool) -> np.ndarray:
    """Window sums of ``v`` at lags -max_lag..max_lag: the total less the dropped ends.

    The leading channel's window drops the last |lag| samples at lag >= 0 and
    the first |lag| below; the lagging channel's the other way round.
    """
    total = v.sum()
    without_first = total - np.concatenate(([0.0], np.cumsum(v[:max_lag])))
    without_last = total - np.concatenate(([0.0], np.cumsum(v[::-1][:max_lag])))
    if leading:
        return np.concatenate((without_first[:0:-1], without_last))
    return np.concatenate((without_last[:0:-1], without_first))


def _screen(x: np.ndarray, y: np.ndarray, max_lag: int):
    """Correlations at lags -max_lag..max_lag and a bound δ per lag, or None.

    Let u = 2**-53, g = 2n u / (1 - 2n u) and L = next_fast_len(n + max_lag).
    The screen works on x0 = x - mean(x) and y0 = y - mean(y), with
    N = ||x0||, Q = N**2 (and N', Q' for y0).  Per lag, with m = n - |lag|:
    S_xy comes from one real FFT of length L (zero padding keeps it linear),
    S_x and S_xx are the total less the dropped end samples, and

        cov = S_xy - S_x S_y / m,  v_x = S_xx - S_x**2 / m,
        c = cov / sqrt(v_x v_y).

    Rounding (Higham, *Accuracy and Stability*, ch. 3 and 24, every sum of k
    terms within γ_k of the sum of magnitudes, in any order):
    |ΔS_x| <= g Σ|x0|, |ΔS_xx| <= g Q and, as m >= n / 2, |Δv_x| <= D_x = 8 g Q.
    A length-L FFT has relative 2-norm error ε_F.  Its value is assumed, not
    derived: a radix-2 analysis gives about 6.7 u per stage, but
    `next_fast_len` lengths also have factors 3 and 5, whose butterflies that
    analysis does not cover.  ε_F is taken as 10 u log2(L); on the tested
    inputs the screen's error stayed below 6e-4 δ.  Through the product and
    the inverse, |ΔS_xy| <= E = 4 (ε_F + u) sqrt(L) N N', so
    |Δcov| <= D_c = E + 8 g N N'.
    With v_lo = v_x - D_x (v_x > 3 D_x gives r_x = D_x / v_lo <= 1/2):

        |c - c_0| <= D_c / sqrt(v_lo v'_lo) + (1.5 (r_x + r_y) + 4 u) |c|,

    c_0 being the exact correlation of the rounded x0, y0 windows.  Rounding
    x0 moves the window by at most 2 u N, so the window's true centred norm is
    at least s = sqrt(v_lo) - 2 u N.  `_corr_at_lag` centres with a mean within
    g max|x| and rounds each entry, moving the window vector by at most
    ρ s with ρ = 2 g sqrt(n) max|x| / s, and its three dot products and
    quotient add at most 3 g.  A perturbation of relative size ρ <= 1/2 turns
    a vector by at most π ρ / 2, and a cosine moves by at most the angle, so

        δ = D_c / sqrt(v_lo v'_lo) + (1.5 (r_x + r_y) + 4 u) |c|
            + π (2 u N / s + 2 u N' / s' + ρ_x + ρ_y) / 2 + 3 g

    bounds |c - `_corr_at_lag`| if ε_F holds.  None (every lag evaluated)
    unless each input has max|x| <= 2**400 and N >= 2**-400, where
    products neither overflow nor lose relative accuracy to underflow, and
    every window has v_x > 3 D_x and ρ_x <= 1/2 (and likewise for y): a
    variance within the bound of zero, or an offset that swamps the exact
    path's centring.
    """
    n = x.size
    u = np.finfo(np.float64).eps / 2
    g = 2 * n * u / (1 - 2 * n * u)
    mx, my = np.abs(x).max(), np.abs(y).max()
    if max(mx, my) > 2.0 ** 400:
        return None
    x0 = x - x.mean()
    y0 = y - y.mean()
    qx, qy = x0 @ x0, y0 @ y0
    if min(qx, qy) < 2.0 ** -800:
        return None
    nx, ny = np.sqrt(qx), np.sqrt(qy)
    size = sfft.next_fast_len(n + max_lag, real=True)
    cross = sfft.irfft(np.conj(sfft.rfft(x0, size)) * sfft.rfft(y0, size), size)
    sxy = np.concatenate((cross[size - max_lag:], cross[:max_lag + 1]))
    m = n - np.abs(np.arange(-max_lag, max_lag + 1))
    sx, sy = _lag_moments(x0, max_lag, True), _lag_moments(y0, max_lag, False)
    vx = _lag_moments(x0 * x0, max_lag, True) - sx * sx / m
    vy = _lag_moments(y0 * y0, max_lag, False) - sy * sy / m
    dx, dy = 8 * g * qx, 8 * g * qy
    if not ((vx > 3 * dx).all() and (vy > 3 * dy).all()):
        return None
    vx_lo, vy_lo = vx - dx, vy - dy
    sx_lo, sy_lo = np.sqrt(vx_lo) - 2 * u * nx, np.sqrt(vy_lo) - 2 * u * ny
    rho_x = 2 * g * np.sqrt(n) * mx / sx_lo
    rho_y = 2 * g * np.sqrt(n) * my / sy_lo
    if not ((sx_lo > 0).all() and (sy_lo > 0).all()
            and (rho_x <= 0.5).all() and (rho_y <= 0.5).all()):
        return None
    c = (sxy - sx * sy / m) / np.sqrt(vx * vy)
    fft_err = 4 * (10 * u * np.log2(size) + u) * np.sqrt(size) * nx * ny
    delta = ((fft_err + 8 * g * nx * ny) / np.sqrt(vx_lo * vy_lo)
             + (1.5 * (dx / vx_lo + dy / vy_lo) + 4 * u) * np.abs(c)
             + np.pi / 2 * (2 * u * nx / sx_lo + 2 * u * ny / sy_lo + rho_x + rho_y)
             + 3 * g)
    return c, delta


def pbc(x, y, max_lag: int = DEFAULT_MAX_LAG) -> float:
    """Max over lags of the squared sample correlation between two channels.

    Correlations are standardised on the overlapping samples of each lag, so
    the result is exactly symmetric in its arguments and bounded to [0, 1].

    `_screen` gives every lag's correlation c with a bound δ on its distance
    to `_corr_at_lag` (derivation there; its FFT error constant is assumed).
    The lag with the largest exact |c| satisfies |c| + δ >= max(|c| - δ), so
    `_corr_at_lag` runs only at lags that do; while δ bounds the screen's
    error, the result equals evaluating every lag bit for bit.  Where the
    bound does not hold, every lag is evaluated.  A NaN or infinite sample,
    like a constant channel, is a ValueError.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("channels must have equal length")
    if x.size < min_samples(max_lag):
        raise ValueError(
            f"need at least {min_samples(max_lag)} samples for max_lag={max_lag}")
    for v in (x, y):
        spread = np.ptp(v)
        # a non-finite spread means a non-finite sample or an overflowing max - min
        if not np.isfinite(spread) and not np.isfinite(v).all():
            raise ValueError("non-finite input")
        if spread == 0:
            raise ValueError("zero-variance input")
    lags = range(-max_lag, max_lag + 1)
    screened = _screen(x, y, max_lag)
    if screened is not None:
        c, delta = screened
        a = np.abs(c)
        lags = (np.flatnonzero(a + delta >= (a - delta).max()) - max_lag).tolist()
    best = 0.0
    for lag in lags:
        c = _corr_at_lag(x, y, lag)
        best = max(best, c * c)
    return min(best, 1.0)


def _pbc_pairs(fx: np.ndarray, fy: np.ndarray, max_lag: int) -> np.ndarray:
    """PBC of every column of ``fx`` with every column of ``fy``."""
    out = np.empty((fx.shape[1], fy.shape[1]))
    for i, j in product(range(fx.shape[1]), range(fy.shape[1])):
        out[i, j] = pbc(fx[:, i], fy[:, j], max_lag=max_lag)
    return out


def pbc_matrix(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG) -> np.ndarray:
    """PBC of every cross-region channel pair on band-filtered data."""
    return _pbc_pairs(bandpass(x, band), bandpass(y, band), max_lag)


def pbc_table(ts: TimeSeriesMatrix, regions, pairs, bands,
              max_lag: int = DEFAULT_MAX_LAG) -> np.ndarray:
    """`region_pbc` of every region pair (rows) in every band (columns).

    ``regions`` maps region names to channel labels of ``ts``.  Each band
    filters every region channel in one call, not once per pair holding it,
    and is released before the next band is filtered.
    """
    channels = sorted({ch for pair in pairs for name in pair for ch in regions[name]})
    col = {ch: i for i, ch in enumerate(channels)}
    out = np.empty((len(pairs), len(bands)))
    for k, band in enumerate(bands):
        f = bandpass(ts.select(channels), band)
        for p, (a, b) in enumerate(pairs):
            out[p, k] = _pbc_pairs(f[:, [col[ch] for ch in regions[a]]],
                                   f[:, [col[ch] for ch in regions[b]]], max_lag).mean()
        del f  # two filtered bands at once raise the peak resident set
    return out


def region_pbc(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG) -> float:
    """Arithmetic mean of PBC over all cross-region channel pairs."""
    return float(pbc_matrix(x, y, band, max_lag=max_lag).mean())


def rbp(ts: TimeSeriesMatrix, channel: str, band: FrequencyBand,
        bands_total=CANONICAL_BANDS, block_len: int = 100) -> float:
    """Share of a channel's analysed spectral power falling inside one band.

    Power is the block-averaged periodogram summed over the band's retained
    frequencies; the denominator sums over the union of ``bands_total``, so
    values over a partition of the analysed range add up to one.
    """
    single = ts.select([channel])
    tensor = block_periodograms(single, block_len)
    power = tensor.values[:, 0, :].mean(axis=0)
    band_mask = band.mask(tensor.freqs_hz)
    total_mask = np.zeros_like(band_mask)
    for b in bands_total:
        total_mask |= b.mask(tensor.freqs_hz)
    if not band_mask.any():
        raise EmptyBandError(f"band {band.name} contains no retained frequency")
    if np.any(band_mask & ~total_mask):
        raise ValueError("bands_total must cover the requested band")
    total = power[total_mask].sum()
    if total <= 0:
        raise ValueError("no spectral power in the analysed range")
    return float(power[band_mask].sum() / total)
