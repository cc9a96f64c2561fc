"""Classical channel-pair baselines: band coherence and relative band power.

Pairwise band coherence (PBC) is the maximum squared lagged cross-correlation
between two band-pass filtered channels; region values average PBC over all
cross-region channel pairs.  Relative band power (RBP) is the share of a
channel's block-averaged periodogram power falling inside one band relative
to the union of the analysed bands.
"""
from __future__ import annotations

from itertools import product

import numpy as np
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
    "region_pbc",
    "rbp",
]

DEFAULT_FILTER_ORDER = 4
DEFAULT_MAX_LAG = 50


def bandpass(ts: TimeSeriesMatrix, band: FrequencyBand,
             order: int = DEFAULT_FILTER_ORDER) -> np.ndarray:
    """Zero-phase (forward-backward) Butterworth band-pass of every channel.

    The two-pass application doubles the effective order and cancels the
    phase response.  The band must sit strictly inside (0, fs/2).
    """
    nyq = ts.fs / 2.0
    if not (0 < band.lo_hz < band.hi_hz < nyq):
        raise ValueError(
            f"band ({band.lo_hz}, {band.hi_hz}] must lie strictly inside (0, {nyq})")
    sos = signal.butter(order, [band.lo_hz, band.hi_hz], btype="bandpass",
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


def pbc(x, y, max_lag: int = DEFAULT_MAX_LAG) -> float:
    """Max over lags of the squared sample correlation between two channels.

    Correlations are standardised on the overlapping samples of each lag, so
    the result is exactly symmetric in its arguments and bounded to [0, 1].
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("channels must have equal length")
    if x.size < min_samples(max_lag):
        raise ValueError(
            f"need at least {min_samples(max_lag)} samples for max_lag={max_lag}")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise ValueError("zero-variance input")
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        c = _corr_at_lag(x, y, lag)
        best = max(best, c * c)
    return min(best, 1.0)


def pbc_matrix(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG,
               order: int = DEFAULT_FILTER_ORDER) -> np.ndarray:
    """PBC of every cross-region channel pair on band-filtered data."""
    fx = bandpass(x, band, order=order)
    fy = bandpass(y, band, order=order)
    out = np.empty((x.n_channels, y.n_channels))
    for i, j in product(range(x.n_channels), range(y.n_channels)):
        out[i, j] = pbc(fx[:, i], fy[:, j], max_lag=max_lag)
    return out


def region_pbc(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG,
               order: int = DEFAULT_FILTER_ORDER) -> float:
    """Arithmetic mean of PBC over all cross-region channel pairs."""
    return float(pbc_matrix(x, y, band, max_lag=max_lag, order=order).mean())


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
