"""Classical channel-pair baselines: band coherence and relative band power.

Pairwise band coherence (PBC) is the maximum squared lagged cross-correlation
between two band-pass filtered channels; region values average PBC over all
cross-region channel pairs.  Relative band power (RBP) is the share of a
channel's block-averaged periodogram power falling inside one band relative
to the union of the analysed bands; it needs numpy alone, so it and the
default lag window are declared in `spectral` and re-exported here.

The result of `pbc` is defined by `_corr_at_lag`, the correlation of each lag
computed on its own overlapping samples.  `_band_pbc` computes it for many
channel pairs of one band at once.  It screens every lag of every pair from
short segments: each channel's centred samples are cut into segments of a
length set by the lag window (`_segment_len`), each segment is transformed
once per role the channel plays in each batch of pairs, and the segments'
cross-spectra of a batch's channel pairs are summed per frequency into one
Gram by a batched matrix product, over chunks of segments within a bounded
workspace; each pair then inverts one short column of its batch's Gram.  A
batch's Gram and working set never outgrow the workspace or the filtered
channels themselves, whatever the lag window or the channel count.  The window
sums (the totals less the dropped end samples) are formed once per channel,
however many pairs hold it.  A stated δ bounds the screen's distance to
`_corr_at_lag`, which then runs only at the lags that can hold the maximum.  A
pair with a channel on which the bound does not hold (extreme magnitudes, a
window whose variance or offset swamps the rounding) evaluates every lag; the
other pairs keep the screen.  δ's FFT term rests on an assumed error constant
(see `_screen_pairs`); while δ bounds the screen's error, the result equals
the all-lag evaluation bit for bit.  `pbc` is the one-pair case; `pbc_matrix`
and `region_pbc` screen a region pair's channels together.  `sosfiltfilt`
filters each column on its own, so `pbc_table` filters the region channels of
a band in groups of `_group_width` columns into one column-major array and
screens every channel pair of every region pair of the band in one
`_band_pbc`; the values equal filtering region by region for every pair, and
no copy of all the channels exists beside that array.  `_corr_at_lag` sums
each dot product in pieces of at most 10,000 elements (`_dot`), so its value
does not depend on how many threads the BLAS library runs.  The screen's
transforms are numpy's, as every other spectrum of the package; `scipy.signal`,
for the filters, loads with this module, which the command line imports only
for `nvc baseline`.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from .rank_core import _WORKSPACE_BYTES, DegenerateRanksError
from .spectral import (  # noqa: F401  (bench/layers.py wraps block_periodograms here)
    DEFAULT_MAX_LAG,
    FrequencyBand,
    TimeSeriesMatrix,
    block_periodograms,
    rbp,
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


def bandpass(ts: TimeSeriesMatrix, band: FrequencyBand) -> np.ndarray:
    """Zero-phase (forward-backward) Butterworth band-pass of every channel.

    The two-pass application doubles the effective order and cancels the
    phase response.  The band must sit strictly inside (0, fs/2).
    """
    nyq = ts.fs / 2.0
    if not (0 < band.lo_hz < band.hi_hz < nyq):
        raise ValueError(
            f"band ({band.lo_hz}, {band.hi_hz}] must lie strictly inside (0, {nyq})")
    return signal.sosfiltfilt(_design(band.lo_hz, band.hi_hz, ts.fs).copy(), ts.data, axis=0)


@functools.lru_cache
def _design(lo_hz: float, hi_hz: float, fs: float) -> np.ndarray:
    """The band-pass's second-order sections, designed once per band and rate.

    The cache shares one array; `bandpass` hands `sosfiltfilt` a copy.
    """
    return signal.butter(DEFAULT_FILTER_ORDER, [lo_hz, hi_hz], btype="bandpass", fs=fs,
                         output="sos")


def _group_width(n: int) -> int:
    """Channels of n samples filtered at once.

    `sosfiltfilt` holds about three copies of its input (the padded input
    and its two passes), so a group's working copies stay within
    `rank_core._WORKSPACE_BYTES`.
    """
    return max(1, _WORKSPACE_BYTES // (3 * 8 * n))


def min_samples(max_lag: int = DEFAULT_MAX_LAG) -> int:
    """Shortest channel `pbc` accepts: every lag in range, 30 of them overlapping."""
    return max(2 * max_lag + 2, max_lag + 30)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed over halves, the first ceil(n/2) long, down to 10,000 elements.

    OpenBLAS's ddot runs one thread up to 10,000 elements and splits longer
    vectors between its threads, which changes the rounding.  Each piece
    here runs on one thread, so the value is the same whatever the thread
    count; from 10,001 to 20,000 elements it equals OpenBLAS's two-thread
    sum bit for bit.
    """
    if a.size <= 10_000:
        return a @ b
    h = (a.size + 1) // 2
    return _dot(a[:h], b[:h]) + _dot(a[h:], b[h:])


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
    denom = np.sqrt(_dot(xc, xc) * _dot(yc, yc))
    if denom == 0:
        return 0.0
    return float(_dot(xc, yc) / denom)


def _window_sums(ends: np.ndarray, total: np.ndarray, max_lag: int) -> np.ndarray:
    """Window sums of each channel at lags -max_lag..max_lag, in both roles.

    ``ends`` holds each channel's first and last max_lag samples, ``(rows,
    2 max_lag)``, and ``total`` the sum of all its samples.  Returns
    ``(2, rows, lags)``: the total less the dropped end samples, first as the
    leading channel, whose window drops the last |lag| samples at lag >= 0
    and the first |lag| below, then as the lagging channel, the other way
    round.
    """
    total = total[:, None]
    zero = np.zeros_like(total)
    without_first = total - np.concatenate((zero, np.cumsum(ends[:, :max_lag], axis=1)), axis=1)
    without_last = total - np.concatenate(
        (zero, np.cumsum(ends[:, ::-1][:, :max_lag], axis=1)), axis=1)
    return np.stack((np.concatenate((without_first[:, :0:-1], without_last), axis=1),
                     np.concatenate((without_last[:, :0:-1], without_first), axis=1)))


def _check_channels(f: np.ndarray, labels, where: str) -> None:
    """Refuse a column of ``f`` with a non-finite sample or no variance, naming it.

    A non-finite sample is a ValueError, a constant column a
    `DegenerateRanksError` (a ValueError too), each naming the columns by
    ``labels`` and followed by ``where``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.ptp(f, axis=0)
    # a non-finite spread means a non-finite sample or an overflowing max - min
    bad = [labels[c] for c in np.flatnonzero(~np.isfinite(spread))
           if not np.isfinite(f[:, c]).all()]
    if bad:
        raise ValueError(f"non-finite input: channel(s) {bad}{where}")
    flat = [labels[c] for c in np.flatnonzero(spread == 0)]
    if flat:
        raise DegenerateRanksError(f"zero-variance input: channel(s) {flat}{where}")


def _segment_len(max_lag: int) -> int:
    """L', the screen's segmented transform length: a power of two, at least 64.

    It is the least one of at least 4 (2 max_lag + 1) points, so a segment,
    L' - 2 max_lag samples, fills at least three quarters of each transform
    and holds more than 2 max_lag samples.
    """
    return 1 << max(6, (4 * (2 * max_lag + 1) - 1).bit_length())


def _segment_bytes(size: int, channels: int, lead: int, lag: int) -> int:
    """Bytes `_screen_pairs` holds per segment of L' = ``size`` points.

    The centred window of each of ``channels`` channels, and for the
    ``lead`` leading and ``lag`` lagging rows their spectra beside the rows
    being transformed.
    """
    return 8 * size * (channels + 2 * (lead + lag))


def _pair_batches(i: np.ndarray, j: np.ndarray, size: int, budget: int):
    """Ranges of the pairs (i[p], j[p]), sorted by i then j, screened together.

    Each batch transforms its channels once.  Its Gram, ``(F, leading,
    lagging)`` complex with the product added to it (as large), stays within
    ``budget``, and so does one segment of its channels (`_segment_bytes`);
    a batch holds at least one pair.
    """
    per_entry = 2 * 16 * (size // 2 + 1)
    start, lead, lag = 0, set(), set()
    for p, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        grown = lead | {a}, lag | {b}
        if p > start and max(per_entry * len(grown[0]) * len(grown[1]),
                             _segment_bytes(size, len(grown[0] | grown[1]), len(grown[0]),
                                            len(grown[1]))) > budget:
            yield start, p
            start, grown = p, ({a}, {b})
        lead, lag = grown
    yield start, i.size


def _screen_pairs(f: np.ndarray, i: np.ndarray, j: np.ndarray, max_lag: int):
    """Correlations of columns i[p] and j[p] of ``f`` at every lag, their bounds δ, kept.

    ``f`` is ``(n, channels)``, finite.  Returns ``c`` and ``delta``, ``(pairs,
    lags)`` at lags -max_lag..max_lag, and ``kept``, true for the pairs on
    which δ bounds |c - `_corr_at_lag`|.  A channel's window sums are formed
    once, however many pairs hold it, and its transforms once per role
    (leading, i, or lagging, j) in each batch of pairs holding it.

    The lagged sums come from short segments.  With L' = `_segment_len`
    (max_lag) (512 at the default 50), each channel's centred samples are
    cut into k = ceil(n / S) segments of S = L' - 2 max_lag samples.  In the
    lagging role a segment is transformed as its window of S + 2 max_lag =
    L' samples, max_lag more on each side (zero outside the channel); in the
    leading role, as the same window with those 2 max_lag samples zeroed.
    Every lag of segment s then stays inside its window, so the inverse
    transform of conj(X_s) Y_s holds the segment's part of each lagged sum,
    and the parts add up to the whole.  The sum over segments is taken per
    frequency before the inverse, for many pairs at once.  The distinct
    pairs, sorted, are screened in batches (`_pair_batches`); a batch
    transforms its channels and sums the products of all its leading and
    lagging channels into one Gram ``(F, leading, lagging)``, the batched
    product ``(F, leading, k) @ (F, k, lagging)`` accumulated over chunks of
    segments within `rank_core._WORKSPACE_BYTES`.  A batch's Gram, and one
    segment of its channels, stay within the largest of that workspace, the
    size of ``f`` and that of one ``(pairs, lags)`` array, so the screen
    holds no more than the channels it screens or its own result, whatever
    the lag window or the channel count; at the default lag one batch holds
    every pair of the built-in montage.
    Each pair then inverts its L'-point column of its batch's Gram.

    Let u = 2**-53, g = 2n u / (1 - 2n u) and γ_k = k u / (1 - k u).  For
    the pair of x (leading) and y (lagging), the screen works on x0 = x -
    mean(x) and y0 = y - mean(y), with N = ||x0||, Q = N**2 (and N', Q' for
    y0).  Per lag, with m = n - |lag|: S_xy comes from the segments' Gram,
    S_x and S_xx are the total less the dropped end samples, and

        cov = S_xy - S_x S_y / m,  v_x = S_xx - S_x**2 / m,
        c = cov / sqrt(v_x v_y).

    Rounding (Higham, *Accuracy and Stability*, ch. 3 and 24, every sum of k
    terms within γ_k of the sum of magnitudes, in any order):
    |ΔS_x| <= g Σ|x0|, |ΔS_xx| <= g Q and, as m >= n / 2, |Δv_x| <= D_x = 8 g Q.
    The order is free, so the row-wise sums over a stack of channels, and
    sums accumulated chunk by chunk, obey the same bounds as one channel's.
    numpy's length-L' FFT has relative 2-norm error ε_F, per transform, so a
    batched call transforming many rows obeys it row by row.  Its value is
    assumed, not derived: ε_F is taken as 10 u log2(L'), above the about
    6.7 u per stage of a radix-2 analysis for the power-of-two L'; on the
    tested inputs the screen's error stayed below 7e-4 δ.  Let N_s and M_s
    be the norms of x0's segment s and of y0's window s.  Each sample lies
    in one segment and, as S > 2 max_lag, in at most two windows, so Σ
    N_s**2 = Q, Σ M_s**2 <= 2 Q' and Σ N_s M_s <= sqrt(2) N N'
    (Cauchy-Schwarz).  Each segment's spectra are within ε_F sqrt(L') N_s
    and ε_F sqrt(L') M_s of exact, the Gram sums k complex products per
    frequency within 2 γ_{k+2} of the sum of their magnitudes, in any order,
    so BLAS threads and the chunks change nothing, and the inverse adds its
    own ε_F.  Through the Hermitian half spectra (a factor sqrt(2) at most),
    |ΔS_xy| <= 4 (ε_F + γ_{k+2}) sqrt(L') Σ N_s M_s
           <= E = 4 sqrt(2) (ε_F + γ_{k+2}) sqrt(L') N N',
    so |Δcov| <= D_c = E + 8 g N N'.  With v_lo = v_x - D_x (v_x > 3 D_x gives
    r_x = D_x / v_lo <= 1/2):

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

    bounds |c - `_corr_at_lag`| if ε_F holds.  A pair is kept if each channel,
    in its role, has max|x| <= 2**400 and N >= 2**-400, where products neither
    overflow nor lose relative accuracy to underflow, and every window of
    the role has v_x > 3 D_x and ρ_x <= 1/2: not a variance within the bound
    of zero, nor an offset that swamps the exact path's centring.
    """
    n, channels = f.shape
    u = np.finfo(np.float64).eps / 2
    g = 2 * n * u / (1 - 2 * n * u)
    size = _segment_len(max_lag)
    seg = size - 2 * max_lag
    k = -(-n // seg)
    m = n - np.abs(np.arange(-max_lag, max_lag + 1))
    q = np.zeros(channels)
    total = np.zeros(channels)
    # the distinct pairs, by leading then lagging channel
    key, back = np.unique(i * channels + j, return_inverse=True)
    pi, pj = np.divmod(key, channels)
    sxy = np.empty((key.size, m.size))
    # channels outside the bound's range may overflow here; their pairs are not kept
    with np.errstate(all="ignore"):
        mx = np.maximum(f.max(axis=0), -f.min(axis=0))
        mean = f.mean(axis=0)
        ends = np.concatenate((f[:max_lag] - mean, f[n - max_lag:] - mean)).T
        for b0, b1 in _pair_batches(pi, pj, size, max(_WORKSPACE_BYTES, f.nbytes, sxy.nbytes)):
            lead, lag = np.unique(pi[b0:b1]), np.unique(pj[b0:b1])
            cols = np.union1d(lead, lag)
            at_lead, at_lag = np.searchsorted(cols, lead), np.searchsorted(cols, lag)
            gram = np.zeros((size // 2 + 1, lead.size, lag.size), dtype=np.complex128)
            qb, tb = np.zeros(cols.size), np.zeros(cols.size)
            step = max(1, _WORKSPACE_BYTES // _segment_bytes(size, cols.size, lead.size,
                                                             lag.size))
            for s0 in range(0, k, step):
                kc = min(step, k - s0)
                # centred samples from s0 seg - max_lag on, zero outside the channel
                lo = s0 * seg - max_lag
                span = np.zeros(((kc - 1) * seg + size, cols.size))
                a, b = max(lo, 0), min(lo + span.shape[0], n)
                np.take(f[a:b], cols, axis=1, out=span[a - lo:b - lo], mode="clip")
                span[a - lo:b - lo] -= mean[cols]
                body = span[max_lag:max_lag + kc * seg]
                qb += np.einsum("ij,ij->j", body, body)
                tb += body.sum(axis=0)
                # (L', channels, kc): window s of every channel, one column per segment
                windows = sliding_window_view(span, size, axis=0)[::seg].transpose(2, 1, 0)
                rows = np.take(windows, at_lead, axis=1)  # C-ordered: the transforms run faster
                rows[:max_lag] = 0
                rows[max_lag + seg:] = 0
                leading = np.fft.rfft(rows, axis=0)
                del rows
                np.conjugate(leading, out=leading)
                lagging = np.fft.rfft(np.take(windows, at_lag, axis=1), axis=0)
                gram += leading @ lagging.transpose(0, 2, 1)
                del span, windows, leading, lagging
            q[cols], total[cols] = qb, tb
            at_lead = np.searchsorted(lead, pi[b0:b1])
            at_lag = np.searchsorted(lag, pj[b0:b1])
            step = max(1, _WORKSPACE_BYTES // (3 * 8 * size))  # a Gram column and its inverse
            for a in range(b0, b1, step):
                b = slice(a - b0, a - b0 + step)
                cross = np.fft.irfft(gram[:, at_lead[b], at_lag[b]], size, axis=0)
                sxy[a:a + cross.shape[1], :max_lag] = cross[size - max_lag:].T
                sxy[a:a + cross.shape[1], max_lag:] = cross[:max_lag + 1].T
            del gram
        sxy = sxy[back]
        norm = np.sqrt(q)
        s = _window_sums(ends, total, max_lag)
        ss = _window_sums(ends * ends, q, max_lag)
        # per role (leading, lagging), channel and lag
        d = 8 * g * q[:, None]
        v = ss - s * s / m
        v_lo = v - d
        s_lo = np.sqrt(v_lo) - 2 * u * norm[:, None]
        rho = 2 * g * np.sqrt(n) * mx[:, None] / s_lo
        ok = ((mx <= 2.0 ** 400) & (q >= 2.0 ** -800)
              & (v > 3 * d).all(axis=2) & (s_lo > 0).all(axis=2) & (rho <= 0.5).all(axis=2))
        r = d / v_lo
        t = 2 * u * norm[:, None] / s_lo + rho

        c = (sxy - s[0, i] * s[1, j] / m) / np.sqrt(v[0, i] * v[1, j])
        gamma = (k + 2) * u / (1 - (k + 2) * u)
        fft_err = (4 * np.sqrt(2) * (10 * u * np.log2(size) + gamma) * np.sqrt(size)
                   * norm[i] * norm[j])
        delta = (((fft_err + 8 * g * norm[i] * norm[j])[:, None]
                  / np.sqrt(v_lo[0, i] * v_lo[1, j]))
                 + (1.5 * (r[0, i] + r[1, j]) + 4 * u) * np.abs(c)
                 + np.pi / 2 * (t[0, i] + t[1, j]) + 3 * g)
    return c, delta, ok[0, i] & ok[1, j]


def _band_pbc(f: np.ndarray, pairs, max_lag: int, labels, where: str = "") -> np.ndarray:
    """PBC of each ``(i, j)`` column pair of the band-filtered ``f``, ``(n, channels)``.

    Each pair's value is the largest squared `_corr_at_lag` of column i with
    column j over lags -max_lag..max_lag.  `_screen_pairs` gives every lag's
    correlation c with a bound δ on its distance to `_corr_at_lag` (derived
    there, with an assumed FFT error constant); the lag of the largest exact
    |c| satisfies |c| + δ >= max(|c| - δ), so `_corr_at_lag` runs only at the
    lags that do, and while δ bounds the screen's error the result equals
    evaluating every lag bit for bit.  A pair the screen does not keep
    evaluates every lag; the other pairs keep the screen.  A non-finite
    sample or a constant column is refused by `_check_channels`, naming it
    by ``labels`` and ``where``.
    """
    if f.shape[0] < min_samples(max_lag):
        raise ValueError(f"need at least {min_samples(max_lag)} samples for max_lag={max_lag}")
    _check_channels(f, labels, where)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    c, delta, kept = _screen_pairs(f, i, j, max_lag)
    with np.errstate(invalid="ignore"):  # pairs not kept may hold NaN
        mag = np.abs(c)
        candidate = mag + delta >= (mag - delta).max(axis=1, keepdims=True)
    candidate[~kept] = True
    out = np.empty(i.size)
    for p, (x, y) in enumerate(zip(i.tolist(), j.tolist())):
        best = 0.0
        for lag in (np.flatnonzero(candidate[p]) - max_lag).tolist():
            r = _corr_at_lag(f[:, x], f[:, y], lag)
            best = max(best, r * r)
        out[p] = min(best, 1.0)
    return out


def pbc(x, y, max_lag: int = DEFAULT_MAX_LAG) -> float:
    """Max over lags of the squared sample correlation between two channels.

    Correlations are standardised on the overlapping samples of each lag, so
    the result is exactly symmetric in its arguments and bounded to [0, 1].
    The one-pair case of `_band_pbc`, which screens the lags and evaluates
    `_corr_at_lag` only where the maximum can lie (its bound, with an assumed
    FFT error constant, is derived there).  A NaN or infinite sample, like a
    constant channel, is a ValueError.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError("channels must have equal length")
    return float(_band_pbc(np.column_stack((x, y)), [(0, 1)], max_lag, ("x", "y"))[0])


def pbc_matrix(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG) -> np.ndarray:
    """PBC of every cross-region channel pair on band-filtered data, ``(p, q)``."""
    p, q = x.n_channels, y.n_channels
    f = np.hstack((bandpass(x, band), bandpass(y, band)))
    pairs = [(i, p + j) for i in range(p) for j in range(q)]
    return _band_pbc(f, pairs, max_lag, x.labels + y.labels,
                     f" after the {band.name} band-pass").reshape(p, q)


def pbc_table(ts: TimeSeriesMatrix, regions, pairs, bands,
              max_lag: int = DEFAULT_MAX_LAG) -> np.ndarray:
    """`region_pbc` of every region pair (rows) in every band (columns).

    ``regions`` maps region names to channel labels of ``ts``.  Each band
    filters every region channel once, not once per pair holding it, in
    groups of `_group_width` channels written into one column-major array
    that every band reuses, and screens every channel pair of every region
    pair in one `_band_pbc`.
    """
    channels = sorted({ch for pair in pairs for name in pair for ch in regions[name]})
    col = {ch: i for i, ch in enumerate(channels)}
    cols = [(col[x], col[y]) for a, b in pairs for x in regions[a] for y in regions[b]]
    splits = np.cumsum([len(regions[a]) * len(regions[b]) for a, b in pairs])[:-1]
    width = _group_width(ts.n_samples)
    # column-major, as sosfiltfilt returns it: each channel's samples are
    # contiguous for the lagged correlations
    f = np.empty((len(channels), ts.n_samples)).T
    out = np.empty((len(pairs), len(bands)))
    for k, band in enumerate(bands):
        for a in range(0, len(channels), width):
            f[:, a:a + width] = bandpass(ts.select(channels[a:a + width]), band)
        vals = _band_pbc(f, cols, max_lag, channels, f" after the {band.name} band-pass")
        out[:, k] = [v.mean() for v in np.split(vals, splits)]
    return out


def region_pbc(x: TimeSeriesMatrix, y: TimeSeriesMatrix, band: FrequencyBand,
               max_lag: int = DEFAULT_MAX_LAG) -> float:
    """Arithmetic mean of PBC over all cross-region channel pairs."""
    return float(pbc_matrix(x, y, band, max_lag=max_lag).mean())
