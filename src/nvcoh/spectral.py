"""Blockwise periodograms and the per-frequency spectral dependence profile.

A recording is cut into non-overlapping blocks of fixed length; each block's
per-channel periodogram ordinates act as replicated observations of the
squared frequency content at every retained Fourier frequency.  Feeding the
per-frequency feature matrices of two channel groups into the vector
dependence statistic yields the nonlinear vector coherence (NVC) profile.
`_montage_profiles` gives the profiles of many region pairs at once: one
plan for the whole montage, one evaluator call per chunk of frequencies
(`rank_core._xi_terms` sizes the stacks each sweep takes), each region's
periodograms computed once; `nvc_profile` is its one-pair case.
The relative band power baseline, `rbp`, is a share of the same block
periodograms, so it lives here too, and `baselines` re-exports it;
`band_shares` gives one channel's shares of many bands from one
periodogram.
`fan_out` runs one function over many tasks, in a process pool or
in-process, and shows their warnings once in the calling process; `nvc
analyze` hands it chunks of frequencies and `simulation.run_study`
replicates.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rank_core import DegenerateRanksError, derive_seed
from .vector_measure import (  # noqa: F401  (bench/layers.py wraps t_n* here)
    PermutationPlan,
    _measure_plans,
    _montage_plan,
    _sides,
    t_n,
    t_n_bar,
    t_n_star,
)

__all__ = [
    "BlockTooLongError",
    "EmptyBandError",
    "FrequencyBand",
    "CANONICAL_BANDS",
    "TimeSeriesMatrix",
    "BlockPeriodogramTensor",
    "SpectralDependenceProfile",
    "retained_indices",
    "block_periodograms",
    "nvc_profile",
    "band_summary",
    "band_shares",
    "rbp",
]

MEASURES = ("t", "tbar", "tstar")


class BlockTooLongError(ValueError):
    """Fewer than two complete blocks fit into the recording."""


class EmptyBandError(ValueError):
    """A frequency band contains no retained Fourier frequency."""


@dataclass(frozen=True)
class FrequencyBand:
    """Half-open band (lo_hz, hi_hz]; adjacent bands never double count."""

    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        if not (0 <= self.lo_hz < self.hi_hz):
            raise ValueError(f"invalid band {self.name}: ({self.lo_hz}, {self.hi_hz}]")

    def mask(self, freqs_hz: np.ndarray) -> np.ndarray:
        f = np.asarray(freqs_hz, dtype=np.float64)
        return (f > self.lo_hz) & (f <= self.hi_hz)


CANONICAL_BANDS: tuple[FrequencyBand, ...] = (
    FrequencyBand("delta", 0.5, 4.0),
    FrequencyBand("theta", 4.0, 8.0),
    FrequencyBand("alpha", 8.0, 12.0),
    FrequencyBand("beta", 12.0, 30.0),
    FrequencyBand("gamma", 30.0, 45.0),
)


@dataclass
class TimeSeriesMatrix:
    """A multichannel recording: samples x channels at a fixed rate."""

    data: np.ndarray
    fs: float
    labels: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("data must be a (samples, channels) matrix")
        if not np.isfinite(data).all():
            raise ValueError("data contains NaN or infinite entries")
        if self.fs <= 0:
            raise ValueError("fs must be positive")
        labels = tuple(str(c) for c in self.labels)
        if len(labels) != data.shape[1]:
            raise ValueError("one label per channel required")
        if len(set(labels)) != len(labels):
            raise ValueError("channel labels must be unique")
        self.data = data
        self.labels = labels

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    def select(self, labels) -> "TimeSeriesMatrix":
        """Sub-recording with the given channels, in the given order."""
        wanted = [str(c) for c in labels]
        missing = [c for c in wanted if c not in self.labels]
        if missing:
            raise KeyError(f"unknown channels: {missing}")
        idx = [self.labels.index(c) for c in wanted]
        return TimeSeriesMatrix(self.data[:, idx], self.fs, tuple(wanted))


@dataclass(frozen=True)
class BlockPeriodogramTensor:
    """Periodogram values indexed (block, channel, retained Fourier index)."""

    values: np.ndarray
    freqs_hz: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.values.shape[0]


def retained_indices(block_len: int) -> np.ndarray:
    """Retained Fourier indices 1 .. ceil(B/2)-1: zero and Nyquist dropped."""
    return np.arange(1, (block_len + 1) // 2 if block_len % 2 else block_len // 2)


def block_periodograms(ts: TimeSeriesMatrix, block_len: int) -> BlockPeriodogramTensor:
    """Per-block, per-channel periodograms on the retained frequency grid.

    The transform is normalised by block_len**-0.5, so a block's periodogram
    summed over the full (pre-drop) grid equals block_len times its mean
    square.  A trailing partial block is discarded, keeping all blocks
    identically distributed.
    """
    if block_len < 4:
        raise ValueError("block_len must be at least 4")
    n = ts.n_samples // block_len
    if n < 2:
        raise BlockTooLongError(
            f"block_len {block_len} leaves {n} complete block(s); need >= 2")
    ks = retained_indices(block_len)
    blocks = ts.data[: n * block_len].reshape(n, block_len, ts.n_channels)
    spectrum = np.fft.rfft(blocks, axis=1)
    vals = (spectrum.real ** 2 + spectrum.imag ** 2) / block_len
    vals = vals[:, ks, :].transpose(0, 2, 1)
    freqs_hz = ks * ts.fs / block_len
    return BlockPeriodogramTensor(values=np.ascontiguousarray(vals), freqs_hz=freqs_hz)


@dataclass
class SpectralDependenceProfile:
    """Per-frequency dependence estimates and the parameters behind them."""

    freqs_hz: np.ndarray
    estimates: np.ndarray
    meta: dict = field(default_factory=dict)


def nvc_profile(x: TimeSeriesMatrix, y: TimeSeriesMatrix, block_len: int,
                measure: str = "tbar", seed: int = 0,
                plan_x: PermutationPlan | None = None,
                plan_y: PermutationPlan | None = None) -> SpectralDependenceProfile:
    """NVC estimates between two channel groups at every retained frequency.

    Both recordings must share the sampling rate and length.  A per-frequency
    degeneracy (for example a constant channel whose periodogram ordinates are
    all tied) is recorded as NaN rather than failing the profile.  Missing
    plans default to the exhaustive or sampled plan of each dimension under
    ``seed`` (the plan of ``x`` only for ``tstar``); a plan of another
    dimension than its side raises (`vector_measure._measure_plans`).  The
    one-pair case of `_montage_profiles`.
    """
    if x.fs != y.fs:
        raise ValueError("recordings must share the sampling rate")
    if x.n_samples != y.n_samples:
        raise ValueError("recordings must share the time base")
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")
    plans = _measure_plans(measure, x.n_channels, y.n_channels, seed, plan_x, plan_y)
    tensors = [block_periodograms(x, block_len), block_periodograms(y, block_len)]
    return _montage_profiles(tensors, [(0, 1)], block_len, x.fs, measure, [seed],
                             [plans])[0]


def _montage_profiles(tensors, pairs, block_len: int, fs: float, measure: str,
                      seeds, plans, workers: int = 1,
                      executor=None) -> list[SpectralDependenceProfile]:
    """The NVC profile of each region pair of a montage, through one montage plan.

    ``tensors`` holds one `BlockPeriodogramTensor` per region, ``pairs`` the
    ``(x, y)`` region indices of each pair, ``seeds`` each pair's seed and
    ``plans`` its ``(plan_x, plan_y)``; ``plan_x`` is None unless the measure
    is ``tstar``.  A `vector_measure._MontagePlan` holds every pair's terms,
    and each sweep evaluates them all over a stack of frequencies, sized by
    `rank_core._xi_terms`.  A pair is NaN at a frequency where one of its
    response channels is constant, and counts it in its ``n_degenerate``.  In
    ``workers`` processes of ``executor``, each takes one contiguous chunk of
    the frequencies.
    """
    n = tensors[0].n_blocks
    if n < 10:
        warnings.warn(f"only {n} blocks available; estimates will be noisy",
                      stacklevel=3)
    if not all(np.isfinite(t.values).all() for t in tensors):
        raise ValueError("entries must be finite")
    key = (tuple(t.values.shape[1] for t in tensors),
           tuple((a, b, _sides(measure, tensors[b].values.shape[1], plan_x, plan_y))
                 for (a, b), (plan_x, plan_y) in zip(pairs, plans)))
    ks = retained_indices(block_len)
    tasks = [(key, [t.values[:, :, c[0]:c[-1] + 1] for t in tensors], ks[c], seeds)
             for c in np.array_split(np.arange(ks.size), min(workers, ks.size))]
    vals = np.concatenate(fan_out(_montage_terms, tasks, workers, executor))
    profiles = []
    for (a, b), seed, (plan_x, plan_y), estimates in zip(
            pairs, seeds, plans, _montage_plan(*key).estimates(vals)):
        meta = {
            "block_len": block_len,
            "n_blocks": n,
            "fs": fs,
            "p": tensors[a].values.shape[1],
            "q": tensors[b].values.shape[1],
            "measure": measure,
            "q_perms": plan_y.n_perms,
            "p_perms": plan_x.n_perms if plan_x is not None else None,
            "seed": seed,
            "n_degenerate": int(np.isnan(estimates).sum()),
        }
        profiles.append(SpectralDependenceProfile(freqs_hz=tensors[0].freqs_hz,
                                                  estimates=estimates, meta=meta))
    return profiles


def _montage_terms(task) -> np.ndarray:
    """Every term's xi value at a chunk of frequencies, one row per frequency.

    ``task`` holds the montage plan's key, each region's periodograms at the
    chunk's frequencies, the chunk's Fourier indices and the pair seeds.  The
    whole chunk goes to the evaluator, `rank_core._xi_terms`, which sizes
    its own stacks of frequencies.
    """
    key, blocks, ks, seeds = task
    plan = _montage_plan(*key)
    # (frequency, block, montage column)
    z = np.ascontiguousarray(np.concatenate(blocks, axis=1).transpose(2, 0, 1))

    # a pair's seed at a frequency is derived only for a tie that needs it,
    # once per chunk
    @functools.cache
    def seed_at(f, pair):
        return derive_seed(seeds[pair], "freq", int(ks[f]))

    return plan.term_values(z, seed_at)


def band_summary(profile: SpectralDependenceProfile,
                 bands=CANONICAL_BANDS) -> dict[str, float]:
    """Mean of the per-frequency estimates inside each band.

    The mean runs over the band's retained frequencies; missing per-frequency
    values are excluded.  A band with no retained frequency at all raises
    ``EmptyBandError``.
    """
    out: dict[str, float] = {}
    for band in bands:
        mask = band.mask(profile.freqs_hz)
        if not mask.any():
            raise EmptyBandError(f"band {band.name} contains no retained frequency")
        vals = profile.estimates[mask]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            out[band.name] = float(np.nanmean(vals))
    return out


# lag window of the band-coherence baseline, `baselines.pbc`; declared in this
# scipy-free module because the command line reads it when it builds its flags
DEFAULT_MAX_LAG = 50


def rbp(ts: TimeSeriesMatrix, channel: str, band: FrequencyBand,
        bands_total=CANONICAL_BANDS, block_len: int = 100) -> float:
    """Share of a channel's analysed spectral power falling inside one band.

    Power is the block-averaged periodogram summed over the band's retained
    frequencies; the denominator sums over the union of ``bands_total``, so
    values over a partition of the analysed range add up to one.  The
    one-band case of `band_shares`.
    """
    return band_shares(ts, channel, (band,), bands_total, block_len)[0]


def band_shares(ts: TimeSeriesMatrix, channel: str, bands,
                bands_total=CANONICAL_BANDS, block_len: int = 100) -> list[float]:
    """`rbp` of one channel in each of ``bands``, from one block periodogram.

    A band with no retained frequency is an `EmptyBandError`, one outside
    the union of ``bands_total`` a ValueError, and a channel with no power
    in that union a `DegenerateRanksError` (a ValueError too).
    """
    tensor = block_periodograms(ts.select([channel]), block_len)
    power = tensor.values[:, 0, :].mean(axis=0)
    total_mask = np.zeros(tensor.freqs_hz.shape, dtype=bool)
    for b in bands_total:
        total_mask |= b.mask(tensor.freqs_hz)
    masks = [band.mask(tensor.freqs_hz) for band in bands]
    for band, band_mask in zip(bands, masks):
        if not band_mask.any():
            raise EmptyBandError(f"band {band.name} contains no retained frequency")
        if np.any(band_mask & ~total_mask):
            raise ValueError("bands_total must cover the requested band")
    total = power[total_mask].sum()
    if total <= 0:
        raise DegenerateRanksError("no spectral power in the analysed range")
    return [float(power[band_mask].sum() / total) for band_mask in masks]


def _recorded(fn, task):
    """``fn(task)`` and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        result = fn(task)
    return result, [str(w.message) for w in caught]


def fan_out(fn, tasks, workers: int, executor) -> list:
    """``[fn(task) for task in tasks]``, in one pool of processes if more than one.

    The pool holds ``workers`` processes, but never more than there are
    tasks, since a pool starts all its processes up front; with one, the
    tasks run in this process.  ``executor`` is the pool class, passed by
    the caller so that each module's `ProcessPoolExecutor` name can be
    swapped for an in-process stand-in.  Warnings are recorded where each
    task runs, so a worker prints none; each distinct message is issued once
    here, in task order, after every task.
    """
    run = functools.partial(_recorded, fn)
    workers = min(workers, len(tasks))
    if workers > 1:
        with executor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, tasks))
    else:
        outcomes = [run(task) for task in tasks]
    for message in dict.fromkeys(m for _, messages in outcomes for m in messages):
        warnings.warn(message, stacklevel=2)
    return [result for result, _ in outcomes]
