"""Synthetic study: latent oscillations, five dependence cases, Monte Carlo driver.

Each case mixes narrow-band latent oscillations into two channel groups so
that the groups share spectral content at known frequencies.  Channels listed
in the same group share the latent realisations named by their wiring but
always receive fresh noise, so shared latents create strong (not perfect)
dependence.  The driver repeats estimation and testing over seeded replicates
and aggregates Monte Carlo summaries per case, sample size and frequency.
The cases themselves are specified in `cases`, and re-exported here.
`scipy.signal` is imported at module top, so a `simulate` run loads it once,
before its process pool forks.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from . import tables
from .cases import (
    BAND_PEAK_HZ,
    CASES,
    DEFAULT_MODULUS,
    CaseSpec,
    LatentOscillatorSpec,
    MixingSpec,
)
from .inference import null_ensemble, p_values
from .rank_core import derive_seed
from .spectral import TimeSeriesMatrix, nvc_profile, retained_indices

__all__ = [
    "LatentOscillatorSpec",
    "MixingSpec",
    "CaseSpec",
    "CASES",
    "BAND_PEAK_HZ",
    "gen_latent",
    "gen_case",
    "table1_frequency_sets",
    "check_study",
    "SimulationReport",
    "run_study",
]

BURN_IN = 1000


def _standardize(z: np.ndarray) -> np.ndarray:
    return (z - z.mean()) / z.std()


def gen_latent(spec: LatentOscillatorSpec, seed: int = 0) -> np.ndarray:
    """Standardised realisation of the peaked second-order autoregression.

    ``z[t] = 2 M cos(2 pi f/fs) z[t-1] - M^2 z[t-2] + w[t]`` with standard
    normal innovations; the first ``BURN_IN`` samples are discarded before
    standardising.
    """
    theta = 2.0 * math.pi * spec.peak_hz / spec.fs
    phi1 = 2.0 * spec.modulus * math.cos(theta)
    phi2 = -spec.modulus ** 2
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(spec.n_samples + BURN_IN)
    z = sp_signal.lfilter([1.0], [1.0, -phi1, -phi2], w)[BURN_IN:]
    return _standardize(z)


def gen_case(case_id: int, n_sec: float, fs: float = 100.0, seed: int = 0,
             modulus: float = DEFAULT_MODULUS) -> tuple[TimeSeriesMatrix, TimeSeriesMatrix]:
    """One realisation of a dependence case: two standardised channel groups."""
    if case_id not in CASES:
        raise ValueError(f"case_id must be one of {sorted(CASES)}")
    case = CASES[case_id]
    n_samples = int(round(n_sec * fs))
    tags = sorted({t for wiring in (case.x_wiring, case.y_wiring)
                   for channel in wiring for t in channel})
    latents = {
        tag: gen_latent(
            LatentOscillatorSpec(peak_hz=BAND_PEAK_HZ[tag[0]], fs=fs,
                                 n_samples=n_samples, modulus=modulus),
            seed=derive_seed(seed, "latent", tag))
        for tag in tags
    }
    weights = case.mixing.weights

    def build(side: str, wiring) -> TimeSeriesMatrix:
        channels = []
        for i, channel_tags in enumerate(wiring):
            rng = np.random.default_rng(derive_seed(seed, "noise", side, i))
            mixed = sum(w * latents[t] for w, t in zip(weights, channel_tags))
            mixed = mixed + weights[-1] * rng.standard_normal(n_samples)
            channels.append(_standardize(mixed))
        labels = tuple(f"{side}{i + 1}" for i in range(len(wiring)))
        return TimeSeriesMatrix(np.column_stack(channels), fs, labels)

    return build("X", case.x_wiring), build("Y", case.y_wiring)


def table1_frequency_sets(case_id: int, freqs_hz: np.ndarray) -> dict[str, np.ndarray]:
    """Frequency-set masks over which rejection rates are averaged."""
    f = np.asarray(freqs_hz, dtype=np.float64)
    if case_id in (1, 2, 3):
        in_band = (f > 8) & (f <= 12)
        return {"in_band": in_band, "out_band": ~in_band}
    theta = (f > 4) & (f <= 8)
    gamma = (f > 35) & (f <= 40)
    return {"theta_band": theta, "gamma_band": gamma, "out_band": ~(theta | gamma)}


@dataclass
class SimulationReport:
    """Monte Carlo summaries per (case, sample size, frequency) plus set rates."""

    rows: list[dict]
    set_rows: list[dict]
    meta: dict = field(default_factory=dict)

    CSV_COLUMNS = ("case", "n_sec", "freq_hz", "mean", "q025", "q975", "se",
                   "reject_rate")

    def write_csv(self, path) -> None:
        tables.write_csv(path, self.CSV_COLUMNS,
                         ([row[c] for c in self.CSV_COLUMNS] for row in self.rows))

    def write_json(self, path) -> None:
        tables.write_json(path, {"meta": self.meta, "rows": self.rows,
                                 "set_rows": self.set_rows})

    def freq_means(self, case_id: int, n_sec: float) -> tuple[np.ndarray, np.ndarray]:
        rows = [r for r in self.rows if r["case"] == case_id and r["n_sec"] == n_sec]
        rows.sort(key=lambda r: r["freq_hz"])
        return (np.array([r["freq_hz"] for r in rows]),
                np.array([r["mean"] for r in rows]))

    def set_value(self, case_id: int, n_sec: float, set_name: str, key: str) -> float:
        for row in self.set_rows:
            if (row["case"] == case_id and row["n_sec"] == n_sec
                    and row["set"] == set_name):
                return row[key]
        raise KeyError(f"no set row for case={case_id}, n_sec={n_sec}, set={set_name}")


def check_study(cases, n_secs, block_len: int, fs: float) -> None:
    """Reject settings under which every replicate would fail, before any runs.

    Each case's latent peaks must lie below fs/2, and each recording must hold
    at least 10 seconds and two complete blocks.
    """
    for case_id in cases:
        case = CASES[case_id]
        top = max(BAND_PEAK_HZ[band] for channel in case.x_wiring + case.y_wiring
                  for band, _ in channel)
        if top >= fs / 2:
            raise ValueError(f"case {case_id} has a latent peak at {top} Hz, "
                             f"not below fs/2 = {fs / 2} Hz")
    for n_sec in n_secs:
        if n_sec < 10:
            raise ValueError("need at least 10 seconds per replicate")
        if not math.isfinite(n_sec * fs):
            raise ValueError(f"{n_sec} s at {fs} Hz overflows the sample count")
        n_blocks = int(round(n_sec * fs)) // block_len
        if n_blocks < 2:
            raise ValueError(f"{n_sec} s at {fs} Hz holds {n_blocks} complete "
                             f"block(s) of {block_len} samples; need at least 2")


def _replicate(args) -> tuple[int, np.ndarray | None, str | None, list[str]]:
    (idx, case_id, n_sec, fs, block_len, measure, modulus, rep_seed) = args
    try:
        # warnings return with the result, so that a worker process prints none
        with warnings.catch_warnings(record=True) as caught:
            x, y = gen_case(case_id, n_sec, fs=fs, seed=rep_seed, modulus=modulus)
            profile = nvc_profile(x, y, block_len, measure=measure,
                                  seed=derive_seed(rep_seed, "measure"))
        return idx, profile.estimates, None, [str(w.message) for w in caught]
    except Exception as exc:  # noqa: BLE001 - reported and rate-limited upstream
        return idx, None, f"{type(exc).__name__}: {exc}", []


def run_study(cases=(1, 2, 3, 4, 5), n_secs=(50, 100, 200), replicates: int = 200,
              block_len: int = 100, alpha: float = 0.05, seed: int = 0,
              fs: float = 100.0, measure: str = "tbar",
              null_reps: int = 2000, modulus: float = DEFAULT_MODULUS,
              workers: int = 1) -> SimulationReport:
    """Monte Carlo study over the dependence cases.

    Per replicate: generate the case data, estimate the per-frequency
    dependence profile and test it against the shared rank-permutation null
    for that (block count, response dimension).  Aggregates the mean
    estimate, the middle 95% envelope, the standard error and the rejection
    rate per frequency, plus rejection rates averaged over the pre-specified
    frequency sets.  Fully reproducible from (config, seed); replicates may
    run in parallel since each owns a derived seed.

    Settings that `check_study` rejects, and a cell whose every replicate
    runs out of memory (a sample count too large to allocate), raise
    ValueError; other failures above 1% of a cell raise RuntimeError.
    """
    if replicates < 10:
        raise ValueError("need at least 10 replicates")
    check_study(cases, n_secs, block_len, fs)
    freqs_hz = retained_indices(block_len) * fs / block_len
    rows: list[dict] = []
    set_rows: list[dict] = []
    # one null ensemble per distinct (n, q); no data enters it
    ensembles: dict = {}
    failures: list[str] = []
    warned: set[str] = set()

    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for case_id in cases:
            case = CASES[case_id]
            for n_sec in n_secs:
                n_blocks = int(round(n_sec * fs)) // block_len
                tasks = [
                    (r, case_id, n_sec, fs, block_len, measure, modulus,
                     derive_seed(seed, "rep", case_id, n_sec, r))
                    for r in range(replicates)
                ]
                results = pool.map(_replicate, tasks, chunksize=8) if pool \
                    else map(_replicate, tasks)
                estimates = np.full((replicates, freqs_hz.size), np.nan)
                cell_failures = out_of_memory = 0
                for idx, est, err, notes in results:
                    for note in notes:
                        if note not in warned:
                            warned.add(note)
                            warnings.warn(note, stacklevel=2)
                    if err is None:
                        estimates[idx] = est
                    else:
                        cell_failures += 1
                        out_of_memory += err.startswith("MemoryError:")
                        failures.append(f"case={case_id} n_sec={n_sec} rep={idx}: {err}")
                if out_of_memory == replicates:
                    raise ValueError(
                        f"every replicate ran out of memory for case={case_id}, "
                        f"n_sec={n_sec}: {err}")
                if cell_failures > 0.01 * replicates:
                    raise RuntimeError(
                        f"{cell_failures}/{replicates} replicates failed for "
                        f"case={case_id}, n_sec={n_sec}: {failures[-1]}")
                ok = ~np.isnan(estimates).all(axis=1)

                key = (n_blocks, case.q)
                if key not in ensembles:
                    ensembles[key] = null_ensemble(*key, n_reps=null_reps,
                                                   seed=derive_seed(seed, "null", *key))
                pvals = p_values(estimates[ok].ravel(), ensembles[key])
                pvals = pvals.reshape(ok.sum(), freqs_hz.size)
                reject = np.where(np.isnan(pvals), np.nan, pvals < alpha)

                est_ok = estimates[ok]
                mean = np.nanmean(est_ok, axis=0)
                q025 = np.nanquantile(est_ok, 0.025, axis=0)
                q975 = np.nanquantile(est_ok, 0.975, axis=0)
                se = np.nanstd(est_ok, axis=0, ddof=1)
                reject_rate = np.nanmean(reject, axis=0)
                for i, f in enumerate(freqs_hz):
                    rows.append({
                        "case": int(case_id), "n_sec": float(n_sec),
                        "freq_hz": float(f), "mean": float(mean[i]),
                        "q025": float(q025[i]), "q975": float(q975[i]),
                        "se": float(se[i]), "reject_rate": float(reject_rate[i]),
                    })
                for name, mask in table1_frequency_sets(case_id, freqs_hz).items():
                    # short blocks may retain no frequency of a set: null
                    held = mask.any()
                    set_rows.append({
                        "case": int(case_id), "n_sec": float(n_sec), "set": name,
                        "reject_rate":
                            float(np.nanmean(reject_rate[mask])) if held else None,
                        "ave_se": float(np.nanmean(se[mask])) if held else None,
                        "mean_estimate":
                            float(np.nanmean(mean[mask])) if held else None,
                        "n_freqs": int(mask.sum()),
                    })
    finally:
        if pool is not None:
            pool.shutdown()

    meta = {
        "cases": [int(c) for c in cases],
        "n_secs": [float(v) for v in n_secs],
        "replicates": replicates,
        "block_len": block_len,
        "alpha": alpha,
        "seed": seed,
        "fs": fs,
        "measure": measure,
        "null_reps": null_reps,
        "modulus": modulus,
        "n_failures": len(failures),
        "failures": failures,
    }
    return SimulationReport(rows=rows, set_rows=set_rows, meta=meta)
