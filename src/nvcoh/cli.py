"""Batch command line: ingest, analyze, baseline, compare, simulate, null-dist.

Every command writes a manifest recording every flag of the command and the
seed, which fully determine its outputs: the file flags under "inputs", the
rest under "params".  Re-running a command with the same inputs and seed
reproduces every output file byte for byte.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical degeneracy.  Only baseline and simulate load
scipy at start; analyze loads it only for recordings of 160 blocks or more,
and compare and null-dist never do.  analyze evaluates every region pair at
once, one sweep per frequency, and its pool of --threads processes takes
chunks of frequencies; simulate's pool takes replicates.  Both run through
`spectral.fan_out`, and no output depends on --threads but the manifest.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cases import CASES, DEFAULT_MODULUS
from .inference import (
    DEFAULT_GROUP_PERMS,
    DEFAULT_NULL_REPS,
    bh_adjust,
    group_permutation_test,
    null_ensemble,
    p_values,
)
from .rank_core import DegenerateRanksError, _square_safe_magnitude, derive_seed
from . import spectral
from .spectral import (  # noqa: F401  (bench/layers.py wraps nvc_profile here)
    CANONICAL_BANDS,
    DEFAULT_MAX_LAG,
    BlockTooLongError,
    EmptyBandError,
    FrequencyBand,
    TimeSeriesMatrix,
    nvc_profile,
    rbp,
    retained_indices,
)
from .tables import DataError, read_numeric_csv
from .tables import write_csv as _write_csv
from .tables import write_json as _write_json
from .vector_measure import _default_plan

__all__ = ["DataError", "RegionConfig", "ingest_csv", "main"]

SEED_ENV_VAR = "NVC_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DEGENERATE = 3

# standard 10-20 montage grouped into the seven regions of interest; the
# midline frontal channel is left out to keep the two frontal groups symmetric
DEFAULT_ROIS: dict[str, tuple[str, ...]] = {
    "LF": ("Fp1", "F3", "F7"),
    "RF": ("Fp2", "F4", "F8"),
    "LT": ("T3", "T5"),
    "RT": ("T4", "T6"),
    "C": ("C3", "Cz", "C4"),
    "P": ("P3", "Pz", "P4"),
    "O": ("O1", "O2"),
}


class UsageError(ValueError):
    """Invalid command-line usage detected after parsing."""


@dataclass(frozen=True)
class RegionConfig:
    """Named channel groups and the region pairs to analyse."""

    regions: dict[str, tuple[str, ...]]
    pairs: tuple[tuple[str, str], ...]

    def validate_against(self, labels) -> None:
        labels = set(labels)
        seen: dict[str, str] = {}
        for name, channels in self.regions.items():
            if not channels:
                raise DataError(f"region {name} has no channels")
            for ch in channels:
                if ch not in labels:
                    raise DataError(f"region {name} lists unknown channel {ch}")
                if ch in seen:
                    raise DataError(
                        f"channel {ch} appears in regions {seen[ch]} and {name}")
                seen[ch] = name
        if not self.pairs:
            raise DataError("the region config has no region pair to analyse")
        for i, (a, b) in enumerate(self.pairs):
            for r in (a, b):
                if r not in self.regions:
                    raise DataError(f"pair ({a}, {b}) references unknown region {r}")
            if (a, b) in self.pairs[:i]:
                raise DataError(f"pair ({a}, {b}) is listed twice")


def default_region_config() -> RegionConfig:
    return RegionConfig(regions=dict(DEFAULT_ROIS),
                        pairs=tuple(itertools.combinations(sorted(DEFAULT_ROIS), 2)))


def load_region_config(path) -> RegionConfig:
    """Regions and pairs from a JSON object; a malformed file is a `DataError`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read region config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSON syntax or text encoding
        raise DataError(f"invalid region JSON {path}: {exc}") from exc
    regions = raw.get("regions") if isinstance(raw, dict) else None
    if not isinstance(regions, dict):
        raise DataError(f"region config {path} must be a JSON object "
                        "with a 'regions' map")
    if not all(isinstance(v, list) for v in regions.values()):
        raise DataError(f"region config {path}: each region maps to a list of channels")
    pairs = raw.get("pairs")
    if pairs is None:
        pairs = itertools.combinations(sorted(regions), 2)
    elif not (isinstance(pairs, list)
              and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
        raise DataError(f"region config {path}: 'pairs' must list pairs of two "
                        "region names")
    return RegionConfig(regions={k: tuple(str(c) for c in v) for k, v in regions.items()},
                        pairs=tuple((str(a), str(b)) for a, b in pairs))


def ingest_csv(path, fs: float) -> TimeSeriesMatrix:
    """Load a samples-by-channels CSV with a channel-label header row.

    The checks of `tables.read_numeric_csv` apply: ragged rows, duplicate
    labels and non-finite cells are data errors naming the row and column.
    """
    labels, data = read_numeric_csv(path)
    return TimeSeriesMatrix(data=data, fs=fs, labels=labels)


def _load_recording(args, need: int, why: str) -> tuple[TimeSeriesMatrix, RegionConfig]:
    """Ingest and region-check the recording, drop its start, standardize if asked.

    Fewer than ``need`` samples left after the discard is a data error that
    names both counts and ``why`` the command needs them.
    """
    ts = ingest_csv(args.input, args.fs)
    config = load_region_config(args.regions) if args.regions else default_region_config()
    config.validate_against(ts.labels)
    start = args.discard_secs * ts.fs  # may overflow to inf
    start = int(round(start)) if start < ts.n_samples else ts.n_samples
    if ts.n_samples - start < need:
        raise DataError(f"{ts.n_samples - start} of {ts.n_samples} samples left after "
                        f"discarding {args.discard_secs}s; {args.command} needs at "
                        f"least {need} ({why})")
    data = ts.data[start:]
    # channels outside every region are never computed on: neither checked nor scaled
    used = [ts.labels.index(ch) for chans in config.regions.values() for ch in chans]
    labels = [ts.labels[i] for i in used]
    if args.standardize:
        _reject_constant(data[:, used], labels, "cannot be standardized")
        # moments over the whole matrix: numpy lays ``data[:, used]`` out
        # column-major and would sum its columns in another order
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = data.mean(axis=0)[used], data.std(axis=0)[used]
        _reject_overflow(std, labels, "channel",
                         "the standard deviation would overflow float64")
        data[:, used] = (data[:, used] - mean) / std
        return TimeSeriesMatrix(data=data, fs=ts.fs, labels=ts.labels), config
    with np.errstate(over="ignore"):
        power = np.einsum("ij,ij->j", data, data)[used]
    if args.command == "baseline":
        # pbc multiplies two channels' sums of squares, each at most the
        # larger one squared
        with np.errstate(over="ignore"):
            _reject_overflow(power * power, labels, "channel",
                             "the sum of squares would overflow float64")
    else:
        # a retained periodogram ordinate is at most half its block's sum of
        # squares (Parseval, with its conjugate ordinate), so the sum of
        # squares bounds every entry of the neighbour search over a pair's
        # p + q columns; below this limit its squared distances stay finite
        limit = np.full(len(used), np.inf)
        for a, b in config.pairs:
            chans = config.regions[a] + config.regions[b]
            for ch in chans:
                k = labels.index(ch)
                limit[k] = min(limit[k], _square_safe_magnitude(len(chans)))
        _reject_overflow(power, labels, "channel", "squared distances between "
                         "their periodograms may overflow float64", limit)
    return TimeSeriesMatrix(data=data, fs=ts.fs, labels=ts.labels), config


def _reject_constant(data: np.ndarray, labels, why: str) -> None:
    """Raise a degeneracy error naming every column whose samples are all equal."""
    with np.errstate(over="ignore"):  # max - min may overflow; it is not 0 then
        flat = [labels[i] for i in np.flatnonzero(np.ptp(data, axis=0) == 0)]
    if flat:
        raise DegenerateRanksError(f"constant channel(s) {flat} {why}")


def _reject_overflow(reach: np.ndarray, labels, noun: str, why: str,
                     limit=np.inf) -> None:
    """Raise a data error naming every column whose ``reach`` is not below ``limit``.

    ``reach`` bounds, per column, the largest magnitude the command computes
    from it; an overflow there would turn into inf, NaN or a silent 0.
    """
    big = [labels[i] for i in np.flatnonzero(~(reach < limit))]
    if big:
        raise DataError(f"{noun}(s) {big} too large: {why}")


def _parse_bands(spec: str | None, freqs: np.ndarray) -> tuple[FrequencyBand, ...]:
    """Bands of ``--bands``, canonical if unset.

    A band holding no ``freqs`` is refused, and so is an empty name (the band
    label of out-of-band frequencies) or a repeated one.
    """
    if not spec:
        return CANONICAL_BANDS
    bands = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(f"band {part!r} is not name:lo:hi")
        if not bits[0]:
            raise UsageError(f"band {part!r} has no name")
        if bits[0] in {band.name for band in bands}:
            raise UsageError(f"band name {bits[0]!r} is repeated")
        try:
            band = FrequencyBand(bits[0], float(bits[1]), float(bits[2]))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not band.mask(freqs).any():
            raise UsageError(f"band {band.name} contains no retained frequency")
        bands.append(band)
    return tuple(bands)


def _band_of(freq: float, bands) -> str:
    for band in bands:
        if band.lo_hz < freq <= band.hi_hz:
            return band.name
    return ""


def cmd_analyze(args) -> int:
    ts, config = _load_recording(args, 2 * args.block_len,
                                 f"two blocks of {args.block_len}")
    freqs = retained_indices(args.block_len) * ts.fs / args.block_len
    bands = _parse_bands(args.bands, freqs)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_blocks = ts.n_samples // args.block_len

    names = [f"{a}-{b}" for a, b in config.pairs]
    regions = [r for r in config.regions if any(r in pair for pair in config.pairs)]
    tensors = [spectral.block_periodograms(ts.select(config.regions[r]), args.block_len)
               for r in regions]
    # plans are keyed by dimension, so every pair with the same q shares one
    plans = [(_default_plan(len(config.regions[a]), args.q_perms, args.seed)
              if args.measure == "tstar" else None,
              _default_plan(len(config.regions[b]), args.q_perms, args.seed))
             for a, b in config.pairs]
    profiles = spectral._montage_profiles(
        tensors, [(regions.index(a), regions.index(b)) for a, b in config.pairs],
        args.block_len, ts.fs, args.measure,
        [derive_seed(args.seed, "pair", name) for name in names], plans,
        args.threads, ProcessPoolExecutor)

    # one null ensemble per distinct (n, q); no data enters it
    ensembles: dict = {}
    p_raw = np.empty((len(profiles), freqs.size))
    for i, profile in enumerate(profiles):
        key = (n_blocks, profile.meta["q"])
        if key not in ensembles:
            ensembles[key] = null_ensemble(
                *key, n_reps=args.null_reps,
                seed=derive_seed(args.seed, "null", *key, args.null_reps))
        p_raw[i] = p_values(profile.estimates, ensembles[key])
    finite = ~np.isnan(p_raw)
    p_adj = np.full_like(p_raw, np.nan)
    if finite.any():
        p_adj[finite] = bh_adjust(p_raw[finite])

    csv_rows = []
    for pair_name, profile, praw, padj in zip(names, profiles, p_raw, p_adj):
        estimates = profile.estimates
        ensemble = ensembles[n_blocks, profile.meta["q"]]
        summary = {}
        for band in bands:
            mask = band.mask(freqs)
            if not mask.any():
                continue
            vals = estimates[mask]
            sig = padj[mask]
            summary[band.name] = {
                "mean_estimate": float(np.nanmean(vals)) if np.isfinite(vals).any() else None,
                "n_significant": int(np.nansum(sig < args.alpha)),
                "n_freqs": int(mask.sum()),
            }
        payload = {
            "pair": pair_name,
            "freqs_hz": freqs.tolist(),
            "estimate": estimates.tolist(),
            "p_raw": praw.tolist(),
            "p_adj": padj.tolist(),
            "band_summary": summary,
            "meta": {**profile.meta, "alpha": args.alpha,
                     "null_reps": ensemble.n_reps,
                     "null_sha256": ensemble.sha256(),
                     "null_structure": ensemble.structure},
        }
        _write_json(out / f"profile_{pair_name}.json", payload)
        for i, f in enumerate(freqs):
            csv_rows.append((pair_name, _band_of(float(f), bands), float(f),
                             float(estimates[i]), float(praw[i]), float(padj[i])))

    _write_csv(out / "profiles.csv",
               ("pair", "band", "freq_hz", "estimate", "p_raw", "p_adj"), csv_rows)
    _write_manifest(args, out,
                    stats={"n_blocks": n_blocks, "null_ensemble_builds": len(ensembles)},
                    pairs=names)
    return EXIT_OK


def cmd_baseline(args) -> int:
    from .baselines import min_samples, pbc_table

    ts, config = _load_recording(
        args, max(min_samples(args.max_lag), 2 * args.block_len),
        f"max lag {args.max_lag}, two blocks of {args.block_len}")
    channels = [ch for name in sorted(config.regions) for ch in config.regions[name]]
    _reject_constant(ts.select(channels).data, channels,
                     "have no band power to compare")
    bands = _parse_bands(args.bands,
                         retained_indices(args.block_len) * ts.fs / args.block_len)
    nyquist = ts.fs / 2
    for band in bands:
        if band.lo_hz <= 0 or band.hi_hz >= nyquist:
            raise UsageError(f"band {band.name} must lie strictly inside (0, {nyquist}) Hz")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    table = pbc_table(ts, config.regions, config.pairs, bands, max_lag=args.max_lag)
    pbc_rows = [(f"{a}-{b}", band.name, float(table[p, k]))
                for p, (a, b) in enumerate(config.pairs) for k, band in enumerate(bands)]

    rbp_rows = []
    for name in sorted(config.regions):
        for band in bands:
            vals = [rbp(ts, ch, band, bands_total=bands, block_len=args.block_len)
                    for ch in config.regions[name]]
            rbp_rows.append((name, band.name, float(np.mean(vals))))

    _write_csv(out / "pbc.csv", ("pair", "band", "pbc"), pbc_rows)
    _write_csv(out / "rbp.csv", ("region", "band", "rbp"), rbp_rows)
    _write_json(out / "baseline.json", {
        "pbc": [{"pair": p, "band": b, "value": v} for p, b, v in pbc_rows],
        "rbp": [{"region": r, "band": b, "value": v} for r, b, v in rbp_rows],
    })
    _write_manifest(args, out, pairs=["-".join(p) for p in config.pairs])
    return EXIT_OK


def cmd_compare(args) -> int:
    cohorts = []
    for path in (args.cohort_a, args.cohort_b):
        feats, table = read_numeric_csv(path)
        if table.shape[0] < 2:
            raise DataError(f"{path}: need at least two subjects")
        cohorts.append((feats, table))
    (feats_a, table_a), (feats_b, table_b) = cohorts
    if feats_a != feats_b:
        raise DataError("cohort feature columns are misaligned: "
                        f"{feats_a} vs {feats_b}")
    # the permutation test's group sums and differences of means are at most
    # twice the sum of the pooled magnitudes
    with np.errstate(over="ignore"):
        reach = 2 * (np.abs(table_a).sum(axis=0) + np.abs(table_b).sum(axis=0))
    _reject_overflow(reach, feats_a, "feature",
                     "the sum of magnitudes would overflow float64")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = []
    for i, name in enumerate(feats_a):
        res = group_permutation_test(table_a[:, i], table_b[:, i],
                                     n_perms=args.group_perms,
                                     seed=derive_seed(args.seed, "feature", name),
                                     alpha=args.alpha)
        results.append((name, float(table_a[:, i].mean()), float(table_b[:, i].mean()),
                        res.statistic, res.p_value))
    padj = bh_adjust([r[4] for r in results])
    rows = [(name, ma, mb, stat, praw, float(pa), bool(pa < args.alpha))
            for (name, ma, mb, stat, praw), pa in zip(results, padj)]
    _write_csv(out / "comparison.csv",
               ("feature", "mean_a", "mean_b", "statistic", "p_raw", "p_adj",
                "significant"), rows)
    _write_json(out / "comparison.json", {
        "features": [
            {"feature": n, "mean_a": ma, "mean_b": mb, "statistic": s,
             "p_raw": pr, "p_adj": pa, "significant": sig}
            for n, ma, mb, s, pr, pa, sig in rows
        ],
        "family_size": len(rows),
        "alpha": args.alpha,
    })
    _write_manifest(args, out, family_size=len(rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulation import run_study

    try:
        report = run_study(cases=args.cases, n_secs=args.n_secs,
                           replicates=args.reps, block_len=args.block_len,
                           alpha=args.alpha, seed=args.seed, fs=args.fs,
                           measure=args.measure, null_reps=args.null_reps,
                           modulus=args.modulus, workers=args.threads)
    except ValueError as exc:  # settings refused up front, or too large for memory
        raise UsageError(str(exc)) from None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    _write_manifest(args, out)
    return EXIT_OK


def cmd_null_dist(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ensemble = null_ensemble(args.n_blocks, args.q, n_reps=args.null_reps,
                             seed=args.seed)
    _write_csv(out / "null.csv", ("value",), [(float(v),) for v in ensemble.reps])
    _write_json(out / "null.json", {
        "n": ensemble.n, "q": ensemble.q, "n_reps": ensemble.n_reps,
        "seed": ensemble.seed, "structure": ensemble.structure,
        "sha256": ensemble.sha256(),
        "quantiles": {"q50": float(np.quantile(ensemble.reps, 0.5)),
                      "q95": float(np.quantile(ensemble.reps, 0.95)),
                      "q99": float(np.quantile(ensemble.reps, 0.99))},
    })
    _write_manifest(args, out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


# flag -> (argparse keywords, (test its value must pass, rule quoted when it
# fails) or None).  Rules run in this order, seed first, and the first failing
# flag of the command is the one named.
_FLAGS: dict[str, tuple[dict, tuple | None]] = {
    "seed": (dict(type=int, help=f"master seed (default: ${SEED_ENV_VAR} or 0)"),
             (lambda v: v >= 0, "a non-negative integer")),
    "fs": (dict(type=float, default=100.0),
           (lambda v: 0 < v < math.inf, "a positive number")),
    "block_len": (dict(type=int, default=100), (lambda v: v >= 4, "at least 4")),
    "q_perms": (dict(type=int, help="orderings per side (default exhaustive up to 24)"),
                (lambda v: v is None or v >= 1, "at least 1")),
    "null_reps": (dict(type=int, default=DEFAULT_NULL_REPS),
                  (lambda v: v >= 1, "at least 1")),
    "alpha": (dict(type=float, default=0.05), (lambda v: 0 < v < 1, "inside (0, 1)")),
    "discard_secs": (dict(type=float, default=5.0),
                     (lambda v: 0 <= v < math.inf, "a non-negative number")),
    "threads": (dict(type=int, default=1), (lambda v: v >= 1, "at least 1")),
    "max_lag": (dict(type=int, default=DEFAULT_MAX_LAG), (lambda v: v >= 0, "at least 0")),
    "group_perms": (dict(type=int, default=DEFAULT_GROUP_PERMS),
                    (lambda v: v >= 1, "at least 1")),
    "cases": (dict(type=int, nargs="+", default=(1, 2, 3, 4, 5)),
              (lambda v: set(v) <= set(CASES) and len(set(v)) == len(v),
               f"distinct values among {sorted(CASES)}")),
    "n_secs": (dict(type=float, nargs="+", default=(50, 100, 200)),
               (lambda v: all(10 <= s < math.inf for s in v) and len(set(v)) == len(v),
                "distinct values of at least 10")),
    "reps": (dict(type=int, default=200), (lambda v: v >= 10, "at least 10")),
    "modulus": (dict(type=float, default=DEFAULT_MODULUS),
                (lambda v: 0 < v < 1, "inside (0, 1)")),
    "n_blocks": (dict(type=int, required=True), (lambda v: v >= 2, "at least 2")),
    "q": (dict(type=int, required=True), (lambda v: v >= 1, "at least 1")),
    "input": (dict(required=True, help="samples-by-channels CSV"), None),
    "regions": (dict(help="region config JSON"), None),
    "bands": (dict(help="name:lo:hi,... (default canonical)"), None),
    "measure": (dict(choices=("t", "tbar", "tstar"), default="tstar"), None),
    "standardize": (dict(action=argparse.BooleanOptionalAction, default=True), None),
    "cohort_a": (dict(required=True, help="feature CSV, one row per subject"), None),
    "cohort_b": (dict(required=True), None),
    "out_dir": (dict(required=True, help="output directory"), None),
}

# command -> (function, help line, flags in --help order); every command also
# takes --seed and --out-dir
_COMMANDS = {
    "analyze": (cmd_analyze, "per region-pair spectral dependence profiles",
                ("input", "regions", "fs", "block_len", "bands", "measure", "q_perms",
                 "null_reps", "alpha", "discard_secs", "standardize", "threads")),
    "baseline": (cmd_baseline, "pairwise band coherence and relative band power",
                 ("input", "regions", "fs", "bands", "max_lag", "block_len",
                  "discard_secs", "standardize")),
    "compare": (cmd_compare, "two-cohort permutation comparison of features",
                ("cohort_a", "cohort_b", "group_perms", "alpha")),
    "simulate": (cmd_simulate, "Monte Carlo study over the dependence cases",
                 ("cases", "n_secs", "reps", "block_len", "alpha", "fs", "measure",
                  "null_reps", "modulus", "threads")),
    "null-dist": (cmd_null_dist, "emit a permutation-of-ranks null ensemble",
                  ("n_blocks", "q", "null_reps")),
}

# manifest.json lists the file flags under "inputs", --input as "recording",
# and names what an unset --regions or --bands stands for
_FILE_FLAGS = ("input", "regions", "cohort_a", "cohort_b")
_UNSET = {"regions": "builtin", "bands": "canonical"}


def _write_manifest(args, out: Path, stats=None, **extra) -> None:
    """Write ``manifest.json``: every flag of the command, its ``extra`` values."""
    flags = {name: getattr(args, name) for name in _COMMANDS[args.command][2]}
    flags.update({k: flags[k] or v for k, v in _UNSET.items() if k in flags})
    inputs = {"recording" if name == "input" else name: flags.pop(name)
              for name in _FILE_FLAGS if name in flags}
    _write_json(out / "manifest.json", {
        "command": args.command, "inputs": inputs, "params": {**flags, **extra},
        "seed": args.seed, "tool": "nvcoh", "version": __version__, "stats": stats or {}})


def _check_args(args) -> None:
    """Reject parameter values no command can run with, naming the flag."""
    for name, (_, rule) in _FLAGS.items():
        if rule is not None and hasattr(args, name) and not rule[0](getattr(args, name)):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be {rule[1]}, got {getattr(args, name)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="nvc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nvcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in (*flags, "seed", "out_dir"):
            p.add_argument("--" + name.replace("_", "-"), **_FLAGS[name][0])
        p.set_defaults(func=func)
    # the one default that differs by command
    sub.choices["simulate"].set_defaults(measure="tbar")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"nvc: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            if args.seed is None:
                args.seed = _default_seed()
            _check_args(args)
            return args.func(args)
        except (UsageError, EmptyBandError) as exc:
            print(f"nvc: usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:  # e.g. a --null-reps or --q too large to allocate
            detail = str(exc) and f": {exc}"  # numpy's message names the array size
            print(f"nvc: usage error: settings too large for memory{detail}",
                  file=sys.stderr)
            return EXIT_USAGE
        except (DataError, BlockTooLongError) as exc:
            print(f"nvc: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except DegenerateRanksError as exc:
            print(f"nvc: numerical degeneracy: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
