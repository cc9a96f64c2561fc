"""Batch command line: ingest, analyze, baseline, compare, simulate, null-dist.

Every command writes a manifest recording the parameters and seeds that fully
determine its outputs; re-running a command with the same inputs and seed
reproduces every output file byte for byte.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical degeneracy.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import DEFAULT_MAX_LAG, rbp, region_pbc
from .inference import (
    DEFAULT_GROUP_PERMS,
    DEFAULT_NULL_REPS,
    bh_adjust,
    group_permutation_test,
    null_ensemble,
    p_values,
)
from .rank_core import DegenerateRanksError, derive_seed
from .simulation import CASES, DEFAULT_MODULUS, run_study
from .spectral import (
    CANONICAL_BANDS,
    BlockTooLongError,
    EmptyBandError,
    FrequencyBand,
    TimeSeriesMatrix,
    nvc_profile,
    retained_indices,
)
from .vector_measure import DegenerateDenominatorError, make_plan

__all__ = ["DataError", "RegionConfig", "RunManifest", "ingest_csv", "main"]

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


class DataError(ValueError):
    """Malformed or inconsistent input data."""


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
        for a, b in self.pairs:
            for r in (a, b):
                if r not in self.regions:
                    raise DataError(f"pair ({a}, {b}) references unknown region {r}")


def default_region_config(regions: dict | None = None) -> RegionConfig:
    regions = {k: tuple(v) for k, v in (regions or DEFAULT_ROIS).items()}
    pairs = tuple(itertools.combinations(sorted(regions), 2))
    return RegionConfig(regions=regions, pairs=pairs)


def load_region_config(path) -> RegionConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid region JSON {path}: {exc}") from exc
    if "regions" not in raw:
        raise DataError(f"region config {path} lacks a 'regions' map")
    regions = {str(k): tuple(str(c) for c in v) for k, v in raw["regions"].items()}
    if "pairs" in raw:
        pairs = tuple((str(a), str(b)) for a, b in raw["pairs"])
    else:
        pairs = tuple(itertools.combinations(sorted(regions), 2))
    return RegionConfig(regions=regions, pairs=pairs)


@dataclass
class RunManifest:
    """Everything that determines a run: inputs, parameters, seeds, version."""

    command: str
    inputs: dict
    params: dict
    seed: int
    tool: str = "nvcoh"
    version: str = __version__
    stats: dict = field(default_factory=dict)

    def write(self, path) -> None:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "params": self.params,
            "seed": self.seed,
            "stats": self.stats,
            "tool": self.tool,
            "version": self.version,
        }
        _write_json(path, payload)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=True)
        fh.write("\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def ingest_csv(path, fs: float) -> TimeSeriesMatrix:
    """Load a samples-by-channels CSV with a channel-label header row.

    Rejects ragged rows, duplicate labels and non-finite cells, pointing at
    the offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        labels = [c.strip() for c in header]
        if len(set(labels)) != len(labels):
            dupes = sorted({c for c in labels if labels.count(c) > 1})
            raise DataError(f"{path}: duplicate channel labels {dupes}")
        n_cols = len(labels)
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise DataError(
                    f"{path}: ragged row {i} has {len(row)} cells, expected {n_cols}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                bad = next(j for j, c in enumerate(row) if not _is_float(c))
                raise DataError(
                    f"{path}: row {i}, column {labels[bad]}: "
                    f"cannot parse {row[bad]!r}") from None
    if not rows:
        raise DataError(f"{path}: no sample rows")
    data = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"{path}: non-finite value at row {r + 2}, column {labels[c]}")
    return TimeSeriesMatrix(data=data, fs=fs, labels=tuple(labels))


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _prepare_recording(ts: TimeSeriesMatrix, discard_secs: float,
                       standardize: bool) -> TimeSeriesMatrix:
    start = int(round(discard_secs * ts.fs))
    if start >= ts.n_samples:
        raise DataError(
            f"discarding {discard_secs}s removes the whole {ts.n_samples}-sample recording")
    data = ts.data[start:]
    if standardize:
        sd = data.std(axis=0)
        if (sd == 0).any():
            flat = [ts.labels[i] for i in np.flatnonzero(sd == 0)]
            raise DegenerateRanksError(f"constant channel(s) {flat} cannot be standardized")
        data = (data - data.mean(axis=0)) / sd
    return TimeSeriesMatrix(data=data, fs=ts.fs, labels=ts.labels)


def _parse_bands(spec: str | None) -> tuple[FrequencyBand, ...]:
    if not spec:
        return CANONICAL_BANDS
    bands = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(f"band {part!r} is not name:lo:hi")
        try:
            bands.append(FrequencyBand(bits[0], float(bits[1]), float(bits[2])))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return tuple(bands)


def _band_of(freq: float, bands) -> str:
    for band in bands:
        if band.lo_hz < freq <= band.hi_hz:
            return band.name
    return ""


class _EnsembleProvider:
    """One null ensemble per distinct (n, q) per run; no data enters."""

    def __init__(self, master_seed: int, n_reps: int):
        self.master_seed = master_seed
        self.n_reps = n_reps
        self.cache: dict = {}
        self.builds = 0

    def get(self, n: int, q: int):
        key = (n, q)
        if key not in self.cache:
            seed = derive_seed(self.master_seed, "null", n, q, self.n_reps)
            self.cache[key] = null_ensemble(n, q, n_reps=self.n_reps, seed=seed)
            self.builds += 1
        return self.cache[key]


def _shared_plans(master_seed: int, measure: str, p: int, q: int, n_perms):
    """Plans keyed by dimension so every pair with the same q shares one plan."""
    plan_y = make_plan(q, n_perms, seed=derive_seed(master_seed, "plan", q))
    plan_x = make_plan(p, n_perms, seed=derive_seed(master_seed, "plan", p)) \
        if measure == "tstar" else None
    return plan_x, plan_y


def _profile_worker(args):
    (pair_name, x_data, y_data, fs, block_len, measure, n_perms, master_seed) = args
    x = TimeSeriesMatrix(x_data, fs, tuple(f"x{i}" for i in range(x_data.shape[1])))
    y = TimeSeriesMatrix(y_data, fs, tuple(f"y{i}" for i in range(y_data.shape[1])))
    plan_x, plan_y = _shared_plans(master_seed, measure, x.n_channels, y.n_channels,
                                   n_perms)
    profile = nvc_profile(x, y, block_len, measure=measure,
                          seed=derive_seed(master_seed, "pair", pair_name),
                          plan_x=plan_x, plan_y=plan_y)
    return pair_name, profile.estimates, profile.meta


def cmd_analyze(args) -> int:
    ts = ingest_csv(args.input, args.fs)
    config = load_region_config(args.regions) if args.regions else default_region_config()
    config.validate_against(ts.labels)
    ts = _prepare_recording(ts, args.discard_secs, args.standardize)
    bands = _parse_bands(args.bands)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    n_blocks = ts.n_samples // args.block_len
    freqs = retained_indices(args.block_len) * ts.fs / args.block_len

    tasks = []
    for a, b in config.pairs:
        x = ts.select(config.regions[a])
        y = ts.select(config.regions[b])
        tasks.append((f"{a}-{b}", x.data, y.data, ts.fs, args.block_len,
                      args.measure, args.q_perms, seed))

    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_profile_worker, tasks))
    else:
        results = [_profile_worker(t) for t in tasks]

    provider = _EnsembleProvider(seed, args.null_reps)
    per_pair = []
    all_p: list[float] = []
    for pair_name, estimates, meta in results:
        ensemble = provider.get(n_blocks, meta["q"])
        praw = p_values(estimates, ensemble)
        per_pair.append((pair_name, estimates, praw, meta, ensemble))
        all_p.extend(praw.tolist())

    all_p = np.asarray(all_p)
    finite = ~np.isnan(all_p)
    adj = np.full_like(all_p, np.nan)
    if finite.any():
        adj[finite] = bh_adjust(all_p[finite])

    csv_rows = []
    offset = 0
    for pair_name, estimates, praw, meta, ensemble in per_pair:
        padj = adj[offset: offset + estimates.size]
        offset += estimates.size
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
            "estimate": [None if math.isnan(v) else v for v in estimates.tolist()],
            "p_raw": [None if math.isnan(v) else v for v in praw.tolist()],
            "p_adj": [None if math.isnan(v) else v for v in padj.tolist()],
            "band_summary": summary,
            "meta": {**meta, "alpha": args.alpha,
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
    manifest = RunManifest(
        command="analyze",
        inputs={"recording": str(args.input),
                "regions": str(args.regions) if args.regions else "builtin"},
        params={"fs": args.fs, "block_len": args.block_len,
                "bands": args.bands or "canonical", "measure": args.measure,
                "q_perms": args.q_perms, "null_reps": args.null_reps,
                "alpha": args.alpha, "discard_secs": args.discard_secs,
                "standardize": args.standardize, "threads": args.threads,
                "pairs": ["-".join(p) for p in config.pairs]},
        seed=seed,
        stats={"n_blocks": n_blocks, "null_ensemble_builds": provider.builds},
    )
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_baseline(args) -> int:
    ts = ingest_csv(args.input, args.fs)
    config = load_region_config(args.regions) if args.regions else default_region_config()
    config.validate_against(ts.labels)
    ts = _prepare_recording(ts, args.discard_secs, args.standardize)
    bands = _parse_bands(args.bands)
    nyquist = ts.fs / 2
    for band in bands:
        if band.lo_hz <= 0 or band.hi_hz >= nyquist:
            raise UsageError(f"band {band.name} must lie strictly inside (0, {nyquist}) Hz")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pbc_rows = []
    for a, b in config.pairs:
        x = ts.select(config.regions[a])
        y = ts.select(config.regions[b])
        for band in bands:
            value = region_pbc(x, y, band, max_lag=args.max_lag)
            pbc_rows.append((f"{a}-{b}", band.name, value))

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
    manifest = RunManifest(
        command="baseline",
        inputs={"recording": str(args.input),
                "regions": str(args.regions) if args.regions else "builtin"},
        params={"fs": args.fs, "bands": args.bands or "canonical",
                "max_lag": args.max_lag, "block_len": args.block_len,
                "discard_secs": args.discard_secs, "standardize": args.standardize,
                "pairs": ["-".join(p) for p in config.pairs]},
        seed=args.seed,
    )
    manifest.write(out / "manifest.json")
    return EXIT_OK


def _read_feature_table(path) -> tuple[list[str], np.ndarray]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: ragged row {i}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DataError(f"{path}: row {i}: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need at least two subjects")
    return header, np.asarray(rows, dtype=np.float64)


def cmd_compare(args) -> int:
    feats_a, table_a = _read_feature_table(args.cohort_a)
    feats_b, table_b = _read_feature_table(args.cohort_b)
    if feats_a != feats_b:
        raise DataError("cohort feature columns are misaligned: "
                        f"{feats_a} vs {feats_b}")
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
    manifest = RunManifest(
        command="compare",
        inputs={"cohort_a": str(args.cohort_a), "cohort_b": str(args.cohort_b)},
        params={"group_perms": args.group_perms, "alpha": args.alpha,
                "family_size": len(rows)},
        seed=args.seed,
    )
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = run_study(cases=args.cases, n_secs=args.n_secs, replicates=args.reps,
                       block_len=args.block_len, alpha=args.alpha, seed=args.seed,
                       fs=args.fs, measure=args.measure, null_reps=args.null_reps,
                       modulus=args.modulus, workers=args.threads)
    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    manifest = RunManifest(
        command="simulate",
        inputs={},
        params={"cases": list(args.cases), "n_secs": list(args.n_secs),
                "reps": args.reps, "block_len": args.block_len,
                "alpha": args.alpha, "fs": args.fs, "measure": args.measure,
                "null_reps": args.null_reps, "modulus": args.modulus,
                "threads": args.threads},
        seed=args.seed,
    )
    manifest.write(out / "manifest.json")
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
    manifest = RunManifest(
        command="null-dist",
        inputs={},
        params={"n_blocks": args.n_blocks, "q": args.q, "null_reps": args.null_reps},
        seed=args.seed,
    )
    manifest.write(out / "manifest.json")
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


# parsed attribute -> (test its value must pass, rule quoted when it fails);
# each command checks the attributes it has
_ARG_RULES = {
    "seed": (lambda v: v >= 0, "a non-negative integer"),
    "fs": (lambda v: 0 < v < math.inf, "a positive number"),
    "block_len": (lambda v: v >= 4, "at least 4"),
    "q_perms": (lambda v: v is None or v >= 1, "at least 1"),
    "null_reps": (lambda v: v >= 1, "at least 1"),
    "alpha": (lambda v: 0 < v < 1, "inside (0, 1)"),
    "discard_secs": (lambda v: 0 <= v < math.inf, "a non-negative number"),
    "threads": (lambda v: v >= 1, "at least 1"),
    "max_lag": (lambda v: v >= 0, "at least 0"),
    "group_perms": (lambda v: v >= 1, "at least 1"),
    "cases": (lambda v: set(v) <= set(CASES), f"among {sorted(CASES)}"),
    "n_secs": (lambda v: all(10 <= s < math.inf for s in v), "at least 10 each"),
    "reps": (lambda v: v >= 10, "at least 10"),
    "modulus": (lambda v: 0 < v < 1, "inside (0, 1)"),
    "n_blocks": (lambda v: v >= 2, "at least 2"),
    "q": (lambda v: v >= 1, "at least 1"),
}


def _check_args(args) -> None:
    """Reject parameter values no command can run with, naming the flag."""
    for name, (ok, rule) in _ARG_RULES.items():
        if hasattr(args, name) and not ok(getattr(args, name)):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be {rule}, got {getattr(args, name)}")


def _add_common(p: _Parser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--out-dir", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="nvc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nvcoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="per region-pair spectral dependence profiles")
    pa.add_argument("--input", required=True, help="samples-by-channels CSV")
    pa.add_argument("--regions", default=None, help="region config JSON")
    pa.add_argument("--fs", type=float, default=100.0)
    pa.add_argument("--block-len", type=int, default=100)
    pa.add_argument("--bands", default=None, help="name:lo:hi,... (default canonical)")
    pa.add_argument("--measure", choices=("t", "tbar", "tstar"), default="tstar")
    pa.add_argument("--q-perms", type=int, default=None,
                    help="orderings per side (default exhaustive up to 24)")
    pa.add_argument("--null-reps", type=int, default=DEFAULT_NULL_REPS)
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--discard-secs", type=float, default=5.0)
    pa.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    pa.add_argument("--threads", type=int, default=1)
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    pb = sub.add_parser("baseline", help="pairwise band coherence and relative band power")
    pb.add_argument("--input", required=True)
    pb.add_argument("--regions", default=None)
    pb.add_argument("--fs", type=float, default=100.0)
    pb.add_argument("--bands", default=None)
    pb.add_argument("--max-lag", type=int, default=DEFAULT_MAX_LAG)
    pb.add_argument("--block-len", type=int, default=100)
    pb.add_argument("--discard-secs", type=float, default=5.0)
    pb.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    _add_common(pb)
    pb.set_defaults(func=cmd_baseline)

    pc = sub.add_parser("compare", help="two-cohort permutation comparison of features")
    pc.add_argument("--cohort-a", required=True, help="feature CSV, one row per subject")
    pc.add_argument("--cohort-b", required=True)
    pc.add_argument("--group-perms", type=int, default=DEFAULT_GROUP_PERMS)
    pc.add_argument("--alpha", type=float, default=0.05)
    _add_common(pc)
    pc.set_defaults(func=cmd_compare)

    ps = sub.add_parser("simulate", help="Monte Carlo study over the dependence cases")
    ps.add_argument("--cases", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ps.add_argument("--n-secs", type=float, nargs="+", default=[50, 100, 200])
    ps.add_argument("--reps", type=int, default=200)
    ps.add_argument("--block-len", type=int, default=100)
    ps.add_argument("--alpha", type=float, default=0.05)
    ps.add_argument("--fs", type=float, default=100.0)
    ps.add_argument("--measure", choices=("t", "tbar", "tstar"), default="tbar")
    ps.add_argument("--null-reps", type=int, default=DEFAULT_NULL_REPS)
    ps.add_argument("--modulus", type=float, default=DEFAULT_MODULUS)
    ps.add_argument("--threads", type=int, default=1)
    _add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    pn = sub.add_parser("null-dist", help="emit a permutation-of-ranks null ensemble")
    pn.add_argument("--n-blocks", type=int, required=True)
    pn.add_argument("--q", type=int, required=True)
    pn.add_argument("--null-reps", type=int, default=DEFAULT_NULL_REPS)
    _add_common(pn)
    pn.set_defaults(func=cmd_null_dist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        _check_args(args)
        return args.func(args)
    except (UsageError, EmptyBandError) as exc:
        print(f"nvc: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, BlockTooLongError) as exc:
        print(f"nvc: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateRanksError, DegenerateDenominatorError) as exc:
        print(f"nvc: numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
