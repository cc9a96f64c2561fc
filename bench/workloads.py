"""The benchmark's workloads: seeded inputs, pinned argv and output checks.

Every input is generated here from the workload seed, with numpy only, so the
program under test receives nothing but files and an argv.  Every CLI
parameter that shapes the work is pinned in the argv, so a change of a CLI
default does not change what is measured.

Each check function reads an output directory and returns a list of problems
(empty when the outputs are correct).  The analyze and baseline checks
recompute a few values independently of the package: brute-force nearest
neighbours and plain rank counts for the dependence estimates, the step-up
adjustment of the written raw p-values, and relative band power from the
recording itself.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FS = 100.0
BLOCK_LEN = 100
DISCARD_SECS = 5.0
ALPHA = 0.05
Q_PERMS = 24
MAX_LAG = 50
BANDS = "delta:0.5:4,theta:4:8,alpha:8:12,beta:12:30,gamma:30:45"
# the built-in region set of the CLI (standard 10-20 montage, midline frontal
# channel unused); the recording carries all 19 channels
REGIONS = {
    "LF": ("Fp1", "F3", "F7"),
    "RF": ("Fp2", "F4", "F8"),
    "LT": ("T3", "T5"),
    "RT": ("T4", "T6"),
    "C": ("C3", "Cz", "C4"),
    "P": ("P3", "Pz", "P4"),
    "O": ("O1", "O2"),
}
MONTAGE = tuple(ch for chans in REGIONS.values() for ch in chans) + ("Fz",)
PAIRS = tuple(itertools.combinations(sorted(REGIONS), 2))

# recording length of the montage workloads.  At 100 Hz with one-second
# blocks and a 5 s discard this gives 115 blocks: the k-d tree regime, well
# above the row count (64) below which the estimator scans exhaustively.  A
# 10-minute recording (595 blocks) costs about 30 s per tstar run on two
# cores, too long to repeat within one benchmark run.
MONTAGE_MINUTES = 2.0
SIM_CASE = 4
SIM_N_SECS = 50          # 50 blocks per replicate: the exhaustive-scan regime
SIM_REPS = 40
SIM_MODULUS = 0.99
SIM_PROCESSES = 2

RECORDING = "recording.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    units: int              # work units done by one run, for work_per_s
    unit_name: str
    processes: int
    needs_recording: bool
    check: Callable[[Path, Path, int], list[str]]


def n_blocks() -> int:
    samples = int(MONTAGE_MINUTES * 60 * FS) - int(round(DISCARD_SECS * FS))
    return samples // BLOCK_LEN


def n_freqs() -> int:
    return BLOCK_LEN // 2 - 1


def write_recording(path: Path, seed: int) -> None:
    """White-noise montage recording, one float per cell in repr form."""
    n = int(MONTAGE_MINUTES * 60 * FS)
    data = np.random.default_rng(seed).standard_normal((n, len(MONTAGE)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MONTAGE)
        writer.writerows(data.tolist())


def _analyze_argv(measure: str, null_reps: int) -> Callable[[int], list[str]]:
    def argv(seed: int) -> list[str]:
        return ["analyze", "--input", RECORDING, "--fs", str(FS),
                "--block-len", str(BLOCK_LEN), "--bands", BANDS,
                "--measure", measure, "--q-perms", str(Q_PERMS),
                "--null-reps", str(null_reps), "--alpha", str(ALPHA),
                "--discard-secs", str(DISCARD_SECS), "--standardize",
                "--threads", "1", "--seed", str(seed)]
    return argv


def _simulate_argv(seed: int) -> list[str]:
    return ["simulate", "--cases", str(SIM_CASE), "--n-secs", str(SIM_N_SECS),
            "--reps", str(SIM_REPS), "--block-len", str(BLOCK_LEN),
            "--alpha", str(ALPHA), "--fs", str(FS), "--measure", "tbar",
            "--null-reps", "2000", "--modulus", str(SIM_MODULUS),
            "--threads", str(SIM_PROCESSES), "--seed", str(seed)]


def _baseline_argv(seed: int) -> list[str]:
    return ["baseline", "--input", RECORDING, "--fs", str(FS), "--bands", BANDS,
            "--max-lag", str(MAX_LAG), "--block-len", str(BLOCK_LEN),
            "--discard-secs", str(DISCARD_SECS), "--standardize",
            "--seed", str(seed)]


# ---------------------------------------------------------------- checks


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


def _load_features(workdir: Path) -> np.ndarray:
    """Standardised recording after the discard, as the CLI prepares it."""
    data = np.loadtxt(workdir / RECORDING, delimiter=",", skiprows=1)
    data = data[int(round(DISCARD_SECS * FS)):]
    return (data - data.mean(axis=0)) / data.std(axis=0)


def _periodograms(data: np.ndarray) -> np.ndarray:
    """(block, retained frequency, channel) periodogram ordinates."""
    n = data.shape[0] // BLOCK_LEN
    blocks = data[: n * BLOCK_LEN].reshape(n, BLOCK_LEN, data.shape[1])
    spec = np.fft.rfft(blocks, axis=1)[:, 1:n_freqs() + 1, :]
    return (spec.real ** 2 + spec.imag ** 2) / BLOCK_LEN


def _xi(u: np.ndarray, v: np.ndarray) -> float | None:
    """Brute-force xi of u on the rows of v; None on a neighbour-distance tie."""
    n = u.shape[0]
    r = (u[None, :] <= u[:, None]).sum(axis=1)
    l = (u[None, :] >= u[:, None]).sum(axis=1)
    sq = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(sq, np.inf)
    mins = sq.min(axis=1)
    if ((sq == mins[:, None]).sum(axis=1) > 1).any():
        return None
    r_nn = r[sq.argmin(axis=1)]
    return float((n * np.minimum(r, r_nn) - l * l).sum() / (l * (n - l)).sum())


def _chained(x: np.ndarray, y: np.ndarray, order) -> float | None:
    q = y.shape[1]
    num = den = 0.0
    for ell, j in enumerate(order):
        prev = y[:, list(order[:ell])]
        a = _xi(y[:, j], np.column_stack([x, prev]))
        b = _xi(y[:, j], prev) if ell else 0.0
        if a is None or b is None:
            return None
        num += a
        den += b
    return (num - den) / (q - den)


def _mean_over_orders(x: np.ndarray, y: np.ndarray) -> float | None:
    vals = [_chained(x, y, order)
            for order in itertools.permutations(range(y.shape[1]))]
    return None if None in vals else float(np.mean(vals))


def _oracle_estimate(measure: str, x: np.ndarray, y: np.ndarray) -> float | None:
    if measure == "t":
        return _chained(x, y, tuple(range(y.shape[1])))
    fwd = _mean_over_orders(x, y)
    rev = _mean_over_orders(y, x)
    return None if fwd is None or rev is None else max(fwd, rev)


def _step_up(p: np.ndarray) -> np.ndarray:
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adj = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    out = np.empty(m)
    out[order] = adj
    return out


def _check_analyze(measure: str, null_reps: int):
    def check(workdir: Path, out: Path, seed: int) -> list[str]:
        problems = []
        rows = _read_csv(out / "profiles.csv")
        expect = len(PAIRS) * n_freqs()
        if len(rows) != expect:
            return [f"profiles.csv has {len(rows)} rows, expected {expect}"]
        est = np.array([_num(r["estimate"]) for r in rows])
        p_raw = np.array([_num(r["p_raw"]) for r in rows])
        p_adj = np.array([_num(r["p_adj"]) for r in rows])
        if not np.isfinite(est).all():
            problems.append("non-finite estimate on white-noise input")
        counts = p_raw * (null_reps + 1) - 1
        if not (np.abs(counts - np.round(counts)) < 1e-6).all() \
                or counts.min() < -1e-6 or counts.max() > null_reps + 1e-6:
            problems.append(f"p_raw is not of the form (1+c)/({null_reps}+1)")
        if not np.allclose(_step_up(p_raw), p_adj, rtol=0, atol=1e-12):
            problems.append("p_adj is not the step-up adjustment of p_raw")
        for a, b in PAIRS:
            prof = json.loads((out / f"profile_{a}-{b}.json").read_text())
            meta = prof["meta"]
            if meta["n_blocks"] != n_blocks() or meta["null_reps"] != null_reps \
                    or meta["measure"] != measure:
                problems.append(f"profile_{a}-{b}.json meta {meta} is off")
        # independent recomputation of a few seeded (pair, frequency) cells
        feats = _periodograms(_load_features(workdir))
        rng = np.random.default_rng(seed)
        for cell in rng.choice(expect, size=3, replace=False):
            a, b = PAIRS[cell // n_freqs()]
            k = cell % n_freqs()
            xi_cols = [MONTAGE.index(c) for c in REGIONS[a]]
            yi_cols = [MONTAGE.index(c) for c in REGIONS[b]]
            want = _oracle_estimate(measure, feats[:, k, xi_cols], feats[:, k, yi_cols])
            if want is not None and abs(want - est[cell]) > 1e-9:
                problems.append(f"{a}-{b} at {rows[cell]['freq_hz']} Hz: "
                                f"estimate {float(est[cell])!r}, oracle {want!r}")
        return problems
    return check


def _check_simulate(workdir: Path, out: Path, seed: int) -> list[str]:
    problems = []
    rows = _read_csv(out / "report.csv")
    if len(rows) != n_freqs():
        return [f"report.csv has {len(rows)} rows, expected {n_freqs()}"]
    for r in rows:
        mean, lo, hi = _num(r["mean"]), _num(r["q025"]), _num(r["q975"])
        rate, se = _num(r["reject_rate"]), _num(r["se"])
        if not (lo <= hi and se >= 0 and 0 <= rate <= 1 and math.isfinite(mean)):
            problems.append(f"report row {r} is inconsistent")
            break
    report = json.loads((out / "report.json").read_text())
    meta = report["meta"]
    if meta["n_failures"] != 0 or meta["replicates"] != SIM_REPS:
        problems.append(f"{meta['n_failures']} failed replicates of {meta['replicates']}")
    # case 4 shares theta oscillations across all three channel pairs, so the
    # test must reject far more often in the theta band than outside it
    rate = {s["set"]: s["reject_rate"] for s in report["set_rows"]}
    if not rate["theta_band"] > rate["out_band"] + 0.3:
        problems.append(f"theta dependence not detected: {rate}")
    return problems


def _check_baseline(workdir: Path, out: Path, seed: int) -> list[str]:
    problems = []
    bands = [b.split(":") for b in BANDS.split(",")]
    pbc = _read_csv(out / "pbc.csv")
    if len(pbc) != len(PAIRS) * len(bands):
        problems.append(f"pbc.csv has {len(pbc)} rows")
    if not all(0 <= _num(r["pbc"]) <= 1 for r in pbc):
        problems.append("pbc outside [0, 1]")
    rbp = _read_csv(out / "rbp.csv")
    got = {(r["region"], r["band"]): _num(r["rbp"]) for r in rbp}
    if len(got) != len(REGIONS) * len(bands):
        return problems + [f"rbp.csv has {len(rbp)} rows"]
    doc = json.loads((out / "baseline.json").read_text())
    if [d["value"] for d in doc["pbc"]] != [_num(r["pbc"]) for r in pbc]:
        problems.append("baseline.json pbc values differ from pbc.csv")
    # relative band power recomputed from the recording
    feats = _periodograms(_load_features(workdir)).mean(axis=0)
    freqs = np.arange(1, n_freqs() + 1) * FS / BLOCK_LEN
    masks = {name: (freqs > float(lo)) & (freqs <= float(hi)) for name, lo, hi in bands}
    total = np.any(list(masks.values()), axis=0)
    for region, chans in REGIONS.items():
        cols = [MONTAGE.index(c) for c in chans]
        for name, mask in masks.items():
            want = float(np.mean([feats[mask, c].sum() / feats[total, c].sum()
                                  for c in cols]))
            if abs(want - got[(region, name)]) > 1e-9:
                problems.append(f"rbp {region}/{name}: {got[(region, name)]!r}, "
                                f"oracle {want!r}")
    return problems


def _baseline_units() -> int:
    sizes = [len(c) for c in REGIONS.values()]
    channel_pairs = sum(sizes[i] * sizes[j]
                        for i, j in itertools.combinations(range(len(sizes)), 2))
    return channel_pairs * len(BANDS.split(","))


WORKLOADS = {
    w.name: w for w in (
        Workload("analyze_tstar",
                 "nvc analyze, tstar on 21 montage pairs at 115 blocks: "
                 "estimator-bound, k-d tree neighbour search",
                 _analyze_argv("tstar", 2000), len(PAIRS) * n_freqs(),
                 "pair-frequency tests", 1, True, _check_analyze("tstar", 2000)),
        Workload("analyze_t_null20k",
                 "nvc analyze, t with 20000 null replicates: the null ensemble "
                 "and CSV ingest carry a share of the time",
                 _analyze_argv("t", 20000), len(PAIRS) * n_freqs(),
                 "pair-frequency tests", 1, True, _check_analyze("t", 20000)),
        Workload("simulate_case4_n50",
                 "nvc simulate, case 4 at 50 blocks in 2 processes: exhaustive "
                 "neighbour scan, per-call overhead, process pool, no ingest",
                 _simulate_argv, SIM_REPS, "replicate profiles", SIM_PROCESSES,
                 False, _check_simulate),
        Workload("baseline_montage",
                 "nvc baseline on the montage recording: band-pass and lagged "
                 "correlations only, bypasses the estimator and the null",
                 _baseline_argv, _baseline_units(), "channel-pair band values", 1,
                 True, _check_baseline),
    )
}
