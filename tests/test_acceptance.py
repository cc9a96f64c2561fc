"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo gates use
200 replicates, so tolerances are binomial-width aware; every threshold is
pinned here, nothing is deferred to later calibration.
"""
import csv
import json
import time

import numpy as np
import pytest

from nvcoh.cli import main
from nvcoh.inference import bh_adjust, null_ensemble
from nvcoh.rank_core import RankTriple, xi_from_ranks, xi_n
from nvcoh.simulation import run_study
from nvcoh.spectral import TimeSeriesMatrix, block_periodograms
from nvcoh.vector_measure import FeatureMatrixPair, PermutationPlan, make_plan, t_n, t_n_bar
from oracles import t_reference, xi_reference

WORKERS = 8
REPLICATES = 200
ALPHA = 0.05
SEED = 20_240_817


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def study_case1():
    t0 = time.perf_counter()
    rep = run_study(cases=(1,), n_secs=(50, 100, 200), replicates=REPLICATES,
                    alpha=ALPHA, seed=SEED, workers=WORKERS)
    rep.meta["wall_s"] = time.perf_counter() - t0
    return rep


@pytest.fixture(scope="module")
def study_case23():
    return run_study(cases=(2, 3), n_secs=(100,), replicates=REPLICATES,
                     alpha=ALPHA, seed=SEED + 1, workers=WORKERS)


@pytest.fixture(scope="module")
def study_case45():
    return run_study(cases=(4, 5), n_secs=(100,), replicates=REPLICATES,
                     alpha=ALPHA, seed=SEED + 2, workers=WORKERS)


def test_criterion_1_power_case1(study_case1):
    power = study_case1.set_value(1, 100.0, "in_band", "reject_rate")
    wall = study_case1.meta["wall_s"]
    ok = power >= 0.95 and wall <= 300.0
    report("1 (case-1 power)", ok,
           f"in-band rejection {power:.4f} (>= 0.95), case-1 study wall time "
           f"{wall:.0f}s (<= 300s with {WORKERS} workers)")


def test_criterion_2_size(study_case1, study_case23):
    rows = [r for r in study_case23.rows if r["case"] == 3]
    worst = max(r["reject_rate"] for r in rows)
    c1_out = study_case1.set_value(1, 100.0, "out_band", "reject_rate")
    ok = worst <= 0.06 and c1_out <= 0.12
    report("2 (size control)", ok,
           f"case-3 max per-frequency rejection {worst:.4f} (<= 0.06), "
           f"case-1 out-of-band rejection {c1_out:.4f} (<= 0.12)")


def test_criterion_3_se_scaling(study_case1):
    se50 = study_case1.set_value(1, 50.0, "in_band", "ave_se")
    se200 = study_case1.set_value(1, 200.0, "in_band", "ave_se")
    ratio = se50 / se200
    per_freq = {n: np.array([r["se"] for r in sorted(
        (r for r in study_case1.rows if r["n_sec"] == n), key=lambda r: r["freq_hz"])])
        for n in (50.0, 100.0, 200.0)}
    shrinking = bool(np.all(per_freq[50.0] > per_freq[100.0])
                     and np.all(per_freq[100.0] > per_freq[200.0]))
    ok = 1.8 <= ratio <= 2.8 and shrinking
    report("3 (SE scaling)", ok,
           f"in-band SE(50)/SE(200) = {se50:.4f}/{se200:.4f} = {ratio:.2f} in [1.8, 2.8]; "
           f"per-frequency SE monotone over n: {shrinking}")


def test_criterion_4_peak_location_and_ordering(study_case1, study_case23):
    f1, m1 = study_case1.freq_means(1, 100.0)
    f2, m2 = study_case23.freq_means(2, 100.0)
    _, m3 = study_case23.freq_means(3, 100.0)
    peak1, peak2 = f1[m1.argmax()], f2[m2.argmax()]
    gap12 = m1[9] - m2[9]
    gap23 = m2[9] - m3[9]
    worst3 = np.abs(m3).max()
    ok = (peak1 == 10.0 and peak2 == 10.0 and gap12 >= 0.05 and gap23 >= 0.05
          and worst3 <= 0.05)
    report("4 (peaks and ordering)", ok,
           f"peaks at {peak1:.0f}/{peak2:.0f} Hz (want 10/10), 10 Hz mean ordering "
           f"case1-case2 gap {gap12:.3f}, case2-case3 gap {gap23:.3f} (each >= 0.05), "
           f"case-3 max |mean| {worst3:.4f} (<= 0.05)")


def test_criterion_5_band_contrast(study_case45):
    t4 = study_case45.set_value(4, 100.0, "theta_band", "mean_estimate")
    g4 = study_case45.set_value(4, 100.0, "gamma_band", "mean_estimate")
    t5 = study_case45.set_value(5, 100.0, "theta_band", "mean_estimate")
    g5 = study_case45.set_value(5, 100.0, "gamma_band", "mean_estimate")
    ok = (t4 - g4 >= 0.03) and (g5 - t5 >= 0.03)
    report("5 (band contrast)", ok,
           f"case 4 theta-gamma = {t4:.3f}-{g4:.3f} (gap >= 0.03), "
           f"case 5 gamma-theta = {g5:.3f}-{t5:.3f} (gap >= 0.03)")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for trial in range(700):  # scalar coefficient against brute force
        n = int(rng.integers(2, 301))
        d = int(rng.integers(1, 5))
        v = rng.standard_normal((n, d))
        u = rng.standard_normal(n)
        if trial % 5 == 0:
            u = np.round(u, 1)
        if trial % 7 == 0 and n > 4:
            v[rng.integers(0, n, 3)] = v[rng.integers(0, n)]
        worst = max(worst, abs(xi_n(u, v, seed=trial) - xi_reference(u, v, seed=trial)))
    for trial in range(300):  # chained statistic against brute force
        n = int(rng.integers(20, 301))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal((n, q))
        got = t_n(FeatureMatrixPair(x, y), seed=trial)
        worst = max(worst, abs(got - t_reference(x, y, seed=trial)))
    bar_worst = 0.0
    for q in (2, 3, 4):  # sampled plan covering q! equals the exhaustive mean
        r = np.random.default_rng(q)
        x = r.standard_normal((60, 2))
        y = r.standard_normal((60, q))
        pair = FeatureMatrixPair(x, y)
        exhaustive = make_plan(q)
        order = np.random.default_rng(q).permutation(len(exhaustive.perms))
        shuffled = PermutationPlan(q=q, perms=tuple(exhaustive.perms[i] for i in order))
        bar_worst = max(bar_worst, abs(t_n_bar(pair, plan=exhaustive, seed=q)
                                       - t_n_bar(pair, plan=shuffled, seed=q)))
    ok = worst <= 1e-12 and bar_worst <= 1e-12
    report("6 (oracle equivalence)", ok,
           f"1000 instances, worst |difference| {worst:.2e} (<= 1e-12); "
           f"sampled-vs-exhaustive worst {bar_worst:.2e} (<= 1e-12)")


def test_criterion_7_null_data_independence(tmp_path):
    a = null_ensemble(100, 2, n_reps=2000, seed=4242)
    b = null_ensemble(100, 2, n_reps=2000, seed=4242)
    byte_equal = a.reps.tobytes() == b.reps.tobytes()

    # two unrelated recordings, same dimensions and seed: identical ensemble
    shas, builds = [], []
    for tag, gen_seed in (("u", 1), ("v", 2)):
        rec = tmp_path / f"rec_{tag}.csv"
        data = np.random.default_rng(gen_seed).standard_normal((6000, 6))
        with open(rec, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a1", "a2", "b1", "b2", "c1", "c2"])
            w.writerows(data.tolist())
        reg = tmp_path / f"reg_{tag}.json"
        reg.write_text(json.dumps({"regions": {"RA": ["a1", "a2"], "RB": ["b1", "b2"],
                                               "RC": ["c1", "c2"]}}))
        out = tmp_path / f"out_{tag}"
        assert main(["analyze", "--input", str(rec), "--regions", str(reg),
                     "--fs", "100", "--out-dir", str(out), "--seed", "55"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        builds.append(manifest["stats"]["null_ensemble_builds"])
        shas.append({json.loads((out / f"profile_{p}.json").read_text())["meta"]["null_sha256"]
                     for p in ("RA-RB", "RA-RC", "RB-RC")})
    single_reuse = builds == [1, 1] and all(len(s) == 1 for s in shas)
    cross_identical = shas[0] == shas[1]
    ok = byte_equal and single_reuse and cross_identical
    report("7 (null data-independence)", ok,
           f"byte-identical ensembles {byte_equal}; one build per (n, q) across "
           f"3 pairs x 49 frequencies {single_reuse}; identical across unrelated "
           f"datasets {cross_identical}")


def test_criterion_8_unit_identities(rng):
    # per-block periodogram total over the full grid vs block mean square
    B = 100
    ts = TimeSeriesMatrix(rng.standard_normal((B * 4, 2)), 100.0, ("a", "b"))
    blocks = ts.data.reshape(4, B, 2)
    totals = (np.abs(np.fft.fft(blocks, axis=1)) ** 2 / B).sum(axis=1)
    parseval = np.allclose(totals, B * (blocks ** 2).mean(axis=1), rtol=1e-6)

    t = np.arange(1, B + 1)
    tone = np.cos(2 * np.pi * 10 * t / B)
    tens = block_periodograms(TimeSeriesMatrix(np.tile(tone, 2)[:, None], 100.0, ("s",)), B)
    cosine = abs(tens.values[0, 0, 9] - B / 4) <= 1e-9

    bh = np.allclose(bh_adjust([0.01, 0.02, 0.03, 0.04]), 0.04)

    hands = (
        xi_from_ranks(RankTriple(r=[1, 2, 3], l=[3, 2, 1], r_nn=[1, 2, 3])) == 1.0
        and xi_from_ranks(RankTriple(r=[1, 2, 3], l=[3, 2, 1], r_nn=[2, 1, 2])) == -0.5
        and xi_from_ranks(RankTriple(r=[1, 2, 3, 4], l=[4, 3, 2, 1], r_nn=[2, 1, 2, 3])) == -0.2
    )
    ok = parseval and cosine and bh and hands
    report("8 (unit identities)", ok,
           f"parseval {parseval}, cosine B/4 {cosine}, step-up adjustment {bh}, "
           f"hand-computed xi values {hands}")


def test_criterion_9_performance(tmp_path):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(1_000_000)
    u = np.sin(v) + 0.1 * rng.standard_normal(1_000_000)
    xi_n(rng.standard_normal(1000), rng.standard_normal(1000))  # warm up
    t0 = time.perf_counter()
    xi_n(u, v, seed=0)
    xi_wall = time.perf_counter() - t0

    labels = ["Fp1", "F3", "F7", "Fp2", "F4", "F8", "T3", "T5", "T4", "T6",
              "C3", "Cz", "C4", "P3", "Pz", "P4", "O1", "O2", "Fz"]
    rec = tmp_path / "ten_minutes.csv"
    data = rng.standard_normal((60_000, 19))
    with open(rec, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(labels)
        w.writerows(data.tolist())
    t0 = time.perf_counter()
    rc = main(["analyze", "--input", str(rec), "--fs", "100", "--threads", str(WORKERS),
               "--out-dir", str(tmp_path / "out"), "--seed", "1"])
    analyze_wall = time.perf_counter() - t0
    n_pairs = sum(1 for p in (tmp_path / "out").glob("profile_*.json"))
    ok = rc == 0 and xi_wall <= 2.0 and analyze_wall <= 60.0 and n_pairs == 21
    report("9 (performance)", ok,
           f"xi at n=1e6 in {xi_wall:.2f}s (<= 2s); 21-pair 10-minute analysis in "
           f"{analyze_wall:.0f}s (<= 60s with {WORKERS} workers, {n_pairs} pairs)")


def test_criterion_10_cli_determinism(tmp_path, rng):
    rec = tmp_path / "rec.csv"
    data = rng.standard_normal((7000, 4))
    with open(rec, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a1", "a2", "b1", "b2"])
        w.writerows(data.tolist())
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({"regions": {"RA": ["a1", "a2"], "RB": ["b1", "b2"]}}))
    coh = tmp_path / "coh.csv"
    with open(coh, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f0", "f1"])
        w.writerows(rng.standard_normal((8, 2)).tolist())

    commands = {
        "analyze": ["analyze", "--input", str(rec), "--regions", str(reg),
                    "--fs", "100", "--seed", "3"],
        "baseline": ["baseline", "--input", str(rec), "--regions", str(reg),
                     "--fs", "100", "--seed", "3"],
        "compare": ["compare", "--cohort-a", str(coh), "--cohort-b", str(coh),
                    "--group-perms", "300", "--seed", "3"],
        "simulate": ["simulate", "--cases", "3", "--n-secs", "20", "--reps", "10",
                     "--null-reps", "200", "--seed", "3"],
        "null-dist": ["null-dist", "--n-blocks", "40", "--q", "2",
                      "--null-reps", "300", "--seed", "3"],
    }
    stable = {}
    for name, argv in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            assert main(argv + ["--out-dir", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        stable[name] = names == sorted(p.name for p in outs[1].iterdir()) and all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in names)
    ok = all(stable.values())
    report("10 (CLI determinism)", ok,
           "byte-identical reruns: " + ", ".join(f"{k}={v}" for k, v in stable.items()))
