import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nvcoh import cli, spectral
from nvcoh.baselines import region_pbc
from nvcoh.cli import (
    DEFAULT_ROIS,
    EXIT_DATA,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    default_region_config,
    build_parser,
    ingest_csv,
    load_region_config,
    main,
)
from nvcoh.rank_core import DegenerateRanksError, derive_seed
from nvcoh.simulation import DEFAULT_MODULUS, gen_case
from nvcoh.spectral import CANONICAL_BANDS, BlockPeriodogramTensor
from nvcoh.tables import write_csv as write_table
from nvcoh.vector_measure import (FeatureMatrixPair, _default_plan, t_n, t_n_bar,
                                  t_n_star)


def write_csv(path, labels, data):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(labels)
        w.writerows(np.asarray(data).tolist())


def search_bound(d):
    """Entry magnitude from which squared distances over d columns may overflow."""
    return np.sqrt(np.finfo(float).max) / (4 * np.sqrt(d))


def add_byte_order_mark(path):
    path = Path(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def write_regions(path, regions, pairs=None):
    payload = {"regions": regions}
    if pairs is not None:
        payload["pairs"] = pairs
    Path(path).write_text(json.dumps(payload))


@pytest.fixture
def two_region_recording(tmp_path, rng):
    data = rng.standard_normal((9000, 4))
    rec = tmp_path / "rec.csv"
    write_csv(rec, ["A1", "A2", "B1", "B2"], data)
    reg = tmp_path / "regions.json"
    write_regions(reg, {"RA": ["A1", "A2"], "RB": ["B1", "B2"]})
    return rec, reg


class TestIngest:
    def test_basic(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["O1", "O2"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ts = ingest_csv(path, fs=100.0)
        assert ts.data.shape == (3, 2)
        assert ts.labels == ("O1", "O2")

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n1\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_csv(path, fs=100.0)

    def test_duplicate_labels(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(path, fs=100.0)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n1,oops\n")
        with pytest.raises(DataError, match="row 3.*column b"):
            ingest_csv(path, fs=100.0)

    def test_non_finite_cell_located(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n1,nan\n")
        with pytest.raises(DataError, match="non-finite"):
            ingest_csv(path, fs=100.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            ingest_csv(tmp_path / "absent.csv", fs=100.0)


class TestRegions:
    def test_builtin_montage_resolves(self, tmp_path, rng):
        labels = [ch for chans in DEFAULT_ROIS.values() for ch in chans] + ["Fz"]
        path = tmp_path / "eeg.csv"
        write_csv(path, labels, rng.standard_normal((50, len(labels))))
        ts = ingest_csv(path, fs=100.0)
        config = default_region_config()
        config.validate_against(ts.labels)  # Fz present in data, absent from config
        assert len(config.regions) == 7
        assert len(config.pairs) == 21
        assert "Fz" not in {c for chans in config.regions.values() for c in chans}

    def test_unknown_channel_rejected(self, tmp_path):
        reg = tmp_path / "r.json"
        write_regions(reg, {"RA": ["nope"]})
        config = load_region_config(reg)
        with pytest.raises(DataError, match="unknown channel"):
            config.validate_against(("a", "b"))

    def test_overlapping_regions_rejected(self, tmp_path):
        reg = tmp_path / "r.json"
        write_regions(reg, {"RA": ["a"], "RB": ["a"]})
        with pytest.raises(DataError, match="appears in regions"):
            load_region_config(reg).validate_against(("a", "b"))

    def test_explicit_pairs_honoured(self, tmp_path):
        reg = tmp_path / "r.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b"], "RC": ["c"]},
                      pairs=[["RA", "RC"]])
        config = load_region_config(reg)
        assert config.pairs == (("RA", "RC"),)

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read region config"),
        ('[["a1", "a2"]]', "must be a JSON object"),
        ('{"regions": [["a1"], ["b1"]]}', "must be a JSON object"),
        ('{"regions": {"RA": ["a1"], "RB": ["b1"]}, "pairs": [["RA", "RB", "RA"]]}',
         "pairs of two region names"),
        ('{"regions": {"RA": "a1", "RB": ["b1"]}}', "list of channels"),
    ], ids=["missing", "top_level_list", "regions_list", "three_name_pair",
            "string_channels"])
    def test_malformed_config_is_a_data_error(self, content, message, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a1", "b1"], np.random.default_rng(0).standard_normal((600, 2)))
        reg = tmp_path / "regions.json"
        if content is not None:
            reg.write_text(content)
        rc = main(["analyze", "--input", str(rec), "--regions", str(reg),
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("nvc: data error: ") and err.count("\n") == 1
        assert message in err

    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["Fp1", "b1"], np.random.default_rng(0).standard_normal((600, 2)))
        add_byte_order_mark(rec)
        reg = tmp_path / "regions.json"
        write_regions(reg, {"LF": ["Fp1"], "RB": ["b1"]})
        rc = main(["analyze", "--input", str(rec), "--regions", str(reg),
                   "--discard-secs", "0", "--null-reps", "50",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_OK


class TestAnalyze:
    def test_outputs_and_schema(self, two_region_recording, tmp_path):
        rec, reg = two_region_recording
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(out), "--seed", "5"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(open(out / "profiles.csv")))
        assert list(rows[0]) == ["pair", "band", "freq_hz", "estimate", "p_raw", "p_adj"]
        assert len(rows) == 49
        assert all(float(r["p_adj"]) >= float(r["p_raw"]) - 1e-12 for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["null_ensemble_builds"] == 1
        profile = json.loads((out / "profile_RA-RB.json").read_text())
        assert set(profile["band_summary"]) == {"delta", "theta", "alpha", "beta",
                                                "gamma"}

    def test_white_noise_mostly_insignificant(self, two_region_recording, tmp_path):
        rec, reg = two_region_recording
        out = tmp_path / "out"
        main(["analyze", "--input", str(rec), "--regions", str(reg),
              "--fs", "100", "--out-dir", str(out), "--seed", "5"])
        rows = list(csv.DictReader(open(out / "profiles.csv")))
        praw = np.array([float(r["p_raw"]) for r in rows])
        est = np.array([float(r["estimate"]) for r in rows])
        assert (praw > 0.05).mean() >= 0.95
        assert np.abs(np.mean(est)) < 0.1

    def test_self_pair_near_maximal(self, tmp_path, rng):
        base = rng.standard_normal((25_000, 2))
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["A1", "A2", "B1", "B2"], np.column_stack([base, base]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["A1", "A2"], "RB": ["B1", "B2"]})
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(out), "--seed", "2",
                   "--discard-secs", "0"])
        assert rc == EXIT_OK
        profile = json.loads((out / "profile_RA-RB.json").read_text())
        means = [b["mean_estimate"] for b in profile["band_summary"].values()]
        assert min(means) >= 0.75

    def test_case1_synthetic_alpha_band_maximal(self, tmp_path):
        x, y = gen_case(1, 130, seed=4)
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["X1", "X2", "Y1", "Y2"], np.column_stack([x.data, y.data]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"GX": ["X1", "X2"], "GY": ["Y1", "Y2"]})
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(out), "--seed", "3"])
        assert rc == EXIT_OK
        profile = json.loads((out / "profile_GX-GY.json").read_text())
        summary = {k: v["mean_estimate"] for k, v in profile["band_summary"].items()}
        assert max(summary, key=summary.get) == "alpha"

    def test_discard_secs_shortens_recording(self, two_region_recording, tmp_path):
        rec, reg = two_region_recording
        out = tmp_path / "out"
        main(["analyze", "--input", str(rec), "--regions", str(reg), "--fs", "100",
              "--out-dir", str(out), "--seed", "5", "--discard-secs", "10"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["n_blocks"] == 80  # 90 s minus 10 s discarded


class TestCompare:
    def make_cohorts(self, tmp_path, shift=0.0, n_features=4):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        names = [f"f{i}" for i in range(n_features)]
        write_csv(a, names, rng.standard_normal((10, n_features)))
        write_csv(b, names, rng.standard_normal((12, n_features)) + shift)
        return a, b

    def test_identical_cohorts_all_one(self, tmp_path):
        rng = np.random.default_rng(0)
        table = rng.standard_normal((8, 3))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["f0", "f1", "f2"], table)
        write_csv(b, ["f0", "f1", "f2"], table)
        out = tmp_path / "out"
        rc = main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                   "--group-perms", "500", "--out-dir", str(out), "--seed", "1"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(open(out / "comparison.csv")))
        assert all(float(r["p_raw"]) == 1.0 for r in rows)

    def test_family_size_recorded(self, tmp_path):
        a, b = self.make_cohorts(tmp_path, n_features=105)
        out = tmp_path / "out"
        main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
              "--group-perms", "200", "--out-dir", str(out), "--seed", "1"])
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["family_size"] == 105

    def test_single_feature_adjusted_equals_raw(self, tmp_path):
        a, b = self.make_cohorts(tmp_path, shift=1.0, n_features=1)
        out = tmp_path / "out"
        main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
              "--group-perms", "500", "--out-dir", str(out), "--seed", "1"])
        row = next(csv.DictReader(open(out / "comparison.csv")))
        assert row["p_raw"] == row["p_adj"]

    def test_misaligned_columns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["f0", "f1"], np.zeros((3, 2)) + [[1, 2], [3, 4], [5, 6]])
        write_csv(b, ["f1", "f0"], [[1.0, 2.0], [3.0, 4.0]])
        rc = main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                   "--out-dir", str(tmp_path / "out"), "--seed", "1"])
        assert rc == EXIT_DATA
        assert "misaligned" in capsys.readouterr().err

    @pytest.mark.parametrize("n_marked", [2, 1], ids=["both", "one"])
    def test_byte_order_mark_is_not_part_of_a_feature(self, n_marked, tmp_path):
        a, b = self.make_cohorts(tmp_path, n_features=2)
        for path in (a, b)[:n_marked]:
            add_byte_order_mark(path)
        out = tmp_path / "out"
        rc = main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                   "--group-perms", "100", "--out-dir", str(out), "--seed", "1"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(open(out / "comparison.csv")))
        assert [r["feature"] for r in rows] == ["f0", "f1"]

    @pytest.mark.parametrize("content, message", [
        ("f0,f1\n1,2\n3,nan\n", "non-finite value at row 3, column f1"),
        ("f0,f0\n1,2\n3,4\n", "duplicate"),
        ("f0,f1\n1,2\n", "at least two subjects"),
    ])
    def test_bad_cohort_is_a_data_error(self, content, message, tmp_path, capsys):
        a, b = self.make_cohorts(tmp_path, n_features=2)
        a.write_text(content)
        rc = main(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                   "--out-dir", str(tmp_path / "out"), "--seed", "1"])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith("nvc: data error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err


class TestSimulateAndNullDist:
    def test_quick_simulate(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--cases", "3", "--n-secs", "20", "--reps", "10",
                   "--null-reps", "200", "--out-dir", str(out), "--seed", "4"])
        assert rc == EXIT_OK
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "case,n_sec,freq_hz,mean,q025,q975,se,reject_rate"
        assert len(lines) == 1 + 49
        report = json.loads((out / "report.json").read_text())
        assert report["meta"]["cases"] == [3]

    def test_report_json_is_strict(self, tmp_path):
        # four-sample blocks at 100 Hz retain no frequency of case 3's alpha set
        out = tmp_path / "sim"
        rc = main(["simulate", "--cases", "3", "--n-secs", "10", "--block-len", "4",
                   "--reps", "10", "--null-reps", "20", "--out-dir", str(out)])
        assert rc == EXIT_OK

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        empty = [row for row in report["set_rows"] if row["n_freqs"] == 0]
        assert empty
        assert all(row[key] is None for row in empty
                   for key in ("reject_rate", "ave_se", "mean_estimate"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_short_recordings_warn_in_one_line(self, threads, tmp_path, capfd):
        # worker processes write to the same stderr, so capture it at the fd
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a1", "b1"], np.random.default_rng(0).standard_normal((900, 2)))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a1"], "RB": ["b1"]})
        note = "nvc: warning: only {} blocks available; estimates will be noisy"
        for argv, blocks in [
            (["analyze", "--input", str(rec), "--regions", str(reg), "--block-len",
              "100", "--discard-secs", "0"], [9]),
            (["simulate", "--cases", "1", "3", "--n-secs", "10", "12", "--block-len",
              "200", "--reps", "10", "--null-reps", "20"], [5, 6]),
        ]:
            rc = main(argv + ["--threads", threads, "--out-dir", str(tmp_path / "out")])
            assert rc == EXIT_OK
            err = capfd.readouterr().err
            assert err.splitlines() == [note.format(n) for n in blocks]

    def test_null_dist_outputs(self, tmp_path):
        out = tmp_path / "null"
        rc = main(["null-dist", "--n-blocks", "50", "--q", "2", "--null-reps",
                   "300", "--out-dir", str(out), "--seed", "9"])
        assert rc == EXIT_OK
        vals = [float(r["value"]) for r in csv.DictReader(open(out / "null.csv"))]
        assert len(vals) == 300
        meta = json.loads((out / "null.json").read_text())
        assert meta["n"] == 50 and meta["q"] == 2


class TestBaselineCommand:
    def test_outputs(self, tmp_path, rng):
        data = rng.standard_normal((4000, 3))
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a", "b", "c"], data)
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b", "c"]})
        out = tmp_path / "out"
        rc = main(["baseline", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(out), "--seed", "0",
                   "--discard-secs", "0"])
        assert rc == EXIT_OK
        pbc_rows = list(csv.DictReader(open(out / "pbc.csv")))
        rbp_rows = list(csv.DictReader(open(out / "rbp.csv")))
        assert len(pbc_rows) == 5  # one pair, five bands
        assert len(rbp_rows) == 10  # two regions, five bands
        assert all(0 <= float(r["pbc"]) <= 1 for r in pbc_rows)

    def test_pbc_equals_filtering_region_by_region(self, tmp_path, rng):
        # the command filters each channel once per band; the bytes must equal
        # filtering each region of each pair on its own
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a", "b", "c", "d", "e"], rng.standard_normal((3000, 5)))
        regions = {"RA": ["d"], "RB": ["b", "e"], "RC": ["c", "a"]}
        pairs = [["RC", "RA"], ["RA", "RB"], ["RB", "RC"]]
        reg = tmp_path / "regions.json"
        write_regions(reg, regions, pairs)
        out = tmp_path / "out"
        assert main(["baseline", "--input", str(rec), "--regions", str(reg),
                     "--fs", "100", "--max-lag", "20", "--discard-secs", "0",
                     "--no-standardize", "--out-dir", str(out)]) == EXIT_OK
        ts = ingest_csv(rec, 100.0)
        want = tmp_path / "want.csv"
        write_table(want, ("pair", "band", "pbc"), [
            (f"{a}-{b}", band.name, region_pbc(ts.select(regions[a]),
                                               ts.select(regions[b]), band, max_lag=20))
            for a, b in pairs for band in CANONICAL_BANDS])
        assert (out / "pbc.csv").read_bytes() == want.read_bytes()

    def test_duplicated_region_pbc_one(self, tmp_path, rng):
        base = rng.standard_normal(4000)
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a", "b"], np.column_stack([base, base]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b"]})
        out = tmp_path / "out"
        main(["baseline", "--input", str(rec), "--regions", str(reg), "--fs", "100",
              "--out-dir", str(out), "--seed", "0", "--discard-secs", "0",
              "--no-standardize"])
        rows = list(csv.DictReader(open(out / "pbc.csv")))
        assert all(float(r["pbc"]) == pytest.approx(1.0, abs=1e-9) for r in rows)

    def test_pure_tone_rbp(self, tmp_path):
        t = np.arange(6000) / 100.0
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["s", "w"], np.column_stack(
            [np.sin(2 * np.pi * 10 * t), np.random.default_rng(0).standard_normal(6000)]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RS": ["s"], "RW": ["w"]})
        out = tmp_path / "out"
        main(["baseline", "--input", str(rec), "--regions", str(reg), "--fs", "100",
              "--out-dir", str(out), "--seed", "0", "--discard-secs", "0"])
        rows = {(r["region"], r["band"]): float(r["rbp"])
                for r in csv.DictReader(open(out / "rbp.csv"))}
        assert rows[("RS", "alpha")] >= 0.99
        assert rows[("RS", "gamma")] <= 0.01


class TestExitCodesAndDeterminism:
    def test_usage_error(self):
        assert main(["analyze", "--no-such-flag"]) == EXIT_USAGE

    def test_data_error(self, tmp_path):
        rc = main(["analyze", "--input", str(tmp_path / "missing.csv"),
                   "--out-dir", str(tmp_path / "out"), "--seed", "0"])
        assert rc == EXIT_DATA

    def test_degeneracy_exit(self, tmp_path):
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a", "b"], np.column_stack(
            [np.ones(3000), np.random.default_rng(0).standard_normal(3000)]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b"]})
        rc = main(["baseline", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(tmp_path / "out"), "--seed", "0",
                   "--discard-secs", "0"])
        assert rc == EXIT_DEGENERATE

    def test_constant_channel_without_standardizing(self, tmp_path, capsys):
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["a", "b"], np.column_stack(
            [np.full(3000, 2.5), np.random.default_rng(0).standard_normal(3000)]))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b"]})
        rc = main(["baseline", "--input", str(rec), "--regions", str(reg),
                   "--fs", "100", "--out-dir", str(tmp_path / "out"), "--seed", "0",
                   "--discard-secs", "0", "--no-standardize"])
        err = capsys.readouterr().err
        assert rc == EXIT_DEGENERATE
        assert err.startswith("nvc: numerical degeneracy: ") and err.count("\n") == 1
        assert "['a']" in err

    def test_env_var_seed(self, tmp_path, monkeypatch):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        monkeypatch.setenv("NVC_SEED", "77")
        main(["null-dist", "--n-blocks", "30", "--q", "1", "--null-reps", "100",
              "--out-dir", str(out1)])
        monkeypatch.delenv("NVC_SEED")
        main(["null-dist", "--n-blocks", "30", "--q", "1", "--null-reps", "100",
              "--out-dir", str(out2), "--seed", "77"])
        assert (out1 / "null.csv").read_bytes() == (out2 / "null.csv").read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    def test_byte_identical_reruns(self, command, two_region_recording, tmp_path):
        rec, reg = two_region_recording
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main([command, "--input", str(rec), "--regions", str(reg),
                       "--fs", "100", "--out-dir", str(out), "--seed", "13"])
            assert rc == EXIT_OK
            outs.append(out)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestParameterBoundary:
    """Bad parameter values exit with their documented code and one line."""

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--block-len", "5000"], EXIT_DATA),
        (["analyze", "--block-len", "2"], EXIT_USAGE),
        (["analyze", "--null-reps", "0"], EXIT_USAGE),
        (["analyze", "--fs", "0"], EXIT_USAGE),
        (["analyze", "--discard-secs", "-1"], EXIT_USAGE),
        (["analyze", "--threads", "0"], EXIT_USAGE),
        (["analyze", "--alpha", "1.5"], EXIT_USAGE),
        (["analyze", "--q-perms", "0"], EXIT_USAGE),
        (["baseline", "--bands", "x:10:60"], EXIT_USAGE),
        (["baseline", "--bands", "x:10:10.5"], EXIT_USAGE),
        (["baseline", "--max-lag", "-1"], EXIT_USAGE),
        (["simulate", "--cases", "9"], EXIT_USAGE),
        (["simulate", "--threads", "0"], EXIT_USAGE),
        (["simulate", "--n-secs", "5"], EXIT_USAGE),
        (["simulate", "--modulus", "1.2"], EXIT_USAGE),
        (["null-dist", "--n-blocks", "1", "--q", "2"], EXIT_USAGE),
        (["null-dist", "--n-blocks", "20", "--q", "1", "--seed", "-1"], EXIT_USAGE),
        (["analyze", "--discard-secs", "1e308"], EXIT_DATA),  # overflows to inf
        # fewer than two blocks, or a latent peak at or above fs/2
        (["simulate", "--cases", "1", "--n-secs", "10", "--block-len", "600",
          "--reps", "10"], EXIT_USAGE),
        (["simulate", "--cases", "4", "--n-secs", "10", "--fs", "10"], EXIT_USAGE),
        (["simulate", "--cases", "1", "--fs", "20"], EXIT_USAGE),
        # "--input N": a recording of N samples, too short after the discard
        (["baseline", "--input", "560"], EXIT_DATA),
        (["baseline", "--input", "700", "--max-lag", "500"], EXIT_DATA),
        (["baseline", "--input", "520", "--max-lag", "0"], EXIT_DATA),
        # each value is finite, the sample count is not
        (["simulate", "--cases", "1", "--n-secs", "1e200", "--fs", "1e200",
          "--reps", "10"], EXIT_USAGE),
        # finite, but every replicate fails to allocate it
        (["simulate", "--cases", "1", "--n-secs", "1e15", "--fs", "100",
          "--reps", "10"], EXIT_USAGE),
        # a repeated cell would be run, and reported, more than once
        (["simulate", "--cases", "3", "3", "--n-secs", "20"], EXIT_USAGE),
        (["simulate", "--cases", "3", "--n-secs", "20", "20.0"], EXIT_USAGE),
    ])
    def test_exit_code_and_one_line(self, argv, code, two_region_recording,
                                    tmp_path, capsys):
        rec, reg = two_region_recording
        if "--input" in argv:
            i = argv.index("--input") + 1
            rec = tmp_path / "short.csv"
            write_csv(rec, ["A1", "A2", "B1", "B2"],
                      np.random.default_rng(0).standard_normal((int(argv[i]), 4)))
            argv = argv[:i] + [str(rec)] + argv[i + 1:] + ["--regions", str(reg)]
        elif argv[0] in ("analyze", "baseline"):
            argv = argv + ["--input", str(rec), "--regions", str(reg)]
        rc = main(argv + ["--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith("nvc: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    @pytest.mark.parametrize("band", ["x:60:70", "x:0.1:0.5"])
    def test_band_without_retained_frequency_named(self, command, band,
                                                   two_region_recording, tmp_path,
                                                   capsys):
        # with one-second blocks, x lies above Nyquist or between two grid points
        rec, reg = two_region_recording
        out = tmp_path / "out"
        rc = main([command, "--input", str(rec), "--regions", str(reg),
                   "--bands", f"a:8:12,{band}", "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == \
            "nvc: usage error: band x contains no retained frequency\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["null-dist", "--n-blocks", "10", "--q", "1000000000"],
        ["analyze", "--measure", "t", "--q-perms", "1", "--null-reps", "1000000000000"],
    ])
    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 29.1 TiB for an array",
         ": Unable to allocate 29.1 TiB for an array"),
        ("", ""),
    ])
    def test_settings_too_large_for_memory(self, argv, message, shown,
                                           two_region_recording, tmp_path, capsys,
                                           monkeypatch):
        # the callee fails as an allocation it cannot make does, without the
        # test allocating anything
        def refuse(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "null_ensemble", refuse)
        rec, reg = two_region_recording
        if argv[0] == "analyze":
            argv = argv + ["--input", str(rec), "--regions", str(reg)]
        rc = main(argv + ["--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"nvc: usage error: settings too large for memory{shown}\n"

    def test_simulate_modulus_default_matches_library(self):
        args = build_parser().parse_args(["simulate", "--out-dir", "o"])
        assert args.modulus == DEFAULT_MODULUS

    @pytest.mark.parametrize("n_samples, extra, left, need", [
        (560, [], 60, 200),
        (700, ["--max-lag", "500"], 200, 1002),
    ])
    def test_short_baseline_names_both_counts(self, n_samples, extra, left, need,
                                              tmp_path, capsys):
        rec = tmp_path / "short.csv"
        write_csv(rec, ["a", "b"], np.random.default_rng(1).standard_normal((n_samples, 2)))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a"], "RB": ["b"]})
        rc = main(["baseline", "--input", str(rec), "--regions", str(reg), *extra,
                   "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert err.startswith(f"nvc: data error: {left} of {n_samples} samples left")
        assert f"needs at least {need} " in err


class TestManifest:
    """Each manifest records exactly the flags of its command."""

    FILE_FLAGS = {"input": "recording", "regions": "regions",
                  "cohort_a": "cohort_a", "cohort_b": "cohort_b"}

    @pytest.mark.parametrize("command, argv, extras", [
        ("analyze", ["--measure", "t", "--q-perms", "1", "--null-reps", "20"],
         {"pairs"}),
        ("baseline", ["--max-lag", "5"], {"pairs"}),
        ("compare", ["--group-perms", "20"], {"family_size"}),
        ("simulate", ["--cases", "3", "--n-secs", "10", "--reps", "10",
                      "--null-reps", "20"], set()),
        ("null-dist", ["--n-blocks", "10", "--q", "1", "--null-reps", "10"], set()),
    ])
    def test_params_and_inputs_are_the_command_flags(self, command, argv, extras,
                                                     two_region_recording, tmp_path):
        rec, reg = two_region_recording
        files = {"analyze": ["--input", str(rec), "--regions", str(reg)],
                 "baseline": ["--input", str(rec), "--regions", str(reg)],
                 "compare": ["--cohort-a", str(tmp_path / "a.csv"),
                             "--cohort-b", str(tmp_path / "b.csv")]}.get(command, [])
        for name in ("a.csv", "b.csv"):
            write_csv(tmp_path / name, ["f0", "f1"],
                      np.random.default_rng(0).standard_normal((6, 2)))
        out = tmp_path / "out"
        argv = [command, *files, *argv, "--seed", "7", "--out-dir", str(out)]
        flags = set(vars(build_parser().parse_args(argv))) - {"command", "func"}
        assert main(argv) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["inputs"]) == {self.FILE_FLAGS[f] for f in
                                           flags & set(self.FILE_FLAGS)}
        assert set(manifest["params"]) == \
            flags - set(self.FILE_FLAGS) - {"seed", "out_dir"} | extras
        assert manifest["seed"] == 7
        if "bands" in flags:
            assert manifest["params"]["bands"] == "canonical"
        for flag, key in self.FILE_FLAGS.items():
            if key in manifest["inputs"]:
                assert manifest["inputs"][key] == argv[argv.index(
                    "--" + flag.replace("_", "-")) + 1]


class TestRefusedInputs:
    """Inputs that used to run into a silently wrong output, refused in one line."""

    @staticmethod
    def run(argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return rc, err

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    @pytest.mark.parametrize("spec, message", [
        ("a:1:5,a:6:12", "band name 'a' is repeated"),
        (":1:5", "band ':1:5' has no name"),
    ], ids=["repeated", "empty"])
    def test_band_names_unique_and_named(self, command, spec, message,
                                         two_region_recording, tmp_path, capsys):
        rec, reg = two_region_recording
        out = tmp_path / "out"
        rc, err = self.run([command, "--input", str(rec), "--regions", str(reg),
                            "--bands", spec, "--out-dir", str(out)], capsys)
        assert rc == EXIT_USAGE
        assert err == f"nvc: usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    @pytest.mark.parametrize("config, message", [
        ({"regions": {"RA": ["A1", "A2"], "RB": ["B1", "B2"]},
          "pairs": [["RA", "RB"], ["RA", "RB"]]}, "pair (RA, RB) is listed twice"),
        ({"regions": {"RA": ["A1", "A2"]}}, "no region pair"),
        ({"regions": {"RA": ["A1", "A2"], "RB": ["B1", "B2"]}, "pairs": []},
         "no region pair"),
    ], ids=["repeated", "one_region", "empty_pairs"])
    def test_pairs_listed_once_and_at_least_one(self, command, config, message,
                                                two_region_recording, tmp_path, capsys):
        rec, _ = two_region_recording
        reg = tmp_path / "pairs.json"
        reg.write_text(json.dumps(config))
        rc, err = self.run([command, "--input", str(rec), "--regions", str(reg),
                            "--out-dir", str(tmp_path / "out")], capsys)
        assert rc == EXIT_DATA
        assert err.startswith("nvc: data error: ") and message in err

    @pytest.mark.parametrize("command", ["analyze", "baseline"])
    @pytest.mark.parametrize("standardize", ["--standardize", "--no-standardize"])
    def test_recording_whose_squares_overflow(self, command, standardize, tmp_path,
                                              capsys):
        rec = tmp_path / "rec.csv"
        data = np.random.default_rng(2).standard_normal((3000, 3))
        data[:, 1] *= 1e200
        write_csv(rec, ["A1", "B1", "B2"], data)
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["A1"], "RB": ["B1", "B2"]})
        rc, err = self.run([command, "--input", str(rec), "--regions", str(reg),
                            standardize, "--out-dir", str(tmp_path / "out")], capsys)
        assert rc == EXIT_DATA
        assert err.startswith("nvc: data error: channel(s) ['B1'] too large")

    def test_cohorts_whose_sums_overflow(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["f0", "f1"], [[1e308, 1.0], [1e308, 2.0], [1e308, 3.0]])
        write_csv(b, ["f0", "f1"], [[-1e308, 1.0], [-1e308, 2.0], [-1e308, 4.0]])
        rc, err = self.run(["compare", "--cohort-a", str(a), "--cohort-b", str(b),
                            "--out-dir", str(tmp_path / "out")], capsys)
        assert rc == EXIT_DATA
        assert err.startswith("nvc: data error: feature(s) ['f0'] too large")

    @pytest.mark.parametrize("command, bound", [
        # sum(x**2) against the neighbour search's bound for p + q = 4 columns
        # (analyze); sum(x**2)**2 for pbc
        ("analyze", lambda s: search_bound(4) / 2 / s),
        ("baseline", lambda s: np.sqrt(np.finfo(float).max / 4) / s),
    ], ids=["analyze", "baseline"])
    def test_recording_just_inside_the_bound_runs(self, command, bound, tmp_path):
        data = np.random.default_rng(3).standard_normal((3000, 4))
        scale = np.sqrt(bound((data * data).sum(axis=0).max()))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["A1", "A2"], "RB": ["B1", "B2"]})
        extra = ["--null-reps", "20"] if command == "analyze" else []
        outs = {}
        for name, factor in [("plain", 1.0), ("scaled", scale)]:
            rec = tmp_path / f"{name}.csv"
            write_csv(rec, ["A1", "A2", "B1", "B2"], data * factor)
            outs[name] = tmp_path / name
            assert main([command, "--input", str(rec), "--regions", str(reg),
                         "--no-standardize", *extra, "--out-dir", str(outs[name])]) \
                == EXIT_OK
        if command == "analyze":
            # the scaled periodograms' squared distances stay finite
            got = json.loads((outs["scaled"] / "profile_RA-RB.json").read_text())
            assert np.isfinite(got["estimate"]).all()
        else:
            # band coherence and band power do not depend on the scale
            for name in ("pbc.csv", "rbp.csv"):
                want = [r[-1] for r in csv.reader(open(outs["plain"] / name))][1:]
                got = [r[-1] for r in csv.reader(open(outs["scaled"] / name))][1:]
                np.testing.assert_allclose(np.array(got, float), np.array(want, float),
                                           rtol=1e-9)

    def test_recording_past_the_search_bound(self, tmp_path, capsys):
        # the 1.7e151 scale of the former bound, block_len * sum(x**2) finite:
        # every squared distance of its periodograms overflowed to a tie at inf
        data = np.random.default_rng(3).standard_normal((3000, 4))
        data *= np.sqrt(np.finfo(float).max / 2 / 100 / (data * data).sum(axis=0).max())
        rec = tmp_path / "rec.csv"
        write_csv(rec, ["A1", "A2", "B1", "B2"], data)
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["A1", "A2"], "RB": ["B1", "B2"]})
        rc, err = self.run(["analyze", "--input", str(rec), "--regions", str(reg),
                            "--no-standardize", "--out-dir", str(tmp_path / "out")],
                           capsys)
        assert rc == EXIT_DATA
        assert err == ("nvc: data error: channel(s) ['A1', 'A2', 'B1', 'B2'] too large: "
                       "squared distances between their periodograms may overflow "
                       "float64\n")

    def test_power_of_two_scale_inside_the_search_bound(self, tmp_path):
        # scaling by a power of two is exact up to the bound, so are the estimates
        data = np.random.default_rng(3).standard_normal((3000, 4))
        scale = 2.0 ** np.floor(np.log2(np.sqrt(
            search_bound(4) / (data * data).sum(axis=0).max())))
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["A1", "A2"], "RB": ["B1", "B2"]})
        for name, factor in [("plain", 1.0), ("scaled", scale)]:
            write_csv(tmp_path / f"{name}.csv", ["A1", "A2", "B1", "B2"], data * factor)
            assert main(["analyze", "--input", str(tmp_path / f"{name}.csv"),
                         "--regions", str(reg), "--no-standardize", "--null-reps", "20",
                         "--out-dir", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "scaled" / "profiles.csv").read_bytes() == \
            (tmp_path / "plain" / "profiles.csv").read_bytes()


class TestChannelsOutsideRegions:
    """A channel no region lists is neither checked nor rescaled."""

    @pytest.mark.parametrize("command, outputs", [
        ("analyze", ("profiles.csv",)), ("baseline", ("pbc.csv", "rbp.csv"))])
    @pytest.mark.parametrize("standardize", ["--standardize", "--no-standardize"])
    @pytest.mark.parametrize("unused", ["constant", "overflowing"])
    def test_outputs_as_without_the_channel(self, command, outputs, standardize,
                                            unused, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((3000, 2))
        z = np.full(3000, 7.0) if unused == "constant" \
            else 1e300 * rng.standard_normal(3000)
        reg = tmp_path / "regions.json"
        write_regions(reg, {"RA": ["a1"], "RB": ["b1"]})
        write_csv(tmp_path / "two.csv", ["a1", "b1"], data)
        write_csv(tmp_path / "three.csv", ["a1", "b1", "z"], np.column_stack([data, z]))
        extra = ["--null-reps", "20"] if command == "analyze" else []
        for name in ("two", "three"):
            assert main([command, "--input", str(tmp_path / f"{name}.csv"),
                         "--regions", str(reg), standardize, *extra,
                         "--out-dir", str(tmp_path / name)]) == EXIT_OK
        for name in outputs:
            assert (tmp_path / "three" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()


class TestFanOut:
    """`--threads` changes where profiles run, never what a command writes."""

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_threads_write_identical_files(self, command, two_region_recording,
                                           tmp_path):
        rec, _ = two_region_recording
        reg = tmp_path / "three.json"
        write_regions(reg, {"RA": ["A1"], "RB": ["B1", "B2"], "RC": ["A2"]},
                      [["RA", "RB"], ["RC", "RB"]])
        argv = {"analyze": ["analyze", "--input", str(rec), "--regions", str(reg),
                            "--null-reps", "50"],
                "simulate": ["simulate", "--cases", "3", "4", "--n-secs", "10",
                             "--reps", "10", "--null-reps", "20"]}[command]
        for threads in ("1", "2"):
            assert main(argv + ["--threads", threads, "--seed", "3", "--out-dir",
                                str(tmp_path / threads)]) == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
        assert len(files) > 2
        for name in files:
            if name != "manifest.json":  # it records --threads
                assert (tmp_path / "1" / name).read_bytes() == \
                    (tmp_path / "2" / name).read_bytes(), name

    def test_simulate_builds_one_pool_for_every_cell(self, tmp_path, monkeypatch):
        from nvcoh import simulation

        built = []

        class Counting:
            def __init__(self, max_workers=None):
                built.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return list(map(fn, *iterables))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", Counting)
        assert main(["simulate", "--cases", "3", "4", "--n-secs", "10", "12",
                     "--reps", "10", "--null-reps", "20", "--threads", "2",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert built == [2]
        rows = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 49


class TestMontage:
    """`analyze` evaluates every pair in one plan; each equals the pair alone."""

    BLOCK_LEN = 8  # retained Fourier indices 1, 2, 3

    def run_on_periodograms(self, tmp, values, pairs, measure, seed):
        """Run `analyze` on drawn periodograms, ``{region: (n, channels, 3)}``.

        Channels are named after their region; the recording only sets the
        block count, since `spectral.block_periodograms` returns the drawn
        tensor of each region.  Returns ``{pair: (estimates, meta)}``.
        """
        labels = {r: [f"{r}{i}" for i in range(v.shape[1])] for r, v in values.items()}
        by_labels = {tuple(labels[r]): v for r, v in values.items()}
        n = next(iter(values.values())).shape[0]
        freqs = cli.retained_indices(self.BLOCK_LEN) * 100.0 / self.BLOCK_LEN
        rec, reg, out = tmp / "rec.csv", tmp / "reg.json", tmp / "out"
        write_csv(rec, sum(labels.values(), []),
                  np.random.default_rng(0).standard_normal(
                      (n * self.BLOCK_LEN, sum(map(len, labels.values())))))
        write_regions(reg, labels, [list(pair) for pair in pairs])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "block_periodograms", lambda ts, _: (
                BlockPeriodogramTensor(by_labels[ts.labels], freqs)))
            assert main(["analyze", "--input", str(rec), "--regions", str(reg),
                         "--block-len", str(self.BLOCK_LEN), "--discard-secs", "0",
                         "--measure", measure, "--null-reps", "10", "--seed", str(seed),
                         "--out-dir", str(out)]) == EXIT_OK
        profiles = {}
        for a, b in pairs:
            payload = json.loads((out / f"profile_{a}-{b}.json").read_text())
            est = np.array([np.nan if v is None else v for v in payload["estimate"]])
            profiles[a, b] = est, payload["meta"]
        return profiles

    @staticmethod
    def pair_alone(values, a, b, measure, seed):
        """The pair's statistic at each frequency, NaN where it is degenerate."""
        x, y = values[a], values[b]
        plan_y = _default_plan(y.shape[1], None, seed)
        plan_x = _default_plan(x.shape[1], None, seed)
        out = []
        for i, k in enumerate(cli.retained_indices(TestMontage.BLOCK_LEN)):
            pair = FeatureMatrixPair(x[:, :, i], y[:, :, i])
            s = derive_seed(derive_seed(seed, "pair", f"{a}-{b}"), "freq", int(k))
            try:
                out.append({"t": lambda: t_n(pair, seed=s),
                            "tbar": lambda: t_n_bar(pair, plan=plan_y, seed=s),
                            "tstar": lambda: t_n_star(pair, plan_x=plan_x,
                                                      plan_y=plan_y, seed=s)}[measure]())
            except DegenerateRanksError:
                out.append(np.nan)
        return np.array(out)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_montage_equals_each_pair_alone(self, data):
        # rows 30 scan distance matrices, rows 170 take the sorted scan and
        # the k-d tree; values rounded to one decimal tie in every search
        n = data.draw(st.sampled_from([30, 170]))
        widths = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = {}
        for i, w in enumerate(widths):
            v = np.round(r.standard_normal((n, w, 3)), 1)
            v[0][np.ptp(v, axis=0) == 0] += 1.0  # every channel may be a response
            values[f"R{i}"] = v
        names = list(values)
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                                   min_size=1, max_size=4))
        a, b = drawn[0]
        pairs = list(dict.fromkeys(drawn + [(b, a), (a, a)]))
        measure = data.draw(st.sampled_from(["t", "tbar", "tstar"]))
        seed = data.draw(st.integers(0, 2**16))
        with tempfile.TemporaryDirectory() as tmp:
            got = self.run_on_periodograms(Path(tmp), values, pairs, measure, seed)
        for a, b in pairs:
            want = self.pair_alone(values, a, b, measure, seed)
            assert not np.isnan(want).any()
            assert got[a, b][0].tolist() == want.tolist(), (a, b)

    @pytest.mark.parametrize("measure", ["t", "tbar", "tstar"])
    def test_degeneracy_stays_per_pair(self, measure, tmp_path):
        # channel RB1 is constant at the second frequency: only pairs that
        # rank it as a response are NaN there, RB on the y side under t and
        # tbar, on either side under tstar
        r = np.random.default_rng(5)
        values = {"RA": r.exponential(size=(40, 2, 3)), "RB": r.exponential(size=(40, 2, 3)),
                  "RC": r.exponential(size=(40, 1, 3))}
        values["RB"][:, 1, 1] = 0.7
        pairs = [("RA", "RB"), ("RB", "RC"), ("RA", "RC"), ("RC", "RB"), ("RB", "RB")]
        got = self.run_on_periodograms(tmp_path, values, pairs, measure, 9)
        for a, b in pairs:
            uses_rb = b == "RB" or (measure == "tstar" and a == "RB")
            est, meta = got[a, b]
            assert np.flatnonzero(np.isnan(est)).tolist() == ([1] if uses_rb else [])
            assert meta["n_degenerate"] == int(uses_rb)
            assert np.array_equal(est, self.pair_alone(values, a, b, measure, 9),
                                  equal_nan=True)


# --------------------------------------------------------------- argv property

@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Tiny recordings (plain, short, rounded, one constant channel) and regions.

    ``bad_pairs`` lists a pair of three names and ``no_regions`` names no file.
    """
    base = tmp_path_factory.mktemp("argv")
    r = np.random.default_rng(7)
    labels = ["a1", "a2", "b1", "b2"]
    files = {}
    for name, data in {
        "plain": r.standard_normal((1200, 4)),
        "short": r.standard_normal((560, 4)),
        "rounded": np.round(r.standard_normal((1200, 4))),
        "constant": np.column_stack([r.standard_normal((1200, 3)), np.ones(1200)]),
        "one_row": r.standard_normal((1, 4)),
    }.items():
        files[name] = base / f"{name}.csv"
        write_csv(files[name], labels, data)
    files["regions"] = base / "regions.json"
    write_regions(files["regions"], {"RA": ["a1", "a2"], "RB": ["b1", "b2"]})
    files["bad_pairs"] = base / "bad_pairs.json"
    write_regions(files["bad_pairs"], {"RA": ["a1"], "RB": ["b1"]},
                  [["RA", "RB", "RA"]])
    files["no_regions"] = base / "no_regions.json"
    return files


def _flags(**choices):
    """Each flag is left out or given one of its values, small and edge alike."""
    return st.fixed_dictionaries({
        flag: st.one_of(st.none(), st.sampled_from(values))
        for flag, values in choices.items()})


_RECORDING = dict(fs=["0.5", "10", "100", "0"], discard_secs=["0", "1", "5", "1e308"],
                  block_len=["2", "4", "10", "100", "400"], seed=["0", "3", "-1"],
                  bands=["a:1:2", "lo:4:8,hi:8:12", "x:10:60", "bad"],
                  standardize=["", "no"],
                  regions=["regions", "bad_pairs", "no_regions"])
_ARGV = st.one_of(
    st.tuples(st.just("analyze"),
              st.sampled_from(["plain", "short", "rounded", "constant", "one_row"]),
              _flags(**_RECORDING, measure=["t", "tbar", "tstar"],
                     q_perms=["0", "1", "2"], null_reps=["0", "1", "50"],
                     alpha=["0", "0.05", "1"])),
    st.tuples(st.just("baseline"),
              st.sampled_from(["plain", "short", "rounded", "constant", "one_row"]),
              _flags(**_RECORDING, max_lag=["-1", "0", "3", "50", "700"])),
    st.tuples(st.just("simulate"), st.none(),
              _flags(cases=["1", "4", "1 3", "9"], n_secs=["5", "10", "12 10"],
                     reps=["5", "10"], block_len=["4", "100", "600"],
                     fs=["10", "20", "100"], measure=["t", "tstar"],
                     null_reps=["10"], seed=["0", "5"])),
    st.tuples(st.just("null-dist"), st.none(),
              _flags(n_blocks=["1", "2", "3", "40"], q=["0", "1", "3"],
                     null_reps=["0", "1", "10"], seed=["0", "-1"])),
)


_FILLED = {"analyze": {"regions": "regions"}, "baseline": {"regions": "regions"},
           "simulate": {"cases": "3", "n_secs": "10", "reps": "10"},
           "null-dist": {"n_blocks": "10", "q": "1"}}


def _argv(command, recording, flags, files, out_dir):
    argv = [command, "--out-dir", out_dir]
    if recording is not None:
        argv += ["--input", str(files[recording])]
    # null-dist requires these; simulate's defaults (all cases, up to 200 s,
    # 200 replicates) would take minutes
    given = {k: v for k, v in flags.items() if v is not None}
    flags = {**_FILLED.get(command, {}), **given}
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if name == "standardize":
            argv.append(f"--{value}{'-' if value else ''}standardize")
        elif name == "regions":
            argv += [flag, str(files[value])]
        else:
            argv += [flag, *value.split()]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_ARGV)
def test_any_argv_exits_with_a_documented_code(drawn, fixture_files):
    # every input either works or fails with its documented exit code and a
    # message; nothing escapes as an exception or a traceback
    command, recording, flags = drawn
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(_argv(command, recording, flags, fixture_files, out_dir))
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_DEGENERATE)
    assert "Traceback" not in err.getvalue()
