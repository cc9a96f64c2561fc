import numpy as np
import pytest

import nvcoh.simulation as sim
from nvcoh.simulation import (
    CASES,
    LatentOscillatorSpec,
    gen_case,
    gen_latent,
    run_study,
    table1_frequency_sets,
)
from nvcoh.spectral import TimeSeriesMatrix, block_periodograms


class TestGenLatent:
    def test_spectral_peak_location(self):
        spec = LatentOscillatorSpec(peak_hz=10.0, fs=100.0, n_samples=100_000)
        z = gen_latent(spec, seed=0)
        ts = TimeSeriesMatrix(z[:, None], 100.0, ("z",))
        power = block_periodograms(ts, 100).values[:, 0, :].mean(axis=0)
        freqs = block_periodograms(ts, 100).freqs_hz
        assert abs(freqs[power.argmax()] - 10.0) <= 1.0

    def test_vanishing_modulus_gives_flat_spectrum(self):
        spec = LatentOscillatorSpec(peak_hz=10.0, fs=100.0, n_samples=1_000_000,
                                    modulus=1e-3)
        z = gen_latent(spec, seed=1)
        ts = TimeSeriesMatrix(z[:, None], 100.0, ("z",))
        power = block_periodograms(ts, 100).values[:, 0, :].mean(axis=0)
        assert np.all(np.abs(power - power.mean()) <= 0.10 * power.mean())

    def test_deterministic(self):
        spec = LatentOscillatorSpec(peak_hz=6.0, fs=100.0, n_samples=5000)
        assert np.array_equal(gen_latent(spec, seed=3), gen_latent(spec, seed=3))

    def test_standardized(self):
        spec = LatentOscillatorSpec(peak_hz=37.5, fs=100.0, n_samples=20_000)
        z = gen_latent(spec, seed=2)
        assert abs(z.mean()) < 1e-12
        assert z.var() == pytest.approx(1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatentOscillatorSpec(peak_hz=60.0, fs=100.0, n_samples=100)
        with pytest.raises(ValueError):
            LatentOscillatorSpec(peak_hz=10.0, fs=100.0, n_samples=100, modulus=1.0)


class TestCaseWiring:
    def test_dimensions(self):
        for cid in (1, 2, 3):
            assert CASES[cid].p == 2 and CASES[cid].q == 2
            assert CASES[cid].mixing.weights == (0.75, 0.25)
        for cid in (4, 5):
            assert CASES[cid].p == 3 and CASES[cid].q == 3
            assert CASES[cid].mixing.weights == (0.375, 0.375, 0.25)

    def test_case1_both_pairs_share_alpha(self):
        c = CASES[1]
        assert c.shared_tags(0, 0) == {("alpha", 1)}
        assert c.shared_tags(1, 1) == {("alpha", 2)}
        assert c.shared_tags(0, 1) == set()

    def test_case2_single_shared_latent(self):
        c = CASES[2]
        assert c.shared_tags(0, 0) == {("alpha", 1)}
        assert c.shared_tags(1, 1) == set()

    def test_case3_no_cross_group_sharing(self):
        c = CASES[3]
        assert all(not c.shared_tags(i, j) for i in range(2) for j in range(2))

    def test_case4_theta_shared_three_gamma_two(self):
        c = CASES[4]
        shared = [c.shared_tags(i, i) for i in range(3)]
        assert shared[0] == {("theta", 1), ("gamma", 1)}
        assert shared[1] == {("theta", 2), ("gamma", 2)}
        assert shared[2] == {("theta", 3)}

    def test_case5_gamma_shared_three_theta_two(self):
        c = CASES[5]
        assert c.shared_tags(2, 2) == {("gamma", 3)}
        n_theta = sum(("theta", i + 1) in c.shared_tags(i, i) for i in range(3))
        n_gamma = sum(("gamma", i + 1) in c.shared_tags(i, i) for i in range(3))
        assert (n_theta, n_gamma) == (2, 3)


class TestGenCase:
    def test_shapes_and_labels(self):
        x, y = gen_case(1, 20, seed=0)
        assert x.data.shape == (2000, 2) and y.data.shape == (2000, 2)
        assert x.labels == ("X1", "X2") and y.labels == ("Y1", "Y2")
        x, y = gen_case(4, 20, seed=0)
        assert x.data.shape == (2000, 3)

    def test_deterministic(self):
        a = gen_case(2, 15, seed=5)
        b = gen_case(2, 15, seed=5)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_channels_standardized(self):
        x, y = gen_case(1, 120, seed=1)
        for data in (x.data, y.data):
            assert np.all(np.abs(data.mean(axis=0)) <= 0.02)
            assert np.all((data.var(axis=0) >= 0.9) & (data.var(axis=0) <= 1.1))

    def test_shared_latent_creates_correlation(self):
        x, y = gen_case(1, 100, seed=3)
        r_shared = np.corrcoef(x.data[:, 0], y.data[:, 0])[0, 1]
        r_cross = np.corrcoef(x.data[:, 0], y.data[:, 1])[0, 1]
        assert r_shared > 0.7
        assert abs(r_cross) < 0.1

    def test_noise_is_fresh_per_channel(self):
        # shared latent but never identical channels
        x, y = gen_case(1, 30, seed=2)
        assert not np.array_equal(x.data[:, 0], y.data[:, 0])

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            gen_case(6, 20)


class TestFrequencySets:
    def test_cases_1_to_3(self):
        freqs = np.arange(1.0, 50.0)
        sets = table1_frequency_sets(1, freqs)
        assert freqs[sets["in_band"]].tolist() == [9, 10, 11, 12]
        assert sets["out_band"].sum() == 45

    def test_cases_4_and_5(self):
        freqs = np.arange(1.0, 50.0)
        sets = table1_frequency_sets(4, freqs)
        assert freqs[sets["theta_band"]].tolist() == [5, 6, 7, 8]
        assert freqs[sets["gamma_band"]].tolist() == [36, 37, 38, 39, 40]
        assert sets["out_band"].sum() == 49 - 9


class TestRunStudy:
    @pytest.fixture(scope="class")
    @staticmethod
    def small_report():
        return run_study(cases=(1, 3), n_secs=(50,), replicates=12, seed=99,
                         null_reps=500)

    def test_row_schema(self, small_report):
        row = small_report.rows[0]
        assert set(row) == {"case", "n_sec", "freq_hz", "mean", "q025", "q975",
                            "se", "reject_rate"}
        assert len(small_report.rows) == 2 * 49

    def test_envelope_contains_mean(self, small_report):
        for row in small_report.rows:
            assert row["q025"] - 1e-12 <= row["mean"] <= row["q975"] + 1e-12

    def test_rates_in_unit_interval(self, small_report):
        for row in small_report.rows:
            assert 0.0 <= row["reject_rate"] <= 1.0

    def test_case1_beats_case3_at_peak(self, small_report):
        _, m1 = small_report.freq_means(1, 50.0)
        _, m3 = small_report.freq_means(3, 50.0)
        assert m1[9] > 0.3
        assert abs(m3[9]) < 0.2

    def test_deterministic(self):
        a = run_study(cases=(3,), n_secs=(20,), replicates=10, seed=7, null_reps=200)
        b = run_study(cases=(3,), n_secs=(20,), replicates=10, seed=7, null_reps=200)
        assert a.rows == b.rows
        assert a.set_rows == b.set_rows

    def test_failures_above_threshold_abort(self, monkeypatch):
        real = sim.gen_case
        calls = {"n": 0}

        def flaky(case_id, n_sec, fs=100.0, seed=0, modulus=sim.DEFAULT_MODULUS):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("synthetic failure")
            return real(case_id, n_sec, fs=fs, seed=seed, modulus=modulus)

        monkeypatch.setattr(sim, "gen_case", flaky)
        with pytest.raises(RuntimeError, match="replicates failed"):
            run_study(cases=(3,), n_secs=(20,), replicates=12, seed=1, null_reps=100)

    @pytest.mark.parametrize("error, raised", [
        (MemoryError("Unable to allocate 711. PiB"), ValueError),  # the settings
        (TypeError("synthetic bug"), RuntimeError),  # keeps its traceback
    ], ids=["out-of-memory", "other"])
    def test_cell_failing_every_replicate(self, error, raised, monkeypatch):
        def failing(case_id, n_sec, fs=100.0, seed=0, modulus=sim.DEFAULT_MODULUS):
            raise error

        monkeypatch.setattr(sim, "gen_case", failing)
        with pytest.raises(raised, match=type(error).__name__):
            run_study(cases=(3,), n_secs=(20,), replicates=10, seed=1, null_reps=10)

    def test_csv_round_trip(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        small_report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "case,n_sec,freq_hz,mean,q025,q975,se,reject_rate"
        assert len(lines) == 1 + len(small_report.rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_study(cases=(1,), n_secs=(50,), replicates=5)
        with pytest.raises(ValueError):
            run_study(cases=(1,), n_secs=(5,), replicates=10)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(cases=(1,), n_secs=(10,), block_len=600), "1 complete block"),
        (dict(cases=(4,), n_secs=(10,), fs=10.0), "37.5 Hz"),
        (dict(cases=(3, 1), n_secs=(50,), fs=20.0), "10.0 Hz"),
        (dict(cases=(3,), n_secs=(10,), measure="bogus"), "unknown measure 'bogus'"),
        (dict(cases=(3,), n_secs=(10,), block_len=3), "block_len must be at least 4"),
        (dict(cases=(3,), n_secs=(10,), block_len=0), "block_len must be at least 4"),
        (dict(cases=(3,), n_secs=(10,), null_reps=0), "null_reps must be at least 1"),
        (dict(cases=(3,), n_secs=(10,), modulus=1.5), r"modulus must lie in \(0, 1\)"),
        (dict(cases=(3,), n_secs=(10,), alpha=5.0), r"alpha must lie in \(0, 1\)"),
    ])
    def test_impossible_settings_rejected_before_any_replicate(self, kwargs, message,
                                                               monkeypatch):
        def never(args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "_replicate", never)
        with pytest.raises(ValueError, match=message):
            run_study(replicates=10, **{"null_reps": 10, **kwargs})
