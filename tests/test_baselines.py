import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcoh.baselines import bandpass, pbc, pbc_matrix, rbp, region_pbc
from nvcoh.spectral import CANONICAL_BANDS, EmptyBandError, FrequencyBand, TimeSeriesMatrix

BANDS = {b.name: b for b in CANONICAL_BANDS}


def make_ts(data, fs=100.0, labels=None):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 1:
        data = data.T
    labels = labels or tuple(f"c{i}" for i in range(data.shape[1]))
    return TimeSeriesMatrix(data, fs, tuple(labels))


def tone(freq_hz, n_sec=600, fs=100.0, phase=0.0):
    t = np.arange(int(n_sec * fs)) / fs
    return np.sin(2 * np.pi * freq_hz * t + phase)


class TestBandpass:
    def test_in_band_tone_passes(self):
        ts = make_ts(tone(10.0))
        out = bandpass(ts, BANDS["alpha"])
        mid = out[1000:-1000, 0]
        assert abs(np.abs(mid).max() - 1.0) < 0.05

    def test_out_of_band_tone_rejected(self):
        ts = make_ts(tone(10.0))
        out = bandpass(ts, BANDS["gamma"])
        assert out[:, 0].std() <= 0.01 * ts.data[:, 0].std()

    def test_white_noise_energy_fraction_wide_bands(self, rng):
        # edge attenuation of the order-4 zero-phase design costs ~10% of the
        # ideal fraction, which only the wider bands absorb inside tolerance
        ts = make_ts(rng.standard_normal(200_000))
        for name in ("beta", "gamma"):
            band = BANDS[name]
            frac = bandpass(ts, band).var() / ts.data.var()
            ideal = (band.hi_hz - band.lo_hz) / (ts.fs / 2)
            assert abs(frac - ideal) <= 0.10 * ideal

    def test_narrow_bands_attenuate_consistently(self, rng):
        ts = make_ts(rng.standard_normal(200_000))
        for name in ("delta", "theta", "alpha"):
            band = BANDS[name]
            frac = bandpass(ts, band).var() / ts.data.var()
            ideal = (band.hi_hz - band.lo_hz) / (ts.fs / 2)
            assert 0.8 * ideal <= frac <= 1.05 * ideal

    def test_invalid_band(self, rng):
        ts = make_ts(rng.standard_normal(1000))
        with pytest.raises(ValueError):
            bandpass(ts, FrequencyBand("bad", 40.0, 60.0))


class TestPbc:
    def test_identical_channels(self, rng):
        x = rng.standard_normal(5000)
        assert pbc(x, x.copy()) == 1.0

    def test_lagged_copy(self, rng):
        x = bandpass(make_ts(rng.standard_normal(12_000)), BANDS["alpha"])[:, 0]
        y = np.roll(x, 17)
        assert pbc(x[100:-100], y[100:-100], max_lag=50) == pytest.approx(1.0, abs=1e-6)

    def test_independent_noise_small(self):
        hits = 0
        for seed in range(500):
            r = np.random.default_rng(seed)
            ts = make_ts(r.standard_normal((10_000, 2)))
            f = bandpass(ts, BANDS["alpha"])
            hits += pbc(f[:, 0], f[:, 1], max_lag=50) <= 0.05
        assert hits >= 475

    def test_symmetry(self, rng):
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        assert pbc(x, y, max_lag=20) == pbc(y, x, max_lag=20)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounds(self, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal(200)
        y = 0.5 * x + r.standard_normal(200)
        val = pbc(x, y, max_lag=10)
        assert 0.0 <= val <= 1.0

    def test_zero_variance_rejected(self, rng):
        with pytest.raises(ValueError):
            pbc(np.ones(2000), rng.standard_normal(2000))

    def test_length_preconditions(self, rng):
        with pytest.raises(ValueError):
            pbc(rng.standard_normal(50), rng.standard_normal(50), max_lag=50)


class TestRegionPbc:
    def test_single_channel_regions_equal_pbc(self, rng):
        data = rng.standard_normal((8000, 2))
        x = make_ts(data[:, :1], labels=("a",))
        y = make_ts(data[:, 1:], labels=("b",))
        band = BANDS["alpha"]
        fx = bandpass(x, band)[:, 0]
        fy = bandpass(y, band)[:, 0]
        assert region_pbc(x, y, band) == pbc(fx, fy)

    def test_copied_region_is_one(self, rng):
        base = rng.standard_normal(8000)
        x = make_ts(base, labels=("a",))
        y = make_ts(np.column_stack([base, base]), labels=("b1", "b2"))
        assert region_pbc(x, y, BANDS["alpha"]) == pytest.approx(1.0)

    def test_equals_mean_of_pairwise_matrix(self, rng):
        x = make_ts(rng.standard_normal((6000, 2)), labels=("a1", "a2"))
        y = make_ts(rng.standard_normal((6000, 3)), labels=("b1", "b2", "b3"))
        band = BANDS["beta"]
        mat = pbc_matrix(x, y, band)
        assert region_pbc(x, y, band) == pytest.approx(mat.mean(), abs=1e-15)

    def test_independent_case_groups_stay_small(self):
        # two-channel groups built from disjoint latent oscillations
        from nvcoh.simulation import gen_case
        per_band = {name: [] for name in BANDS}
        for seed in range(6):
            x, y = gen_case(3, 40, seed=seed)
            for name, band in BANDS.items():
                per_band[name].append(region_pbc(x, y, band))
        for name, vals in per_band.items():
            assert np.mean(vals) <= 0.1, name

    def test_shared_alpha_case_peaks_in_alpha(self):
        from nvcoh.simulation import gen_case
        x, y = gen_case(1, 60, seed=2)
        vals = {name: region_pbc(x, y, band) for name, band in BANDS.items()}
        assert max(vals, key=vals.get) == "alpha"


class TestRbp:
    def test_pure_tone_concentrates(self):
        ts = make_ts(tone(10.0, n_sec=60), labels=("s",))
        assert rbp(ts, "s", BANDS["alpha"]) >= 0.99
        assert rbp(ts, "s", BANDS["beta"]) <= 0.01

    def test_white_noise_flat_share(self):
        vals = []
        for seed in range(200):
            r = np.random.default_rng(seed)
            ts = make_ts(r.standard_normal(3000), labels=("w",))
            vals.append(rbp(ts, "w", BANDS["alpha"]))
        mean = float(np.mean(vals))
        assert abs(mean - 4 / 44.5) <= 0.15 * (4 / 44.5)

    def test_two_tone_split(self):
        x = tone(6.0, n_sec=60) + tone(10.0, n_sec=60, phase=0.3)
        ts = make_ts(x, labels=("s",))
        assert rbp(ts, "s", BANDS["theta"]) == pytest.approx(0.5, abs=1e-6)
        assert rbp(ts, "s", BANDS["alpha"]) == pytest.approx(0.5, abs=1e-6)

    def test_partition_sums_to_one(self, rng):
        ts = make_ts(rng.standard_normal(5000), labels=("w",))
        total = sum(rbp(ts, "w", band) for band in CANONICAL_BANDS)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_band_outside_totals_rejected(self, rng):
        ts = make_ts(rng.standard_normal(5000), labels=("w",))
        with pytest.raises(ValueError):
            rbp(ts, "w", FrequencyBand("wide", 0.5, 49.0), bands_total=CANONICAL_BANDS)

    def test_empty_band(self, rng):
        ts = make_ts(rng.standard_normal(5000), labels=("w",))
        with pytest.raises(EmptyBandError):
            rbp(ts, "w", FrequencyBand("dc", 0.0, 0.5))
