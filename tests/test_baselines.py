import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcoh import baselines
from nvcoh.baselines import (
    _corr_at_lag,
    _screen_pairs,
    bandpass,
    min_samples,
    pbc,
    pbc_matrix,
    pbc_table,
    rbp,
    region_pbc,
)
from nvcoh.rank_core import DegenerateRanksError
from nvcoh.spectral import (CANONICAL_BANDS, EmptyBandError, FrequencyBand, TimeSeriesMatrix,
                            band_shares)

BANDS = {b.name: b for b in CANONICAL_BANDS}


def make_ts(data, fs=100.0, labels=None):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 1:
        data = data.T
    labels = labels or tuple(f"c{i}" for i in range(data.shape[1]))
    return TimeSeriesMatrix(data, fs, tuple(labels))


def pbc_every_lag(x, y, max_lag):
    """Reference: `_corr_at_lag` at every lag, no screen."""
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        c = _corr_at_lag(x, y, lag)
        best = max(best, c * c)
    return min(best, 1.0)


def _screen_one(x, y, max_lag):
    """The one-pair row of `_screen_pairs`: c and δ at every lag, and whether δ holds."""
    c, delta, kept = _screen_pairs(np.column_stack((x, y)), np.array([0]), np.array([1]),
                                   max_lag)
    return c[0], delta[0], kept[0]


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

    @pytest.mark.parametrize("band", CANONICAL_BANDS, ids=lambda b: b.name)
    def test_columns_filter_independently(self, band):
        # what lets `pbc_table` filter all region channels in one call per band
        data = np.random.default_rng(7).standard_normal((3000, 19))
        whole = bandpass(make_ts(data), band)
        for cols in ([4], [0, 18], [2, 9, 5], list(range(19))[::-1]):
            part = bandpass(make_ts(data[:, cols]), band)
            assert np.ascontiguousarray(whole[:, cols]).tobytes() == part.tobytes()


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("swap", [False, True])
    def test_non_finite_rejected(self, value, swap, rng):
        x, y = rng.standard_normal((2, 2000))
        y[10] = value
        if swap:
            x, y = y, x
        with pytest.raises(ValueError, match="non-finite"):
            pbc(x, y, 10)

    def test_length_preconditions(self, rng):
        with pytest.raises(ValueError):
            pbc(rng.standard_normal(50), rng.standard_normal(50), max_lag=50)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["periodic", "two_lags", "offset", "rounded", "integer"]),
           max_lag=st.integers(0, 25), extra=st.sampled_from([0, 1, 2, 7, 300]))
    def test_screen_keeps_every_lag_result(self, seed, kind, max_lag, extra):
        # families where several lags give near-equal |c|, where the screen
        # must give way to the exact evaluation, or where values are coarse
        r = np.random.default_rng(seed)
        n = min_samples(max_lag) + extra
        t = np.arange(n)
        x = r.standard_normal(n)
        y = r.standard_normal(n)
        if kind == "periodic":  # lags a period apart differ by rounding alone
            period = int(r.integers(3, 13))
            x = np.sin(2 * np.pi * t / period)
            y = np.sin(2 * np.pi * (t + r.integers(0, period)) / period)
        elif kind == "two_lags":  # y = shift(x, k) - shift(x, -k): +c and -c
            k = int(r.integers(0, max_lag + 1))
            y = np.roll(x, k) - np.roll(x, -k) + (0 if k else y)
        elif kind == "offset":
            x = x + 1e15
            y = 0.5 * x + 1e15 * r.standard_normal() + y
            assert not _screen_one(x, y, max_lag)[2]
        elif kind == "rounded":
            x, y = np.round(x, 1), np.round(0.7 * x + y, 1)
        else:
            x, y = r.integers(-3, 4, n).astype(float), r.integers(-3, 4, n).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        assert pbc(x, y, max_lag) == pbc_every_lag(x, y, max_lag)
        assert pbc(y, x, max_lag) == pbc_every_lag(y, x, max_lag)

    def test_screen_error_within_bound(self, rng):
        # segment boundaries (n a multiple of the segment length, and one more
        # and one less), one segment and its edge, and the shortest channels;
        # channels in one role or both, so the Gram's leading and lagging
        # sets differ
        seg = baselines._segment_len(50) - 100
        cases = [(50, 6000), *[(50, 3 * seg + d) for d in (-1, 0, 1)],
                 (50, 300), (50, seg + 50), (50, seg + 51), (50, min_samples(50)),
                 *[(0, 2 * baselines._segment_len(0) + d) for d in (-1, 0, 1)],
                 (0, min_samples(0))]
        i, j = np.array([(0, 1), (0, 2), (3, 1), (2, 2), (2, 0)]).T
        for max_lag, n in cases:
            f = rng.standard_normal((n, 4))
            if n > 100:
                f = bandpass(make_ts(f), BANDS["alpha"])
            c, delta, kept = _screen_pairs(f, i, j, max_lag)
            assert kept.all()
            for p, (x, y) in enumerate(zip(i, j)):
                exact = [_corr_at_lag(f[:, x], f[:, y], lag)
                         for lag in range(-max_lag, max_lag + 1)]
                assert np.all(np.abs(c[p] - exact) <= delta[p]), (max_lag, n, p)
            assert np.all(delta < 1e-6)  # tight enough to leave about one candidate


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


def _channel(kind, r, n, max_lag):
    """One test channel: "offset", "tiny" and "edge" ones fall outside the screen's bound."""
    if kind == "edge":  # windows that drop the last samples hold no variance
        x = np.zeros(n)
        x[n - max(max_lag, 1):] = r.standard_normal(max(max_lag, 1))
        return x
    if kind == "periodic":  # lags a period apart differ by rounding alone
        period = int(r.integers(3, 13))
        return np.sin(2 * np.pi * (np.arange(n) + r.integers(0, period)) / period)
    if kind == "offset":
        return 1e15 + r.standard_normal(n)
    if kind == "rounded":
        return np.round(r.standard_normal(n), 1)
    if kind == "tiny":  # N below 2**-400 even after filtering
        return 2.0 ** -420 * r.standard_normal(n)
    return r.standard_normal(n)


class TestBatchedScreen:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 4), min_size=2, max_size=3),
           kinds=st.lists(st.sampled_from(["noise", "periodic", "offset", "rounded", "tiny",
                                           "edge"]), min_size=12, max_size=12),
           max_lag=st.integers(0, 25), extra=st.integers(0, 300), filtered=st.booleans())
    def test_every_pair_equals_every_lag(self, seed, sizes, kinds, max_lag, extra, filtered):
        # one batch mixes screened pairs with pairs that evaluate every lag;
        # unfiltered, the offset, rounded and edge channels reach the batch as
        # drawn
        r = np.random.default_rng(seed)
        n = min_samples(max_lag) + extra
        data = np.column_stack([_channel(kind, r, n, max_lag) for kind in kinds[:sum(sizes)]])
        labels = tuple(f"c{i}" for i in range(data.shape[1]))
        ts = make_ts(data, labels=labels)
        bounds = np.cumsum([0] + sizes)
        regions = {f"R{k}": labels[bounds[k]:bounds[k + 1]] for k in range(len(sizes))}
        pairs = [("R0", "R0"), ("R1", "R0"), *[(f"R{a}", f"R{b}") for a in range(len(sizes))
                                               for b in range(a + 1, len(sizes))]]
        band = BANDS["alpha"]
        with pytest.MonkeyPatch.context() as mp:
            if not filtered:
                mp.setattr(baselines, "bandpass", lambda ts, band: ts.data.copy())
            f = dict(zip(labels, baselines.bandpass(ts, band).T))
            table = pbc_table(ts, regions, pairs, [band], max_lag=max_lag)
            for p, (a, b) in enumerate(pairs):
                want = np.array([[pbc_every_lag(f[x], f[y], max_lag) for y in regions[b]]
                                 for x in regions[a]])
                got = pbc_matrix(ts.select(regions[a]), ts.select(regions[b]), band, max_lag)
                assert got.tobytes() == want.tobytes()
                assert table[p, 0] == want.mean()
                for (i, x), (j, y) in product(enumerate(regions[a]), enumerate(regions[b])):
                    assert pbc(f[x], f[y], max_lag) == want[i, j]

    def test_one_forward_transform_per_channel(self, monkeypatch, rng):
        # every channel pair of every region pair in a band shares each
        # channel's transforms: one row per segment for each role the channel
        # plays (leading in A and C, lagging in B and C), all of length L';
        # each pair inverts its one L'-point sum
        counts = {"rfft": 0, "irfft": 0}
        lengths = set()

        def counted(name):
            real = getattr(np.fft, name)

            def transform(x, *args, axis=-1, **kwargs):
                counts[name] += x.size // x.shape[axis]
                out = real(x, *args, axis=axis, **kwargs)
                lengths.add(x.shape[axis] if name == "rfft" else out.shape[axis])
                return out
            return transform

        for name in counts:
            monkeypatch.setattr(np.fft, name, counted(name))
        regions = {"A": ("c0", "c1", "c2"), "B": ("c3",), "C": ("c4", "c5", "c6")}
        pairs = [("A", "B"), ("A", "C"), ("C", "B"), ("C", "C")]
        bands = [BANDS["theta"], BANDS["beta"]]
        pbc_table(make_ts(rng.standard_normal((3000, 7))), regions, pairs, bands)
        size = baselines._segment_len(50)
        assert counts == {"rfft": -(-3000 // (size - 100)) * (6 + 4) * len(bands),
                          "irfft": (3 + 9 + 3 + 9) * len(bands)}
        assert lengths == {size}

    def test_pair_batches_change_no_value(self, monkeypatch, rng):
        # batches of one pair or of two, each transforming its own channels
        # one segment at a time, give the same values; a pair listed twice
        # is screened once
        size = baselines._segment_len(50)
        batches = baselines._pair_batches
        i, j = np.array([0, 0, 1, 1, 2]), np.array([1, 2, 0, 2, 0])
        # one segment of two pairs of three channels takes 72 size bytes, of
        # three pairs 88 size or more
        assert list(batches(i, j, size, 1)) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert list(batches(i, j, size, 80 * size)) == [(0, 2), (2, 4), (4, 5)]

        ts = make_ts(rng.standard_normal((3000, 7)))
        regions = {"A": ("c0", "c1", "c2"), "B": ("c3",), "C": ("c4", "c5", "c6")}
        pairs = [("A", "B"), ("A", "C"), ("C", "B"), ("C", "C"), ("A", "C")]
        bands = [BANDS["theta"], BANDS["beta"]]
        want = pbc_table(ts, regions, pairs, bands)
        assert want[1].tobytes() == want[4].tobytes()
        f = bandpass(ts, bands[0])
        i, j = np.array([(0, 3), (5, 4), (2, 6), (0, 3), (4, 4)]).T
        screened = _screen_pairs(f, i, j, 50)
        monkeypatch.setattr(baselines, "_WORKSPACE_BYTES", 1)  # one segment a chunk
        for budget in (1, 80 * size):
            monkeypatch.setattr(baselines, "_pair_batches",
                                lambda i, j, size, _: batches(i, j, size, budget))
            assert pbc_table(ts, regions, pairs, bands).tobytes() == want.tobytes()
            c, delta, kept = _screen_pairs(f, i, j, 50)
            assert kept.all() and c[0].tobytes() == c[3].tobytes()
            assert np.all(np.abs(c - screened[0]) <= delta + screened[1])

    def test_channel_groups_change_no_value(self, monkeypatch, rng):
        # pbc_table filters `_group_width` channels at a time
        # into one column-major array, designing each band's filter once
        ts = make_ts(rng.standard_normal((3000, 7)))
        regions = {"A": ("c0", "c1", "c2"), "B": ("c3",), "C": ("c4", "c5", "c6")}
        pairs = [("A", "B"), ("A", "C"), ("C", "B"), ("C", "C")]
        bands = [BANDS["theta"], BANDS["beta"]]
        assert baselines._group_width(3000) >= 7  # one group
        want = pbc_table(ts, regions, pairs, bands)
        designs = []
        butter = baselines.signal.butter
        monkeypatch.setattr(baselines.signal, "butter",
                            lambda *a, **k: designs.append(a) or butter(*a, **k))
        for width in (1, 2, 3):
            baselines._design.cache_clear()
            designs.clear()
            monkeypatch.setattr(baselines, "_group_width", lambda n: width)
            assert pbc_table(ts, regions, pairs, bands).tobytes() == want.tobytes()
            assert len(designs) == len(bands)

    def test_peak_memory_holds_no_copy_of_all_channels(self, rng):
        # beside the filtered channels and the screen's Gram, only one group's
        # filter copies, one chunk of segments and one batch of inverse
        # transforms are alive
        import tracemalloc

        ts = make_ts(rng.standard_normal((40_000, 16)))
        regions = {"A": ts.labels[:8], "B": ts.labels[8:]}
        tracemalloc.start()
        try:
            pbc_table(ts, regions, [("A", "B")], [BANDS["alpha"]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * ts.data.nbytes + 3 * baselines._WORKSPACE_BYTES

    def test_peak_memory_bounded_at_a_long_lag_window(self, rng):
        # at max_lag 1024 (L' = 16384) the Gram of all 8 x 8 channels would
        # take 8.4 MB, and its product as much again; the screen's batches
        # keep each Gram and segment within the workspace, so only the
        # (pairs, lags) arrays of c and δ, eight at most, grow with the pairs
        import tracemalloc

        ts = make_ts(rng.standard_normal((4000, 16)))
        regions = {"A": ts.labels[:8], "B": ts.labels[8:]}
        tracemalloc.start()
        try:
            pbc_table(ts, regions, [("A", "B")], [BANDS["alpha"]], max_lag=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lagged = 64 * (2 * 1024 + 1) * 8
        assert peak < 2 * ts.data.nbytes + 3 * baselines._WORKSPACE_BYTES + 8 * lagged


@pytest.mark.parametrize("n", [15_000, 30_000])
def test_pbc_does_not_depend_on_blas_threads(n):
    # OpenBLAS splits a dot product of more than 10,000 elements between its
    # threads; `_corr_at_lag` sums pieces of at most 10,000 itself
    code = ("import sys; import numpy as np; from nvcoh.baselines import pbc; "
            f"x = np.random.default_rng(3).standard_normal((6, {n})); "
            "print(*(float(pbc(x[i], x[i + 1])).hex() for i in range(5)))")
    src = str(Path(baselines.__file__).parents[1])
    out = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
        out[threads] = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout
    assert out["1"] == out["2"]


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

    def test_band_shares_equal_rbp_band_by_band(self, rng):
        ts = make_ts(rng.standard_normal((5000, 2)), labels=("v", "w"))
        for ch in ts.labels:
            assert band_shares(ts, ch, CANONICAL_BANDS) == [
                rbp(ts, ch, band) for band in CANONICAL_BANDS]

    def test_no_power_in_the_bands_is_a_degeneracy(self):
        # a +-1-alternating channel holds all its power at the dropped
        # Nyquist ordinate
        ts = make_ts((-1.0) ** np.arange(5000), labels=("w",))
        with pytest.raises(DegenerateRanksError, match="no spectral power"):
            rbp(ts, "w", BANDS["alpha"])
