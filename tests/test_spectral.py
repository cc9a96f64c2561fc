import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nvcoh import spectral
from nvcoh.rank_core import derive_seed
from nvcoh.spectral import (
    CANONICAL_BANDS,
    BlockPeriodogramTensor,
    BlockTooLongError,
    EmptyBandError,
    FrequencyBand,
    SpectralDependenceProfile,
    TimeSeriesMatrix,
    band_summary,
    block_periodograms,
    nvc_profile,
    retained_indices,
)
from nvcoh.vector_measure import make_plan
from oracles import t_bar_reference, t_reference, t_star_reference


def make_ts(data, fs=100.0):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 1:
        data = data.T
    labels = tuple(f"c{i}" for i in range(data.shape[1]))
    return TimeSeriesMatrix(data, fs, labels)


class TestRetainedGrid:
    @pytest.mark.parametrize("block_len", [4, 5, 8, 9, 100, 101])
    def test_count_and_range(self, block_len):
        ks = retained_indices(block_len)
        assert ks[0] == 1
        assert ks.size == -(-block_len // 2) - 1  # ceil(B/2) - 1
        assert 0 not in ks
        if block_len % 2 == 0:
            assert block_len // 2 not in ks

    def test_alpha_band_members_default_grid(self):
        freqs = retained_indices(100) * 100.0 / 100
        band = FrequencyBand("alpha", 8, 12)
        assert freqs[band.mask(freqs)].tolist() == [9.0, 10.0, 11.0, 12.0]


class TestBlockPeriodograms:
    def test_on_grid_cosine(self):
        B, k0 = 100, 10
        t = np.arange(1, B + 1)
        x = np.cos(2 * np.pi * k0 * t / B)
        ts = make_ts(np.tile(x, 2))
        tensor = block_periodograms(ts, B)
        vals = tensor.values[0, 0, :]
        k_pos = k0 - 1  # retained grid starts at k=1
        assert vals[k_pos] == pytest.approx(B / 4, abs=1e-9)
        off = np.delete(vals, k_pos)
        assert np.abs(off).max() < 1e-9

    def test_zero_signal(self):
        ts = make_ts(np.zeros(400))
        tensor = block_periodograms(ts, 100)
        assert np.all(tensor.values == 0)

    def test_white_noise_mean_level(self, rng):
        # mean of each ordinate is sigma^2/sqrt(blocks) noisy, so 2e4 blocks
        # keep the +-3% check clear of its own Monte Carlo error
        sigma = 1.7
        ts = make_ts(sigma * rng.standard_normal(100 * 20_000))
        tensor = block_periodograms(ts, 100)
        means = tensor.values[:, 0, :].mean(axis=0)
        assert np.all(np.abs(means - sigma ** 2) < 0.03 * sigma ** 2)

    def test_parseval_per_block(self, rng):
        B = 64
        ts = make_ts(rng.standard_normal((B * 3, 2)))
        blocks = ts.data[: 3 * B].reshape(3, B, 2)
        full = np.abs(np.fft.fft(blocks, axis=1)) ** 2 / B
        total = full.sum(axis=1)
        expected = B * (blocks ** 2).mean(axis=1)
        assert np.allclose(total, expected, rtol=1e-6)

    def test_partial_trailing_block_discarded(self, rng):
        ts = make_ts(rng.standard_normal(250))
        tensor = block_periodograms(ts, 100)
        assert tensor.n_blocks == 2

    def test_block_too_long(self, rng):
        with pytest.raises(BlockTooLongError):
            block_periodograms(make_ts(rng.standard_normal(150)), 100)
        with pytest.raises(ValueError):
            block_periodograms(make_ts(rng.standard_normal(150)), 3)


class TestNvcProfile:
    def test_exact_copy_estimates_near_one(self, rng):
        x = make_ts(rng.standard_normal((200 * 100, 1)))
        y = TimeSeriesMatrix(x.data.copy(), x.fs, ("y0",))
        prof = nvc_profile(x, y, 100, measure="tbar", seed=0)
        assert np.nanmin(prof.estimates) >= 0.9

    def test_exact_copy_two_channels_many_blocks(self, rng):
        # multi-channel groups need more blocks: neighbor distances in the
        # joint feature space shrink like n**-0.5, not 1/n
        x = make_ts(rng.standard_normal((500 * 100, 2)))
        y = TimeSeriesMatrix(x.data.copy(), x.fs, ("y0", "y1"))
        prof = nvc_profile(x, y, 100, measure="tbar", seed=0)
        assert np.nanmin(prof.estimates) >= 0.9

    def test_scale_invariance_common_factor(self, rng):
        # one common factor across every channel rescales all feature
        # distances uniformly, so the neighbor graph and ranks are untouched;
        # different factors per group would change the mixed-predictor metric
        x = make_ts(rng.standard_normal((3000, 2)))
        y = make_ts(rng.standard_normal((3000, 2)))
        base = nvc_profile(x, y, 100, seed=4).estimates
        xs = TimeSeriesMatrix(x.data * 4.0, x.fs, x.labels)
        ys = TimeSeriesMatrix(y.data * 4.0, y.fs, y.labels)
        scaled = nvc_profile(xs, ys, 100, seed=4).estimates
        assert np.array_equal(base, scaled, equal_nan=True)

    def test_scale_invariance_single_channel_groups(self, rng):
        x = make_ts(rng.standard_normal(3000))
        y = make_ts(rng.standard_normal(3000))
        base = nvc_profile(x, y, 100, seed=4).estimates
        ys = TimeSeriesMatrix(y.data * 42.0, y.fs, y.labels)
        scaled = nvc_profile(x, ys, 100, seed=4).estimates
        assert np.array_equal(base, scaled, equal_nan=True)

    def test_block_shuffle_invariance(self, rng):
        B = 100
        x = make_ts(rng.standard_normal((40 * B, 1)))
        y = make_ts(rng.standard_normal((40 * B, 1)))
        base = nvc_profile(x, y, B, seed=9).estimates
        perm = np.random.default_rng(0).permutation(40)
        shuffle = lambda d: d.reshape(40, B, -1)[perm].reshape(40 * B, -1)
        xs = TimeSeriesMatrix(shuffle(x.data), x.fs, x.labels)
        ys = TimeSeriesMatrix(shuffle(y.data), y.fs, y.labels)
        shuffled = nvc_profile(xs, ys, B, seed=9).estimates
        assert np.array_equal(base, shuffled, equal_nan=True)

    def test_constant_channel_records_missing(self, rng):
        x = make_ts(np.zeros(2000))
        y = make_ts(rng.standard_normal(2000))
        prof = nvc_profile(y, x, 100, seed=0)
        assert np.isnan(prof.estimates).all()
        assert prof.meta["n_degenerate"] == prof.freqs_hz.size

    def test_few_blocks_warns(self, rng):
        x = make_ts(rng.standard_normal(900))
        y = make_ts(rng.standard_normal(900))
        with pytest.warns(UserWarning, match="blocks"):
            nvc_profile(x, y, 100, seed=0)

    def test_mismatched_bases_rejected(self, rng):
        x = make_ts(rng.standard_normal(2000), fs=100.0)
        y = make_ts(rng.standard_normal(2000), fs=50.0)
        with pytest.raises(ValueError):
            nvc_profile(x, y, 100)

    @pytest.mark.parametrize("measure", ["t", "tbar", "tstar"])
    def test_constant_column_at_one_frequency(self, monkeypatch, measure):
        # periodograms drawn directly: a response channel constant at one
        # frequency gives NaN there alone; a predictor channel constant at
        # another is never ranked under t and tbar, only under tstar
        n, block_len = 40, 20
        r = np.random.default_rng(3)
        values = {"x": r.exponential(size=(n, 2, 9)), "y": r.exponential(size=(n, 2, 9))}
        values["y"][:, 1, 2] = 0.7
        values["x"][:, 0, 5] = 0.7
        freqs = retained_indices(block_len) * 100.0 / block_len
        monkeypatch.setattr(spectral, "block_periodograms", lambda ts, _: (
            BlockPeriodogramTensor(values[ts.labels[0][0]], freqs)))
        x = TimeSeriesMatrix(np.zeros((n * block_len, 2)), 100.0, ("x0", "x1"))
        y = TimeSeriesMatrix(np.zeros((n * block_len, 2)), 100.0, ("y0", "y1"))
        prof = nvc_profile(x, y, block_len, measure=measure, seed=4)
        missing = [2, 5] if measure == "tstar" else [2]
        assert np.flatnonzero(np.isnan(prof.estimates)).tolist() == missing
        assert prof.meta["n_degenerate"] == len(missing)
        perms = make_plan(2).perms
        for i, k in enumerate(retained_indices(block_len)):
            if i in missing:
                continue
            xi, yi, seed = values["x"][:, :, i], values["y"][:, :, i], derive_seed(4, "freq", int(k))
            want = {"t": lambda: t_reference(xi, yi, seed),
                    "tbar": lambda: t_bar_reference(xi, yi, perms, seed),
                    "tstar": lambda: t_star_reference(xi, yi, perms, perms, seed)}[measure]()
            assert prof.estimates[i] == want


# (blocks, p, q): the matrix scan at three sizes and the k-d tree regime
_SHAPES = [(30, 2, 3), (80, 3, 1), (12, 4, 4), (170, 1, 2)]


def _tstar_profile(shape) -> np.ndarray:
    n_blocks, p, q = shape
    data = np.random.default_rng(sum(shape)).standard_normal((n_blocks * 20, p + q))
    x = TimeSeriesMatrix(data[:, :p], 100.0, tuple(f"a{i}" for i in range(p)))
    y = TimeSeriesMatrix(data[:, p:], 100.0, tuple(f"b{i}" for i in range(q)))
    return nvc_profile(x, y, 20, measure="tstar", seed=1).estimates


def test_interleaved_shapes_equal_fresh_processes():
    # term plans are cached across calls, and every sweep reuses one
    # workspace, which holds the previous sweep's matrices when it starts;
    # profiles of different shapes, interleaved in one process, equal each
    # shape's profile as the first call of a new interpreter
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(spectral.__file__).resolve().parents[1])
    fresh = []
    for shape in _SHAPES:
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "from test_spectral import _tstar_profile\n"
                f"print(_tstar_profile({shape!r}).tobytes().hex())")
        proc = subprocess.run([sys.executable, "-c", code, tests], capture_output=True,
                              text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        fresh.append(bytes.fromhex(proc.stdout.strip()))
    for i in (0, 2, 1, 3, 2, 0, 3, 1):
        assert _tstar_profile(_SHAPES[i]).tobytes() == fresh[i]


class TestBandSummary:
    def profile_with(self, estimates):
        freqs = retained_indices(100) * 1.0
        return SpectralDependenceProfile(freqs_hz=freqs,
                                         estimates=np.asarray(estimates, dtype=float))

    def test_constant_profile(self):
        prof = self.profile_with(np.full(49, 0.37))
        out = band_summary(prof)
        assert all(v == pytest.approx(0.37) for v in out.values())

    def test_missing_values_excluded(self):
        est = np.full(49, 0.5)
        est[9] = np.nan  # 10 Hz
        out = band_summary(self.profile_with(est))
        assert out["alpha"] == pytest.approx(0.5)

    def test_empty_band_raises(self):
        prof = self.profile_with(np.full(49, 0.1))
        with pytest.raises(EmptyBandError):
            band_summary(prof, bands=(FrequencyBand("sub", 0.0, 0.5),))

    def test_canonical_bands_partition(self):
        freqs = retained_indices(100) * 1.0
        in_range = (freqs > 0.5) & (freqs <= 45)
        covered = np.zeros_like(freqs, dtype=int)
        for band in CANONICAL_BANDS:
            covered += band.mask(freqs).astype(int)
        assert np.array_equal(covered.astype(bool), in_range)
        assert covered.max() == 1


class TestTimeSeriesMatrix:
    def test_select_preserves_order(self, rng):
        ts = TimeSeriesMatrix(rng.standard_normal((10, 3)), 10.0, ("a", "b", "c"))
        sub = ts.select(["c", "a"])
        assert sub.labels == ("c", "a")
        assert np.array_equal(sub.data[:, 0], ts.data[:, 2])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            TimeSeriesMatrix(rng.standard_normal((5, 2)), 0.0, ("a", "b"))
        with pytest.raises(ValueError):
            TimeSeriesMatrix(rng.standard_normal((5, 2)), 10.0, ("a", "a"))
        with pytest.raises(KeyError):
            TimeSeriesMatrix(rng.standard_normal((5, 2)), 10.0, ("a", "b")).select(["z"])
