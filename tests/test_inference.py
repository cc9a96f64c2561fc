import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcoh.inference import (
    NullEnsemble,
    bh_adjust,
    group_permutation_test,
    null_ensemble,
    p_value,
    p_values,
)
from nvcoh.rank_core import _xi_null_batch


class TestNullEnsemble:
    def test_bit_identical_for_same_parameters(self):
        a = null_ensemble(80, 2, n_reps=500, seed=42)
        b = null_ensemble(80, 2, n_reps=500, seed=42)
        assert np.array_equal(a.reps, b.reps)
        assert a.sha256() == b.sha256()

    def test_depends_only_on_parameters(self):
        # no data argument exists; different seeds give different draws
        a = null_ensemble(80, 2, n_reps=200, seed=1)
        b = null_ensemble(80, 2, n_reps=200, seed=2)
        assert not np.array_equal(a.reps, b.reps)

    def test_q1_replicates_are_plain_null_draws(self):
        ens = null_ensemble(60, 1, n_reps=3000, seed=3)
        direct = _xi_null_batch(60, 3000, np.random.default_rng(3))
        assert np.array_equal(ens.reps, direct)

    def test_null_centering_q2(self):
        ens = null_ensemble(100, 2, n_reps=100_000, seed=5)
        assert abs(ens.reps.mean()) < 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            null_ensemble(1, 1)
        with pytest.raises(ValueError):
            null_ensemble(10, 0)


class TestPValue:
    def test_statistic_above_all_replicates(self):
        ens = null_ensemble(50, 1, n_reps=1999, seed=0)
        assert p_value(float(ens.reps.max()) + 1.0, ens) == 1 / 2000

    def test_statistic_below_all_replicates(self):
        ens = null_ensemble(50, 1, n_reps=100, seed=0)
        assert p_value(float("-inf"), ens) == 1.0

    def test_nan_passes_through(self):
        ens = null_ensemble(50, 1, n_reps=100, seed=0)
        assert np.isnan(p_value(float("nan"), ens))

    def test_vector_matches_scalar(self):
        """Both equal the direct count on ties with replicates, on +-inf and NaN."""
        ens = null_ensemble(50, 2, n_reps=777, seed=1)
        stats = np.concatenate([ens.reps[:25], [np.nan, -np.inf, np.inf, 0.0]])
        vec = p_values(stats, ens)
        for s, v in zip(stats, vec):
            scalar = p_value(float(s), ens)
            if np.isnan(s):
                assert np.isnan(v) and np.isnan(scalar)
            else:
                direct = (1 + int((ens.reps >= s).sum())) / (ens.n_reps + 1)
                assert v == scalar == direct

    def test_in_unit_interval(self):
        ens = null_ensemble(50, 2, n_reps=321, seed=1)
        vec = p_values(ens.reps, ens)
        assert np.all((vec > 0) & (vec <= 1))


class TestBhAdjust:
    def test_hand_example(self):
        out = bh_adjust([0.01, 0.02, 0.03, 0.04])
        assert np.allclose(out, [0.04, 0.04, 0.04, 0.04])

    def test_single_value_unchanged(self):
        assert bh_adjust([0.2]).tolist() == [0.2]

    def test_all_equal_unchanged(self):
        assert np.allclose(bh_adjust([0.3, 0.3, 0.3]), 0.3)

    def test_adjusted_at_least_raw_and_capped(self, rng):
        p = rng.uniform(1e-6, 1.0, size=200)
        adj = bh_adjust(p)
        assert np.all(adj >= p - 1e-15)
        assert np.all(adj <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=60))
    def test_monotone_in_raw_pvalues(self, p):
        adj = bh_adjust(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bh_adjust([0.0, 0.5])
        with pytest.raises(ValueError):
            bh_adjust([1.5])


class TestGroupPermutationTest:
    def test_identical_samples(self):
        a = np.array([1.0, 2.0, 3.0])
        res = group_permutation_test(a, a.copy(), n_perms=500, seed=0)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_swap_invariance(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(17) + 0.4
        r1 = group_permutation_test(a, b, n_perms=999, seed=5)
        r2 = group_permutation_test(b, a, n_perms=999, seed=5)
        assert r1.p_value == r2.p_value
        assert r1.statistic == r2.statistic

    @pytest.mark.parametrize("sizes", [(7, 12), (1500, 1000)])
    def test_labels_follow_the_generators_keys(self, sizes, rng):
        # the smaller group takes the first columns of a stable argsort of
        # rng.random keys over the sorted pool; past 2048 values in the pool
        # the packed sort keeps only the keys' top bits
        a = rng.standard_normal(sizes[0])
        b = rng.standard_normal(sizes[1]) + 0.1
        res = group_permutation_test(a, b, n_perms=300, seed=3)
        pool = np.sort(np.concatenate([a, b]))
        keys = np.random.default_rng(3).random((300, pool.size))
        sums = pool[keys.argsort(axis=1, kind="stable")[:, :min(sizes)]].sum(axis=1)
        diff = np.abs(sums / min(sizes) - (pool.sum() - sums) / max(sizes))
        assert res.p_value == (1 + int((diff >= res.statistic).sum())) / 301

    def test_power_against_clear_shift(self):
        hits = 0
        for seed in range(50):
            r = np.random.default_rng(seed)
            a = r.normal(0.0, 1.0, 30)
            b = r.normal(2.0, 1.0, 30)
            res = group_permutation_test(a, b, n_perms=2000, seed=seed)
            hits += res.p_value < 0.01
        assert hits >= 49

    def test_decision_matches_alpha(self, rng):
        a = rng.normal(0, 1, 20)
        b = rng.normal(3, 1, 20)
        res = group_permutation_test(a, b, n_perms=500, seed=1, alpha=0.05)
        assert res.reject == (res.p_value < 0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            group_permutation_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            group_permutation_test([1.0, np.nan], [1.0, 2.0])


def test_ensemble_reps_shape_and_meta():
    ens = null_ensemble(30, 3, n_reps=50, seed=4)
    assert isinstance(ens, NullEnsemble)
    assert ens.n_reps == 50
    assert ens.structure == "t"
    assert np.isfinite(ens.reps).all()
