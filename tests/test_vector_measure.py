import math

import numpy as np
import pytest

from nvcoh import rank_core
from nvcoh.rank_core import xi_n
from nvcoh.vector_measure import (
    DegenerateDenominatorError,
    FeatureMatrixPair,
    PermutationPlan,
    make_plan,
    t_n,
    t_n_bar,
    t_n_star,
    term_seed,
)
from oracles import t_bar_reference, t_reference, t_star_reference


@pytest.fixture
def pair(rng):
    return FeatureMatrixPair(rng.standard_normal((120, 2)), rng.standard_normal((120, 2)))


class TestPermutationPlan:
    def test_exhaustive_when_budget_allows(self):
        plan = make_plan(3)
        assert plan.mode == "exhaustive"
        assert plan.n_perms == 6

    def test_sampled_for_large_q(self):
        plan = make_plan(6, seed=1)
        assert plan.mode == "sampled"
        assert plan.n_perms == 24
        assert len(set(plan.perms)) == 24

    def test_requesting_factorial_yields_exhaustive(self):
        plan = make_plan(3, n_perms=6)
        assert plan.mode == "exhaustive"

    def test_mode_consistency_enforced(self):
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 1), (1, 0)), mode="sampled")
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 1),), mode="exhaustive")

    def test_distinct_enforced(self):
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 1), (0, 1)), mode="exhaustive")

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 0),), mode="sampled")


class TestTn:
    def test_q1_reduces_to_xi_exactly(self, rng):
        x = rng.standard_normal((150, 2))
        y = rng.standard_normal((150, 1))
        s = term_seed(7, "y_on_x", "y0", ("x0", "x1"))
        assert t_n(FeatureMatrixPair(x, y), seed=7) == xi_n(y[:, 0], x, seed=s)

    @pytest.mark.parametrize("trial", range(10))
    def test_oracle_equivalence(self, trial):
        r = np.random.default_rng(trial)
        x = r.standard_normal((200, 2))
        y = r.standard_normal((200, 2))
        got = t_n(FeatureMatrixPair(x, y), seed=trial)
        want = t_reference(x, y, seed=trial)
        assert got == pytest.approx(want, abs=1e-12)

    def test_detects_functional_dependence(self, rng):
        x = rng.standard_normal((400, 2))
        y = np.column_stack([x[:, 0] ** 2, np.sin(x[:, 1])])
        assert t_n(FeatureMatrixPair(x, y), seed=0) > 0.5

    def test_monotone_transform_of_last_response_column(self, rng):
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2))
        base = t_n(FeatureMatrixPair(x, y), seed=3)
        y2 = y.copy()
        y2[:, 1] = np.exp(y2[:, 1])
        assert t_n(FeatureMatrixPair(x, y2), seed=3) == base

    def test_degenerate_guard_raises(self, pair):
        # with valid rank data the denominator never drops below 1, so the
        # guard is exercised by raising the tolerance above it
        with pytest.raises(DegenerateDenominatorError):
            t_n(pair, seed=0, eps=2.0)

    def test_row_count_validation(self, rng):
        with pytest.raises(ValueError):
            FeatureMatrixPair(rng.standard_normal((5, 1)), rng.standard_normal((6, 1)))
        with pytest.raises(ValueError):
            FeatureMatrixPair(np.array([[np.nan], [1.0]]), np.ones((2, 1)))


class TestTnBar:
    def test_q1_equals_t_n(self, rng):
        p = FeatureMatrixPair(rng.standard_normal((80, 2)), rng.standard_normal((80, 1)))
        assert t_n_bar(p, seed=4) == t_n(p, seed=4)

    def test_exhaustive_vs_shuffled_plan(self, rng):
        x = rng.standard_normal((90, 1))
        y = rng.standard_normal((90, 3))
        p = FeatureMatrixPair(x, y)
        exhaustive = make_plan(3)
        shuffled = PermutationPlan(q=3, perms=tuple(exhaustive.perms[::-1]),
                                   mode="exhaustive")
        a = t_n_bar(p, plan=exhaustive, seed=2)
        b = t_n_bar(p, plan=shuffled, seed=2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_column_relabeling_invariance(self, rng):
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal((100, 3))
        base = t_n_bar(FeatureMatrixPair(x, y), plan=make_plan(3), seed=6)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            relabeled = t_n_bar(FeatureMatrixPair(x, y[:, perm]), plan=make_plan(3), seed=6)
            assert relabeled == pytest.approx(base, abs=1e-12)

    def test_oracle_equivalence(self, rng):
        x = rng.standard_normal((70, 2))
        y = rng.standard_normal((70, 2))
        plan = make_plan(2)
        got = t_n_bar(FeatureMatrixPair(x, y), plan=plan, seed=5)
        want = t_bar_reference(x, y, ((0, 1), (1, 0)), seed=5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_plan_dimension_checked(self, pair):
        with pytest.raises(ValueError):
            t_n_bar(pair, plan=make_plan(3), seed=0)


class TestTnStar:
    def test_symmetric(self, rng):
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal((100, 3))
        a = t_n_star(FeatureMatrixPair(x, y), seed=8)
        b = t_n_star(FeatureMatrixPair(y, x), seed=8)
        assert a == b

    def test_dominates_each_direction(self, rng):
        x = rng.standard_normal((100, 2))
        y = rng.standard_normal((100, 2))
        pair = FeatureMatrixPair(x, y)
        star = t_n_star(pair, seed=1)
        assert star >= t_n_bar(pair, seed=1)
        assert star >= t_n_bar(pair.swapped(), seed=1)

    def test_identical_blocks_directions_agree(self, rng):
        x = rng.standard_normal((80, 2))
        pair = FeatureMatrixPair(x, x.copy())
        forward = t_n_bar(pair, seed=3)
        star = t_n_star(pair, seed=3)
        assert star == pytest.approx(forward, abs=1e-12)


def test_xi_sum_keeps_denominator_above_one(rng):
    # each xi value is bounded by 1, so the q-1 denominator terms cannot
    # push the denominator to zero; spot-check the bound on dependent data
    x = rng.standard_normal((60, 1))
    y = np.column_stack([x[:, 0], x[:, 0] + 1e-9 * rng.standard_normal(60)])
    val = t_n(FeatureMatrixPair(x, y), seed=0)
    assert math.isfinite(val)


def _tied_blocks(seed, n, p, q, kind):
    """Blocks whose predictor sets hold exact neighbour ties in many terms."""
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, p))
    y = r.standard_normal((n, q))
    if kind == "duplicates":
        # groups of identical rows: every member has several neighbours at 0
        for _ in range(n // 10):
            rows = r.choice(n, size=4, replace=False)
            x[rows] = x[rows[0]]
            y[rows] = y[rows[0]]
    elif kind == "rounded":
        x = np.round(x, 1)
        y = np.round(y, 1)
    else:  # a coarse lattice: which distances tie depends on the summation order
        x = r.integers(0, 4, size=(n, p)) * 0.1
    return x, y


class TestTermGraph:
    """Shared ranks and neighbour searches against term-by-term oracles."""

    @pytest.mark.parametrize("kind", ["duplicates", "rounded"])
    def test_ties_in_shared_predictor_sets(self, kind):
        x, y = _tied_blocks(11, 90, 2, 3, kind)
        plan = make_plan(3)
        got = t_n_bar(FeatureMatrixPair(x, y), plan=plan, seed=4)
        want = t_bar_reference(x, y, plan.perms, seed=4)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind, p, q", [("duplicates", 5, 4), ("lattice", 8, 2)])
    def test_wide_predictor_sets(self, kind, p, q):
        # eight or more predictor columns are summed pairwise, as the contract
        # metric is, not column by column
        x, y = _tied_blocks(12, 120, p, q, kind)
        plan = make_plan(q, n_perms=2, seed=1)
        pair = FeatureMatrixPair(x, y)
        assert t_n(pair, seed=6) == pytest.approx(t_reference(x, y, seed=6), abs=1e-12)
        got = t_n_bar(pair, plan=plan, seed=6)
        assert got == pytest.approx(t_bar_reference(x, y, plan.perms, seed=6), abs=1e-12)

    def test_labels_sort_as_strings(self):
        # with eleven predictor columns 'x10' sorts before 'x2', both in the
        # summation order of the distances and in every term's seed
        x, y = _tied_blocks(13, 60, 11, 2, "lattice")
        got = t_n(FeatureMatrixPair(x, y), seed=8)
        assert got == pytest.approx(t_reference(x, y, seed=8), abs=1e-12)

    @pytest.mark.parametrize("offset", [-1, 0])
    @pytest.mark.parametrize("kind", ["duplicates", "rounded"])
    def test_both_sides_of_backend_threshold(self, offset, kind):
        n = rank_core._EXHAUSTIVE_MAX_N + offset
        x, y = _tied_blocks(14 + offset, n, 2, 2, kind)
        plan = make_plan(2)
        got = t_n_bar(FeatureMatrixPair(x, y), plan=plan, seed=9)
        want = t_bar_reference(x, y, plan.perms, seed=9)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind", ["duplicates", "lattice", "continuous"])
    def test_t_n_star_is_max_of_both_directions(self, kind):
        if kind == "continuous":
            r = np.random.default_rng(15)
            x, y = r.standard_normal((80, 3)), r.standard_normal((80, 2))
        else:
            x, y = _tied_blocks(15, 80, 3, 2, kind)
        plan_x, plan_y = make_plan(3), make_plan(2)
        got = t_n_star(FeatureMatrixPair(x, y), plan_x=plan_x, plan_y=plan_y, seed=2)
        want = t_star_reference(x, y, plan_x.perms, plan_y.perms, seed=2)
        assert got == pytest.approx(want, abs=1e-12)
