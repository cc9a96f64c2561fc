import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcoh import rank_core
from nvcoh.rank_core import DegenerateRanksError, _xi_null_batch, derive_seed, xi_n
from nvcoh.vector_measure import (
    FeatureMatrixPair,
    PermutationPlan,
    _montage_plan,
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

    def test_mode_follows_plan_size(self):
        assert PermutationPlan(q=2, perms=((1, 0), (0, 1))).mode == "exhaustive"
        assert PermutationPlan(q=2, perms=((1, 0),)).mode == "sampled"

    def test_distinct_enforced(self):
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 1), (0, 1)))

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            PermutationPlan(q=2, perms=((0, 0),))


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

    def test_row_count_validation(self, rng):
        with pytest.raises(ValueError):
            FeatureMatrixPair(rng.standard_normal((5, 1)), rng.standard_normal((6, 1)))
        with pytest.raises(ValueError):
            FeatureMatrixPair(np.array([[np.nan], [1.0]]), np.ones((2, 1)))
        # a (1, n) side is one row of n columns, not a column
        with pytest.raises(ValueError, match="same number of rows"):
            FeatureMatrixPair(rng.standard_normal((1, 6)), rng.standard_normal((6, 1)))
        for side in (1.0, np.zeros((6, 2, 2))):
            with pytest.raises(ValueError, match="vector or an"):
                FeatureMatrixPair(side, rng.standard_normal(6))

    def test_vector_sides_are_columns(self, rng):
        # tie-free, so no seed enters xi
        x = rng.standard_normal(150)
        y = rng.standard_normal(150)
        pair = FeatureMatrixPair(x, y)
        assert (pair.p, pair.q) == (1, 1)
        assert t_n(pair) == xi_n(y, x)
        assert t_n(pair) == t_n(FeatureMatrixPair(x[:, None], y[:, None]))


class TestTnBar:
    def test_q1_equals_t_n(self, rng):
        p = FeatureMatrixPair(rng.standard_normal((80, 2)), rng.standard_normal((80, 1)))
        assert t_n_bar(p, seed=4) == t_n(p, seed=4)

    def test_exhaustive_vs_shuffled_plan(self, rng):
        x = rng.standard_normal((90, 1))
        y = rng.standard_normal((90, 3))
        p = FeatureMatrixPair(x, y)
        exhaustive = make_plan(3)
        shuffled = PermutationPlan(q=3, perms=tuple(exhaustive.perms[::-1]))
        a = t_n_bar(p, plan=exhaustive, seed=2)
        b = t_n_bar(p, plan=shuffled, seed=2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_default_plan_keyed_by_dimension(self, rng):
        pair = FeatureMatrixPair(rng.standard_normal((40, 1)), rng.standard_normal((40, 5)))
        plan = make_plan(5, seed=derive_seed(3, "plan", 5))
        assert plan.mode == "sampled"
        assert t_n_bar(pair, seed=3) == t_n_bar(pair, plan=plan, seed=3)

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
        with pytest.raises(ValueError, match="^plan dimensions do not match the pair$"):
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
        assert star >= t_n_bar(FeatureMatrixPair(y, x), seed=1)

    @pytest.mark.parametrize("side", ["plan_x", "plan_y"])
    def test_plan_dimension_checked(self, pair, side):
        with pytest.raises(ValueError, match="^plan dimensions do not match the pair$"):
            t_n_star(pair, **{side: make_plan(3)}, seed=0)

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


@st.composite
def lattice_pairs(draw):
    """Tie-heavy blocks: a coarse lattice or rounded normals, rows duplicated."""
    n = draw(st.integers(2, 40))
    q = draw(st.integers(1, 4))
    p = draw(st.integers(1, 8 - q))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = r.integers(0, draw(st.integers(2, 4)), size=(n, p + q)) * 0.1
    else:
        base = np.round(r.standard_normal((n, p + q)), 1)
    z = base[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    z[0, np.ptp(z, axis=0) == 0] += 1.0  # every column may be a response
    return FeatureMatrixPair(z[:, :p], z[:, p:])


@settings(max_examples=60, deadline=None)
@given(lattice_pairs())
def test_xi_terms_at_most_one_and_denominators_at_least_one(pair):
    # sum(r) == sum(l) bounds every xi term by 1, so the response-only
    # denominator q - den_sum of every ordering, both ways, is at least 1
    sides = (("y_on_x", make_plan(pair.q).perms), ("x_on_y", make_plan(pair.p).perms))
    plan = _montage_plan((pair.p, pair.q), ((0, 1, sides),))
    vals = plan.term_values(np.hstack([pair.x, pair.y])[None], lambda f, i: 5)[0]
    assert (vals <= 1.0).all()
    for _, den_idx in plan.chains[0]:
        den_sum = np.zeros(den_idx.shape[0])
        for col in den_idx.T:  # in chain order, as the statistic sums them
            den_sum += vals[col]
        assert (den_idx.shape[1] + 1 - den_sum >= 1.0).all()
    assert xi_n(pair.y[:, 0], pair.x, seed=2) <= 1.0
    for stat in (t_n(pair, seed=3), t_n_bar(pair, seed=3), t_n_star(pair, seed=3)):
        assert math.isfinite(stat) and stat <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_null_draws_at_most_one(n, seed):
    assert _xi_null_batch(n, 500, np.random.default_rng(seed)).max() <= 1.0


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


# p, q in 1..4, so p + q = 8 reaches the widest set summed column by column
# (seven columns); (5, 4) adds eight-column sets, which take the contract's
# pairwise sum
_SHAPES = [(p, q) for p in range(1, 5) for q in range(1, 5)] + [(5, 4)]


@st.composite
def rounded_blocks(draw):
    """Values rounded to one decimal, rows duplicated, at sizes around 160.

    Exact ties hit neighbour searches and responses alike.  Every column
    varies, unless the predictor block's first column is made constant.
    """
    n = draw(st.sampled_from([2, 3, 12, 50, 159, 160, 170]))
    p, q = draw(st.sampled_from(_SHAPES))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = max(2, n // draw(st.sampled_from([1, 2, 4])))
    base = np.round(r.standard_normal((distinct, p + q)), 1)
    z = base[r.integers(0, distinct, size=n)]
    z[0, np.ptp(z, axis=0) == 0] += 1.0
    constant_x = draw(st.booleans())
    if constant_x:
        z[:, 0] = 0.5
    return z[:, :p], z[:, p:], constant_x


@settings(max_examples=40, deadline=None)
@given(rounded_blocks(), st.integers(0, 2**16))
def test_plan_equals_the_term_by_term_definition(blocks, seed):
    # the compiled plan against brute-force xi, term by term, bit for bit; a
    # constant predictor column is never ranked under t and tbar, but it is
    # a response of the reverse direction of tstar
    x, y, constant_x = blocks
    pair = FeatureMatrixPair(x, y)
    plan_x = make_plan(pair.p, n_perms=2, seed=seed)
    plan_y = make_plan(pair.q, n_perms=2, seed=seed + 1)
    got = t_n(pair, seed=seed)
    assert math.isfinite(got) and got == t_reference(x, y, seed=seed)
    got = t_n_bar(pair, plan=plan_y, seed=seed)
    assert got == t_bar_reference(x, y, plan_y.perms, seed=seed)
    if constant_x:
        with pytest.raises(DegenerateRanksError):
            t_n_star(pair, plan_x=plan_x, plan_y=plan_y, seed=seed)
    else:
        got = t_n_star(pair, plan_x=plan_x, plan_y=plan_y, seed=seed)
        assert got == t_star_reference(x, y, plan_x.perms, plan_y.perms, seed=seed)
