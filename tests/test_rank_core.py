from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from nvcoh import rank_core
from nvcoh.rank_core import (
    DegenerateRanksError,
    RankTriple,
    compute_ranks,
    nearest_neighbors,
    search_all,
    xi_from_ranks,
    xi_n,
    xi_null,
)
from oracles import (brute_force_neighbors, counting_ranks, xi_null_reference,
                     xi_reference)


class TestComputeRanks:
    def test_distinct_values(self):
        r, l = compute_ranks([10, 30, 20])
        assert r.tolist() == [1, 3, 2]
        assert l.tolist() == [3, 1, 2]

    def test_full_tie(self):
        r, l = compute_ranks([5, 5])
        assert r.tolist() == [2, 2]
        assert l.tolist() == [2, 2]

    def test_permutation_property_continuous(self, rng):
        u = rng.standard_normal(1000)
        r, l = compute_ranks(u)
        assert sorted(r.tolist()) == list(range(1, 1001))
        assert np.array_equal(l, 1000 - r + 1)

    def test_rejects_nan_and_short(self):
        with pytest.raises(ValueError):
            compute_ranks([1.0, np.nan])
        with pytest.raises(ValueError):
            compute_ranks([1.0, np.inf])
        with pytest.raises(ValueError):
            compute_ranks([1.0])

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=40))
    def test_matches_counting_oracle(self, values):
        r, l = compute_ranks(np.asarray(values, dtype=float))
        er, el = counting_ranks(values)
        assert np.array_equal(r, er)
        assert np.array_equal(l, el)


class TestNearestNeighbors:
    def test_line_example(self):
        nn = nearest_neighbors([[1], [2], [4]])
        assert nn.n_of.tolist() == [1, 0, 1]

    def test_never_self(self, rng):
        v = rng.standard_normal((50, 2))
        nn = nearest_neighbors(v, seed=3)
        assert not np.any(nn.n_of == np.arange(50))
        # every square overflows: all other rows tie at inf, the row itself never
        assert nearest_neighbors([0.0, 1e200, 2e200], seed=0).n_of.tolist() == [2, 2, 1]

    def test_deterministic_for_seed(self, rng):
        v = np.repeat(rng.standard_normal((10, 3)), 2, axis=0)
        a = nearest_neighbors(v, seed=11).n_of
        b = nearest_neighbors(v, seed=11).n_of
        assert np.array_equal(a, b)

    def test_identical_rows_uniform_tiebreak(self):
        # all rows coincide: each point's neighbor should be uniform over the
        # other four across seeds (chi-square on 10^4 seeded runs)
        v = np.ones((5, 2))
        counts = np.zeros((5, 5))
        for seed in range(10_000):
            nn = nearest_neighbors(v, seed=seed).n_of
            for j in range(5):
                counts[j, nn[j]] += 1
        for j in range(5):
            others = np.delete(counts[j], j)
            chi2 = ((others - 2500.0) ** 2 / 2500.0).sum()
            assert chi2 < 16.27  # chi-square(3) at the 0.1% level

    @pytest.mark.parametrize("trial", range(40))
    def test_brute_force_equivalence(self, trial):
        r = np.random.default_rng(trial)
        n = int(r.integers(2, 220))
        d = int(r.integers(1, 5))
        v = r.standard_normal((n, d))
        if trial % 3 == 1 and n > 6:
            v[r.integers(0, n, size=4)] = v[r.integers(0, n)]
        if trial % 3 == 2:
            v = np.round(v, 1)
        got = nearest_neighbors(v, seed=trial).n_of
        want = brute_force_neighbors(v, seed=trial)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["lattice", "scaled_duplicates", "ulp"]),
           d=st.integers(2, 4), extra=st.integers(0, 40))
    def test_kdtree_near_ties_match_brute_force(self, seed, kind, d, extra):
        # above the threshold the k-d tree's distances decide, and only its
        # relative near-tie re-check keeps the exact tie-break convention
        n = rank_core._EXHAUSTIVE_MAX_N + extra
        r = np.random.default_rng(seed)
        if kind == "lattice":
            v = r.integers(0, 5, size=(n, d)) * 0.1
        elif kind == "scaled_duplicates":
            base = r.standard_normal((n // 4, d))
            v = base[r.integers(0, base.shape[0], size=n)]
            v = v * 10.0 ** r.integers(-6, 7)
        else:  # duplicates moved by one ulp in random coordinates
            base = r.standard_normal((n // 3, d))
            v = base[r.integers(0, base.shape[0], size=n)]
            moved = r.random((n, d)) < 0.3
            v[moved] = np.nextafter(v[moved], np.where(r.random(moved.sum()) < 0.5,
                                                       -np.inf, np.inf))
        got = nearest_neighbors(v, seed=seed).n_of
        assert np.array_equal(got, brute_force_neighbors(v, seed=seed))

    def test_kdtree_query_that_leaves_a_row_out(self):
        # eight exact copies of one row: the tree's three nearest of a copy
        # may be three other copies, so the row itself is not among them and
        # only the exact re-check at distance zero finds every candidate
        r = np.random.default_rng(0)
        v = r.standard_normal((170, 3))
        v[r.choice(170, 8, replace=False)] = v[0]
        assert v.shape[0] >= rank_core._EXHAUSTIVE_MAX_N
        _, ii = cKDTree(v).query(v, k=3)
        assert (ii != np.arange(170)[:, None]).all(axis=1).any()
        for seed in range(4):
            got = nearest_neighbors(v, seed=seed).n_of
            assert np.array_equal(got, brute_force_neighbors(v, seed=seed))

    @pytest.mark.parametrize("offset", [-60, 0])
    def test_column_major_input_matches_contract(self, offset):
        # eight-column lattice rows: ties hinge on the pairwise row sums
        n = rank_core._EXHAUSTIVE_MAX_N + offset
        v = np.random.default_rng(n).integers(0, 4, size=(n, 8)) * 0.1
        got = nearest_neighbors(np.asfortranarray(v), seed=3).n_of
        assert np.array_equal(got, brute_force_neighbors(v, seed=3))

    @pytest.mark.parametrize("n", [3, 40, rank_core._EXHAUSTIVE_MAX_N + 20])
    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_overflowing_squares_match_brute_force(self, n, d):
        # squares that overflow are inf and tie with each other, never with the
        # row's own inf diagonal: matrix scan, sorted scan and k-d tree alike
        r = np.random.default_rng(n * d)
        scale = 10.0 ** r.choice([0, 150, 160, 200, 307], size=(n, 1))
        v = r.standard_normal((n, d)) * scale
        for seed in range(3):
            want = brute_force_neighbors(v, seed=seed)
            assert np.array_equal(nearest_neighbors(v, seed=seed).n_of, want)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_neighbors([[1.0]])
        with pytest.raises(ValueError):
            nearest_neighbors([[1.0], [np.nan]])


class TestNeighborSearch:
    @pytest.mark.parametrize("n", [60, rank_core._EXHAUSTIVE_MAX_N + 5])
    def test_column_sets_match_brute_force(self, n):
        # lattice rows, so ties hinge on the summation order of each set; the
        # contract sums C-contiguous rows, which column selection need not give
        z = np.random.default_rng(n).integers(0, 4, size=(n, 11)) * 0.1
        for cols in [(0,), (0, 1), (0, 1, 2), (2, 5, 7), (1, 0), tuple(range(7)),
                     tuple(range(8)), (10, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0)]:
            got = search_all(z[None], [cols]).resolve(0, 0, 4)
            want = brute_force_neighbors(np.ascontiguousarray(z[:, cols]), seed=4)
            assert np.array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["cancellation", "underflow", "offset",
                                 "duplicates", "integers"]),
           n=st.one_of(st.integers(3, rank_core._EXHAUSTIVE_MAX_N - 1),
                       st.integers(rank_core._EXHAUSTIVE_MAX_N,
                                   rank_core._EXHAUSTIVE_MAX_N + 60)))
    def test_single_column_matches_brute_force(self, seed, kind, n):
        # squared gaps that differ in value can round to equal floats or to
        # zero, so every minimiser must come from the exact metric
        r = np.random.default_rng(seed)
        steps = np.arange(1, n - 1, dtype=np.float64)
        if kind == "cancellation":
            v = np.concatenate(([1e3], np.arange(1, n) * 1e-14))
        elif kind == "underflow":
            v = np.concatenate(([0.0, 0.0], steps * 1e-170))
        elif kind == "offset":
            v = np.concatenate(([-2.0**60, 0.0], steps))
        elif kind == "duplicates":
            base = r.standard_normal(max(n // 4, 1))
            v = base[r.integers(0, base.size, size=n)]
        else:
            v = r.integers(0, 20, size=n).astype(np.float64)
        v = r.permutation(v)
        want = brute_force_neighbors(v, seed=seed)
        assert np.array_equal(nearest_neighbors(v, seed=seed).n_of, want)
        # the column as a strided selection of a wider matrix
        z = np.column_stack([r.standard_normal(n), v])
        found = search_all(z[None], [(1,)])
        assert np.array_equal(found.resolve(0, 0, seed), want)

    def test_overflowing_squares_in_several_column_sets(self):
        # each search silences the overflow on its own, one set after another;
        # from _EXHAUSTIVE_MAX_N rows one column takes the sorted scan and the
        # wider sets the matrix scan, since the tree fails on such squares
        for n in (40, rank_core._EXHAUSTIVE_MAX_N + 5):
            z = np.random.default_rng(5).standard_normal((n, 3)) * 1e200
            for cols in [(0,), (0, 1), (2, 1, 0)]:
                want = brute_force_neighbors(np.ascontiguousarray(z[:, cols]), seed=1)
                assert np.array_equal(search_all(z[None], [cols]).resolve(0, 0, 1), want)

    @pytest.mark.parametrize("n", [60, rank_core._EXHAUSTIVE_MAX_N + 5])
    def test_sweep_matches_brute_force(self, n):
        # one sweep over sorted sets that share prefixes, narrow and wide
        # (eight and nine columns are summed pairwise, as the contract does)
        z = np.random.default_rng(n + 1).integers(0, 4, size=(n, 9)) * 0.1
        sets = sorted([(0,), (0, 1), (0, 1, 2), (0, 1, 3), (0, 2), (1,), (1, 2, 3, 4),
                       (1, 2, 3, 5), (2, 4, 6, 8), tuple(range(7)), tuple(range(8)),
                       tuple(range(9)), (3, 4, 5, 6, 7, 8), (8,)])
        found = search_all(z[None], sets)
        for s, cols in enumerate(sets):
            want = brute_force_neighbors(np.ascontiguousarray(z[:, cols]), seed=2)
            assert np.array_equal(found.resolve(s, 0, 2), want)

    def test_rows_whose_every_square_overflows(self):
        # at 1e154 a gap of 2e154 squares past the largest float64: row 0's
        # best squared distance is inf in every set, so the tie check hands
        # it to the inf-row branch (the sorted scan's exact re-check from
        # _EXHAUSTIVE_MAX_N rows on), which draws among all other rows
        for n in (40, rank_core._EXHAUSTIVE_MAX_N + 5):
            r = np.random.default_rng(6)
            z = np.round(r.standard_normal((n, 3)), 1) * 1e150 - 1e154
            z[0] = 1e154
            z[1] = z[2]
            sets = [(0,), (0, 1), (0, 1, 2), (0, 2), (1, 2), (2,)]
            found = search_all(z[None], sets)
            for s, cols in enumerate(sets):
                want = brute_force_neighbors(np.ascontiguousarray(z[:, cols]), seed=3)
                assert np.array_equal(found.resolve(s, 0, 3), want)
                assert 0 in dict(found.tied[s, 0])
            assert np.array_equal(nearest_neighbors(z, seed=3).n_of,
                                  brute_force_neighbors(z, seed=3))
        # with two rows, the other row is a single candidate, never a tie
        assert nearest_neighbors([[1e154], [-1e154]]).n_of.tolist() == [1, 0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n=st.one_of(st.integers(2, 40), st.integers(100, rank_core._EXHAUSTIVE_MAX_N - 1),
                   st.integers(rank_core._EXHAUSTIVE_MAX_N,
                               rank_core._EXHAUSTIVE_MAX_N + 10)),
       k=st.integers(2, 4), d=st.integers(1, 9),
       large=st.sampled_from([0.5, 1.0, 4.0, 1e3]))
def test_stacked_terms_equal_one_matrix_calls(seed, n, k, d, large):
    # k stacked frequencies give, bit for bit, the values of k one-frequency
    # calls: the lattice frequencies have exact ties, drawn with each
    # frequency's own term seeds; frequency 0 has a constant response row; the
    # last frequency's entries reach the magnitude from which squares may
    # overflow (times ``large``), so its sweep silences the overflow.  Terms 0
    # and 1 share a response and a set but not a seed: the evaluator reduces
    # each (response, set) once, yet each term draws its own ties
    r = np.random.default_rng(seed)
    # every set below is a subset of all d columns, so those fix the stack
    # depth; from 100 rows on, the call takes more matrices than one stack
    # holds, and the first matrix of the second stack has ties
    depth = rank_core._stack_depth([tuple(range(d))], n)
    several = 100 <= n < rank_core._EXHAUSTIVE_MAX_N
    if several:
        k += depth
    lattice = r.random(k) < 0.5
    if several:
        lattice[depth] = True
    z = np.where(lattice[:, None, None], r.integers(0, 3, size=(k, n, d)) * 0.1,
                 r.standard_normal((k, n, d)))
    y = np.where(lattice[:, None, None], r.integers(0, 3, size=(k, 3, n)),
                 r.standard_normal((k, 3, n)))
    y[0, 1] = 2.0
    z[-1, 0] = 1.0
    z[-1] *= large * rank_core._square_safe_magnitude(d) / np.abs(z[-1]).max()
    # sets in lexicographic order; all d columns make one wider than 7 from d = 8
    sets = sorted({tuple(r.permutation(d)[:r.integers(1, d + 1)].tolist())
                   for _ in range(6)} | {tuple(range(d))})
    term_set = r.integers(0, len(sets), size=8)
    term_resp = r.integers(0, 3, size=8)
    term_set[1], term_resp[1] = term_set[0], term_resp[0]
    seeds = r.integers(0, 2**63, size=(k, 8)).tolist()
    got = rank_core._xi_terms(y, z, sets, term_resp, term_set,
                              lambda f, t: seeds[f][t])
    assert got.shape == (k, 8)
    for f in range(k):
        want = rank_core._xi_terms(y[f:f + 1], z[f:f + 1], sets, term_resp, term_set,
                                   lambda _, t: seeds[f][t])
        assert got[f].tobytes() == want[0].tobytes()
    assert np.isnan(got[0, term_resp == 1]).all()
    # every term on a lattice frequency is the stand-alone xi of its response
    # on its set, ties drawn with its own seed
    for f in np.flatnonzero(lattice).tolist():
        for t in range(8):
            u, v = y[f, term_resp[t]], z[f][:, list(sets[term_set[t]])]
            if np.isnan(got[f, t]):
                with pytest.raises(DegenerateRanksError):
                    xi_n(u, v, seed=seeds[f][t])
            else:
                assert got[f, t] == xi_n(u, v, seed=seeds[f][t])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 40), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_row_ranks_match_counting_oracle(m, n, spread, seed):
    u = np.random.default_rng(seed).integers(0, spread, size=(m, n)).astype(float)
    r, l = rank_core._row_ranks(u)
    # one stable sort for every row, the tied rows ranked by binary search;
    # `compute_ranks` is the one-row case
    for row, r_row, l_row in zip(u, r, l):
        want_r, want_l = counting_ranks(row)
        assert np.array_equal(r_row, want_r) and np.array_equal(l_row, want_l)
        one_r, one_l = compute_ranks(row)
        assert np.array_equal(one_r, want_r) and np.array_equal(one_l, want_l)


class TestXiFromRanks:
    def test_hand_examples(self):
        assert xi_from_ranks(RankTriple(r=[1, 2, 3], l=[3, 2, 1], r_nn=[1, 2, 3])) == 1.0
        assert xi_from_ranks(RankTriple(r=[1, 2, 3], l=[3, 2, 1], r_nn=[2, 1, 2])) == -0.5
        assert xi_from_ranks(RankTriple(r=[1, 2, 3, 4], l=[4, 3, 2, 1],
                                        r_nn=[2, 1, 2, 3])) == -0.2

    def test_null_device_hand_example(self):
        # forced null triple: permutation (2,3,1), complementary counts,
        # with-replacement neighbor ranks (1,1,2)
        triple = RankTriple(r=[2, 3, 1], l=[2, 1, 3], r_nn=[1, 1, 2])
        assert xi_from_ranks(triple) == -1.25

    def test_degenerate_ranks(self):
        with pytest.raises(DegenerateRanksError):
            xi_from_ranks(RankTriple(r=[2, 2], l=[2, 2], r_nn=[1, 2]))

    def test_sums_exact_past_int64(self):
        # from about 3.8 million rows the denominator (n^3 - n)/6 passes
        # 2**63; both sums stay exact and the ratio is correctly rounded
        n = 4_000_000
        rng = np.random.default_rng(1)
        r = rng.permutation(n) + 1
        l = n + 1 - r
        r_nn = np.clip(r + rng.integers(-2, 3, size=n), 1, n)

        def exact_sum(terms):  # chunks of 4000 terms stay far below 2**63
            return sum(int(chunk.sum()) for chunk in np.array_split(terms, 1000))

        want = Fraction(exact_sum(n * np.minimum(r, r_nn) - l * l), exact_sum(l * (n - l)))
        got = xi_from_ranks(RankTriple(r=r, l=l, r_nn=r_nn))
        assert got == float(want) and got <= 1.0

    def test_validates_shape(self):
        with pytest.raises(ValueError):
            RankTriple(r=[1, 2], l=[2, 1], r_nn=[1, 2, 3])
        with pytest.raises(ValueError):
            RankTriple(r=[0, 2], l=[2, 1], r_nn=[1, 2])

    @pytest.mark.parametrize("name, value", [("r", [1.5, 2, 3]), ("r_nn", [2.9, 1, 2]),
                                             ("l", [3, 2, np.nan]), ("r", [1, 2, np.inf])])
    def test_refuses_non_integer_ranks(self, name, value):
        # a fractional rank used to be truncated silently
        ranks = {"r": [1, 2, 3], "l": [3, 2, 1], "r_nn": [2, 1, 2], name: value}
        with pytest.raises(ValueError, match=f"^{name} entries must be whole numbers"):
            RankTriple(**ranks)
        # whole numbers stored as floats are ranks
        assert xi_from_ranks(RankTriple(r=[1.0, 2, 3], l=[3, 2, 1.0], r_nn=[2, 1, 2])) == -0.5


class TestXiN:
    def test_hand_example(self):
        assert xi_n([1, 2, 4, 8], [[1], [2], [4], [8]]) == -0.2

    def test_all_tied_response(self, rng):
        with pytest.raises(DegenerateRanksError):
            xi_n(np.ones(20), rng.standard_normal(20))

    def test_monotone_dependence_high(self, rng):
        v = rng.standard_normal(2000)
        assert xi_n(np.exp(v), v) >= 0.95

    def test_independence_small(self):
        hits = 0
        for seed in range(500):
            r = np.random.default_rng(seed)
            val = xi_n(r.standard_normal(2000), r.standard_normal(2000), seed=seed)
            hits += abs(val) <= 0.1
        assert hits >= 475  # 95% of replicates

    def test_perfect_dependence_limit(self):
        for n in (100, 1000):
            grid = np.arange(1, n + 1, dtype=float)
            assert xi_n(grid, grid, seed=0) >= 1 - 10 / n

    def test_rank_invariance_u_transforms(self, rng):
        u = rng.standard_normal(300)
        v = rng.standard_normal((300, 2))
        base = xi_n(u, v, seed=5)
        for f in (np.exp, np.arctan, lambda z: z ** 3 + 2 * z):
            assert xi_n(f(u), v, seed=5) == base

    def test_neighbor_invariance_shared_scaling(self, rng):
        # common positive scaling plus per-coordinate shifts preserve the
        # neighbor graph exactly
        u = rng.standard_normal(300)
        v = rng.standard_normal((300, 3))
        base = xi_n(u, v, seed=5)
        assert xi_n(u, 2.5 * v + np.array([1.0, -2.0, 0.5]), seed=5) == base

    def test_scalar_predictor_monotone_invariance(self, rng):
        # for a scalar predictor an affine increasing map keeps all gaps
        # proportional, hence the same neighbors
        u = rng.standard_normal(500)
        v = rng.standard_normal(500)
        assert xi_n(u, 0.3 * v + 7.0, seed=2) == xi_n(u, v, seed=2)

    @pytest.mark.parametrize("trial", range(60))
    def test_oracle_equivalence(self, trial):
        # bit for bit: the oracle's ratio is an exact fraction whose numerator
        # and denominator stay below 2**53, so one float division rounds both
        # the same way
        r = np.random.default_rng(100 + trial)
        edge = (2, 3, rank_core._EXHAUSTIVE_MAX_N - 1, rank_core._EXHAUSTIVE_MAX_N,
                rank_core._EXHAUSTIVE_MAX_N + 1)
        n = edge[trial % 5] if trial >= 30 else int(r.integers(2, 300))
        d = int(r.integers(1, 5))
        v = r.standard_normal((n, d))
        if trial % 3 == 1:  # a lattice of 0, 1 or 2 decimals: distance ties
            v = np.round(v, trial // 3 % 3)
        elif trial % 3 == 2:  # duplicated predictor rows
            v = v[r.integers(0, max(n // 3, 1), size=n)]
        u = r.standard_normal(n)
        if trial % 4 == 0:
            u = np.round(u, 1)
        assert xi_n(u, v, seed=trial) == xi_reference(u, v, seed=trial)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            xi_n(rng.standard_normal(5), rng.standard_normal((6, 1)))

    @pytest.mark.parametrize("u, v", [
        (np.ones(5), np.arange(6.0)),                   # length mismatch
        (np.ones(5), np.ones((5, 0))),                  # no predictor column
        (np.ones(5), np.ones((5, 2, 1))),               # not a matrix
        (np.ones(1), np.ones(1)),                       # one row
        (np.ones(5), [0.0, 1.0, np.nan, 3.0, 4.0]),     # non-finite v
        (np.r_[np.ones(4), np.inf], np.arange(5.0)),    # non-finite u
    ])
    def test_bad_input_refused_before_a_constant_response(self, u, v):
        # every response is constant where it is finite, but the bad input
        # is what gets reported
        with pytest.raises(ValueError) as info:
            xi_n(u, v)
        assert not isinstance(info.value, DegenerateRanksError)


class TestXiNull:
    def test_deterministic(self):
        assert xi_null(50, seed=9) == xi_null(50, seed=9)

    def test_draw_from_its_seed(self):
        from nvcoh.rank_core import _xi_null_batch
        for n, seed in ((2, 0), (50, 9), (300, 123)):
            want = _xi_null_batch(n, 1, np.random.default_rng(seed))[0]
            assert xi_null(n, seed=seed) == want

    @pytest.mark.parametrize("n, count", [(2, 50), (40, 300), (595, 6800)])
    def test_batch_equals_the_definition(self, n, count):
        # 6800 draws at n = 595 span two chunks of the generator stream
        ref, rng = np.random.default_rng(n), np.random.default_rng(n)
        want = xi_null_reference(n, count, ref)
        got = rank_core._xi_null_batch(n, count, rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_takes_no_data(self):
        # signature admits only the sample size and seed
        vals = [xi_null(100, seed=s) for s in range(5)]
        assert len(set(vals)) > 1

    def test_null_centering(self):
        from nvcoh.rank_core import _xi_null_batch
        for n in (50, 100):
            draws = _xi_null_batch(n, 100_000, np.random.default_rng(7))
            assert abs(draws.mean()) < 0.005

    def test_batch_matches_law_of_single_draws(self):
        # means and spreads of the two samplers agree
        from nvcoh.rank_core import _xi_null_batch
        singles = np.array([xi_null(40, seed=s) for s in range(4000)])
        batch = _xi_null_batch(40, 4000, np.random.default_rng(0))
        assert abs(singles.mean() - batch.mean()) < 0.01
        assert abs(singles.std() - batch.std()) < 0.01

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            xi_null(1)

    @pytest.mark.parametrize("n, count", [
        (115, 2 * 569 + 100),  # mid-block inside the first chunk
        (1000, 4000 + 2 * 65 + 10),  # mid-block inside the second chunk
        (255, 600),  # the largest n whose ranks fit uint8
        (256, 600),  # the smallest n whose ranks need uint16
        (70_000, 5),  # row blocks of a single row
        (2, 3000),  # one-bit column indices
        (3, 3000),
        (2048, 70),  # the most columns whose packed keys fit 64 bits
        (2049, 70),  # the fewest that take argsort
        (1331, 3100),  # a chunk of 3005 rows that ends on a spare 32-bit half
    ])
    def test_streamed_batch_equals_the_definition(self, n, count):
        # chunks hold 4_000_000 // n rows and row blocks 2**16 // n (at least 1);
        # the draw skips each chunk's keys with `advance`, which clears the
        # spare half of a 64-bit word that `integers` keeps, so the stream
        # after a chunk ending on such a half must still match
        seed = {1331: 0}.get(n, n)
        if n == 1331:
            first = np.random.default_rng(seed)
            xi_null_reference(n, 4_000_000 // n, first)
            assert first.bit_generator.state["has_uint32"] == 1
        ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = xi_null_reference(n, count, ref)
        got = rank_core._xi_null_batch(n, count, rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_draw_past_int64_sums_is_exact(self):
        # from about 2.64 million rows n * sum(min(r0, r0_nn)) passes 2**63,
        # and from about 3.02 million sum(l0**2) does
        n = 3_100_000
        got = xi_null(n, seed=4)
        rng = np.random.default_rng(4)
        r0 = np.empty(n, dtype=np.int64)
        r0[rng.random((1, n)).argsort(axis=1)[0]] = np.arange(1, n + 1)
        r0_nn = rng.integers(1, n + 1, size=(1, n), dtype=np.int64)[0]
        l0 = n + 1 - r0

        def exact_sum(terms):  # int64 sums of 100,000 terms of at most n**2
            return sum(int(c) for c in terms.reshape(-1, 100_000).sum(axis=1))

        want = Fraction(exact_sum(n * np.minimum(r0, r0_nn) - l0 * l0),
                        exact_sum(l0 * (n - l0)))
        assert got == float(want)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [2, 115, 2048])
    def test_keys_are_multiples_of_2_to_the_minus_53(self, n, seed):
        # the packed sort of the null draw reads raw 64-bit words as the keys
        # of `Generator.random`: each key is (word >> 11) * 2**-53
        words = np.random.default_rng(seed).bit_generator.random_raw((40, n))
        keys = np.random.default_rng(seed).random((40, n))
        assert ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53 == keys).all()
        assert ((words >> np.uint64(11)) < 2**53).all()

    @pytest.mark.parametrize("n", [115, 2048, 2049, 3000])
    def test_tied_keys_rank_by_column(self, n):
        # a stand-in generator: in two rows the keys take three values, so
        # nearly all tie, and equal keys must rank in column order; in the
        # third, falling keys 0..n-1 apart by one in their lowest bit, which
        # past 2048 columns the packed sort leaves out, must rank by key
        class TiedKeys:
            def __init__(self, words):
                self.words, self.bit_generator = words, self

            def random_raw(self, size):
                return self.words[:size[0]].copy()

            def random(self, size):  # the keys `Generator.random` makes of the words
                return (self.words[:size[0]] >> np.uint64(11)) * 2.0**-53

        m = 3
        words = np.random.default_rng(n).integers(1, 4, (m, n)).astype(np.uint64)
        words <<= np.uint64(62)
        words[2] = np.arange(n, dtype=np.uint64)[::-1] << np.uint64(11)
        keys = (words >> np.uint64(11)).astype(np.float64)
        ranks = rank_core._key_ranker(n, m)(TiedKeys(words), m)
        assert (ranks[2] == np.arange(n, 0, -1)).all()
        for key, r in zip(keys, ranks):
            # the keys below each one, and the equal keys up to its column
            equal = key[:, None] == key[None, :]
            want = (key[None, :] < key[:, None]).sum(axis=1) + np.tril(equal).sum(axis=1)
            assert (r == want).all()

    @pytest.mark.parametrize("n", [115, 595])
    def test_batch_memory_stays_below_a_chunk(self, n):
        # one chunk of float keys alone takes 32 MiB; the draw holds its
        # output and a few row blocks of 2**16 entries: the raw key words,
        # the neighbour ranks and the small rank buffers (about 3.7 blocks
        # at n = 115 and 2.6 at 595; with a float key buffer beside the
        # packed keys, 5.8 and 4.6)
        import tracemalloc

        tracemalloc.start()
        try:
            rank_core._xi_null_batch(n, 100_000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert peak < 100_000 * 8 + 4 * 2**16 * 8


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=50, unique=True))
def test_xi_bounded_above_by_one(values):
    u = np.asarray(values)
    v = np.asarray(values[::-1])
    assert xi_n(u, v, seed=0) <= 1.0
