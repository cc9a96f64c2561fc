"""Rank statistics, nearest-neighbor search and the xi dependence coefficient.

Conventions shared by every estimator in this package:

* ranks are 1-based max-counts, ``r[j] = #{j' : u[j'] <= u[j]}``,
* ``l[j] = #{j' : u[j'] >= u[j]}`` (equals ``n - r + 1`` when there are no ties),
* nearest neighbors minimise the squared Euclidean distance computed as
  ``((v[j'] - v[j]) ** 2).sum()``.  Exact-distance ties are broken by a
  generator seeded with ``(seed, j)`` drawing one index from the ascending
  list of minimisers; a unique minimiser never consumes randomness.

The tie-break convention is part of the public contract: any independent
re-implementation that follows it reproduces this module's output bit for bit.

`xi_n` and every term of the chained statistic in `vector_measure` run one
evaluator, `_xi_terms`: one sort ranks the response rows, one neighbour
sweep searches the predictor sets, and one reduction gives every ratio.

Neighbour search runs in two steps.  `NeighborSearch`, built on one matrix,
needs no seed: ``search_all(sets)`` returns, for each of a list of column
subsets, each row's nearest other row and, for rows with several exact
minimisers, their candidates; `NeighborCandidates.resolve` then draws for
one seed, so a term derives its seed only where its set has a tie.  The
search picks the backend by row count first: below ``_EXHAUSTIVE_MAX_N``
rows every column set, a single column included, is scanned in its
squared-distance matrix.  From there on a single column takes a sorted scan
and more columns a k-d tree; both screen for the nearest row and re-check
near-ties with the exact metric over a window (sorted positions) or a ball
(tree) that holds every possible minimiser.  Squares that overflow are inf
and tie with one another, never with the row itself; the tree's ball query
fails where squared distances may overflow, so such column sets take the
matrix scan whatever their row count.  The row-count threshold, 160, is
where matrix and tree cost the same for a single search; the chained
statistic's sweep keeps the matrix cheaper up to 300-400 rows (README,
"Performance").  `scipy.spatial` is imported by the first k-d tree search,
so a run below 160 rows, and every null draw, needs numpy alone.  The matrix
is the contract's row sum over C-contiguous rows.  numpy sums at most seven
terms strictly left to right, so up to seven columns the same matrix results
from adding per-column squared differences in column order, and column sets
that share a prefix share its partial sum.  A sweep keeps those sums in one
workspace per thread, reused by every sweep: one matrix per column and a
chain of prefix sums, 1.1 MB at 115 rows and six columns, small enough to
stay in cache.  Sorted sets walk the chain depth first, so each prefix is
summed once and each set is scanned right after its sum is formed.  numpy
sums eight or more terms pairwise, so wider matrices are computed by the
contract expression itself.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateRanksError",
    "RankTriple",
    "NeighborCandidates",
    "NeighborIndex",
    "NeighborSearch",
    "derive_seed",
    "compute_ranks",
    "nearest_neighbors",
    "xi_from_ranks",
    "xi_n",
    "xi_null",
]

# below this row count the k-d tree costs more than a squared-distance scan
# (measured crossover of one search, d = 3; the chained statistic's sweep,
# p = q = 3, crosses over later, at 300-400 rows)
_EXHAUSTIVE_MAX_N = 160
# relative gap under which two neighbor distances are re-checked exactly
_NEAR_TIE_RTOL = 1e-12
_SQRT_MAX = np.sqrt(np.finfo(np.float64).max)
# numpy reduces a row of at most this many terms strictly left to right, so
# squared differences summed column by column in that order equal the
# contract's ``.sum(axis=-1)`` bit for bit; wider rows are summed pairwise
_MAX_ACCUMULATED_WIDTH = 7
# below this row count no partial sum of the xi ratio's int64 terms, each at
# most n**2 in magnitude, can reach 2**63
_INT64_SUM_MAX_N = 2**21


class DegenerateRanksError(ValueError):
    """All response values are tied, so the xi denominator vanishes."""


def derive_seed(*parts) -> int:
    """Fold arbitrary hashable parts into a stable 64-bit seed.

    Deterministic across runs and platforms; used to hand every sub-call of a
    larger computation its own reproducible random stream.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RankTriple:
    """The three rank arrays entering the xi ratio.

    ``r`` ranks of the response values, ``l`` the >=-counts, ``r_nn`` the
    response rank at each point's predictor-space nearest neighbor.
    """

    r: np.ndarray
    l: np.ndarray
    r_nn: np.ndarray

    def __post_init__(self):
        for name in ("r", "l", "r_nn"):
            f = np.asarray(getattr(self, name), dtype=np.float64)
            if not (np.isfinite(f) & (f == np.trunc(f))).all():
                raise ValueError(f"{name} entries must be whole numbers")
            object.__setattr__(self, name, f.astype(np.int64))
        r, l, r_nn = self.r, self.l, self.r_nn
        if r.ndim != 1 or not (r.shape == l.shape == r_nn.shape):
            raise ValueError("rank arrays must be 1-d with identical length")
        n = r.shape[0]
        if n < 2:
            raise ValueError("need at least two observations")
        for name, arr in (("r", r), ("l", l), ("r_nn", r_nn)):
            if arr.min() < 1 or arr.max() > n:
                raise ValueError(f"{name} values must lie in 1..{n}")

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class NeighborIndex:
    """0-based index of each row's nearest other row."""

    n_of: np.ndarray

    def __post_init__(self):
        n_of = np.asarray(self.n_of, dtype=np.int64)
        if (n_of == np.arange(n_of.shape[0])).any():
            raise ValueError("a row may not be its own neighbor")
        object.__setattr__(self, "n_of", n_of)


def _check_values(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")


def compute_ranks(u) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(r, l)`` with ``r[j] = #{u <= u[j]}`` and ``l[j] = #{u >= u[j]}``.

    Runs in O(n log n); the one-row case of `_row_ranks`.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.shape[0] < 2:
        raise ValueError("need at least two observations")
    _check_values(u, "u")
    r, l = _row_ranks(u[None])
    return r[0], l[0]


def _row_ranks(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`compute_ranks` of every row of a finite ``(m, n)`` matrix.

    One stable sort orders every row; a row with ties is ranked by binary
    searches in its sorted values.  Gathers and scatters go through flat
    positions: one index array costs half as much as a row and a column one.
    """
    m, n = u.shape
    flat = np.argsort(u, axis=1, kind="stable")
    flat += np.arange(0, m * n, n)[:, None]
    su = np.ravel(u)[flat]
    r = np.empty((m, n), dtype=np.int64)
    r.reshape(-1)[flat] = np.arange(1, n + 1)
    l = n + 1 - r
    for i in np.flatnonzero((su[:, 1:] == su[:, :-1]).any(axis=1)):
        r[i] = np.searchsorted(su[i], u[i], side="right")
        l[i] = n - np.searchsorted(su[i], u[i], side="left")
    return r, l


def _choose(candidates: np.ndarray, seed: int, j: int) -> int:
    """Pick a neighbor among ascending-index candidates; seeded if tied."""
    if candidates.shape[0] == 1:
        return int(candidates[0])
    rng = np.random.default_rng((seed, int(j)))
    return int(candidates[rng.integers(candidates.shape[0])])


class NeighborCandidates:
    """Seed-free nearest-neighbour search result of one predictor matrix.

    ``n_of`` holds each row's unique nearest other row; ``tied`` lists, for
    every row with several exact minimisers, the row and its ascending
    candidates.  `resolve` applies the tie-break convention for one seed, so a
    single search serves every seed that shares the predictors.
    """

    __slots__ = ("n_of", "tied")

    def __init__(self, n_of: np.ndarray, tied=()):
        self.n_of = n_of
        self.tied = tuple(tied)

    def resolve(self, seed: int) -> np.ndarray:
        if not self.tied:
            return self.n_of
        n_of = self.n_of.copy()
        for j, cand in self.tied:
            n_of[j] = _choose(cand, seed, j)
        return n_of


def _nn_sorted(x: np.ndarray) -> NeighborCandidates:
    """Sort-and-scan neighbour search for one column, O(n log n).

    Float squared gaps never shrink with distance in sorted order, so the row
    at sorted position p has its minimum at p - 1 or p + 1.  It is unique
    unless it equals the gap on the other side or one step further out on the
    same side; such rows are re-checked exactly over the window in the radius.
    """
    order = np.argsort(x, kind="stable")
    sx = x[order]
    gap = np.concatenate(([np.inf], (sx[1:] - sx[:-1]) ** 2, [np.inf]))
    far = np.concatenate(([np.inf] * 2, (sx[2:] - sx[:-2]) ** 2, [np.inf] * 2))
    left, right = gap[:-1], gap[1:]
    # equal gaps go left only to stay in bounds; they are re-checked below
    to_left = left <= right
    best = np.where(to_left, left, right)
    further = np.where(to_left, far[:-2], far[2:])
    n_of = np.empty_like(order)
    n_of[order] = order[np.arange(order.size) + np.where(to_left, -1, 1)]
    recheck = np.flatnonzero((left == right) | (best == further))
    if recheck.size == 0:
        return NeighborCandidates(n_of)
    # differences below about 1.5e-154 have subnormal or zero squares, too
    # coarse for a relative radius, so the radius never shrinks below that
    radius = np.maximum(np.sqrt(best[recheck]) * (1.0 + 1e-9), 1e-150)
    lo = np.searchsorted(sx, sx[recheck] - radius, side="left")
    hi = np.searchsorted(sx, sx[recheck] + radius, side="right")
    tied = []
    for p, a, b in zip(recheck.tolist(), lo.tolist(), hi.tolist()):
        j = int(order[p])
        if sx[a] == sx[b - 1]:  # all at distance zero, ascending (stable sort)
            cand = np.concatenate((order[a:p], order[p + 1:b]))
        else:
            cand = _exact_candidates(x[:, None], j, order[a:b])
        if cand.shape[0] == 1:
            n_of[j] = cand[0]
        else:
            tied.append((j, cand))
    return NeighborCandidates(n_of, tied)


def _exact_candidates(v: np.ndarray, j: int, idx: np.ndarray) -> np.ndarray:
    """All rows (excluding j) at the exact minimal squared distance from row j."""
    idx = np.sort(np.asarray(idx, dtype=np.int64))
    idx = idx[idx != j]
    sq = ((v[idx] - v[j]) ** 2).sum(axis=1)
    return idx[sq == sq.min()]


def _nn_exhaustive(sq: np.ndarray) -> NeighborCandidates:
    """Row-wise minimisers of a squared-distance matrix with infinite diagonal."""
    n = sq.shape[0]
    n_of = sq.argmin(axis=1)
    best = sq[np.arange(n), n_of]
    eq = sq == best[:, None]
    if np.count_nonzero(eq) == n:  # one minimiser per row
        return NeighborCandidates(n_of)
    # a row whose every distance overflows also ties with its own inf diagonal
    inf_rows = np.flatnonzero(best == np.inf)
    eq[inf_rows, inf_rows] = False
    n_of[inf_rows] = eq[inf_rows].argmax(axis=1)
    tied = [(int(j), np.flatnonzero(eq[j]))
            for j in np.flatnonzero(np.count_nonzero(eq, axis=1) > 1)]
    return NeighborCandidates(n_of, tied)


def _square_safe_magnitude(d: int) -> float:
    """Entry magnitude from which `_squares_may_overflow` holds for d columns."""
    return _SQRT_MAX / (4 * np.sqrt(d))


def _squares_may_overflow(v: np.ndarray) -> bool:
    """Whether a squared distance between rows of ``v`` may reach inf.

    Each is below d (2 max|v|)**2; the test keeps a factor of four in hand.
    """
    return bool(np.abs(v).max() >= _square_safe_magnitude(v.shape[1]))


def _contract_sq(v: np.ndarray) -> np.ndarray:
    """The contract's squared distances of C-contiguous rows, infinite diagonal."""
    sq = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(sq, np.inf)
    return sq


def _nn_kdtree(v: np.ndarray) -> NeighborCandidates:
    n = v.shape[0]
    # squares at inf tie, and the tree's ball query fails where they may
    if _squares_may_overflow(v):
        return _nn_exhaustive(_contract_sq(v))
    from scipy.spatial import cKDTree  # loaded by the first search that needs it

    tree = cKDTree(v)
    dd, ii = tree.query(v, k=3)
    ddm = np.where(ii == np.arange(n)[:, None], np.inf, dd)
    two = np.argsort(ddm, axis=1)[:, :2]
    d1 = np.take_along_axis(ddm, two[:, :1], axis=1).ravel()
    d2 = np.take_along_axis(ddm, two[:, 1:], axis=1).ravel()
    n_of = np.take_along_axis(ii, two[:, :1], axis=1).ravel().astype(np.int64)
    # a near-tie in tree distances is re-resolved with the exact metric
    near = (d2 - d1) <= d1 * _NEAR_TIE_RTOL
    tied = []
    for j in np.flatnonzero(near):
        ball = tree.query_ball_point(v[j], d2[j] * (1.0 + 1e-9))
        cand = _exact_candidates(v, int(j), np.asarray(ball))
        if cand.shape[0] == 1:
            n_of[j] = cand[0]
        else:
            tied.append((int(j), cand))
    return NeighborCandidates(n_of, tied)


class NeighborSearch:
    """Seed-free neighbour searches over column subsets of one finite matrix.

    `search_all` searches, in one sweep, the rows of ``z[:, cols]`` for each
    ``cols`` of a list, summing squared differences in the order of
    ``cols``.  `nearest_neighbors` is a sweep over one set, all columns.
    """

    def __init__(self, z: np.ndarray):
        self.z = np.asarray(z, dtype=np.float64)
        # squares that overflow are inf, as in the contract; silencing the
        # warning slows every ufunc call, so only such data pays for it.  An
        # errstate can be entered only once, so each sweep makes its own.
        self._overflow = (functools.partial(np.errstate, over="ignore")
                          if _squares_may_overflow(self.z) else contextlib.nullcontext)

    def search_all(self, sets) -> list[NeighborCandidates]:
        """The search result of each column set, in order; the one backend choice.

        From `_EXHAUSTIVE_MAX_N` rows on, one column takes the sorted scan and
        more the k-d tree, both re-checking near-ties exactly.  Below it every
        set is scanned in its squared-distance matrix.  Sets of at most
        `_MAX_ACCUMULATED_WIDTH` columns are summed column by column into a
        chain of prefix sums, one slot per prefix length, in one reused
        workspace; a set recomputes only the prefixes longer than the one it
        shares with the set before it.  So a lexicographically sorted list
        walks its prefixes depth first, and each set is scanned right after
        its sum is formed.
        """
        sets = [tuple(cols) for cols in sets]
        z = self.z
        n = z.shape[0]
        with self._overflow():
            if n >= _EXHAUSTIVE_MAX_N:
                return [_nn_sorted(z[:, cols[0]]) if len(cols) == 1
                        else _nn_kdtree(np.ascontiguousarray(z[:, cols]))
                        for cols in sets]
            narrow = [cols for cols in sets if len(cols) <= _MAX_ACCUMULATED_WIDTH]
            if narrow:
                used = sorted({c for cols in narrow for c in cols})
                single = dict(zip(used, range(len(used))))
                # one matrix per column, then one chain slot per prefix
                # length past the first
                ws = _workspace(len(used) + max(map(len, narrow)) - 1, n)
                zu = z[:, used].T
                singles = ws[:len(used)]
                np.subtract(zu[:, :, None], zu[:, None, :], out=singles)
                np.square(singles, out=singles)
                # every diagonal, and so every sum's
                singles.reshape(len(used), n * n)[:, ::n + 1] = np.inf
                chain = ws[len(used):]

            def prefix(cols, k):
                """Squared distances over ``cols[:k + 1]``."""
                return chain[k - 1] if k else ws[single[cols[0]]]

            out = []
            held: tuple[int, ...] = ()  # the set whose prefixes the chain holds
            for cols in sets:
                if len(cols) > _MAX_ACCUMULATED_WIDTH:
                    # numpy sums a row of eight or more entries pairwise only
                    # when the row is contiguous in memory, as in the
                    # contract; a column selection would be summed in order
                    out.append(_nn_exhaustive(
                        _contract_sq(np.ascontiguousarray(z[:, cols]))))
                    continue
                shared = 0
                while shared < min(len(cols), len(held)) and cols[shared] == held[shared]:
                    shared += 1
                for k in range(max(shared, 1), len(cols)):
                    np.add(prefix(cols, k - 1), ws[single[cols[k]]], out=chain[k - 1])
                held = cols
                out.append(_nn_exhaustive(prefix(cols, len(cols) - 1)))
        return out


_local = threading.local()


def _workspace(slots: int, n: int) -> np.ndarray:
    """A ``(slots, n, n)`` float64 scratch array, reused by every sweep.

    One buffer per thread, grown when a sweep needs more.  Reuse keeps it in
    cache; a buffer allocated afresh for each sweep faulted in no more pages
    but made the chained statistic slower (README, "Performance").
    """
    size = slots * n * n
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < size:
        buf = _local.buf = np.empty(size)
    return buf[:size].reshape(slots, n, n)


def _predictor_matrix(v) -> np.ndarray:
    """``v`` as a finite ``(n, d)`` float matrix with n >= 2; a vector is one column."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[1] < 1:
        raise ValueError("v must be an (n, d) matrix")
    if v.shape[0] < 2:
        raise ValueError("need at least two rows")
    _check_values(v, "v")
    return v


def nearest_neighbors(v, seed: int = 0) -> NeighborIndex:
    """Index of the Euclidean-nearest other row for every row of ``v``.

    Parameters
    ----------
    v : array_like, shape (n, d) or (n,)
        Predictor rows; finite entries, n >= 2.
    seed : int
        Governs tie-breaking only.  Rows with several equally-near neighbors
        draw uniformly among them from a generator seeded with ``(seed, j)``;
        results are deterministic for a fixed seed.

    See `NeighborSearch` for the backends.  Exact duplicates of a row
    are valid neighbors at distance zero.
    """
    v = _predictor_matrix(v)
    found = NeighborSearch(v).search_all([range(v.shape[1])])[0]
    return NeighborIndex(n_of=found.resolve(seed))


def _xi_ratios(r: np.ndarray, l: np.ndarray, r_nn: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(n*min(r, r_nn) - l^2) / sum(l*(n-l))`` of ``(m, n)`` ranks.

    The denominator depends on the response alone; it is zero if all tie,
    and the row's ratio is NaN.  Both sums are exact: every term is at most
    n**2 in magnitude, so below `_INT64_SUM_MAX_N` rows no partial sum
    passes 2**63 and int64 holds them, and the ratio is numpy's division of
    the two sums as floats.  From there on `_exact_row_sums` gives Python
    integers, and their quotient is correctly rounded.
    """
    n = r.shape[1]
    num_terms = n * np.minimum(r, r_nn) - l * l
    den_terms = l * (n - l)
    if n < _INT64_SUM_MAX_N:
        num, den = num_terms.sum(axis=1), den_terms.sum(axis=1)
        return np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0)
    return np.array([a / b if b else np.nan for a, b in
                     zip(_exact_row_sums(num_terms), _exact_row_sums(den_terms))])


def _exact_row_sums(terms: np.ndarray) -> list[int]:
    """Row sums of an int64 matrix, as Python integers, for fewer than 2**32 columns.

    Each entry splits into its high and low 32-bit halves; summed apart,
    neither half can overflow its type.
    """
    low = (terms & 0xFFFFFFFF).sum(axis=1, dtype=np.uint64)
    high = (terms >> 32).sum(axis=1)
    return [(int(h) << 32) + int(lo) for h, lo in zip(high, low)]


def _xi_terms(y: np.ndarray, z: np.ndarray, sets, term_resp: np.ndarray,
              term_set: np.ndarray, seed_of) -> np.ndarray:
    """xi of each term t: row ``term_resp[t]`` of ``y`` on ``sets[term_set[t]]``.

    ``y`` holds finite ``(m, n)`` response rows and ``sets`` column tuples of
    the finite ``(n, d)`` ``z``, sorted so the sweep shares their prefixes.
    Ties of a term's set are drawn with ``seed_of(t)``, called for it alone.
    A term whose response row is constant is NaN.
    """
    r, l = _row_ranks(y)
    found = NeighborSearch(z).search_all(sets)
    n_of = np.stack([found[s].resolve(seed_of(t)) if found[s].tied else found[s].n_of
                     for t, s in enumerate(term_set)])
    n_of += np.arange(0, n_of.size, r.shape[1])[:, None]  # flat positions in r_t
    r_t = r[term_resp]
    return _xi_ratios(r_t, l[term_resp], r_t.reshape(-1)[n_of])


def _one_ratio(values: np.ndarray) -> float:
    """The single xi value of a one-term evaluation; a constant response raises."""
    if np.isnan(values[0]):
        raise DegenerateRanksError("all response values are tied")
    return float(values[0])


def xi_from_ranks(triple: RankTriple) -> float:
    """Evaluate the rank ratio ``sum(n*min(r, r_nn) - l^2) / sum(l*(n-l))``.

    The raw statistic is returned unclamped; it can fall slightly below zero
    for small samples, and clamping here would bias the permutation null.
    """
    return _one_ratio(_xi_ratios(triple.r[None], triple.l[None], triple.r_nn[None]))


def xi_n(u, v, seed: int = 0) -> float:
    """Rank-based coefficient of functional dependence of ``u`` on rows of ``v``.

    Near 0 when ``u`` is independent of ``v``, near 1 when ``u`` is a
    measurable function of ``v``.  Invariant to strictly increasing
    transforms of ``u``; the predictor enters only through nearest-neighbor
    structure.  From ``_EXHAUSTIVE_MAX_N`` rows up, O(n log n) for scalar
    predictors and expected O(n log n) with the spatial index otherwise;
    below it, an O(n^2) scan.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = _predictor_matrix(v)
    if u.shape[0] != v.shape[0]:
        raise ValueError("u and v must have the same number of observations")
    _check_values(u, "u")
    zero = np.zeros(1, dtype=np.intp)
    return _one_ratio(_xi_terms(u[None], v, [range(v.shape[1])], zero, zero,
                                lambda t: seed))


def xi_null(n: int, seed: int = 0) -> float:
    """One draw from the permutation-of-ranks null distribution of ``xi_n``.

    Ranks are replaced by a uniform random permutation, their >=-counts by the
    complementary values, and the neighbor ranks by an i.i.d. with-replacement
    sample.  The draw depends only on ``n`` and the seed, never on data; it is
    the first draw of `_xi_null_batch` under ``default_rng(seed)``.
    """
    return float(_xi_null_batch(n, 1, np.random.default_rng(seed))[0])


def _xi_null_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. null draws of xi, vectorised; see `xi_null`.

    The generator's stream is part of every stored ensemble: draws come in
    chunks of ``4_000_000 // n`` rows, and each chunk draws the keys of all its
    rows before any of their neighbour ranks.  So a chunk runs in two passes
    over row blocks of about 2**16 entries.  The first ranks each block's keys
    into one ``(chunk, n)`` array of the smallest unsigned type that holds
    ``n``; the second draws the block's neighbour ranks and finishes its draws.
    Split across blocks, ``random`` and ``integers`` yield the values of one
    call (the bit generator keeps the spare half of a 64-bit word that
    ``integers`` below 2**32 leaves), so no float or int64 array larger than a
    block is ever built.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = np.empty(count, dtype=np.float64)
    # over a permutation of 1..n, sum(l0**2) and the denominator are constants of n
    sum_l2 = n * (n + 1) * (2 * n + 1) // 6
    den = n * n * (n + 1) // 2 - sum_l2
    ranks = np.arange(1, n + 1, dtype=np.min_scalar_type(n))
    chunk = max(1, 4_000_000 // n)
    block = max(1, 2**16 // n)
    r0 = np.empty((min(chunk, count), n), dtype=ranks.dtype)
    for done in range(0, count, chunk):
        m = min(chunk, count - done)
        blocks = [(a, min(a + block, m)) for a in range(0, m, block)]
        for a, b in blocks:
            # the ranks of the keys: r0[i, order[i, k - 1]] = k
            order = rng.random((b - a, n)).argsort(axis=1)
            np.put_along_axis(r0[a:b], order, ranks, axis=1)
        for a, b in blocks:
            r0_nn = rng.integers(1, n + 1, size=(b - a, n), dtype=np.int64)
            num = n * np.minimum(r0[a:b], r0_nn, out=r0_nn).sum(axis=1) - sum_l2
            out[done + a:done + b] = num / den
    return out
