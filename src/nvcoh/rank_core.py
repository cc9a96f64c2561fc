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
evaluator, `_xi_terms`, on a stack of data matrices, one per frequency: one
sort ranks the response rows of every matrix, one neighbour sweep searches
the predictor sets in every matrix, and one reduction gives the ratio of
each distinct (response, set) pair, shared by its terms.
`xi_n` and `nearest_neighbors` are stacks of one matrix.

Neighbour search runs in two steps.  ``search_all(z, sets)`` needs no seed:
it returns, for each of a list of column subsets in each matrix of the stack
``z``, each row's nearest other row and, for rows with several exact
minimisers, their candidates; `NeighborCandidates.resolve` then draws for
one seed, so a term derives its seed only where its set has a tie in that
matrix.  `search_all` alone picks the backend, by row count first: below
``_EXHAUSTIVE_MAX_N`` rows every column set, a single column included, is
scanned in its squared-distance matrices, one argmin and one equality
screen for the whole stack.  From there on a single column takes a sorted
scan and more columns a k-d tree, matrix by matrix; both screen for the
nearest row and re-check near-ties with the exact metric over a window
(sorted positions) or a ball (tree) that holds every possible minimiser.
Squares that overflow are inf and tie with one another, never with the row
itself; the tree's ball query fails where squared distances may overflow,
so such column sets take the matrix scan whatever their row count.  The
row-count threshold, 160, is where matrix and tree cost the same for a
single search; the chained statistic's sweep keeps the matrix cheaper up to
300-400 rows (README, "Performance").
`scipy.spatial` is imported by the first k-d tree search, so a run below 160
rows, and every null draw, needs numpy alone.  The matrix is the contract's
row sum over C-contiguous rows.  numpy sums at most seven terms strictly
left to right, so up to seven columns the same matrix results from adding
per-column squared differences in column order, and column sets that share a
prefix share its partial sum.  A sweep keeps those sums in a workspace of its
own: per matrix of the stack, one squared-distance matrix per column and a
chain of prefix sums, ``used + longest - 1`` n-by-n float64 matrices.  A
stack holds as many matrices as keep the workspace within
`_WORKSPACE_BYTES`, one core's L2 cache (`_stack_depth`): ten at 50
rows and six columns (200 KB each), one for the built-in montage's 18
columns at 115 rows (2.3 MB).  Sorted sets walk the chain depth first, so
each prefix is summed once and each set is scanned right after its sum is
formed.  numpy sums eight or more terms pairwise, so wider matrices are
computed by the contract expression itself.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateRanksError",
    "RankTriple",
    "NeighborCandidates",
    "NeighborIndex",
    "derive_seed",
    "compute_ranks",
    "nearest_neighbors",
    "search_all",
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


class NeighborCandidates:
    """Seed-free result of one neighbour sweep over a stack of matrices.

    ``n_of[s, f]`` holds, for column set s of matrix f, each row's nearest
    other row: the unique one, or the first of several exact minimisers.
    ``tied`` maps each ``(s, f)`` that has such rows to the rows and their
    ascending candidates, two or more per row.  `resolve` applies the
    tie-break convention for one seed, so a single sweep serves every seed
    that shares the predictors.
    """

    __slots__ = ("n_of", "tied")

    def __init__(self, n_of: np.ndarray, tied: dict):
        self.n_of = n_of
        self.tied = tied

    def resolve(self, s: int, f: int, seed: int) -> np.ndarray:
        """Each row's neighbour in set s of matrix f, ties drawn for ``seed``."""
        n_of = self.n_of[s, f].copy()
        for j, cand in self.tied.get((s, f), ()):
            n_of[j] = cand[np.random.default_rng((seed, j)).integers(cand.shape[0])]
        return n_of


def _nn_sorted(x: np.ndarray) -> tuple[np.ndarray, list]:
    """Sort-and-scan neighbour search for one column, O(n log n).

    Float squared gaps never shrink with distance in sorted order, so the row
    at sorted position p has its minimum at p - 1 or p + 1.  It is unique
    unless it equals the gap on the other side or one step further out on the
    same side; such rows are re-checked exactly over the window in the radius.
    Each has two sorted neighbours at its smallest squared gap, and the
    re-check squares the same differences, so it finds two candidates or
    more.  Returns each row's neighbour and the tied rows with their
    candidates.
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
        return n_of, []
    # differences below about 1.5e-154 have subnormal or zero squares, too
    # coarse for a relative radius, so the radius never shrinks below that
    radius = np.maximum(np.sqrt(best[recheck]) * (1.0 + 1e-9), 1e-150)
    lo = np.searchsorted(sx, sx[recheck] - radius, side="left")
    hi = np.searchsorted(sx, sx[recheck] + radius, side="right")
    tied = []
    for p, a, b in zip(recheck.tolist(), lo.tolist(), hi.tolist()):
        j = int(order[p])
        if sx[a] == sx[b - 1]:  # all at distance zero, ascending (stable sort)
            tied.append((j, np.concatenate((order[a:p], order[p + 1:b]))))
        else:
            tied.append((j, _exact_candidates(x[:, None], j, order[a:b])))
    return n_of, tied


def _exact_candidates(v: np.ndarray, j: int, idx: np.ndarray) -> np.ndarray:
    """All rows (excluding j) at the exact minimal squared distance from row j."""
    idx = np.sort(np.asarray(idx, dtype=np.int64))
    idx = idx[idx != j]
    sq = ((v[idx] - v[j]) ** 2).sum(axis=1)
    return idx[sq == sq.min()]


def _nn_scan(sq: np.ndarray, n_of: np.ndarray, starts: np.ndarray) -> dict:
    """Row-wise minimisers of ``(k, n, n)`` squared distances, infinite diagonals.

    One argmin writes each row's first minimiser into the ``(k, n)`` ``n_of``,
    and one equality screen covers the stack.  Returns, for each matrix f
    with rows of several exact minimisers, those rows and their candidates.
    ``starts`` holds the flat position of each row, ``f * n * n + j * n``.
    """
    k, n, _ = sq.shape
    sq.argmin(axis=2, out=n_of)
    best = sq.reshape(-1)[n_of + starts]
    eq = sq == best[:, :, None]
    if np.count_nonzero(eq) == k * n:  # one minimiser per row
        return {}
    tied = {}
    for f in np.flatnonzero(np.count_nonzero(eq.reshape(k, -1), axis=1) > n).tolist():
        eq_f = eq[f]
        # a row whose every distance overflows also ties with its own inf diagonal
        inf_rows = np.flatnonzero(best[f] == np.inf)
        eq_f[inf_rows, inf_rows] = False
        n_of[f, inf_rows] = eq_f[inf_rows].argmax(axis=1)
        rows = np.flatnonzero(np.count_nonzero(eq_f, axis=1) > 1)
        if rows.size:
            tied[f] = [(int(j), np.flatnonzero(eq_f[j])) for j in rows]
    return tied


def _square_safe_magnitude(d: int) -> float:
    """Entry magnitude from which `_squares_may_overflow` holds for d columns."""
    return _SQRT_MAX / (4 * np.sqrt(d))


def _squares_may_overflow(v: np.ndarray) -> bool:
    """Whether a squared distance between rows of ``v`` may reach inf.

    Each is below d (2 max|v|)**2, d the last axis; the test keeps a factor
    of four in hand.
    """
    return bool(np.abs(v).max() >= _square_safe_magnitude(v.shape[-1]))


def _contract_sq(v: np.ndarray) -> np.ndarray:
    """The contract's squared distances of ``(k, n, d)`` C-contiguous rows.

    One ``(n, n)`` matrix per leading index, with infinite diagonal.
    """
    k, n, _ = v.shape
    sq = ((v[:, :, None, :] - v[:, None, :, :]) ** 2).sum(axis=-1)
    sq.reshape(k, n * n)[:, ::n + 1] = np.inf
    return sq


def _nn_kdtree(v: np.ndarray) -> tuple[np.ndarray, list]:
    """k-d tree neighbour search of ``(n, d)`` rows whose squares cannot overflow."""
    n = v.shape[0]
    from scipy.spatial import cKDTree  # loaded by the first search that needs it

    tree = cKDTree(v)
    dd, ii = tree.query(v, k=3)
    # the query lists distances in ascending order and a row's own index at
    # most once, so the row's two nearest other rows sit at positions a and
    # b; where it leaves the row out, three others lie at distance 0 and the
    # exact re-check below decides
    row = np.arange(n)
    a = (ii[:, 0] == row).astype(np.intp)
    b = np.where(ii[:, 1] == row, 2, a + 1)
    d1, d2, n_of = dd[row, a], dd[row, b], ii[row, a]
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
    return n_of, tied


def search_all(z: np.ndarray, sets) -> NeighborCandidates:
    """Seed-free neighbour search of each column set in each matrix; the one backend choice.

    ``z`` is a finite float ``(k, n, d)`` stack, for example one predictor
    matrix per frequency.  One sweep searches the rows of ``z[f][:, cols]``
    of every matrix f for each ``cols`` of ``sets``, summing squared
    differences in the order of ``cols``; `nearest_neighbors` is a sweep
    over one matrix and one set, all columns.

    From `_EXHAUSTIVE_MAX_N` rows on, one column takes the sorted scan and
    more the k-d tree, matrix by matrix, both re-checking near-ties
    exactly; a set of several columns whose squares may overflow takes the
    matrix scan there instead, since the tree's ball query fails on them.
    Below it every set is scanned in its squared-distance matrices, the
    whole stack at once.  Sets of at most `_MAX_ACCUMULATED_WIDTH` columns
    are summed column by column into a chain of prefix sums, one slot per
    prefix length, in a workspace allocated for the sweep; a set recomputes
    only the prefixes longer than the one it shares with the set before it.
    So a lexicographically sorted list walks its prefixes depth first, and
    each set is scanned right after its sum is formed.
    """
    sets = [tuple(cols) for cols in sets]
    k, n, _ = z.shape
    n_of = np.empty((len(sets), k, n), dtype=np.intp)
    tied = {}
    # the flat position of each row of the stack, f * n * n + j * n, for `_nn_scan`
    starts = np.arange(0, k * n * n, n).reshape(k, n)
    # squares that overflow are inf, as in the contract
    with np.errstate(over="ignore"):
        if n >= _EXHAUSTIVE_MAX_N:
            for s, cols in enumerate(sets):
                for f in range(k):
                    if len(cols) == 1:
                        n_of[s, f], found = _nn_sorted(z[f, :, cols[0]])
                    elif _squares_may_overflow(v := np.ascontiguousarray(z[f][:, cols])):
                        found = _nn_scan(_contract_sq(v[None]), n_of[s, f:f + 1],
                                         starts[:1]).get(0)
                    else:
                        n_of[s, f], found = _nn_kdtree(v)
                    if found:
                        tied[s, f] = found
            return NeighborCandidates(n_of, tied)
        narrow = [cols for cols in sets if len(cols) <= _MAX_ACCUMULATED_WIDTH]
        if narrow:
            used = sorted({c for cols in narrow for c in cols})
            single = dict(zip(used, range(len(used))))
            # one stack of matrices per column, then one chain slot per
            # prefix length past the first
            ws = np.empty((len(used) + max(map(len, narrow)) - 1, k, n, n))
            zu = z[:, :, used].transpose(2, 0, 1)
            singles = ws[:len(used)]
            np.subtract(zu[..., :, None], zu[..., None, :], out=singles)
            np.square(singles, out=singles)
            # every diagonal, and so every sum's
            singles.reshape(len(used) * k, n * n)[:, ::n + 1] = np.inf
            chain = ws[len(used):]

        def prefix(cols, i):
            """Squared distances over ``cols[:i + 1]``."""
            return chain[i - 1] if i else ws[single[cols[0]]]

        held: tuple[int, ...] = ()  # the set whose prefixes the chain holds
        for s, cols in enumerate(sets):
            if len(cols) > _MAX_ACCUMULATED_WIDTH:
                # numpy sums a row of eight or more entries pairwise only
                # when the row is contiguous in memory, as in the
                # contract; a column selection would be summed in order
                sq = _contract_sq(np.ascontiguousarray(z[:, :, cols]))
            else:
                shared = 0
                while (shared < min(len(cols), len(held))
                       and cols[shared] == held[shared]):
                    shared += 1
                for i in range(max(shared, 1), len(cols)):
                    np.add(prefix(cols, i - 1), ws[single[cols[i]]], out=chain[i - 1])
                held = cols
                sq = prefix(cols, len(cols) - 1)
            for f, found in _nn_scan(sq, n_of[s], starts).items():
                tied[s, f] = found
    return NeighborCandidates(n_of, tied)


# a sweep's workspace stays within this many bytes, the size of one core's
# L2 cache on the machines measured (README, "Performance")
_WORKSPACE_BYTES = 2 * 2**20


def _stack_depth(sets, n: int) -> int:
    """How many matrices of n rows one sweep over ``sets`` should take at once.

    As many as keep the workspace of a matrix scan, ``(used columns +
    longest set - 1) * n * n`` float64 per matrix, within `_WORKSPACE_BYTES`,
    and at least one.  Past that a stack spills out of cache and runs slower
    than one matrix at a time.
    """
    slots = len({c for cols in sets for c in cols}) + max(map(len, sets)) - 1
    return max(1, _WORKSPACE_BYTES // (slots * n * n * 8))


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

    See `search_all` for the backends.  Exact duplicates of a row
    are valid neighbors at distance zero.
    """
    v = _predictor_matrix(v)
    found = search_all(v[None], [range(v.shape[1])])
    return NeighborIndex(n_of=found.resolve(0, 0, seed))


def _xi_ratios(r: np.ndarray, l: np.ndarray, r_nn: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """``sum(n*min(r, r_nn) - l^2) / sum(l*(n-l))`` of each row of ``r_nn``.

    ``r`` and ``l`` hold ``(m, n)`` response ranks and ``r_nn``, ``(t, n)``,
    neighbour ranks whose response is row ``rows[i]`` of them.  The sums of
    ``l^2`` and of the denominator's terms depend on the response alone and
    are taken once per response row; the denominator is zero if all tie,
    and the ratio is NaN.  The numerator is ``n * sum(min(r, r_nn))`` less
    the response's ``sum(l^2)``.  Every sum is exact: below
    `_INT64_SUM_MAX_N` rows none passes 2**63 (``n * sum(min)`` is at most
    n**3), int64 holds them, and the ratio is numpy's division of the two
    sums as floats.  From there on `_exact_row_sums` gives Python integers,
    and their quotient is correctly rounded.
    """
    n = r.shape[1]
    mins = r[rows]
    np.minimum(mins, r_nn, out=mins)
    if n < _INT64_SUM_MAX_N:
        num = n * mins.sum(axis=1) - (l * l).sum(axis=1)[rows]
        den = (l * (n - l)).sum(axis=1)[rows]
        return np.divide(num, den, out=np.full(num.shape, np.nan), where=den != 0)
    sum_l2, den = _exact_row_sums(l * l), _exact_row_sums(l * (n - l))
    return np.array([(n * a - sum_l2[i]) / den[i] if den[i] else np.nan
                     for a, i in zip(_exact_row_sums(mins), rows.tolist())])


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
    """xi of each term t in matrix f: row ``term_resp[t]`` of ``y[f]`` on its set.

    ``y`` holds a stack of finite ``(m, n)`` response rows, ``(k, m, n)``,
    and ``sets`` column tuples of the finite ``(k, n, d)`` stack ``z``,
    sorted so the sweep shares their prefixes; term t's set is
    ``sets[term_set[t]]``.  One sort ranks all ``k * m`` rows, one sweep
    searches every set in every matrix, and one reduction gives the ratio of
    each distinct (response, set) in each matrix, which every term of that
    pair shares.  Where a term's set has exact ties in matrix f, the term
    draws them with ``seed_of(f, t)``, called for that pair alone, and gets a
    ratio of its own in the same reduction.  Returns ``(k, terms)``; a term
    whose response row is constant there is NaN.
    """
    k, m, n = y.shape
    r, l = _row_ranks(y.reshape(k * m, n))
    found = search_all(z, sets)
    pairs, term_pair = np.unique(term_resp * len(sets) + term_set, return_inverse=True)
    resp, pair_set = np.divmod(pairs, len(sets))
    # per (pair, matrix), the row of r holding its response and its neighbours
    rows = (resp[:, None] + np.arange(0, k * m, m)).reshape(-1)
    n_of = found.n_of[pair_set].reshape(-1, n)
    tied = [(f, t) for s, f in found.tied for t in np.flatnonzero(term_set == s).tolist()]
    if tied:
        rows = np.concatenate((rows, [f * m + term_resp[t] for f, t in tied]))
        n_of = np.concatenate((n_of, [found.resolve(term_set[t], f, seed_of(f, t))
                                      for f, t in tied]))
    # the flat positions in r of each row's neighbours
    n_of += (rows * n)[:, None]
    vals = _xi_ratios(r, l, r.reshape(-1)[n_of], rows)
    out = vals[:pairs.size * k].reshape(-1, k)[term_pair].T
    for (f, t), v in zip(tied, vals[pairs.size * k:]):
        out[f, t] = v
    return out


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
    return _one_ratio(_xi_ratios(triple.r[None], triple.l[None], triple.r_nn[None],
                                 np.zeros(1, dtype=np.intp)))


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
    return _one_ratio(_xi_terms(u[None, None], v[None], [range(v.shape[1])], zero, zero,
                                lambda f, t: seed)[0])


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
    rows before any of their neighbour ranks.  The draws themselves run one
    row block of about 2**16 entries at a time, so no array but the output is
    larger than a block.  A copy of the bit generator draws the chunk's keys,
    block by block, while ``rng`` skips them with ``advance`` and draws each
    block's neighbour ranks right after that block's keys are ranked.  Split
    across blocks, ``random`` and ``integers`` yield the values of one call:
    the bit generator keeps the spare half of a 64-bit word that ``integers``
    below 2**32 leaves.  ``advance`` clears that half, so it is restored from
    the state before the skip, and ``rng`` ends in the state a whole-chunk
    draw leaves.  ``rng`` must be a `default_rng` (PCG64) generator.

    `_key_ranker` ranks each block's keys into buffers reused by every block.
    As in `_xi_ratios`, ``n * sum(min(r0, r0_nn))`` and ``sum(l0**2)`` stay
    in int64 below `_INT64_SUM_MAX_N` rows, and the ratio is numpy's; from
    there on they pass 2**63 (from about 2.64 and 3.02 million rows), so the
    draw is a quotient of Python integers.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = np.empty(count, dtype=np.float64)
    # over a permutation of 1..n, sum(l0**2) and the denominator are constants of n
    sum_l2 = n * (n + 1) * (2 * n + 1) // 6
    den = n * n * (n + 1) // 2 - sum_l2
    chunk = max(1, 4_000_000 // n)
    block = max(1, 2**16 // n)
    rank_keys = _key_ranker(n, min(block, count))
    bitgen = rng.bit_generator
    key_rng = np.random.Generator(np.random.PCG64(0))
    for done in range(0, count, chunk):
        m = min(chunk, count - done)
        # the copy draws the chunk's m * n keys, one 64-bit word each, and
        # rng skips them but keeps its spare 32-bit half
        before = bitgen.state
        key_rng.bit_generator.state = before
        bitgen.advance(m * n)
        after = bitgen.state
        after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
        bitgen.state = after
        for a in range(done, done + m, block):
            b = min(a + block, done + m)
            r0 = rank_keys(key_rng, b - a)
            r0_nn = rng.integers(1, n + 1, size=(b - a, n), dtype=np.int64)
            mins = np.minimum(r0, r0_nn, out=r0_nn)
            if n < _INT64_SUM_MAX_N:
                out[a:b] = (n * mins.sum(axis=1) - sum_l2) / den
            else:
                out[a:b] = [(n * s - sum_l2) / den for s in _exact_row_sums(mins)]
    return out


def _key_ranker(n: int, rows: int):
    """A function that draws ``m <= rows`` rows of n keys and returns their ranks.

    ``rank(rng, m)`` draws the keys of ``rng.random((m, n))`` and returns,
    per row, the rank of each key among its row, ``1..n``, in the smallest
    unsigned type that holds n.  The ranks live in a buffer of ``rows``
    rows, reused by every call.  `_order_rows` orders the keys from their
    raw 64-bit words, and the order, offset by its row's flat position,
    scatters the ranks ``1..n`` into the rank buffer.
    """
    r0 = np.empty((rows, n), dtype=np.min_scalar_type(n))
    starts = np.arange(0, rows * n, n)[:, None]
    ranks = np.tile(np.arange(1, n + 1, dtype=r0.dtype), rows)

    def rank(rng: np.random.Generator, m: int) -> np.ndarray:
        order = _order_rows(rng.bit_generator.random_raw((m, n)))
        # the ranks of the keys, r0[i, order[i, k - 1]] = k, through flat positions
        order += starts[:m]
        r0[:m].reshape(-1)[order.reshape(-1)] = ranks[:order.size]
        return r0[:m]

    return rank


def _order_rows(words: np.ndarray) -> np.ndarray:
    """Each row's argsort of the keys ``Generator.random`` makes of ``words``.

    ``words`` holds ``(m, n)`` raw 64-bit words of a bit generator, which
    `Generator.random` turns into the keys ``(word >> 11) * 2**-53``, one
    word a key.  Equal keys, with a chance of about ``n**2 * 2**-54`` per
    row, stay in column order, as in ``argsort(kind="stable")``, on every
    platform.  One in-place sort of the packed values ``(word >> 11 + s) <<
    b | column`` orders every row, ``b = (n - 1).bit_length()`` bits for
    the column, and the low ``b`` bits of the sorted values are the order.
    Up to 2048 columns, ``s = 0`` and the packed value holds a key's 53
    bits whole.  Past that, it holds the top ``53 - s = 64 - b`` bits, and a
    row where two of those tie is sorted again by its whole keys, stably.
    Overwrites ``words`` with the order and returns it as int64.
    """
    n = words.shape[1]
    bits = (n - 1).bit_length()
    cut = max(0, bits - 11)
    keys = (words >> np.uint64(11)) if cut else None
    words >>= np.uint64(11 + cut)
    words <<= np.uint64(bits)
    words |= np.arange(n, dtype=np.uint64)
    words.sort(axis=1)
    if cut:
        top = words >> np.uint64(bits)
        for i in np.flatnonzero((top[:, 1:] == top[:, :-1]).any(axis=1)):
            words[i] = keys[i].argsort(kind="stable")
    words &= np.uint64((1 << bits) - 1)
    return words.view(np.int64)
