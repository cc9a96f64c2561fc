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

Neighbour search runs in two steps.  `neighbor_candidates` needs no seed: it
returns each row's nearest other row and, for rows with several exact
minimisers, their candidates; `NeighborCandidates.resolve` then draws for one
seed.  A caller with several xi terms on the same predictors (the chained
statistic in `vector_measure`) searches once and resolves ties per term.
One selector picks the backend: sort-and-scan for a single column, a scan of
the squared-distance matrix for ``n < _EXHAUSTIVE_MAX_N`` rows, and above
that a k-d tree whose relative near-ties (``_NEAR_TIE_RTOL``) are re-checked
with the exact metric.  The threshold, 160, is where the two backends cost
the same for both the chained statistic and a single search (README,
"Performance").  The matrix is the contract's row sum over C-contiguous rows.
numpy sums at most seven terms strictly left to right, so for up to seven
columns the same matrix results from adding per-column squared differences
in column order, which lets callers share partial sums; numpy sums eight or
more terms pairwise, so wider matrices are computed by the contract
expression itself.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "DegenerateRanksError",
    "RankTriple",
    "NeighborCandidates",
    "NeighborIndex",
    "derive_seed",
    "compute_ranks",
    "neighbor_candidates",
    "nearest_neighbors",
    "xi_from_ranks",
    "xi_n",
    "xi_null",
]

# below this row count the k-d tree costs more than a squared-distance scan
# (measured crossover of the chained statistic and of one search, d = 3)
_EXHAUSTIVE_MAX_N = 160
# relative gap under which two neighbor distances are re-checked exactly
_NEAR_TIE_RTOL = 1e-12
# numpy reduces a row of at most this many terms strictly left to right, so
# squared differences summed column by column in that order equal the
# contract's ``.sum(axis=-1)`` bit for bit; wider rows are summed pairwise
_MAX_ACCUMULATED_WIDTH = 7


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
        r = np.asarray(self.r, dtype=np.int64)
        l = np.asarray(self.l, dtype=np.int64)
        r_nn = np.asarray(self.r_nn, dtype=np.int64)
        n = r.shape[0]
        if not (r.shape == l.shape == r_nn.shape) or r.ndim != 1:
            raise ValueError("rank arrays must be 1-d with identical length")
        if n < 2:
            raise ValueError("need at least two observations")
        for name, arr in (("r", r), ("l", l), ("r_nn", r_nn)):
            if arr.min() < 1 or arr.max() > n:
                raise ValueError(f"{name} values must lie in 1..{n}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "r_nn", r_nn)

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class NeighborIndex:
    """0-based index of each row's nearest other row, plus the tie seed."""

    n_of: np.ndarray
    tie_seed: int

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

    Runs in O(n log n): one sort, then either a direct scatter (no ties) or
    two binary searches (ties present).
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    n = u.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    _check_values(u, "u")
    order = np.argsort(u, kind="stable")
    su = u[order]
    if (su[1:] != su[:-1]).all():
        r = np.empty(n, dtype=np.int64)
        r[order] = np.arange(1, n + 1)
        return r, n + 1 - r
    r = np.searchsorted(su, u, side="right").astype(np.int64)
    l = (n - np.searchsorted(su, u, side="left")).astype(np.int64)
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


def _nn_1d(x: np.ndarray) -> NeighborCandidates:
    """Sort-and-scan neighbor search for scalar predictors, O(n log n)."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    sx = x[order]
    if n > 2 and (sx[1:] != sx[:-1]).all():
        return _nn_1d_distinct(order, sx)

    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = sx[1:] != sx[:-1]
    run_of = np.cumsum(new_run) - 1          # run id per sorted position
    starts = np.flatnonzero(new_run)
    lens = np.diff(np.append(starts, n))
    uniq = sx[starts]
    gap = (uniq[1:] - uniq[:-1]) ** 2        # squared gaps between runs
    gap_prev = np.concatenate(([np.inf], gap))
    gap_next = np.concatenate((gap, [np.inf]))

    n_of = np.full(n, -1, dtype=np.int64)
    pos = np.arange(n)
    m = lens[run_of]

    # runs of two duplicates: members point at each other, no randomness
    two = m == 2
    if two.any():
        s = starts[run_of[two]]
        partner = np.where(pos[two] == s, s + 1, s)
        n_of[order[two]] = order[partner]

    single = m == 1
    left_closer = single & (gap_prev[run_of] < gap_next[run_of])
    right_closer = single & (gap_prev[run_of] > gap_next[run_of])
    uniq_left = left_closer & (lens[run_of - 1] == 1)
    uniq_right = right_closer & (lens[np.minimum(run_of + 1, lens.size - 1)] == 1)
    if uniq_left.any():
        n_of[order[uniq_left]] = order[starts[run_of[uniq_left] - 1]]
    if uniq_right.any():
        n_of[order[uniq_right]] = order[starts[run_of[uniq_right] + 1]]

    # everything else has several exactly-minimising candidates
    tied = []
    for p in np.flatnonzero(n_of[order] < 0):
        rid = run_of[p]
        if m[p] >= 3:
            members = order[starts[rid]: starts[rid] + lens[rid]]
            cand = members[members != order[p]]
        elif left_closer[p]:
            cand = order[starts[rid - 1]: starts[rid - 1] + lens[rid - 1]]
        elif right_closer[p]:
            cand = order[starts[rid + 1]: starts[rid + 1] + lens[rid + 1]]
        else:  # exactly equal squared gaps on both sides
            cand = np.concatenate([
                order[starts[rid - 1]: starts[rid - 1] + lens[rid - 1]],
                order[starts[rid + 1]: starts[rid + 1] + lens[rid + 1]],
            ])
        tied.append((int(order[p]), np.sort(cand)))
    return NeighborCandidates(n_of, tied)


def _nn_1d_distinct(order: np.ndarray, sx: np.ndarray) -> NeighborCandidates:
    """Fast path for all-distinct scalar predictors: compare adjacent gaps."""
    n = sx.shape[0]
    gaps = (sx[1:] - sx[:-1]) ** 2
    left = np.concatenate(([np.inf], gaps))
    right = np.concatenate((gaps, [np.inf]))
    pos = np.arange(n)
    nn_pos = np.where(left < right, pos - 1, pos + 1)
    n_of = np.empty(n, dtype=np.int64)
    n_of[order] = order[nn_pos]
    tied = [(int(order[p]), np.sort(order[[p - 1, p + 1]]))
            for p in np.flatnonzero(left == right)]  # exactly equal squared gaps
    return NeighborCandidates(n_of, tied)


def _exact_candidates(v: np.ndarray, j: int, idx: np.ndarray) -> np.ndarray:
    """All rows (excluding j) at the exact minimal squared distance from row j."""
    idx = np.sort(np.asarray(idx, dtype=np.int64))
    idx = idx[idx != j]
    sq = ((v[idx] - v[j]) ** 2).sum(axis=1)
    return idx[sq == sq.min()]


def _column_sq(z: np.ndarray) -> np.ndarray:
    """Squared differences of one column between all rows, infinite diagonal.

    Summing these keeps the diagonal infinite and leaves every other entry
    as in the contract metric.
    """
    sq = (z[:, None] - z[None, :]) ** 2
    np.fill_diagonal(sq, np.inf)
    return sq


def _squared_distances(v: np.ndarray) -> np.ndarray:
    """Contract metric between all rows, with an infinite diagonal."""
    if v.shape[1] > _MAX_ACCUMULATED_WIDTH:
        sq = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(sq, np.inf)
        return sq
    sq = _column_sq(v[:, 0])
    for c in range(1, v.shape[1]):
        sq += _column_sq(v[:, c])
    return sq


def _nn_exhaustive(sq: np.ndarray) -> NeighborCandidates:
    """Row-wise minimisers of a squared-distance matrix with infinite diagonal."""
    n = sq.shape[0]
    n_of = sq.argmin(axis=1)
    eq = sq == sq[np.arange(n), n_of][:, None]
    if np.count_nonzero(eq) == n:  # one minimiser per row
        return NeighborCandidates(n_of)
    tied = [(int(j), np.flatnonzero(eq[j]))
            for j in np.flatnonzero(np.count_nonzero(eq, axis=1) > 1)]
    return NeighborCandidates(n_of, tied)


def _nn_kdtree(v: np.ndarray) -> NeighborCandidates:
    n = v.shape[0]
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
        radius = 0.0 if d2[j] == 0.0 else d2[j] * (1.0 + 1e-9)
        ball = tree.query_ball_point(v[j], radius)
        cand = _exact_candidates(v, int(j), np.asarray(ball))
        if cand.shape[0] == 1:
            n_of[j] = cand[0]
        else:
            tied.append((int(j), cand))
    return NeighborCandidates(n_of, tied)


def neighbor_candidates(v: np.ndarray, sq=None) -> NeighborCandidates:
    """Seed-free neighbour search of a finite (n, d) matrix; the one backend choice.

    Scalar predictors use a sort-and-scan pass, ``n < _EXHAUSTIVE_MAX_N`` rows
    a scan of the squared-distance matrix, larger ``n`` a k-d tree whose
    near-ties are re-checked with the exact metric.  ``sq``, when given, is a
    callable returning that matrix as per-column squared differences summed
    in the column order of ``v`` (so a caller can share partial sums); it is
    called only on the exhaustive path and for at most
    ``_MAX_ACCUMULATED_WIDTH`` columns.
    """
    # numpy sums a row of eight or more entries pairwise only when the row is
    # contiguous in memory, as in the contract; column-major input would be
    # summed left to right
    v = np.ascontiguousarray(v)
    n, d = v.shape
    if d == 1:
        return _nn_1d(v[:, 0].copy())
    if n >= _EXHAUSTIVE_MAX_N:
        return _nn_kdtree(v)
    if sq is None or d > _MAX_ACCUMULATED_WIDTH:
        return _nn_exhaustive(_squared_distances(v))
    return _nn_exhaustive(sq())


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

    See `neighbor_candidates` for the backends.  Exact duplicates of a row
    are valid neighbors at distance zero.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[1] < 1:
        raise ValueError("v must be an (n, d) matrix")
    if v.shape[0] < 2:
        raise ValueError("need at least two rows")
    _check_values(v, "v")
    return NeighborIndex(n_of=neighbor_candidates(v).resolve(seed), tie_seed=seed)


def _xi_denominator(l: np.ndarray) -> np.int64:
    """``sum(l*(n-l))``: depends on the response alone; zero if all tied."""
    den = (l * (l.shape[0] - l)).sum()
    if den == 0:
        raise DegenerateRanksError("all response values are tied")
    return den


def _xi_ratio(r: np.ndarray, l: np.ndarray, r_nn: np.ndarray, den=None) -> float:
    n = r.shape[0]
    num = (n * np.minimum(r, r_nn) - l * l).sum()
    if den is None:
        den = _xi_denominator(l)
    return float(num / den)


def xi_from_ranks(triple: RankTriple) -> float:
    """Evaluate the rank ratio ``sum(n*min(r, r_nn) - l^2) / sum(l*(n-l))``.

    The raw statistic is returned unclamped; it can fall slightly below zero
    for small samples, and clamping here would bias the permutation null.
    """
    return _xi_ratio(triple.r, triple.l, triple.r_nn)


def xi_n(u, v, seed: int = 0) -> float:
    """Rank-based coefficient of functional dependence of ``u`` on rows of ``v``.

    Near 0 when ``u`` is independent of ``v``, near 1 when ``u`` is a
    measurable function of ``v``.  Invariant to strictly increasing
    transforms of ``u``; the predictor enters only through nearest-neighbor
    structure.  O(n log n) for scalar predictors, expected O(n log n) with the
    spatial index otherwise.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if u.shape[0] != v.shape[0]:
        raise ValueError("u and v must have the same number of observations")
    r, l = compute_ranks(u)
    nn = nearest_neighbors(v, seed=seed)
    return _xi_ratio(r, l, r[nn.n_of])


def xi_null(n: int, seed: int = 0) -> float:
    """One draw from the permutation-of-ranks null distribution of ``xi_n``.

    Ranks are replaced by a uniform random permutation, their >=-counts by the
    complementary values, and the neighbor ranks by an i.i.d. with-replacement
    sample.  The draw depends only on ``n`` and the seed, never on data.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    r0 = rng.permutation(n).astype(np.int64) + 1
    l0 = n - r0 + 1
    r0_nn = rng.integers(1, n + 1, size=n, dtype=np.int64)
    return _xi_ratio(r0, l0, r0_nn)


def _xi_null_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. null draws of xi, vectorised; same law as `xi_null`."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = np.empty(count, dtype=np.float64)
    # denominator is a permutation invariant, hence a constant of n
    den = n * n * (n + 1) // 2 - n * (n + 1) * (2 * n + 1) // 6
    chunk = max(1, 4_000_000 // n)
    done = 0
    while done < count:
        m = min(chunk, count - done)
        keys = rng.random((m, n))
        r0 = keys.argsort(axis=1).argsort(axis=1).astype(np.int64) + 1
        l0 = n - r0 + 1
        r0_nn = rng.integers(1, n + 1, size=(m, n), dtype=np.int64)
        num = (n * np.minimum(r0, r0_nn) - l0 * l0).sum(axis=1)
        out[done:done + m] = num / den
        done += m
    return out
