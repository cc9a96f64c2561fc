"""Independent brute-force reference implementations used as test oracles.

Everything here is written from the definitions: counting-based ranks, an
exhaustive O(n^2) neighbor scan, exact integer arithmetic for the xi ratio.
The only thing shared with the library is the tie-break convention (a
generator seeded with ``(seed, j)`` choosing among ascending minimisers) and
the per-term seed derivation, without which stream-aligned comparison would
be impossible.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from nvcoh.vector_measure import term_seed


def counting_ranks(u):
    """Ranks by direct pairwise counting."""
    u = np.asarray(u, dtype=np.float64)
    r = (u[None, :] <= u[:, None]).sum(axis=1)
    l = (u[None, :] >= u[:, None]).sum(axis=1)
    return r.astype(np.int64), l.astype(np.int64)


def brute_force_neighbors(v, seed):
    """Exhaustive nearest-other-row scan with the shared tie-break convention."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    n = v.shape[0]
    with np.errstate(over="ignore"):  # overflowing squares are inf
        sq = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(sq, np.inf)
    out = np.empty(n, dtype=np.int64)
    for j in range(n):
        cand = np.flatnonzero(sq[j] == sq[j].min())
        cand = cand[cand != j]  # the inf diagonal ties where every square overflows
        if cand.size == 1:
            out[j] = cand[0]
        else:
            rng = np.random.default_rng((seed, j))
            out[j] = cand[rng.integers(cand.size)]
    return out


def xi_reference(u, v, seed=0):
    """xi from counting ranks and the exhaustive scan, exact rational ratio."""
    u = np.asarray(u, dtype=np.float64)
    r, l = counting_ranks(u)
    nn = brute_force_neighbors(v, seed)
    n = u.shape[0]
    num = sum(int(n) * min(int(r[j]), int(r[nn[j]])) - int(l[j]) ** 2 for j in range(n))
    den = sum(int(l[j]) * (int(n) - int(l[j])) for j in range(n))
    return float(Fraction(num, den))


def t_reference(x, y, seed=0, direction="y_on_x", y_order=None, labels=("x", "y")):
    """Chained statistic evaluated term by term with brute-force xi.

    ``labels`` are the column-label prefixes of the predictor and response
    blocks; the reverse direction of the symmetric statistic passes
    ``("y", "x")`` so that every term keeps its column's label and seed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p, q = x.shape[1], y.shape[1]
    xl, yl = labels
    cols = {f"{xl}{i}": x[:, i] for i in range(p)}
    cols.update({f"{yl}{i}": y[:, i] for i in range(q)})
    x_labels = tuple(f"{xl}{i}" for i in range(p))
    order = tuple(f"{yl}{i}" for i in (range(q) if y_order is None else y_order))
    num_sum = 0.0
    den_sum = 0.0
    for ell, resp in enumerate(order):
        preds = tuple(sorted(x_labels + order[:ell]))
        s = term_seed(seed, direction, resp, preds)
        num_sum += xi_reference(cols[resp], np.column_stack([cols[c] for c in preds]), s)
        if ell >= 1:
            dpreds = tuple(sorted(order[:ell]))
            s = term_seed(seed, direction, resp, dpreds)
            den_sum += xi_reference(cols[resp],
                                    np.column_stack([cols[c] for c in dpreds]), s)
    return (num_sum - den_sum) / (q - den_sum)


def t_bar_reference(x, y, perms, seed=0, direction="y_on_x", labels=("x", "y")):
    """Mean of the chained statistic over explicit response orderings."""
    return float(np.mean([t_reference(x, y, seed, direction, y_order=perm, labels=labels)
                          for perm in perms]))


def t_star_reference(x, y, perms_x, perms_y, seed=0):
    """Max of the ordering means in both directions, labels kept per column."""
    forward = t_bar_reference(x, y, perms_y, seed, "y_on_x")
    reverse = t_bar_reference(y, x, perms_x, seed, "x_on_y", labels=("y", "x"))
    return max(forward, reverse)


def xi_null_reference(n, count, rng):
    """Null draws of xi from the definition, sharing only the generator stream.

    Per draw: ranks r0 of ``n`` uniform keys, l0 = n - r0 + 1, neighbour ranks
    drawn with replacement from 1..n, and the xi ratio of those ranks.  Draws
    come in chunks of ``4_000_000 // n``, keys before neighbour ranks, which is
    the stream order of `rank_core._xi_null_batch`.
    """
    out = []
    chunk = max(1, 4_000_000 // n)
    while len(out) < count:
        m = min(chunk, count - len(out))
        keys = rng.random((m, n))
        r0_nn = rng.integers(1, n + 1, size=(m, n), dtype=np.int64)
        for key, nn in zip(keys, r0_nn):
            r0 = np.argsort(np.argsort(key)) + 1
            l0 = n - r0 + 1
            num = int((n * np.minimum(r0, nn) - l0 * l0).sum())
            den = int((l0 * (n - l0)).sum())
            out.append(num / den)
    return np.array(out)
