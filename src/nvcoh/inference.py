"""Permutation-of-ranks null distributions and nonparametric tests.

The null ensemble replaces every xi term of the vector statistic with an
independent draw from the rank-permutation null, so its distribution is a
function of the block count and the response dimension alone: no data enters,
and one ensemble serves every frequency of a profile.  P-values use add-one
smoothing, which keeps them strictly positive and exactly valid for
permutation nulls.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .rank_core import _order_rows, _xi_null_batch

__all__ = [
    "NullEnsemble",
    "TestResult",
    "null_ensemble",
    "p_value",
    "p_values",
    "bh_adjust",
    "group_permutation_test",
]

DEFAULT_NULL_REPS = 2000
DEFAULT_GROUP_PERMS = 5000


@dataclass(frozen=True)
class NullEnsemble:
    """Replicates of the statistic under spectral independence."""

    n: int
    q: int
    reps: np.ndarray
    seed: int
    structure: str = "t"

    @property
    def n_reps(self) -> int:
        return self.reps.shape[0]

    def sha256(self) -> str:
        """Fingerprint of the replicate values; equal bytes, equal hash."""
        return hashlib.sha256(np.ascontiguousarray(self.reps).tobytes()).hexdigest()


def _null_batch(n, q, want, rng):
    """`want` null replicates of the chained statistic."""
    draws = _xi_null_batch(n, want * (2 * q - 1), rng).reshape(want, 2 * q - 1)
    num_sums = draws[:, :q].sum(axis=1)
    den_sums = draws[:, q:].sum(axis=1)
    # same form as the estimator: every draw is at most 1 (see
    # `vector_measure._MontagePlan.estimates`), so the denominator is at least
    # 1, and q == 1 gives exactly one xi draw
    return (num_sums - den_sums) / (q - den_sums)


def null_ensemble(n: int, q: int, n_reps: int = DEFAULT_NULL_REPS,
                  seed: int = 0) -> NullEnsemble:
    """Null replicates of the chained statistic for (n, q).

    Each replicate assembles q numerator and q-1 denominator xi values from
    independent rank-permutation draws, all from one generator seeded with
    ``seed``.
    """
    if n < 2 or q < 1 or n_reps < 1:
        raise ValueError("need n >= 2, q >= 1, n_reps >= 1")
    reps = _null_batch(n, q, n_reps, np.random.default_rng(seed))
    return NullEnsemble(n=n, q=q, reps=reps, seed=seed, structure="t")


def p_value(statistic: float, ensemble: NullEnsemble) -> float:
    """`p_values` of a single statistic."""
    return float(p_values([statistic], ensemble)[0])


def p_values(statistics, ensemble: NullEnsemble) -> np.ndarray:
    """Add-one smoothed upper-tail p-values against the ensemble.

    Each statistic counts the replicates at or above it; NaN passes through.
    """
    stats = np.asarray(statistics, dtype=np.float64)
    sorted_reps = np.sort(ensemble.reps)
    counts = ensemble.n_reps - np.searchsorted(sorted_reps, stats, side="left")
    out = (1 + counts) / (ensemble.n_reps + 1)
    return np.where(np.isnan(stats), np.nan, out)


def bh_adjust(p) -> np.ndarray:
    """Step-up false-discovery-rate adjustment of a family of p-values."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-d array of p-values")
    if np.any((p <= 0) | (p > 1) | np.isnan(p)):
        raise ValueError("p-values must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    out = np.empty(m, dtype=np.float64)
    out[order] = adjusted
    return out


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n_perms: int
    alpha: float

    @property
    def reject(self) -> bool:
        return self.p_value < self.alpha


def group_permutation_test(a, b, n_perms: int = DEFAULT_GROUP_PERMS, seed: int = 0,
                           alpha: float = 0.05) -> TestResult:
    """Two-sided label-permutation test of equal means between two samples.

    The statistic is the absolute difference of group means.  Labels are
    permuted over the sorted pooled sample with the smaller group assigned
    first, which makes the p-value exactly invariant to swapping the inputs.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two values per group")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("group values must be finite")
    observed = abs(a.mean() - b.mean())
    pool = np.sort(np.concatenate([a, b]))
    n_small = min(a.size, b.size)
    n_total = pool.size
    total = pool.sum()
    rng = np.random.default_rng(seed)
    count = 0
    chunk = max(1, 2_000_000 // n_total)
    done = 0
    while done < n_perms:
        m = min(chunk, n_perms - done)
        # the order of rng.random((m, n_total)), tied keys in column order
        idx = _order_rows(rng.bit_generator.random_raw((m, n_total)))[:, :n_small]
        sums = pool[idx].sum(axis=1)
        means_small = sums / n_small
        means_rest = (total - sums) / (n_total - n_small)
        count += int((np.abs(means_small - means_rest) >= observed).sum())
        done += m
    p = (1 + count) / (n_perms + 1)
    return TestResult(statistic=float(observed), p_value=float(p),
                      n_perms=n_perms, alpha=alpha)
