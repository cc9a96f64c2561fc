"""Sequential vector dependence statistic and its permutation-invariant forms.

The statistic chains the scalar xi coefficient over the response columns:
each component is scored against the predictors plus the previously handled
response components, and the chained scores are folded into a single
predictability value.  Because xi is asymmetric, a permutation-invariant mean
over response-column orderings and a symmetric max over both directions are
provided as well.

Every xi sub-evaluation is keyed by (direction, response column, set of
predictor columns) and seeded from that key, so identical terms appearing
under several column orderings are computed once and the whole computation is
reproducible term by term.

The terms of `t_n`, `t_n_bar` and `t_n_star` are compiled once per pair
shape into a `_TermPlan`, cached by ``(p, q)`` and the orderings of each
direction: the term keys, the distinct predictor sets in lexicographic
order, the response columns, and the term indices of every ordering's chain.
Each frequency then makes one call of `rank_core._xi_terms`, the evaluator
that `rank_core.xi_n` runs as one term: one neighbour sweep over the sorted
sets (shared by all terms and both directions of `t_n_star`), one stable
sort ranking every response column, one integer reduction for every term's
xi ratio; the chains follow as vector sums across orderings.  Exact ties are
resolved per term with that term's seed, derived only when the search found
a tie, so every term equals ``xi_n(response, predictors, seed=term_seed(...))``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

import numpy as np

from . import rank_core
from .rank_core import derive_seed, xi_n  # noqa: F401  (bench/layers.py wraps xi_n here)

__all__ = [
    "FeatureMatrixPair",
    "PermutationPlan",
    "make_plan",
    "term_seed",
    "t_n",
    "t_n_bar",
    "t_n_star",
]

DEFAULT_MAX_PERMS = 24


@dataclass(frozen=True)
class FeatureMatrixPair:
    """Predictor block ``x`` (n x p) and response block ``y`` (n x q)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        y = np.atleast_2d(np.asarray(self.y, dtype=np.float64))
        if x.shape[0] == 1 and y.shape[0] > 1:
            x = x.T
        if y.shape[0] == 1 and x.shape[0] > 1:
            y = y.T
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[0] < 2:
            raise ValueError("need at least two rows")
        if x.shape[1] < 1 or y.shape[1] < 1:
            raise ValueError("need at least one column per block")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.y.shape[1]


@dataclass(frozen=True)
class PermutationPlan:
    """A set of distinct response-column orderings to average over."""

    q: int
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        perms = tuple(tuple(int(i) for i in p) for p in self.perms)
        if not perms:
            raise ValueError("plan needs at least one permutation")
        base = tuple(range(self.q))
        for p in perms:
            if tuple(sorted(p)) != base:
                raise ValueError(f"{p} is not a permutation of 0..{self.q - 1}")
        if len(set(perms)) != len(perms):
            raise ValueError("permutations must be pairwise distinct")
        object.__setattr__(self, "perms", perms)

    @property
    def n_perms(self) -> int:
        return len(self.perms)

    @property
    def mode(self) -> str:
        """``"exhaustive"`` when the plan holds all q! orderings, else ``"sampled"``."""
        return "exhaustive" if self.n_perms == math.factorial(self.q) else "sampled"


def make_plan(q: int, n_perms: int | None = None, seed: int = 0) -> PermutationPlan:
    """Exhaustive plan when q! fits the budget, else uniformly sampled orderings.

    Sampling is without replacement; requesting at least q! orderings yields
    the exhaustive plan.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    total = math.factorial(q)
    if n_perms is None:
        n_perms = min(DEFAULT_MAX_PERMS, total)
    if n_perms < 1:
        raise ValueError("n_perms must be >= 1")
    if n_perms >= total:
        return PermutationPlan(q=q, perms=tuple(iter_permutations(range(q))))
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    perms: list[tuple[int, ...]] = []
    while len(perms) < n_perms:
        cand = tuple(int(i) for i in rng.permutation(q))
        if cand not in seen:
            seen.add(cand)
            perms.append(cand)
    return PermutationPlan(q=q, perms=tuple(perms))


def _default_plan(dim: int, n_perms: int | None, seed: int) -> PermutationPlan:
    """The plan used when a caller passes none: seeded by ``(seed, "plan", dim)``.

    Keying by dimension rather than by side means every caller that shares a
    master seed shares one plan per dimension.
    """
    return make_plan(dim, n_perms, seed=derive_seed(seed, "plan", dim))


def term_seed(seed: int, direction: str, response: str, predictors) -> int:
    """Seed of one xi sub-evaluation; depends on the term, not the ordering."""
    return derive_seed(seed, direction, response, tuple(sorted(predictors)))


class _TermPlan:
    """Every xi term of one pair shape's statistic, compiled once and cached.

    ``sides`` lists, per direction of the statistic, its response orderings.
    Columns are indexed by the position of their label (``x0 .. y{q-1}``) in
    string order, so a sorted index tuple is a label-sorted predictor set:
    the summation order of the squared distances and the ``repr`` entering
    `term_seed` both follow it.  The plan holds:

    * ``terms``, the keys ``(direction, response, predictors)`` in first-use
      order (an ordering's numerator term before its denominator term);
    * ``sets``, the distinct predictor sets in lexicographic order, and
      ``responses``, the response columns;
    * per term, the index of its set and of its response;
    * per side, the term indices of each ordering's numerator and denominator
      chains, one row per ordering.
    """

    def __init__(self, p: int, q: int, sides):
        labels = [f"x{i}" for i in range(p)] + [f"y{i}" for i in range(q)]
        self.order = sorted(range(p + q), key=labels.__getitem__)
        self.labels = [labels[c] for c in self.order]
        pos = {c: i for i, c in enumerate(self.order)}
        x_cols = tuple(pos[i] for i in range(p))
        y_cols = tuple(pos[p + i] for i in range(q))
        blocks = {"y_on_x": (x_cols, y_cols), "x_on_y": (y_cols, x_cols)}
        index: dict = {}

        def term(direction, response, predictors):
            return index.setdefault((direction, response, tuple(sorted(predictors))),
                                    len(index))

        self.chains = []
        for direction, perms in sides:
            pred_cols, resp_cols = blocks[direction]
            num, den = [], []
            for perm in perms:
                order = tuple(resp_cols[i] for i in perm)
                num_row, den_row = [], []
                for ell, resp in enumerate(order):
                    num_row.append(term(direction, resp, pred_cols + order[:ell]))
                    if ell >= 1:
                        den_row.append(term(direction, resp, order[:ell]))
                num.append(num_row)
                den.append(den_row)
            self.chains.append((np.array(num, dtype=np.intp), np.array(den, dtype=np.intp)))
        self.terms = list(index)
        self.sets = sorted({preds for _, _, preds in self.terms})
        self.responses = sorted({resp for _, resp, _ in self.terms})
        set_of = {preds: i for i, preds in enumerate(self.sets)}
        resp_of = {resp: i for i, resp in enumerate(self.responses)}
        self.term_set = np.array([set_of[preds] for _, _, preds in self.terms])
        self.term_resp = np.array([resp_of[resp] for _, resp, _ in self.terms])

    def term_values(self, pair: FeatureMatrixPair, seed: int) -> np.ndarray:
        """The xi value of every term on one pair, in the order of ``terms``.

        One call of `rank_core._xi_terms`, the evaluator behind `xi_n`: a
        term whose set has exact ties resolves them with its own seed, so
        each value equals ``xi_n(response, predictors, seed=term_seed(...))``
        bit for bit.  Raises `rank_core.DegenerateRanksError` when a response
        column is constant.
        """
        z = np.hstack([pair.x, pair.y])[:, self.order]

        def seed_of(t):
            direction, resp, preds = self.terms[t]
            return term_seed(seed, direction, self.labels[resp],
                             [self.labels[c] for c in preds])

        return rank_core._xi_terms(z[:, self.responses].T, z, self.sets,
                                   self.term_resp, self.term_set, seed_of)

    def side_means(self, pair: FeatureMatrixPair, seed: int) -> list[float]:
        """Per side, the mean of the chained statistic over its orderings."""
        vals = self.term_values(pair, seed)
        means = []
        for num_idx, den_idx in self.chains:
            # summed term by term, left to right, as the chain is defined
            num_sum = np.zeros(num_idx.shape[0])
            for col in num_idx.T:
                num_sum += vals[col]
            den_sum = np.zeros(num_idx.shape[0])
            for col in den_idx.T:
                den_sum += vals[col]
            # Each xi term is at most 1: its numerator sum(n*min(r, r_nn) - l^2)
            # is at most sum(n*r - l^2), which equals the denominator
            # sum(l*(n-l)) because sum(r) == sum(l) (both count the ordered
            # pairs with u_i <= u_j).  The q-1 terms of den_sum thus leave
            # q - den_sum >= 1, in floats as well.  The form below is
            # algebraically 1 - (q - num_sum)/(q - den_sum) and collapses to
            # the single xi value exactly when q == 1.
            q = num_idx.shape[1]
            means.append(float(np.mean((num_sum - den_sum) / (q - den_sum))))
        return means


@functools.lru_cache(maxsize=128)
def _term_plan(p: int, q: int, sides) -> _TermPlan:
    return _TermPlan(p, q, sides)


def t_n(pair: FeatureMatrixPair, seed: int = 0) -> float:
    """Chained dependence of the response block on the predictor block.

    For q = 1 this is exactly ``xi_n(y, x)``.  Each xi term is at most 1, so
    the response-only denominator ``q - sum`` never drops below 1.
    """
    sides = (("y_on_x", (tuple(range(pair.q)),)),)
    return _term_plan(pair.p, pair.q, sides).side_means(pair, seed)[0]


def t_n_bar(pair: FeatureMatrixPair, plan: PermutationPlan | None = None,
            seed: int = 0) -> float:
    """Mean of ``t_n`` over the plan's response-column orderings."""
    if plan is None:
        plan = _default_plan(pair.q, None, seed)
    if plan.q != pair.q:
        raise ValueError(f"plan is for q={plan.q}, pair has q={pair.q}")
    sides = (("y_on_x", plan.perms),)
    return _term_plan(pair.p, pair.q, sides).side_means(pair, seed)[0]


def t_n_star(pair: FeatureMatrixPair, plan_x: PermutationPlan | None = None,
             plan_y: PermutationPlan | None = None, seed: int = 0) -> float:
    """Symmetric variant: max of the permutation-invariant means both ways."""
    if plan_y is None:
        plan_y = _default_plan(pair.q, None, seed)
    if plan_x is None:
        plan_x = _default_plan(pair.p, None, seed)
    if plan_y.q != pair.q or plan_x.q != pair.p:
        raise ValueError("plan dimensions do not match the pair")
    sides = (("y_on_x", plan_y.perms), ("x_on_y", plan_x.perms))
    forward, reverse = _term_plan(pair.p, pair.q, sides).side_means(pair, seed)
    return max(forward, reverse)
