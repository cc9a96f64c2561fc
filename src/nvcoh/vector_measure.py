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
direction: the term keys and the term indices of every ordering's chain.
A `_MontagePlan` composes the term plans of many region pairs over one
column space, each region's channels once, so pairs that share a region
share its predictor sets and its response ranks; a single pair is the
one-pair montage.  Each frequency then makes one call of
`rank_core._xi_terms`, the evaluator that `rank_core.xi_n` runs as one term:
one neighbour sweep over the distinct sets in lexicographic order (shared by
all pairs and both directions of `t_n_star`), one stable sort ranking every
response channel, one integer reduction for every term's xi ratio.  The
chains follow per pair, as vector sums across orderings and frequencies.
Exact ties are resolved per term with that term's seed, derived only when
the search found a tie, so every term equals
``xi_n(response, predictors, seed=term_seed(...))``.  `nvc analyze` runs the
whole montage through one plan; `spectral.nvc_profile` is its one-pair case.
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
    `term_seed` both follow it; ``order`` maps each position to the column
    of ``hstack([x, y])``.  The plan holds:

    * ``terms``, the keys ``(direction, response, predictors)`` in first-use
      order (an ordering's numerator term before its denominator term);
    * per side, the term indices of each ordering's numerator and denominator
      chains, one row per ordering.

    `_MontagePlan` evaluates the terms; a pair alone is a one-pair montage.
    """

    def __init__(self, p: int, q: int, sides):
        self.sides = sides
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

    def term_values(self, pair: FeatureMatrixPair, seed: int) -> np.ndarray:
        """The xi value of every term on one pair, in the order of ``terms``.

        The one-pair case of `_MontagePlan.term_values`: each value equals
        ``xi_n(response, predictors, seed=term_seed(...))`` bit for bit.
        Raises `rank_core.DegenerateRanksError` when a response column is
        constant.
        """
        vals = _montage_plan((pair.p, pair.q), ((0, 1, self.sides),)).term_values(
            np.hstack([pair.x, pair.y]), (seed,))
        if np.isnan(vals).any():
            raise rank_core.DegenerateRanksError("all response values are tied")
        return vals

    def estimates(self, vals: np.ndarray) -> np.ndarray:
        """The statistic of each row of term values, ``(k, len(terms))``.

        Per side, the mean of the chained statistic over its orderings; the
        larger side's where there are two.  A NaN term makes its row NaN.
        """
        means = []
        for num_idx, den_idx in self.chains:
            # summed term by term, left to right, as the chain is defined
            num_sum = np.zeros((vals.shape[0], num_idx.shape[0]))
            for col in num_idx.T:
                num_sum += vals[:, col]
            den_sum = np.zeros((vals.shape[0], num_idx.shape[0]))
            for col in den_idx.T:
                den_sum += vals[:, col]
            # Each xi term is at most 1: its numerator sum(n*min(r, r_nn) - l^2)
            # is at most sum(n*r - l^2), which equals the denominator
            # sum(l*(n-l)) because sum(r) == sum(l) (both count the ordered
            # pairs with u_i <= u_j).  The q-1 terms of den_sum thus leave
            # q - den_sum >= 1, in floats as well.  The form below is
            # algebraically 1 - (q - num_sum)/(q - den_sum) and collapses to
            # the single xi value exactly when q == 1.
            q = num_idx.shape[1]
            means.append(np.mean((num_sum - den_sum) / (q - den_sum), axis=1))
        # like max(), np.maximum keeps the first side on a tie; unlike it, it
        # propagates NaN
        return functools.reduce(np.maximum, means)


@functools.lru_cache(maxsize=128)
def _term_plan(p: int, q: int, sides) -> _TermPlan:
    return _TermPlan(p, q, sides)


class _MontagePlan:
    """Every xi term of a montage's region pairs, compiled into one column space.

    ``widths`` gives each region's channel count; its columns follow one
    another in region order.  ``pairs`` lists ``(x region, y region, sides)``.
    Each pair's cached `_TermPlan` is mapped into this space: a predictor set
    becomes the tuple of its montage columns in the pair's own summation
    order (the label order of ``x0 .. y{q-1}``), so every squared distance is
    summed as for the pair alone, and a region paired with itself repeats its
    columns.  ``sets`` holds the distinct tuples of all pairs in
    lexicographic order and ``responses`` the distinct response columns, so
    one sweep searches each set once and one sort ranks each channel once.
    Terms keep their pair's order, pair after pair; ``pairs`` keeps each
    pair's plan and its slice of the terms.
    """

    def __init__(self, widths: tuple[int, ...], pairs):
        offsets = np.cumsum((0,) + widths).tolist()
        self.pairs, self.term_pair, self.term_keys = [], [], []
        set_cols, resp_cols = [], []
        for i, (a, b, sides) in enumerate(pairs):
            plan = _term_plan(widths[a], widths[b], sides)
            columns = [*range(offsets[a], offsets[a + 1]), *range(offsets[b], offsets[b + 1])]
            col = [columns[c] for c in plan.order]
            start = len(self.term_pair)
            for direction, resp, preds in plan.terms:
                self.term_pair.append(i)
                self.term_keys.append((direction, plan.labels[resp],
                                       [plan.labels[c] for c in preds]))
                set_cols.append(tuple(col[c] for c in preds))
                resp_cols.append(col[resp])
            self.pairs.append((plan, slice(start, len(self.term_pair))))
        self.sets = sorted(set(set_cols))
        self.responses = sorted(set(resp_cols))
        set_of = {cols: i for i, cols in enumerate(self.sets)}
        resp_of = {c: i for i, c in enumerate(self.responses)}
        self.term_set = np.array([set_of[cols] for cols in set_cols])
        self.term_resp = np.array([resp_of[c] for c in resp_cols])

    def term_values(self, z: np.ndarray, seeds) -> np.ndarray:
        """The xi value of every term at one frequency, NaN where its response is constant.

        ``z`` holds the montage columns and ``seeds`` each pair's seed.  One
        call of `rank_core._xi_terms`, the evaluator behind `xi_n`: a term
        whose set has exact ties resolves them with its own `term_seed`.
        """
        def seed_of(t):
            return term_seed(seeds[self.term_pair[t]], *self.term_keys[t])

        return rank_core._xi_terms(z[:, self.responses].T, z, self.sets,
                                   self.term_resp, self.term_set, seed_of)

    def estimates(self, vals: np.ndarray) -> list[np.ndarray]:
        """Each pair's statistic at every row of term values, ``(k, terms)``."""
        return [plan.estimates(vals[:, terms]) for plan, terms in self.pairs]


@functools.lru_cache(maxsize=128)
def _montage_plan(widths: tuple[int, ...], pairs) -> _MontagePlan:
    return _MontagePlan(widths, pairs)


def _sides(measure: str, q: int, plan_x: PermutationPlan | None = None,
           plan_y: PermutationPlan | None = None) -> tuple:
    """The `_TermPlan` sides of ``measure``, one of ``t``, ``tbar`` and ``tstar``."""
    if measure == "t":
        return (("y_on_x", (tuple(range(q)),)),)
    if measure == "tbar":
        return (("y_on_x", plan_y.perms),)
    return (("y_on_x", plan_y.perms), ("x_on_y", plan_x.perms))


def _statistic(pair: FeatureMatrixPair, sides, seed: int) -> float:
    plan = _term_plan(pair.p, pair.q, sides)
    return float(plan.estimates(plan.term_values(pair, seed)[None])[0])


def t_n(pair: FeatureMatrixPair, seed: int = 0) -> float:
    """Chained dependence of the response block on the predictor block.

    For q = 1 this is exactly ``xi_n(y, x)``.  Each xi term is at most 1, so
    the response-only denominator ``q - sum`` never drops below 1.
    """
    return _statistic(pair, _sides("t", pair.q), seed)


def t_n_bar(pair: FeatureMatrixPair, plan: PermutationPlan | None = None,
            seed: int = 0) -> float:
    """Mean of ``t_n`` over the plan's response-column orderings."""
    if plan is None:
        plan = _default_plan(pair.q, None, seed)
    if plan.q != pair.q:
        raise ValueError(f"plan is for q={plan.q}, pair has q={pair.q}")
    return _statistic(pair, _sides("tbar", pair.q, plan_y=plan), seed)


def t_n_star(pair: FeatureMatrixPair, plan_x: PermutationPlan | None = None,
             plan_y: PermutationPlan | None = None, seed: int = 0) -> float:
    """Symmetric variant: max of the permutation-invariant means both ways."""
    if plan_y is None:
        plan_y = _default_plan(pair.q, None, seed)
    if plan_x is None:
        plan_x = _default_plan(pair.p, None, seed)
    if plan_y.q != pair.q or plan_x.q != pair.p:
        raise ValueError("plan dimensions do not match the pair")
    return _statistic(pair, _sides("tstar", pair.q, plan_x, plan_y), seed)
