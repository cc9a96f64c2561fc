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

One `_TermGraph` per feature pair evaluates every term of `t_n`, `t_n_bar`
and `t_n_star`.  Ranks and the xi denominator are computed once per response
column.  One `rank_core.NeighborSearch` over the label-ordered columns serves
every predictor set, searching each distinct set once for all terms and both
directions of `t_n_star`.  Exact ties are then resolved per term with that
term's seed, derived only when the search found a tie, so every term equals
``xi_n(response, predictors, seed=term_seed(...))`` bit for bit.
"""
from __future__ import annotations

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


class _TermGraph:
    """Every xi term of one pair's statistic, evaluated from shared pieces.

    Columns are indexed by the position of their label (``x0 .. y{q-1}``) in
    string order, so a sorted index tuple is a label-sorted predictor set:
    the summation order of the squared distances and the ``repr`` entering
    `term_seed` both follow it.  Ranks are computed once per response column,
    the neighbour search once per predictor set (shared by all terms and both
    directions), and a term's seed is derived only if its search has ties.
    """

    def __init__(self, pair: FeatureMatrixPair, seed: int):
        labels = [f"x{i}" for i in range(pair.p)] + [f"y{i}" for i in range(pair.q)]
        order = sorted(range(len(labels)), key=labels.__getitem__)
        self.labels = [labels[c] for c in order]
        self.search = rank_core.NeighborSearch(np.hstack([pair.x, pair.y])[:, order])
        pos = {c: i for i, c in enumerate(order)}
        self.x_cols = tuple(pos[i] for i in range(pair.p))
        self.y_cols = tuple(pos[pair.p + i] for i in range(pair.q))
        self.seed = seed
        self._ranks: dict = {}
        self._terms: dict = {}

    def xi(self, direction: str, response: int, predictors: tuple[int, ...]) -> float:
        preds = tuple(sorted(predictors))
        key = (direction, response, preds)
        val = self._terms.get(key)
        if val is None:
            r, l, den = self._ranks_of(response)
            nb = self.search.candidates(preds)
            n_of = nb.resolve(term_seed(self.seed, direction, self.labels[response],
                                        [self.labels[c] for c in preds])) \
                if nb.tied else nb.n_of
            val = self._terms[key] = rank_core._xi_ratio(r, l, r[n_of], den)
        return val

    def _ranks_of(self, col: int):
        """``(r, l)`` and the xi denominator of one response column."""
        rld = self._ranks.get(col)
        if rld is None:
            r, l = rank_core.compute_ranks(self.search.z[:, col])
            rld = self._ranks[col] = (r, l, rank_core._xi_denominator(l))
        return rld


def _t_for_order(graph: _TermGraph, direction: str, x_cols, y_order) -> float:
    q = len(y_order)
    num_sum = 0.0
    den_sum = 0.0
    for ell, resp in enumerate(y_order):
        num_sum += graph.xi(direction, resp, x_cols + y_order[:ell])
        if ell >= 1:
            den_sum += graph.xi(direction, resp, y_order[:ell])
    # Each xi term is at most 1: its numerator sum(n*min(r, r_nn) - l^2) is at
    # most sum(n*r - l^2), which equals the denominator sum(l*(n-l)) because
    # sum(r) == sum(l) (both count the ordered pairs with u_i <= u_j).  The
    # q-1 terms of den_sum thus leave q - den_sum >= 1, in floats as well.
    # The form below is algebraically 1 - (q - num_sum)/(q - den_sum) and
    # collapses to the single xi value exactly when q == 1.
    return (num_sum - den_sum) / (q - den_sum)


def t_n(pair: FeatureMatrixPair, seed: int = 0) -> float:
    """Chained dependence of the response block on the predictor block.

    For q = 1 this is exactly ``xi_n(y, x)``.  Each xi term is at most 1, so
    the response-only denominator ``q - sum`` never drops below 1.
    """
    graph = _TermGraph(pair, seed)
    return _t_for_order(graph, "y_on_x", graph.x_cols, graph.y_cols)


def _t_bar(graph: _TermGraph, direction: str, x_cols, y_cols, plan) -> float:
    vals = [_t_for_order(graph, direction, x_cols, tuple(y_cols[i] for i in perm))
            for perm in plan.perms]
    return float(np.mean(vals))


def t_n_bar(pair: FeatureMatrixPair, plan: PermutationPlan | None = None,
            seed: int = 0) -> float:
    """Mean of ``t_n`` over the plan's response-column orderings."""
    if plan is None:
        plan = _default_plan(pair.q, None, seed)
    if plan.q != pair.q:
        raise ValueError(f"plan is for q={plan.q}, pair has q={pair.q}")
    graph = _TermGraph(pair, seed)
    return _t_bar(graph, "y_on_x", graph.x_cols, graph.y_cols, plan)


def t_n_star(pair: FeatureMatrixPair, plan_x: PermutationPlan | None = None,
             plan_y: PermutationPlan | None = None, seed: int = 0) -> float:
    """Symmetric variant: max of the permutation-invariant means both ways."""
    if plan_y is None:
        plan_y = _default_plan(pair.q, None, seed)
    if plan_x is None:
        plan_x = _default_plan(pair.p, None, seed)
    if plan_y.q != pair.q or plan_x.q != pair.p:
        raise ValueError("plan dimensions do not match the pair")
    graph = _TermGraph(pair, seed)
    forward = _t_bar(graph, "y_on_x", graph.x_cols, graph.y_cols, plan_y)
    reverse = _t_bar(graph, "x_on_y", graph.y_cols, graph.x_cols, plan_x)
    return max(forward, reverse)
