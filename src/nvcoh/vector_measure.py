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
column.  The seed-free neighbour search runs once per distinct predictor set
and is shared by all terms and by both directions of `t_n_star`; below
`rank_core._EXHAUSTIVE_MAX_N` rows its squared distances are summed from
per-column pieces shared between sets with a common prefix (up to seven
columns, see `rank_core`).  Exact ties are then resolved per term with that
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
    "DegenerateDenominatorError",
    "FeatureMatrixPair",
    "PermutationPlan",
    "make_plan",
    "term_seed",
    "t_n",
    "t_n_bar",
    "t_n_star",
]

DENOM_EPS = 1e-9
DEFAULT_MAX_PERMS = 24


class DegenerateDenominatorError(ArithmeticError):
    """The response-only denominator collapsed below the tolerance."""


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

    def swapped(self) -> "FeatureMatrixPair":
        return FeatureMatrixPair(x=self.y, y=self.x)


@dataclass(frozen=True)
class PermutationPlan:
    """A set of distinct response-column orderings to average over."""

    q: int
    perms: tuple[tuple[int, ...], ...]
    mode: str
    seed: int = 0

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
        expected = "exhaustive" if len(perms) == math.factorial(self.q) else "sampled"
        if self.mode != expected:
            raise ValueError(f"mode must be {expected!r} for Q={len(perms)}, q={self.q}")
        object.__setattr__(self, "perms", perms)

    @property
    def n_perms(self) -> int:
        return len(self.perms)


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
        return PermutationPlan(q=q, perms=tuple(iter_permutations(range(q))),
                               mode="exhaustive", seed=seed)
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    perms: list[tuple[int, ...]] = []
    while len(perms) < n_perms:
        cand = tuple(int(i) for i in rng.permutation(q))
        if cand not in seen:
            seen.add(cand)
            perms.append(cand)
    return PermutationPlan(q=q, perms=tuple(perms), mode="sampled", seed=seed)


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
        self.z = np.hstack([pair.x, pair.y])[:, order]
        pos = {c: i for i, c in enumerate(order)}
        self.x_cols = tuple(pos[i] for i in range(pair.p))
        self.y_cols = tuple(pos[pair.p + i] for i in range(pair.q))
        self.seed = seed
        self._ranks: dict = {}
        self._neighbors: dict = {}
        self._sums: dict = {}
        self._terms: dict = {}

    def xi(self, direction: str, response: int, predictors: tuple[int, ...]) -> float:
        preds = tuple(sorted(predictors))
        key = (direction, response, preds)
        val = self._terms.get(key)
        if val is None:
            r, l, den = self._ranks_of(response)
            nb = self._neighbors_of(preds)
            n_of = nb.resolve(term_seed(self.seed, direction, self.labels[response],
                                        [self.labels[c] for c in preds])) \
                if nb.tied else nb.n_of
            val = self._terms[key] = rank_core._xi_ratio(r, l, r[n_of], den)
        return val

    def _ranks_of(self, col: int):
        """``(r, l)`` and the xi denominator of one response column."""
        rld = self._ranks.get(col)
        if rld is None:
            r, l = rank_core.compute_ranks(self.z[:, col])
            rld = self._ranks[col] = (r, l, rank_core._xi_denominator(l))
        return rld

    def _neighbors_of(self, preds: tuple[int, ...]):
        nb = self._neighbors.get(preds)
        if nb is None:
            nb = self._neighbors[preds] = rank_core.neighbor_candidates(
                self.z[:, preds], sq=lambda: self._sq(preds))
        return nb

    def _sq(self, preds: tuple[int, ...]) -> np.ndarray:
        """Squared distances over ``preds``, summed column by column in order.

        Every sum is kept, so predictor sets that share a prefix share its work.
        """
        sq = self._sums.get(preds)
        if sq is None:
            if len(preds) == 1:
                sq = rank_core._column_sq(self.z[:, preds[0]])
            else:
                sq = self._sq(preds[:-1]) + self._sq(preds[-1:])
            self._sums[preds] = sq
        return sq


def _t_for_order(graph: _TermGraph, direction: str, x_cols, y_order, eps) -> float:
    q = len(y_order)
    num_sum = 0.0
    den_sum = 0.0
    for ell, resp in enumerate(y_order):
        num_sum += graph.xi(direction, resp, x_cols + y_order[:ell])
        if ell >= 1:
            den_sum += graph.xi(direction, resp, y_order[:ell])
    denominator = q - den_sum
    if denominator <= eps:
        raise DegenerateDenominatorError(
            f"response-only denominator {denominator:.3e} <= eps {eps:.0e}")
    # algebraically 1 - (q - num_sum)/denominator; this form collapses to the
    # single xi value exactly when q == 1
    return (num_sum - den_sum) / denominator


def t_n(pair: FeatureMatrixPair, seed: int = 0, eps: float = DENOM_EPS) -> float:
    """Chained dependence of the response block on the predictor block.

    For q = 1 this is exactly ``xi_n(y, x)``.  The denominator guard is
    defensive: with valid rank data each xi term is bounded by 1, so the
    response-only denominator stays at or above 1.
    """
    graph = _TermGraph(pair, seed)
    return _t_for_order(graph, "y_on_x", graph.x_cols, graph.y_cols, eps)


def _t_bar(graph: _TermGraph, direction: str, x_cols, y_cols, plan, eps) -> float:
    vals = [_t_for_order(graph, direction, x_cols, tuple(y_cols[i] for i in perm), eps)
            for perm in plan.perms]
    return float(np.mean(vals))


def t_n_bar(pair: FeatureMatrixPair, plan: PermutationPlan | None = None,
            seed: int = 0, eps: float = DENOM_EPS) -> float:
    """Mean of ``t_n`` over the plan's response-column orderings."""
    if plan is None:
        plan = make_plan(pair.q, seed=derive_seed(seed, "plan", "y"))
    if plan.q != pair.q:
        raise ValueError(f"plan is for q={plan.q}, pair has q={pair.q}")
    graph = _TermGraph(pair, seed)
    return _t_bar(graph, "y_on_x", graph.x_cols, graph.y_cols, plan, eps)


def t_n_star(pair: FeatureMatrixPair, plan_x: PermutationPlan | None = None,
             plan_y: PermutationPlan | None = None, seed: int = 0,
             eps: float = DENOM_EPS) -> float:
    """Symmetric variant: max of the permutation-invariant means both ways."""
    if plan_y is None:
        plan_y = make_plan(pair.q, seed=derive_seed(seed, "plan", "y"))
    if plan_x is None:
        plan_x = make_plan(pair.p, seed=derive_seed(seed, "plan", "x"))
    if plan_y.q != pair.q or plan_x.q != pair.p:
        raise ValueError("plan dimensions do not match the pair")
    graph = _TermGraph(pair, seed)
    forward = _t_bar(graph, "y_on_x", graph.x_cols, graph.y_cols, plan_y, eps)
    reverse = _t_bar(graph, "x_on_y", graph.y_cols, graph.x_cols, plan_x, eps)
    return max(forward, reverse)
