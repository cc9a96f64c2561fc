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

One plan class, `_MontagePlan`, compiles the terms of many region pairs
over one column space, each region's channels once, cached by the region
widths and each pair's regions and response orderings: per pair the term
keys and the term indices of every ordering's chain.  Pairs that share a
region share its predictor sets and its response ranks; `t_n`, `t_n_bar`
and `t_n_star` run the one-pair plan.  Each stack of frequencies makes one
call of `rank_core._xi_terms`, the evaluator that `rank_core.xi_n` runs as one term
at one frequency: one neighbour sweep over the distinct sets in
lexicographic order (shared by all pairs, both directions of `t_n_star` and
the stack's frequencies), one stable sort ranking every response channel at
every frequency, one integer reduction for each distinct (response, set)
pair's xi ratio, which the terms of that pair share.  The chains follow per
pair, as vector sums across orderings and frequencies.
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
    """Predictor block ``x`` (n x p) and response block ``y`` (n x q).

    A 1-D side of n values is read as one column.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        # a vector is one column, as in `rank_core._predictor_matrix`
        x = x[:, None] if x.ndim == 1 else x
        y = y[:, None] if y.ndim == 1 else y
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("each block must be a vector or an (n, d) matrix")
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


def _measure_plans(measure: str, p: int, q: int, seed: int,
                   plan_x: PermutationPlan | None = None,
                   plan_y: PermutationPlan | None = None,
                   n_perms: int | None = None) -> tuple[PermutationPlan | None,
                                                        PermutationPlan]:
    """``(plan_x, plan_y)`` of ``measure`` on p predictor and q response columns.

    A plan the caller passes is kept; a missing ``plan_y``, and under
    ``tstar`` a missing ``plan_x``, is `_default_plan` of its side's
    dimension with a budget of ``n_perms`` orderings.  A plan of another
    dimension than its side raises.
    """
    if plan_y is None:
        plan_y = _default_plan(q, n_perms, seed)
    if plan_x is None and measure == "tstar":
        plan_x = _default_plan(p, n_perms, seed)
    if plan_y.q != q or (plan_x is not None and plan_x.q != p):
        raise ValueError("plan dimensions do not match the pair")
    return plan_x, plan_y


def term_seed(seed: int, direction: str, response: str, predictors) -> int:
    """Seed of one xi sub-evaluation; depends on the term, not the ordering."""
    return derive_seed(seed, direction, response, tuple(sorted(predictors)))


class _MontagePlan:
    """Every xi term of a montage's region pairs, compiled into one column space.

    ``widths`` gives each region's channel count; its columns follow one
    another in region order.  ``pairs`` lists ``(x region, y region, sides)``,
    where ``sides`` lists, per direction of the statistic, its response
    orderings.  Within a pair, channels are named ``x0 .. x{p-1}`` and
    ``y0 .. y{q-1}``, and a predictor set is held in label (string) order:
    the summation order of the squared distances and the ``repr`` entering
    `term_seed` both follow it, so every squared distance is summed as for
    the pair alone, and a region paired with itself repeats its columns.
    The plan holds:

    * ``term_keys``, each pair's distinct keys ``(direction, response,
      predictors)`` in first-use order (an ordering's numerator term before
      its denominator term), pair after pair, and ``term_pair``, the pair of
      each term;
    * ``chains``, per pair and side, the term indices of each ordering's
      numerator and denominator chains, one row per ordering;
    * ``sets``, the distinct column tuples of all terms in lexicographic
      order, and ``responses``, the distinct response columns, so one sweep
      searches each set once and one sort ranks each channel once.
    """

    def __init__(self, widths: tuple[int, ...], pairs):
        offsets = np.cumsum((0,) + widths).tolist()
        self.chains, self.term_pair, self.term_keys = [], [], []
        set_cols, resp_cols = [], []
        for i, (a, b, sides) in enumerate(pairs):
            x = [f"x{c}" for c in range(widths[a])]
            y = [f"y{c}" for c in range(widths[b])]
            column = dict(zip(x + y, [*range(offsets[a], offsets[a + 1]),
                                      *range(offsets[b], offsets[b + 1])]))
            blocks = {"y_on_x": (x, y), "x_on_y": (y, x)}
            index: dict = {}

            def term(direction, response, predictors):
                key = (direction, response, tuple(sorted(predictors)))
                if key not in index:
                    index[key] = len(self.term_keys)
                    self.term_keys.append(key)
                    self.term_pair.append(i)
                    set_cols.append(tuple(column[c] for c in key[2]))
                    resp_cols.append(column[response])
                return index[key]

            chains = []
            for direction, perms in sides:
                preds, resps = blocks[direction]
                num, den = [], []
                for perm in perms:
                    order = [resps[c] for c in perm]
                    num_row, den_row = [], []
                    for ell, resp in enumerate(order):
                        num_row.append(term(direction, resp, preds + order[:ell]))
                        if ell >= 1:
                            den_row.append(term(direction, resp, order[:ell]))
                    num.append(num_row)
                    den.append(den_row)
                chains.append((np.array(num, dtype=np.intp), np.array(den, dtype=np.intp)))
            self.chains.append(chains)
        self.sets = sorted(set(set_cols))
        self.responses = sorted(set(resp_cols))
        set_of = {cols: i for i, cols in enumerate(self.sets)}
        resp_of = {c: i for i, c in enumerate(self.responses)}
        self.term_set = np.array([set_of[cols] for cols in set_cols])
        self.term_resp = np.array([resp_of[c] for c in resp_cols])

    def term_values(self, z: np.ndarray, seed_at) -> np.ndarray:
        """The xi value of every term at each of a stack of frequencies.

        ``z`` holds the montage columns at each frequency, ``(k, n,
        columns)``, and ``seed_at(f, i)`` gives pair i's seed at frequency f;
        it is called only for a term whose set has exact ties there.  One
        call of `rank_core._xi_terms`, the evaluator behind `xi_n`, for the
        whole stack: a term whose set has exact ties at a frequency resolves
        them with its own `term_seed` there.  Returns ``(k, terms)``, NaN
        where a term's response is constant.
        """
        def seed_of(f, t):
            return term_seed(seed_at(f, self.term_pair[t]), *self.term_keys[t])

        return rank_core._xi_terms(z[:, :, self.responses].transpose(0, 2, 1), z,
                                   self.sets, self.term_resp, self.term_set, seed_of)

    def estimates(self, vals: np.ndarray) -> list[np.ndarray]:
        """Each pair's statistic at every row of term values, ``(k, terms)``.

        Per side, the mean of the chained statistic over its orderings; the
        larger side's where there are two.  A NaN term makes its row NaN.
        """
        out = []
        for chains in self.chains:
            means = []
            for num_idx, den_idx in chains:
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
            # like max(), np.maximum keeps the first side on a tie; unlike it,
            # it propagates NaN
            out.append(functools.reduce(np.maximum, means))
        return out


@functools.lru_cache(maxsize=128)
def _montage_plan(widths: tuple[int, ...], pairs) -> _MontagePlan:
    return _MontagePlan(widths, pairs)


def _sides(measure: str, q: int, plan_x: PermutationPlan | None = None,
           plan_y: PermutationPlan | None = None) -> tuple:
    """The `_MontagePlan` sides of ``measure``, one of ``t``, ``tbar`` and ``tstar``."""
    if measure == "t":
        return (("y_on_x", (tuple(range(q)),)),)
    if measure == "tbar":
        return (("y_on_x", plan_y.perms),)
    return (("y_on_x", plan_y.perms), ("x_on_y", plan_x.perms))


def _statistic(pair: FeatureMatrixPair, sides, seed: int) -> float:
    """The statistic of one pair at one frequency: the one-pair montage plan.

    Raises `rank_core.DegenerateRanksError` when a response column is constant.
    """
    plan = _montage_plan((pair.p, pair.q), ((0, 1, sides),))
    vals = plan.term_values(np.hstack([pair.x, pair.y])[None], lambda f, i: seed)
    if np.isnan(vals).any():
        raise rank_core.DegenerateRanksError("all response values are tied")
    return float(plan.estimates(vals)[0][0])


def t_n(pair: FeatureMatrixPair, seed: int = 0) -> float:
    """Chained dependence of the response block on the predictor block.

    For q = 1 this is exactly ``xi_n(y, x)``.  Each xi term is at most 1, so
    the response-only denominator ``q - sum`` never drops below 1.
    """
    return _statistic(pair, _sides("t", pair.q), seed)


def t_n_bar(pair: FeatureMatrixPair, plan: PermutationPlan | None = None,
            seed: int = 0) -> float:
    """Mean of ``t_n`` over the plan's response-column orderings."""
    plans = _measure_plans("tbar", pair.p, pair.q, seed, plan_y=plan)
    return _statistic(pair, _sides("tbar", pair.q, *plans), seed)


def t_n_star(pair: FeatureMatrixPair, plan_x: PermutationPlan | None = None,
             plan_y: PermutationPlan | None = None, seed: int = 0) -> float:
    """Symmetric variant: max of the permutation-invariant means both ways."""
    plans = _measure_plans("tstar", pair.p, pair.q, seed, plan_x, plan_y)
    return _statistic(pair, _sides("tstar", pair.q, *plans), seed)
