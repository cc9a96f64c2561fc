"""Nonlinear vector coherence: rank-based spectral dependence between
multivariate time series, with a permutation-of-ranks independence test,
classical band-coherence and band-power baselines, and a Monte Carlo
simulation harness.

The names defined by `baselines` and `simulation`, which import
`scipy.signal`, load on first access (PEP 562), so that ``import nvcoh``
needs numpy alone.
"""

__version__ = "0.1.0"

import importlib

from .cases import CASES
from .inference import (
    NullEnsemble,
    TestResult,
    bh_adjust,
    group_permutation_test,
    null_ensemble,
    p_value,
    p_values,
)
from .rank_core import (
    DegenerateRanksError,
    NeighborIndex,
    RankTriple,
    compute_ranks,
    derive_seed,
    nearest_neighbors,
    xi_from_ranks,
    xi_n,
    xi_null,
)
from .spectral import (
    CANONICAL_BANDS,
    FrequencyBand,
    SpectralDependenceProfile,
    TimeSeriesMatrix,
    band_summary,
    block_periodograms,
    nvc_profile,
    rbp,
)
from .vector_measure import (
    FeatureMatrixPair,
    PermutationPlan,
    make_plan,
    t_n,
    t_n_bar,
    t_n_star,
)

__all__ = [
    "__version__",
    "DegenerateRanksError",
    "RankTriple",
    "NeighborIndex",
    "compute_ranks",
    "derive_seed",
    "nearest_neighbors",
    "xi_from_ranks",
    "xi_n",
    "xi_null",
    "FeatureMatrixPair",
    "PermutationPlan",
    "make_plan",
    "t_n",
    "t_n_bar",
    "t_n_star",
    "TimeSeriesMatrix",
    "FrequencyBand",
    "CANONICAL_BANDS",
    "SpectralDependenceProfile",
    "block_periodograms",
    "nvc_profile",
    "band_summary",
    "NullEnsemble",
    "TestResult",
    "null_ensemble",
    "p_value",
    "p_values",
    "bh_adjust",
    "group_permutation_test",
    "bandpass",
    "pbc",
    "region_pbc",
    "rbp",
    "CASES",
    "gen_latent",
    "gen_case",
    "run_study",
]

# public name -> the module that defines it, imported on first access
_LAZY = {"bandpass": "baselines", "pbc": "baselines", "region_pbc": "baselines",
         "gen_latent": "simulation", "gen_case": "simulation", "run_study": "simulation"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
