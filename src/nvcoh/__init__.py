"""Nonlinear vector coherence: rank-based spectral dependence between
multivariate time series, with a permutation-of-ranks independence test,
classical band-coherence and band-power baselines, and a Monte Carlo
simulation harness.
"""

__version__ = "0.1.0"

from .baselines import bandpass, pbc, rbp, region_pbc
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
from .simulation import CASES, gen_case, gen_latent, run_study
from .spectral import (
    CANONICAL_BANDS,
    FrequencyBand,
    SpectralDependenceProfile,
    TimeSeriesMatrix,
    band_summary,
    block_periodograms,
    nvc_profile,
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
