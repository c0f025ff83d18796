"""Spectral learning of mixed MNL models from sparse pairwise comparisons.

Two-phase method: a moment phase recovers the mixture proportions and each
component's per-pair outcome means from second- and third-order sign
statistics, then a random-walk phase turns each outcome-mean vector into
item weights via its stationary distribution.
"""

from .altmin import AltMinResult, WhiteningBasis, altmin_complete, symmetrize_and_eig
from .errors import (
    DegenerateTensorError,
    GraphGenerationError,
    MixMNLError,
    NumericalError,
    RankDeficiencyError,
    ValidationError,
)
from .graphs import ComparisonGraph, GraphDiagnostics, erdos_renyi
from .model import (
    MixedMNLModel,
    Observation,
    ObservationBatch,
    marginally_identical_mixtures,
    random_uniform_model,
)
from .moments import (
    SecondMomentEstimate,
    empirical_second_moment,
    exact_second_moment,
    exact_third_moment,
    incoherence_from_basis,
    projected_third_moment,
    split_ranges,
)
from .pipeline import (
    ComponentEstimates,
    LearnConfig,
    MatchResult,
    check_conditions,
    evaluate,
    learn_mixed_mnl,
    match_components,
    run_sweep,
)
from .rankcentrality import (
    PowerIterationResult,
    TransitionMatrix,
    build_transition,
    power_stationary,
    project_outcomes,
    rank_centrality,
)
from .serialize import (
    load_dataset,
    load_results,
    save_dataset,
    save_results,
)
from .spectral import (
    MixtureMomentsEstimate,
    components_from_exact_moments,
    components_from_factors,
    estimate_components,
)
from .tensors import (
    TensorEigenpairs,
    TensorLSResult,
    tensor_power_decomposition,
    whitened_third_moment_ls,
    whitened_third_moment_ls_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AltMinResult",
    "ComparisonGraph",
    "ComponentEstimates",
    "DegenerateTensorError",
    "GraphDiagnostics",
    "GraphGenerationError",
    "LearnConfig",
    "MatchResult",
    "MixMNLError",
    "MixedMNLModel",
    "MixtureMomentsEstimate",
    "NumericalError",
    "Observation",
    "ObservationBatch",
    "PowerIterationResult",
    "RankDeficiencyError",
    "SecondMomentEstimate",
    "TensorEigenpairs",
    "TensorLSResult",
    "TransitionMatrix",
    "ValidationError",
    "WhiteningBasis",
    "altmin_complete",
    "build_transition",
    "check_conditions",
    "components_from_exact_moments",
    "components_from_factors",
    "empirical_second_moment",
    "erdos_renyi",
    "estimate_components",
    "evaluate",
    "exact_second_moment",
    "exact_third_moment",
    "incoherence_from_basis",
    "learn_mixed_mnl",
    "load_dataset",
    "load_results",
    "marginally_identical_mixtures",
    "match_components",
    "power_stationary",
    "project_outcomes",
    "projected_third_moment",
    "random_uniform_model",
    "rank_centrality",
    "run_sweep",
    "save_dataset",
    "save_results",
    "split_ranges",
    "symmetrize_and_eig",
    "tensor_power_decomposition",
    "whitened_third_moment_ls",
    "whitened_third_moment_ls_exact",
    "__version__",
]
