"""Bilevel mining-taxation game: models, solvers, and oracles."""

from .model import (
    AnalyticalParams,
    ExtendedModel,
    LeaderStrategy,
    StrataTable,
    TechParams,
    analytical_as_extended,
    cumulative_cost,
    default_config,
    leader_objectives,
    load_config,
)
from .analytical import (
    WeightedSolution,
    feasibility_threshold,
    follower_best_response,
    optimal_extraction,
    optimal_tax,
    pareto_sweep,
)
from .lower import (
    BestResponse,
    best_response,
    best_response_fixed_tech,
)
from .bilevel import (
    ArchiveEntry,
    EaConfig,
    EvolveResult,
    ParetoArchive,
    crowding_distance,
    evolve,
    nondominated_sort,
    reference_point,
)

__all__ = [
    "AnalyticalParams",
    "ArchiveEntry",
    "BestResponse",
    "EaConfig",
    "EvolveResult",
    "ExtendedModel",
    "LeaderStrategy",
    "ParetoArchive",
    "StrataTable",
    "TechParams",
    "WeightedSolution",
    "analytical_as_extended",
    "best_response",
    "best_response_fixed_tech",
    "crowding_distance",
    "cumulative_cost",
    "default_config",
    "evolve",
    "feasibility_threshold",
    "follower_best_response",
    "leader_objectives",
    "load_config",
    "nondominated_sort",
    "optimal_extraction",
    "optimal_tax",
    "pareto_sweep",
    "reference_point",
]
