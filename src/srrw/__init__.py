"""Self-regulating random walk (SRRW) simulation and analysis toolkit."""

__version__ = "0.3.0"

from .analysis import (
    CorridorStats,
    FeasibilityReport,
    check_corridor_feasibility,
    check_feasibility,
    corridor_distance,
    corridor_stats,
    lyapunov_drift,
)
from .envelopes import (
    EnvelopeModel,
    MatchingAgeInterval,
    doeblin_constants,
    fit_constants,
    fork_intensity,
    laplace,
    solve_matching_age,
)
from .graphs import (
    Graph,
    MixingProfile,
    StationaryDistribution,
    TransitionKernel,
    lazy_kernel,
    mixing_profile,
    stationary_distribution,
)
from .policy import AgeLaw, PolicySpec, RegimePolicy, mean_termination_rate
from .population import (
    BlockPlan,
    PopulationState,
    PopulationTrace,
    StepCounts,
    StepRows,
    TrapProfile,
    block_drift,
    gw_baseline,
    occupancy_check,
    run_population,
    step,
)
from .return_time import ReturnTimeSample, empirical_tail, sample_return_times

__all__ = [
    "AgeLaw",
    "BlockPlan",
    "CorridorStats",
    "EnvelopeModel",
    "FeasibilityReport",
    "Graph",
    "MatchingAgeInterval",
    "MixingProfile",
    "PolicySpec",
    "PopulationState",
    "PopulationTrace",
    "RegimePolicy",
    "ReturnTimeSample",
    "StationaryDistribution",
    "StepCounts",
    "StepRows",
    "TransitionKernel",
    "TrapProfile",
    "__version__",
    "block_drift",
    "check_corridor_feasibility",
    "check_feasibility",
    "corridor_distance",
    "corridor_stats",
    "doeblin_constants",
    "empirical_tail",
    "fit_constants",
    "fork_intensity",
    "gw_baseline",
    "laplace",
    "lazy_kernel",
    "lyapunov_drift",
    "mean_termination_rate",
    "mixing_profile",
    "occupancy_check",
    "run_population",
    "sample_return_times",
    "solve_matching_age",
    "stationary_distribution",
    "step",
]
