"""Self-regulating random walk (SRRW) simulation and analysis toolkit."""

__version__ = "0.8.0"

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
    step_rows,
)
from .return_time import ReturnTimeSample, sample_return_times
from .tails import TailSpectrum

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
    "TailSpectrum",
    "TransitionKernel",
    "TrapProfile",
    "__version__",
    "block_drift",
    "check_corridor_feasibility",
    "check_feasibility",
    "corridor_distance",
    "corridor_stats",
    "doeblin_constants",
    "fit_constants",
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
    "step_rows",
]
