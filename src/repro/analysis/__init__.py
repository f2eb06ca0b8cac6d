"""Analysis: fixed points, wedgies, convergence rates, bounds, bisimulation."""

from .bisimulation import (
    BisimulationReport,
    check_bisimulation,
    inherited_convergence,
    project_state,
)
from .convergence import (
    SyncMeasurement,
    measure_sync,
    sample_starts,
)
from .fixed_points import (
    FixedPointCensus,
    MultistartReport,
    enumerate_fixed_points,
    multistart_fixed_points,
    stable_columns,
    sync_oscillates,
)
from .rate import RatePoint, RateSweep, rate_sweep
from .robustness import (
    FailureOutcome,
    RobustnessReport,
    failure_sweep,
    inject_failure,
    partition_probe,
    random_multi_failure_sweep,
)
from .theory import TheoryBounds, dv_bounds, pv_bounds

__all__ = [
    "BisimulationReport",
    "FailureOutcome",
    "FixedPointCensus",
    "MultistartReport",
    "RatePoint",
    "RateSweep",
    "SyncMeasurement",
    "TheoryBounds",
    "dv_bounds",
    "enumerate_fixed_points",
    "measure_sync",
    "multistart_fixed_points",
    "pv_bounds",
    "rate_sweep",
    "RobustnessReport",
    "check_bisimulation",
    "failure_sweep",
    "inject_failure",
    "partition_probe",
    "random_multi_failure_sweep",
    "inherited_convergence",
    "project_state",
    "sample_starts",
    "stable_columns",
    "sync_oscillates",
]
