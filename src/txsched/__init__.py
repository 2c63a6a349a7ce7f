"""Overlap-minimizing start-time scheduling for shared-channel broadcasts.

The package has four layers: `core` (the time model and overlap cost),
`schedulers` (greedy, exhaustive, and random start-time assignment),
`simulator` (a deterministic CSMA/CA channel), and the experiment
harness (`scenario`, `experiment`, `cli`).
"""

from .core import (
    InadmissibleRequestError,
    Schedule,
    TimePoint,
    TimeSpan,
    TransmissionRequest,
    compute_duration,
    feasible,
    total_cost,
    window,
)
from .experiment import (
    ComparisonSummary,
    MissingSchedulerError,
    SchedulerSummary,
    SweepRow,
    SweepTable,
    format_summary,
    read_table,
    render,
    report_comparison,
    rescale_requests,
    run_experiment,
    run_scheduler,
)
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    WindowSweep,
    load_scenario,
    parse_scenario,
)
from .schedulers import (
    InstanceTooLargeError,
    ScheduleResult,
    SchedulerConfig,
    exhaustive_schedule,
    random_schedule,
    tsgs_schedule,
)
from .simulator import (
    ChannelConfig,
    ConnectionStats,
    SimReport,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ComparisonSummary",
    "ConnectionStats",
    "InadmissibleRequestError",
    "InstanceTooLargeError",
    "MissingSchedulerError",
    "ScenarioError",
    "ScenarioSpec",
    "Schedule",
    "ScheduleResult",
    "SchedulerConfig",
    "SchedulerSummary",
    "SimReport",
    "SweepRow",
    "SweepTable",
    "TimePoint",
    "TimeSpan",
    "TransmissionRequest",
    "WindowSweep",
    "compute_duration",
    "exhaustive_schedule",
    "feasible",
    "format_summary",
    "load_scenario",
    "parse_scenario",
    "random_schedule",
    "read_table",
    "render",
    "report_comparison",
    "rescale_requests",
    "run_experiment",
    "run_scheduler",
    "simulate",
    "total_cost",
    "tsgs_schedule",
    "window",
]
