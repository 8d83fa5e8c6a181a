"""adastream: a deterministic simulator for threshold-driven adaptive video
streaming managed by a monitor/analyze/plan/execute control loop over a
shared knowledge base."""

from .kb import (
    AdaptationSpace,
    AdaptationStrategy,
    KnowledgeBase,
    RunRecord,
    StreamConfig,
    default_space,
)
from .mapek import Engine, EngineResult, run_loop
from .metrics import (
    PERFORMANCE_PRESETS,
    QUALITY_PRESETS,
    PerformanceReport,
    aggregate,
    config_quality_score,
    quality_performance,
    system_performance,
    time_performance,
)
from .netsim import (
    BandwidthTrace,
    FaultSchedule,
    FaultWindow,
    SpeedSample,
    compute_threshold,
    generate_trace,
    probe,
)
from .scenario import ScenarioConfig, load_scenario, parse_scenario
from .experiment import compare, run_experiment
from .stream import StreamState

__version__ = "0.1.0"

__all__ = [
    "AdaptationSpace",
    "AdaptationStrategy",
    "BandwidthTrace",
    "Engine",
    "EngineResult",
    "FaultSchedule",
    "FaultWindow",
    "KnowledgeBase",
    "PERFORMANCE_PRESETS",
    "PerformanceReport",
    "QUALITY_PRESETS",
    "RunRecord",
    "ScenarioConfig",
    "SpeedSample",
    "StreamConfig",
    "StreamState",
    "aggregate",
    "compare",
    "compute_threshold",
    "config_quality_score",
    "default_space",
    "generate_trace",
    "load_scenario",
    "parse_scenario",
    "probe",
    "quality_performance",
    "run_experiment",
    "run_loop",
    "system_performance",
    "time_performance",
]
