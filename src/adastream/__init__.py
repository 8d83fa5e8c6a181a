"""adastream: a deterministic simulator for threshold-driven adaptive video
streaming managed by a monitor/analyze/plan/execute control loop over a
shared knowledge base.

Every public name is imported from its home module on first use (PEP 562),
so `import adastream` alone loads no submodule, and the engine's path
(`adastream.mapek`) never loads the report and experiment code.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it binds
_EXPORTS = {
    "kb": (
        "AdaptationSpace", "AdaptationStrategy", "KnowledgeBase", "RunRecord", "StreamConfig",
        "default_space",
    ),
    "mapek": ("Engine", "EngineResult"),
    "metrics": (
        "PERFORMANCE_PRESETS", "QUALITY_PRESETS", "PerformanceReport", "aggregate",
        "config_quality_score", "quality_performance", "system_performance", "time_performance",
    ),
    "netsim": (
        "BandwidthTrace", "FaultSchedule", "FaultWindow", "SpeedSample", "compute_threshold",
        "generate_trace", "probe",
    ),
    "scenario": ("ScenarioConfig", "load_scenario", "parse_scenario"),
    "experiment": ("compare", "run_experiment"),
    "stream": ("StreamState",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
