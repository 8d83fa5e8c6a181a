"""The immutable value types: one contract for each.

Every type is built by keyword, equal by its fields, read-only, and shown
as `Type(field=...)` in the messages that print it. A checked type rejects
each invalid value with the error type and text it has always used.
"""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from adastream import kb, mapek, metrics, netsim
from adastream.errors import InvalidRunError, InvalidTraceError
from adastream.experiment import Comparison, ScenarioArtifacts
from adastream.kb import (
    AdaptationSpace,
    AdaptationStrategy,
    Checked,
    Frozen,
    KnowledgeBase,
    RunRecord,
    StreamConfig,
    default_space,
)
from adastream.mapek import EngineResult
from adastream.metrics import PerformanceReport, PerformanceWeights, QualityWeights
from adastream.netsim import BandwidthTrace, FaultSchedule, FaultWindow, SpeedSample
from adastream.scenario import (
    ScenarioConfig,
    TraceParams,
    UserOverride,
    WarmupParams,
    bundled_config_path,
    load_scenario,
)

LR = StreamConfig("LR", 30, 320, 240, 0.99)
SPACE = default_space()
CONFIG = load_scenario(bundled_config_path("table3-adaptive"))
RECORD = RunRecord(
    run_index=0, scenario="adaptive", duration_us=100, reconfig_us=10, switches=1,
    streamed_us={"LR": 90},
)
GRID = {"tp": {"5r5q": 1.0}}
ARTIFACTS = ScenarioArtifacts(label="adaptive", grid=GRID, records=[RECORD], config_names=("LR", "HR"))
PROBE_DOWN = "probe-unavailable"

# (type, keyword arguments of one valid value, [(changed arguments, error, message)])
CASES = [
    (
        StreamConfig,
        {"name": "LR", "frame_rate": 30, "scale_w": 320, "scale_h": 240, "quality_score": 0.99},
        [
            ({"frame_rate": 0}, ValueError, "frame_rate must be positive, got 0"),
            ({"scale_w": 0}, ValueError, "scale must be positive, got 0x240"),
            ({"scale_h": -1}, ValueError, "scale must be positive, got 320x-1"),
            ({"quality_score": 1.5}, ValueError, "quality_score must be in [0, 1], got 1.5"),
        ],
    ),
    (
        AdaptationSpace,
        {"configs": SPACE.configs},
        [
            ({"configs": ()}, ValueError, "adaptation space must not be empty"),
            ({"configs": (LR, LR)}, ValueError, "config names must be unique, got ['LR', 'LR']"),
        ],
    ),
    (
        AdaptationStrategy,
        {"id": 1, "issued_at_us": 5, "target": "LR", "reason": "below-threshold"},
        [
            (
                {"reason": "panic"},
                ValueError,
                "reason must be one of ('below-threshold', 'above-threshold', 'user-config'), "
                "got 'panic'",
            ),
        ],
    ),
    (
        RunRecord,
        {
            "run_index": 0, "scenario": "adaptive", "duration_us": 100, "reconfig_us": 10,
            "switches": 1, "streamed_us": {"LR": 90},
        },
        [
            ({"run_index": -1}, InvalidRunError, "run index and switches must be non-negative, got -1 and 1"),
            ({"switches": -3}, InvalidRunError, "run index and switches must be non-negative, got 0 and -3"),
            (
                {"streamed_us": {"LR": 100, "HR": -10}},
                InvalidRunError,
                "run 0: negative streamed time in {'LR': 100, 'HR': -10}",
            ),
            ({"duration_us": 0}, InvalidRunError, "run duration must be positive, got 0 us"),
            ({"reconfig_us": 120}, InvalidRunError, "reconfig time 120 us outside [0, 100] us"),
            (
                {"streamed_us": {"LR": 80}},
                InvalidRunError,
                "run 0: time accounting broken: streamed 80 + reconfig 10 != duration 100",
            ),
        ],
    ),
    (
        BandwidthTrace,
        {"uploads": (1.0, 2.0), "step_us": 1_000_000},
        [
            ({"step_us": 0}, InvalidTraceError, "step must be positive, got 0 us"),
            ({"uploads": ()}, InvalidTraceError, "trace must hold at least one sample"),
            ({"uploads": (1.0, -0.5)}, InvalidTraceError, "trace uploads must be non-negative"),
        ],
    ),
    (
        FaultWindow,
        {"start_us": 5, "end_us": 9, "kind": PROBE_DOWN},
        [
            (
                {"kind": "outage"},
                ValueError,
                "fault kind must be one of ('probe-unavailable', 'registry-unavailable'), "
                "got 'outage'",
            ),
            ({"end_us": 5}, ValueError, "fault window start 5 must precede end 5"),
        ],
    ),
    (
        FaultSchedule,
        {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(9, 12, PROBE_DOWN))},
        [
            (
                {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(8, 12, PROBE_DOWN))},
                ValueError,
                "overlapping probe-unavailable fault windows",
            ),
        ],
    ),
    (
        SpeedSample,
        {"t_us": 3_000_000, "upload_mbps": 4.5, "ok": True},
        [({"upload_mbps": -0.5}, ValueError, "upload must be non-negative on a healthy probe")],
    ),
    (
        TraceParams,
        {
            "mean_mbps": 5.0, "amplitude_mbps": 2.0, "period_s": 600.0, "noise_sd_mbps": 0.1,
            "step_us": 1_000_000,
        },
        [],
    ),
    (WarmupParams, {"start_s": 27.0, "end_s": 65.0}, []),
    (UserOverride, {"at_us": 12_000_000, "target": "LR"}, []),
    (
        ScenarioConfig,
        {name: getattr(CONFIG, name) for name in ScenarioConfig._fields},
        [],
    ),
    (
        QualityWeights,
        {"w_rate": 0.5, "w_frame": 0.5},
        [
            (
                {"w_rate": -0.5, "w_frame": 1.5},
                ValueError,
                "quality weights must be non-negative, got QualityWeights(w_rate=-0.5, w_frame=1.5)",
            ),
            (
                {"w_frame": 0.6},
                ValueError,
                "quality weights must sum to 1, got QualityWeights(w_rate=0.5, w_frame=0.6)",
            ),
        ],
    ),
    (
        PerformanceWeights,
        {"w_t": 0.9, "w_q": 0.1},
        [
            (
                {"w_q": -0.1},
                ValueError,
                "performance weights must be non-negative, got PerformanceWeights(w_t=0.9, w_q=-0.1)",
            ),
            (
                {"w_q": 0.2},
                ValueError,
                "performance weights must sum to 1, got PerformanceWeights(w_t=0.9, w_q=0.2)",
            ),
        ],
    ),
    (PerformanceReport, {"scenario": "adaptive", "run_count": 1, "grid": GRID}, []),
    (
        EngineResult,
        {"records": (RECORD,), "kb": KnowledgeBase(), "threshold_mbps": 5.0},
        [],
    ),
    (
        ScenarioArtifacts,
        {"label": "adaptive", "grid": GRID, "records": [RECORD], "config_names": ("LR", "HR")},
        [],
    ),
    (
        Comparison,
        {"artifacts": [ARTIFACTS], "verdicts": {("p1", "5r5q"): "adaptive"}, "adaptive_selection": {}},
        [],
    ),
]


@pytest.mark.parametrize("cls, fields, invalid", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, fields, invalid):
    value = cls(**fields)
    for name, field_value in fields.items():
        assert getattr(value, name) is field_value
        with pytest.raises(AttributeError):
            setattr(value, name, field_value)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields) == copy.copy(value)
    assert value != object()
    first = next(iter(fields))
    assert repr(value).startswith(f"{cls.__name__}({first}=")
    for changes, error, message in invalid:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            cls(**{**fields, **changes})
        assert type(raised.value) is error


# The tuple types with checks: _replace must run them as the constructor does.
CHECKED_TUPLES = [case for case in CASES if issubclass(case[0], tuple) and case[2]]


@pytest.mark.parametrize(
    "cls, fields, invalid", CHECKED_TUPLES, ids=[case[0].__name__ for case in CHECKED_TUPLES]
)
def test_replace_runs_the_constructor_checks(cls, fields, invalid):
    value = cls(**fields)
    assert type(value._replace()) is cls and value._replace() == value
    for changes, error, message in invalid:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            value._replace(**changes)
        assert type(raised.value) is error


# The types built on kb's two bases, whose _make, dunders and checks are shared.
BASED = [case for case in CASES if issubclass(case[0], (Checked, Frozen))]


def test_every_based_type_is_in_cases():
    based = {
        obj
        for module in (kb, netsim, mapek, metrics)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, (Checked, Frozen)) and obj not in (Checked, Frozen)
    }
    assert based and based <= {case[0] for case in BASED}


@pytest.mark.parametrize("cls, fields, invalid", BASED, ids=[case[0].__name__ for case in BASED])
def test_based_type_hashes_by_value_and_survives_pickle(cls, fields, invalid):
    value = cls(**fields)
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a field holds a dict, so the value is not hashable either
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**fields))
    copied = pickle.loads(pickle.dumps(value))
    assert type(copied) is cls and copied == value
