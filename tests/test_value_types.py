"""The immutable value types: one contract for each.

Every type is built by keyword, equal by its fields, read-only, and shown
as `Type(field=...)` in the messages that print it. A type that outside
data reaches checks its fields, and rejects each invalid value with the
error type and text it has always used; the rest are plain NamedTuples.
"""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from adastream import experiment, kb, mapek, metrics, netsim, scenario, stream
from adastream.errors import InvalidRunError
from adastream.experiment import Comparison, ScenarioArtifacts
from adastream.kb import (
    AdaptationSpace,
    AdaptationStrategy,
    Frozen,
    RunRecord,
    StreamConfig,
    default_space,
)
from adastream.mapek import EngineResult, ExecuteOutcome
from adastream.metrics import PerformanceReport, PerformanceWeights, QualityWeights
from adastream.netsim import BandwidthTrace, FaultSchedule, FaultWindow, SpeedSample
from adastream.scenario import (
    ScenarioConfig,
    TraceParams,
    UserOverride,
    WarmupParams,
    load_scenario,
)
from adastream.stream import StepOutcome

from conftest import bundled_config_path

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
        [],
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
        [],
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
    (BandwidthTrace, {"uploads": (1.0, 2.0), "step_us": 1_000_000}, []),
    (FaultWindow, {"start_us": 5, "end_us": 9, "kind": PROBE_DOWN}, []),
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
    (SpeedSample, {"t_us": 3_000_000, "upload_mbps": 4.5, "ok": True}, []),
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
    (QualityWeights, {"w_rate": 0.5, "w_frame": 0.5}, []),
    (PerformanceWeights, {"w_t": 0.9, "w_q": 0.1}, []),
    (PerformanceReport, {"scenario": "adaptive", "run_count": 1, "grid": GRID}, []),
    (
        EngineResult,
        {"records": (RECORD,), "threshold_mbps": 5.0},
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


# _replace builds the same type, through the constructor's checks where it has any.
TUPLES = [case for case in CASES if issubclass(case[0], tuple)]


@pytest.mark.parametrize("cls, fields, invalid", TUPLES, ids=[case[0].__name__ for case in TUPLES])
def test_replace_runs_the_constructor_checks(cls, fields, invalid):
    value = cls(**fields)
    assert type(value._replace()) is cls and value._replace() == value
    for changes, error, message in invalid:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            value._replace(**changes)
        assert type(raised.value) is error


def value_types() -> set[type]:
    """The package's public value types: NamedTuples and kb.Frozen subclasses."""
    return {
        obj
        for module in (kb, netsim, mapek, metrics, scenario, experiment, stream)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, (tuple, Frozen))
        and obj is not Frozen and not name.startswith("_")
    }


def is_checked(cls: type) -> bool:
    """Whether a class on cls's MRO builds through its own __new__ or __init__.

    A NamedTuple's generated class defines _fields beside its __new__, which
    only packs the fields; any other constructor is a check.
    """
    return any(
        ("__new__" in vars(c) or "__init__" in vars(c)) and "_fields" not in vars(c)
        for c in cls.__mro__
        if c not in (tuple, object)
    )


def test_every_based_type_is_in_cases():
    types = value_types()
    assert types - {case[0] for case in CASES} <= {ExecuteOutcome, StepOutcome}  # test_mapek's cases
    # Checks live where outside data enters, so only these three types check their fields:
    # RunRecord is rebuilt from runs.csv rows by `compare`; AdaptationSpace and FaultSchedule
    # are built from a scenario document, and the parser reports their ValueError.
    checked = {cls for cls in types if is_checked(cls)}
    assert checked == {RunRecord, AdaptationSpace, FaultSchedule}
    assert checked == {case[0] for case in CASES if case[2]}


# Every value type is built on one of two bases, NamedTuple or kb.Frozen, and
# hashes by value and survives pickle through it.
@pytest.mark.parametrize("cls, fields, invalid", CASES, ids=[case[0].__name__ for case in CASES])
def test_based_type_hashes_by_value_and_survives_pickle(cls, fields, invalid):
    value = cls(**fields)
    try:
        hash(tuple(fields.values()))
    except TypeError:  # a field holds a dict or list, so the value is not hashable either
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(**fields))
    copied = pickle.loads(pickle.dumps(value))
    assert type(copied) is cls and copied == value
