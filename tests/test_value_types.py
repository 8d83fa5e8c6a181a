"""The immutable value types: one contract for each.

Every type is a plain NamedTuple, built by keyword, equal by its fields,
read-only, and shown as `Type(field=...)` in the messages that print it. A
type that outside data reaches is built through its checking classmethod
`of`, which rejects each invalid value with the error type and text it has
always used.
"""

from __future__ import annotations

import ast
import copy
import pickle
import re
from pathlib import Path

import pytest

from adastream import experiment, kb, mapek, metrics, netsim, scenario, stream
from adastream.experiment import Comparison, ScenarioArtifacts
from adastream.kb import (
    AdaptationSpace,
    AdaptationStrategy,
    RunRecord,
    StreamConfig,
    default_space,
)
from adastream.mapek import ExecuteOutcome
from adastream.metrics import PerformanceWeights, QualityWeights
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

LR = StreamConfig("LR", 30, 0.99)
SPACE = default_space()
CONFIG = load_scenario(bundled_config_path("table3-adaptive"))
GRID = {"tp": {"5r5q": 1.0}}
SELECTION = {"LR": (1.0, 0.9), "HR": (0.0, 0.1)}
ARTIFACTS = ScenarioArtifacts(label="adaptive", grid=GRID, selection=SELECTION)
PROBE_DOWN = "probe-unavailable"

# (type, keyword arguments of one valid value, [(changed arguments, error, message)]);
# the arguments go to the type's `of` where it has one, else to the type itself.
# FaultSchedule.of takes the windows and keeps only its per-kind index of them.
CASES = [
    (
        StreamConfig,
        {"name": "LR", "frame_rate": 30, "quality_score": 0.99},
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
        {"id": 1, "target": "LR", "reason": "below-threshold"},
        [],
    ),
    (
        RunRecord,
        {
            "run_index": 0, "duration_us": 100, "reconfig_us": 10,
            "switches": 1, "streamed_us": {"LR": 90},
        },
        [
            ({"run_index": -1}, ValueError, "run index and switches must be non-negative, got -1 and 1"),
            ({"switches": -3}, ValueError, "run index and switches must be non-negative, got 0 and -3"),
            (
                {"streamed_us": {"LR": 100, "HR": -10}},
                ValueError,
                "run 0: negative streamed time in {'LR': 100, 'HR': -10}",
            ),
            ({"duration_us": 0}, ValueError, "run duration must be positive, got 0 us"),
            ({"reconfig_us": 120}, ValueError, "reconfig time 120 us outside [0, 100] us"),
            (
                {"streamed_us": {"LR": 80}},
                ValueError,
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
    (ScenarioArtifacts, {"label": "adaptive", "grid": GRID, "selection": SELECTION}, []),
    (
        Comparison,
        {"artifacts": [ARTIFACTS], "verdicts": {("p1", "5r5q"): "adaptive"}},
        [],
    ),
]


def build(cls: type):
    """What builds a value of `cls` from outside data: its checking `of`, or the type."""
    return getattr(cls, "of", cls)


IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, invalid", CASES, ids=IDS)
def test_value_type_contract(cls, fields, invalid):
    value = build(cls)(**fields)
    for name in cls._fields:
        if name in fields:
            assert getattr(value, name) is fields[name]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == build(cls)(**fields) == copy.copy(value)
    assert value != object()
    assert repr(value).startswith(f"{cls.__name__}({cls._fields[0]}=")
    for changes, error, message in invalid:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            build(cls)(**{**fields, **changes})
        assert type(raised.value) is error


# _replace runs the type's constructor, the NamedTuple's own, which checks nothing and
# derives nothing: on a checked type it keeps every other field as it was, even one
# `of` derived, and takes an invalid value. No package code calls it on a checked type.
@pytest.mark.parametrize("cls, fields, invalid", CASES, ids=IDS)
def test_replace_runs_the_constructor_checks(cls, fields, invalid):
    value = build(cls)(**fields)
    assert type(value._replace()) is cls and value._replace() == value
    for changes, _, _ in invalid:
        if not changes.keys() <= set(cls._fields):
            continue  # an argument of `of` that is not a field
        replaced = value._replace(**changes)
        assert type(replaced) is cls
        assert replaced._asdict() == {**value._asdict(), **changes}


def value_types() -> set[type]:
    """The package's public value types: every public tuple subclass."""
    return {
        obj
        for module in (kb, netsim, mapek, metrics, scenario, experiment, stream)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")
    }


def test_every_based_type_is_in_cases():
    types = value_types()
    assert types - {case[0] for case in CASES} <= {ExecuteOutcome, StepOutcome}  # test_mapek's cases
    # One idiom: each is a NamedTuple made straight from its class body, with no fields
    # base under it, so no __new__ or _make of its own can check or skip a field.
    assert {cls for cls in types if cls.__bases__ != (tuple,) or "_fields" not in vars(cls)} == set()
    # Checks live where outside data enters, so only these three types have an `of`:
    # RunRecord is rebuilt from runs.csv rows by `compare`; AdaptationSpace and FaultSchedule
    # are built from a scenario document, and the parser reports their ValueError.
    checked = {cls for cls in types if "of" in vars(cls)}
    assert checked == {RunRecord, AdaptationSpace, FaultSchedule}
    assert checked == {case[0] for case in CASES if case[2]}


# A value hashes by its fields, so a dict or list in a field makes it unhashable:
# FaultSchedule's per-kind index, RunRecord's ledger, a report grid, and what holds one.
UNHASHABLE = {FaultSchedule, RunRecord, ScenarioConfig, ScenarioArtifacts, Comparison}


@pytest.mark.parametrize("cls, fields, invalid", CASES, ids=IDS)
def test_based_type_hashes_by_value_and_survives_pickle(cls, fields, invalid):
    value = build(cls)(**fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(build(cls)(**fields))
    copied = pickle.loads(pickle.dumps(value))
    assert type(copied) is cls and copied == value


def direct_builds(node: ast.AST, scope: tuple[str, ...], names: set[str]) -> list[str]:
    """`scope:name` for each call under `node` of a type in `names` by name."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{'.'.join(scope)}:{name}")
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        found += direct_builds(child, scope + (child.name,) if named else scope, names)
    return found


def test_checked_types_are_built_only_through_of():
    # A direct call would skip the checks, so only the type's own `of` builds it (as `cls`).
    names = {"RunRecord", "AdaptationSpace", "FaultSchedule"}
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    found = []
    for path in sorted(package.glob("*.py")):
        found += direct_builds(ast.parse(path.read_text(encoding="utf-8")), (path.stem,), names)
    allowed = {f"{module}.{name}.of:{name}" for module in ("kb", "netsim") for name in names}
    assert [site for site in found if site not in allowed] == []



# Types whose fields are read by tuple unpacking, not by attribute, each with the
# function that unpacks all of its fields at once.
UNPACKED = {
    "SpeedSample": "experiment.events_jsonl_text",
    "ExecuteOutcome": "experiment.events_jsonl_text",
    "StepOutcome": "experiment.events_jsonl_text",
    "TraceParams": "netsim.generate_trace",
    "_Field": "scenario._read",
}


def test_every_field_has_a_reader():
    # A field no code reads changes no output: it goes, or it gets a reader.
    package = Path(__file__).resolve().parents[1] / "src" / "adastream"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    fields = {
        node.name: [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for node in nodes
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)
    }
    read = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [
        f"{cls}.{name}"
        for cls, names in fields.items()
        if cls not in UNPACKED
        for name in names
        if name not in read
    ]
    assert unread == []
    # each listed site binds as many names in one tuple target as the type has fields
    for cls, site in UNPACKED.items():
        module, function = site.split(".")
        (body,) = [n for n in trees[module].body if getattr(n, "name", None) == function]
        widths = {
            len(node.elts)
            for node in ast.walk(body)
            if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store)
        }
        assert len(fields[cls]) in widths, (cls, site)
