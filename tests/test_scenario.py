from __future__ import annotations

import ast
import hashlib
import inspect
import json
import math
import re
import textwrap
from pathlib import Path

import pytest

from adastream import scenario
from adastream.experiment import ARTIFACTS, run_experiment
from adastream.mapek import Engine
from adastream.scenario import parse_scenario

import spec_corpus
from spec_corpus import BASE
from spec_check import bundled_config_path, check_mutations, check_recorded, mutated
from test_mapek import ENGINE_REFUSALS


def doc(**changes):
    return {"schema_version": 1, "scenario": "adaptive", "runs": 10, "run_duration_s": 30.0, "seed": 1, **changes}

def test_minimal_document_fills_defaults():
    config, diags = parse_scenario(doc())
    assert diags == []
    assert config.monitor_interval_us == 1_000_000
    assert config.reconfig_delay_us == 2_700_000
    assert config.trace.mean_mbps == 5.0
    assert config.warmup == scenario.WarmupParams(start_s=0.0, end_s=10800.0)
    assert config.initial_config == "HR"  # highest frame rate boots adaptive runs
    assert config.hysteresis_mbps == 0.0
    assert config.faults.by_kind == {}


def test_static_scenario_pins_initial_config():
    config, diags = parse_scenario(doc(scenario="static-LR"))
    assert diags == []
    assert config.initial_config == "LR"
    assert config.scenario == "static-LR"


PROBE_DOWN = "probe-unavailable"
# 9,999,968 runs of 2 s are 19,999,936 trace samples, and the engine generates the warmup
# trace only up to end_s, not over its whole duration: 64 more samples reach the cap exactly
AT_SAMPLE_CAP = {"runs": 9_999_968, "run_duration_s": 2.0, "warmup": {"duration_s": 10800, "start_s": 27, "end_s": 64}}


def on_base(key, path, value, diagnostic):
    """A row for BASE with the value at `path` replaced, and its one diagnostic; `key-diagnostic`
    is the id pytest gave it in the side table it came from."""
    return f"{key}-{diagnostic}", mutated(BASE, path, value), [diagnostic]


# Every diagnostic of parse_scenario, exactly and in order, for each row's document;
# [] marks an accepted edge case.
DIAGNOSTICS = [
    ("schema-version-unknown", doc(schema_version=2), ["schema_version must be <= 1, got 2"]),
    ("runs-zero", doc(runs=0), ["runs must be >= 1, got 0"]),
    ("number-over-cap", doc(run_duration_s=1e9), ["run_duration_s must be <= 1e+08, got 1000000000.0"]),
    ("duration-nan", doc(run_duration_s=math.nan), ["run_duration_s must be a finite number, got nan"]),
    # each rounds to 0 µs, which once raised ZeroDivisionError or ValueError
    ("interval-below-clock", doc(monitor_interval_s=1e-7), ["monitor_interval_s must be >= 1e-06, got 1e-07"]),
    ("step-below-clock", doc(trace={"step_s": 1e-7}), ["trace.step_s must be >= 1e-06, got 1e-07"]),
    (
        "fault-below-clock",
        doc(faults=[{"start_s": 1e-7, "end_s": 2e-7, "kind": PROBE_DOWN}]),
        ["faults[0] needs start_s < end_s, at least 1 µs apart, got [1e-07, 2e-07)"],
    ),
    ("fault-kind-missing", doc(faults=[{"start_s": 0, "end_s": 10}]), ["faults[0].kind is required"]),
    ("override-not-an-object", doc(user_overrides=[5.0]), ["user_overrides[0] must be an object, got 5.0"]),
    (
        "every-violation-at-once",
        doc(runs=0, run_duration_s=-3, scenario="static-XX", seed="not-a-seed", monitor_interval_s=0, bogus_key=True),
        [
            "runs must be >= 1, got 0",
            "run_duration_s must be >= 1e-06, got -3",
            "monitor_interval_s must be >= 1e-06, got 0",
            "seed must be an integer, got 'not-a-seed'",
            "unknown key 'bogus_key'",
            "scenario 'static-XX' pins config 'XX', which is not in the adaptation space",
        ],
    ),
    (
        "static-config-unknown",
        doc(scenario="static-UHD"),
        ["scenario 'static-UHD' pins config 'UHD', which is not in the adaptation space"],
    ),
    ("scenario-unknown", doc(scenario="static"), ["scenario must be 'adaptive' or 'static-<config>', got 'static'"]),
    (
        "duration-off-the-monitor-grid",
        doc(monitor_interval_s=7.0),
        ["run_duration_s (30.0) must be a whole multiple of monitor_interval_s (7.0)"],
    ),
    ("duration-on-the-monitor-grid", doc(run_duration_s=31.5, monitor_interval_s=10.5), []),
    (
        "warmup-window-inverted",
        doc(warmup={"duration_s": 100.0, "start_s": 50.0, "end_s": 40.0}),
        ["warmup window needs 0 <= start_s < end_s <= duration_s, got [50.0, 40.0) over 100.0"],
    ),
    (
        "warmup-end-past-duration",
        doc(warmup={"duration_s": 100.0, "start_s": 0.0, "end_s": 200.0}),
        ["warmup window needs 0 <= start_s < end_s <= duration_s, got [0.0, 200.0) over 100.0"],
    ),
    ("warmup-window-inside", doc(warmup={"duration_s": 100.0, "start_s": 20.0, "end_s": 80.0}), []),
    (
        "warmup-between-samples",
        doc(warmup={"duration_s": 60.0, "start_s": 0.3, "end_s": 0.6}),
        ["warmup window [0.3, 0.6) selects no trace samples"],
    ),
    ("warmup-below-one-step", doc(warmup={"duration_s": 0.5}), []),  # [0, 0.5) selects sample 0
    ("initial-config-not-the-default", doc(initial_config="LR"), []),
    ("initial-config-unknown", doc(initial_config="UHD"), ["initial_config 'UHD' not in the adaptation space"]),
    (
        "override-target-unknown",
        doc(user_overrides=[{"at_s": 5.0, "target": "UHD"}]),
        ["user_overrides[0].target 'UHD' not in the adaptation space"],
    ),
    (
        "override-in-static-run",
        doc(scenario="static-LR", user_overrides=[{"at_s": 5.0, "target": "HR"}]),
        ["user_overrides require the adaptive scenario"],
    ),
    ("trace-samples-at-cap", doc(**AT_SAMPLE_CAP), []),
    (
        "trace-samples-over-cap",
        doc(**{**AT_SAMPLE_CAP, "runs": 9_999_969}),
        [
            "experiment needs 20000002 trace samples; limit is 20000000 "
            "(reduce runs/run_duration_s or raise trace.step_s)"
        ],
    ),
    ("run-ticks-at-cap", doc(runs=1, run_duration_s=1_000_000), []),
    (
        "run-ticks-over-cap",
        doc(runs=1, run_duration_s=1_000_001),
        ["a run needs 1000001 loop ticks; limit is 1000000 (reduce run_duration_s or raise monitor_interval_s)"],
    ),
    # 20M ticks on only 5M trace samples
    ("experiment-ticks-at-cap", doc(runs=5_000_000, run_duration_s=4.0, trace={"step_s": 4.0}), []),
    (
        "experiment-ticks-over-cap",
        doc(runs=5_000_001, run_duration_s=4.0, trace={"step_s": 4.0}),
        [
            "experiment needs 20000004 loop ticks; limit is 20000000 "
            "(reduce runs/run_duration_s or raise monitor_interval_s)"
        ],
    ),
    # Rules across fields, on BASE
    on_base("changes0", ("adaptation_space", 1, "name"), "LR",
            "adaptation_space invalid: config names must be unique, got ['LR', 'LR']"),
    on_base("changes1", ("adaptation_space",), [], "adaptation_space invalid: adaptation space must not be empty"),
    on_base(
        "changes2",
        ("faults",),
        [{"start_s": 0.0, "end_s": 10.0, "kind": PROBE_DOWN}, {"start_s": 5.0, "end_s": 20.0, "kind": PROBE_DOWN}],
        "faults invalid: overlapping probe-unavailable fault windows",
    ),
    on_base("changes3", (), {**BASE, "scenario": "static-LR", "initial_config": "HR", "user_overrides": []},
            "initial_config 'HR' conflicts with pinned static config 'LR'"),
    # StreamConfig and FaultWindow check nothing, and neither do the functions the parsed values
    # reach (generate_trace, Analyzer, StreamState.apply_config): the parser is the one home of
    # these rules.
    on_base("path0-0", ("adaptation_space", 0, "frame_rate"), 0, "adaptation_space[0].frame_rate must be >= 1, got 0"),
    on_base("path1-0", ("adaptation_space", 0, "scale_w"), 0, "adaptation_space[0].scale_w must be >= 1, got 0"),
    on_base("path2--1", ("adaptation_space", 0, "scale_h"), -1, "adaptation_space[0].scale_h must be >= 1, got -1"),
    on_base("path3-1.5", ("adaptation_space", 0, "quality_score"), 1.5,
            "adaptation_space[0].quality_score must be <= 1, got 1.5"),
    on_base("path4--0.1", ("adaptation_space", 0, "quality_score"), -0.1,
            "adaptation_space[0].quality_score must be >= 0, got -0.1"),
    on_base("path5-outage", ("faults", 0, "kind"), "outage",
            "faults[0].kind must be one of ['probe-unavailable', 'registry-unavailable'], got 'outage'"),
    on_base("path6-value6", ("faults", 0), {"start_s": 5, "end_s": 5, "kind": PROBE_DOWN},
            "faults[0] needs start_s < end_s, at least 1 µs apart, got [5, 5)"),
    on_base("path7-value7", ("faults", 0), {"start_s": 9, "end_s": 5, "kind": PROBE_DOWN},
            "faults[0] needs start_s < end_s, at least 1 µs apart, got [9, 5)"),
    on_base("path8-0", ("trace", "mean_mbps"), 0, "trace.mean_mbps must be > 0, got 0"),
    on_base("path9-0", ("trace", "period_s"), 0, "trace.period_s must be >= 1e-06, got 0"),
    on_base("path10--1", ("trace", "noise_sd_mbps"), -1, "trace.noise_sd_mbps must be >= 0, got -1"),
    on_base("path11--1", ("reconfig_delay_s",), -1, "reconfig_delay_s must be >= 0, got -1"),
    on_base("path12--0.5", ("hysteresis_mbps",), -0.5, "hysteresis_mbps must be >= 0, got -0.5"),
    # A value of the wrong type, or an unknown key, in an entry of a list; each id names the
    # row's path, value and dotted key
    *(
        (f"path{i}-{value}-{key}[{index}].{field}", mutated(BASE, (key, index, field), value), [diagnostic])
        for i, ((key, index, field), value, diagnostic) in enumerate([
            (("adaptation_space", 0, "frame_rate"), 30.9, "adaptation_space[0].frame_rate must be an integer, got 30.9"),
            (("adaptation_space", 0, "frame_rate"), 30.0, "adaptation_space[0].frame_rate must be an integer, got 30.0"),
            (("adaptation_space", 0, "frame_rate"), True, "adaptation_space[0].frame_rate must be an integer, got True"),
            (("adaptation_space", 0, "frame_rate"), "30", "adaptation_space[0].frame_rate must be an integer, got '30'"),
            (
                ("adaptation_space", 0, "quality_score"),
                "0.5",
                "adaptation_space[0].quality_score must be a finite number, got '0.5'",
            ),
            (("adaptation_space", 0, "name"), None, "adaptation_space[0].name must be a string, got None"),
            (("adaptation_space", 0, "extra"), 1, "unknown key 'adaptation_space[0].extra'"),
            (("faults", 0, "start_s"), "90", "faults[0].start_s must be a finite number, got '90'"),
            (("faults", 0, "start_s"), True, "faults[0].start_s must be a finite number, got True"),
            (("faults", 0, "extra"), 1, "unknown key 'faults[0].extra'"),
            (("user_overrides", 0, "at_s"), True, "user_overrides[0].at_s must be a finite number, got True"),
            (("user_overrides", 0, "extra"), 1, "unknown key 'user_overrides[0].extra'"),
        ])
    ),
    # A config name that cannot head a runs.csv column, its id the name: each once ran to exit 0
    # and wrote a runs.csv header that compare rejected
    *(
        (
            name,
            mutated(BASE, ("adaptation_space", 0, "name"), name),
            [f"adaptation_space[0].name must be one line, non-empty, without ',', got {name!r}"],
        )
        for name in ["", "A,B", ",", "L\nR", "L\r\nR", "L\x1cR", "L\u2028R", "LR\n"]
    ),
]


@pytest.mark.parametrize("document, diagnostics", [pytest.param(d, x, id=i) for i, d, x in DIAGNOSTICS])
def test_a_document_gets_exactly_its_diagnostics(document, diagnostics):
    config, diags = parse_scenario(document)
    assert diags == diagnostics
    assert (config is None) == bool(diagnostics)


def message_template(message):
    """A message's regex: its constant parts literal, each {…} as .+"""
    if isinstance(message, ast.JoinedStr):
        return "".join(re.escape(part.value) if isinstance(part, ast.Constant) else ".+" for part in message.values)
    return re.escape(message.value)


def test_every_diagnostic_template_has_an_exact_row():
    # each diags.append template in scenario.py, and each SimulationError that Engine.__init__ raises
    source = Path(scenario.__file__).read_text(encoding="utf-8")
    templates = [
        message_template(message)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "diags.append"
        for message in node.args
    ]
    assert len(templates) == source.count("diags.append(")
    init = ast.parse(textwrap.dedent(inspect.getsource(Engine.__init__)))
    refusals = [message_template(node.exc.args[0]) for node in ast.walk(init) if isinstance(node, ast.Raise)]
    assert len(refusals) == 9
    messages = [message for *_, diagnostics in DIAGNOSTICS for message in diagnostics]
    assert [t for t in templates if not any(re.fullmatch(t, m) for m in messages)] == []
    engine_messages = [message for *_, message in ENGINE_REFUSALS]
    assert [t for t in refusals if not any(re.fullmatch(t, m) for m in engine_messages)] == []




def test_warmup_duration_bounds_end_s_and_changes_no_artifact(tmp_path):
    # Only [0, end_s) of the warmup trace is generated, so with end_s given,
    # duration_s is a bound on end_s and nothing else.
    bundled = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    digests = []
    for duration in (65.0, 10800.0, 1e6):
        document = dict(bundled, runs=3, warmup=dict(bundled["warmup"], duration_s=duration))
        config, diags = parse_scenario(document)
        assert diags == []
        out = tmp_path / str(duration)
        run_experiment(config, out)
        digests.append(
            {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}
        )
    assert digests[0] == digests[1] == digests[2]


def test_warmup_end_s_defaults_to_duration_s():
    config, diags = parse_scenario(doc(warmup={"duration_s": 90.0, "start_s": 10.0}))
    assert diags == []
    assert config.warmup.end_s == 90.0


def test_any_document_gives_a_config_or_diagnostics_never_an_exception():
    # 500 recorded lists of one to three odd values put at, or deleting, paths of BASE
    check_recorded(check_mutations, spec_corpus.read("mutations"))


def readme_schema():
    """README's jsonc schema block with its // comments stripped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    return json.loads(re.sub(r"//.*", "", block))


def test_readme_schema_validates_and_names_every_accepted_key():
    document = readme_schema()
    config, diags = parse_scenario(document)
    assert diags == [] and config is not None
    levels = {
        "top": (document, scenario._TOP_FIELDS),
        "trace": (document["trace"], scenario._TRACE_FIELDS),
        "warmup": (document["warmup"], scenario._WARMUP_FIELDS),
        "fault": (document["faults"][0], scenario._FAULT_FIELDS),
        "override": (document["user_overrides"][0], scenario._OVERRIDE_FIELDS),
        "space entry": (document["adaptation_space"][0], scenario._SPACE_FIELDS),
    }
    for level, (documented, fields) in levels.items():
        assert set(documented) == {f.name for f in fields}, level
