from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastream import scenario
from adastream.errors import ScenarioError
from adastream.experiment import ARTIFACTS, run_experiment
from adastream.scenario import load_scenario, parse_scenario

from conftest import bundled_config_path


def doc(**overrides):
    base = {
        "schema_version": 1,
        "scenario": "adaptive",
        "runs": 10,
        "run_duration_s": 30.0,
        "seed": 1,
    }
    base.update(overrides)
    return base


def test_bundled_configs_are_valid():
    for name in ("table3-static-lr", "table3-static-hr", "table3-adaptive"):
        config = load_scenario(bundled_config_path(name))
        assert config.runs == 100
        assert config.run_duration_us == 30_000_000
        assert config.reconfig_delay_us == 2_700_000
        assert set(config.space.names) == {"LR", "HR"}


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


def test_runs_must_be_at_least_one():
    config, diags = parse_scenario(doc(runs=0))
    assert config is None
    assert any("runs must be >= 1" in d for d in diags)


def test_static_scenario_must_name_a_config():
    config, diags = parse_scenario(doc(scenario="static-UHD"))
    assert config is None
    assert any("UHD" in d and "not in the adaptation space" in d for d in diags)


def test_override_target_must_resolve():
    config, diags = parse_scenario(doc(user_overrides=[{"at_s": 5.0, "target": "UHD"}]))
    assert config is None
    assert any("user_overrides[0].target" in d for d in diags)


def test_all_violations_reported_together():
    config, diags = parse_scenario(
        doc(
            runs=0,
            run_duration_s=-3,
            scenario="static-XX",
            seed="not-a-seed",
            monitor_interval_s=0,
            bogus_key=True,
        )
    )
    assert config is None
    assert len(diags) >= 6
    joined = "\n".join(diags)
    assert "runs" in joined and "run_duration_s" in joined and "XX" in joined
    assert "seed" in joined and "monitor_interval_s" in joined and "bogus_key" in joined


def test_schema_version_checked():
    config, diags = parse_scenario(doc(schema_version=2))
    assert config is None
    assert any("schema_version" in d for d in diags)


def test_warmup_window_bounds_checked():
    config, diags = parse_scenario(doc(warmup={"duration_s": 100.0, "start_s": 50.0, "end_s": 40.0}))
    assert config is None
    config, diags = parse_scenario(doc(warmup={"duration_s": 100.0, "start_s": 0.0, "end_s": 200.0}))
    assert config is None
    config, diags = parse_scenario(doc(warmup={"duration_s": 100.0, "start_s": 20.0, "end_s": 80.0}))
    assert config is not None and diags == []


def test_fault_windows_validated():
    bad_kind = doc(faults=[{"start_s": 0, "end_s": 10, "kind": "meteor-strike"}])
    config, diags = parse_scenario(bad_kind)
    assert config is None and any("kind" in d for d in diags)
    inverted = doc(faults=[{"start_s": 10, "end_s": 5, "kind": "probe-unavailable"}])
    config, diags = parse_scenario(inverted)
    assert config is None and any("start_s < end_s" in d for d in diags)


def test_custom_space_and_initial_config():
    space = [
        {"name": "tiny", "frame_rate": 10, "scale_w": 160, "scale_h": 120, "quality_score": 1.0},
        {"name": "big", "frame_rate": 50, "scale_w": 1280, "scale_h": 720, "quality_score": 0.1},
    ]
    config, diags = parse_scenario(doc(adaptation_space=space))
    assert diags == []
    assert config.initial_config == "big"
    config, diags = parse_scenario(doc(adaptation_space=space, initial_config="tiny"))
    assert diags == [] and config.initial_config == "tiny"
    config, diags = parse_scenario(doc(adaptation_space=space, initial_config="huge"))
    assert config is None


def test_overrides_rejected_for_static_runs():
    config, diags = parse_scenario(
        doc(scenario="static-LR", user_overrides=[{"at_s": 5.0, "target": "HR"}])
    )
    assert config is None
    assert any("require the adaptive scenario" in d for d in diags)


def test_load_scenario_bad_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(broken)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc(runs=0)))
    with pytest.raises(ScenarioError) as err:
        load_scenario(invalid)
    assert any("runs" in d for d in err.value.diagnostics)


def test_replace_seed_changes_only_the_seed():
    config, _ = parse_scenario(doc())
    reseeded = config._replace(seed=99)
    assert reseeded.seed == 99
    assert reseeded.runs == config.runs
    assert reseeded.trace == config.trace


def test_run_duration_must_align_with_monitor_grid():
    config, diags = parse_scenario(doc(run_duration_s=30.0, monitor_interval_s=7.0))
    assert config is None
    assert any("whole multiple" in d for d in diags)
    config, diags = parse_scenario(doc(run_duration_s=31.5, monitor_interval_s=10.5))
    assert config is not None and diags == []


def test_non_finite_numbers_are_diagnosed_not_crashes():
    config, diags = parse_scenario(doc(run_duration_s=float("nan")))
    assert config is None and any("finite" in d for d in diags)
    config, diags = parse_scenario(doc(monitor_interval_s=float("inf")))
    assert config is None
    config, diags = parse_scenario(
        doc(faults=[{"start_s": float("nan"), "end_s": 10, "kind": "probe-unavailable"}])
    )
    assert config is None
    config, diags = parse_scenario(
        doc(adaptation_space=[{
            "name": "X", "frame_rate": float("inf"), "scale_w": 10, "scale_h": 10,
            "quality_score": 0.5,
        }])
    )
    assert config is None


def test_implausibly_large_experiments_are_rejected():
    config, diags = parse_scenario(doc(runs=10_000_000, run_duration_s=30.0))
    assert config is None
    assert any("trace samples" in d for d in diags)
    config, diags = parse_scenario(doc(run_duration_s=1e9))
    assert config is None


def test_size_cap_counts_only_the_warmup_prefix_the_engine_generates():
    # The engine generates the warmup trace only up to max(end_s, step_s):
    # 19,990,000 run samples + 65 warmup samples fit under the 20M cap,
    # although the whole 10,800 s warmup duration would not.
    warmup = {"duration_s": 10800.0, "start_s": 27.0, "end_s": 65.0}
    config, diags = parse_scenario(doc(runs=9_995_000, run_duration_s=2.0, warmup=warmup))
    assert diags == []
    assert config.runs == 9_995_000
    config, diags = parse_scenario(doc(runs=10_000_000, run_duration_s=2.0, warmup=warmup))
    assert config is None
    assert diags == [
        "experiment needs 20000065 trace samples; limit is 20000000 "
        "(reduce runs/run_duration_s or raise trace.step_s)"
    ]


def test_size_cap_counts_loop_ticks_too():
    # 5M runs of 4 s at a 1-s interval are 20M ticks, exactly the cap, on only
    # 5M trace samples at a 4-s step; one run more is over it
    trace = {"step_s": 4.0}
    config, diags = parse_scenario(doc(runs=5_000_000, run_duration_s=4.0, trace=trace))
    assert diags == []
    assert config.runs == 5_000_000
    config, diags = parse_scenario(doc(runs=5_000_001, run_duration_s=4.0, trace=trace))
    assert config is None
    assert diags == [
        "experiment needs 20000004 loop ticks; limit is 20000000 "
        "(reduce runs/run_duration_s or raise monitor_interval_s)"
    ]


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


def adaptive_doc_with_entries():
    """The bundled adaptive document with one entry in each list it may hold."""
    document = json.loads(bundled_config_path("table3-adaptive").read_text(encoding="utf-8"))
    document["faults"] = [{"start_s": 0.0, "end_s": 180.0, "kind": "probe-unavailable"}]
    document["user_overrides"] = [{"at_s": 150.0, "target": "HR"}]
    document["adaptation_space"] = [
        {"name": "LR", "frame_rate": 30, "scale_w": 320, "scale_h": 240, "quality_score": 0.99},
        {"name": "HR", "frame_rate": 60, "scale_w": 720, "scale_h": 480, "quality_score": 0.2},
    ]
    return document


def key_paths(node, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from key_paths(child, path + (key,))


DELETE = object()


def mutated(document, path, value):
    """A copy of `document` with the value at `path` replaced, or deleted if `value` is DELETE."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


BASE = adaptive_doc_with_entries()
PATHS = list(key_paths(BASE))
ODD_VALUES = st.one_of(
    st.sampled_from([
        DELETE, None, True, False, "", "90", [], [1.0], {}, {"x": 1},
        math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-7, 2e-7, 4e-7, 0, 0.0, -1, -0.5,
    ]),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(PATHS), ODD_VALUES), min_size=1, max_size=3))
def test_any_document_gives_a_config_or_diagnostics_never_an_exception(mutations):
    document = BASE
    for path, value in mutations:
        try:
            document = mutated(document, path, value)
        except (KeyError, IndexError, TypeError):  # an earlier mutation removed or replaced the path
            pass
    config, diags = parse_scenario(document)
    assert (config is None and diags and all(isinstance(d, str) for d in diags)) or (
        isinstance(config, scenario.ScenarioConfig) and diags == []
    )


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("monitor_interval_s",), 1e-7, "monitor_interval_s"),
        (("trace", "step_s"), 1e-7, "trace.step_s"),
        (("faults", 0), {"start_s": 1e-7, "end_s": 2e-7, "kind": "probe-unavailable"}, "faults[0]"),
    ],
)
def test_durations_below_the_clock_resolution_are_one_diagnostic(path, value, where):
    # each rounds to 0 us, which once raised ZeroDivisionError or ValueError
    config, diags = parse_scenario(mutated(BASE, path, value))
    assert config is None
    assert len(diags) == 1 and diags[0].startswith(where)


SPACE_DOC = BASE["adaptation_space"]


@pytest.mark.parametrize(
    "changes, diagnostic",
    [
        (
            {"adaptation_space": [SPACE_DOC[0], {**SPACE_DOC[1], "name": "LR"}]},
            "adaptation_space invalid: config names must be unique, got ['LR', 'LR']",
        ),
        ({"adaptation_space": []}, "adaptation_space invalid: adaptation space must not be empty"),
        (
            {
                "faults": [
                    {"start_s": 0.0, "end_s": 10.0, "kind": "probe-unavailable"},
                    {"start_s": 5.0, "end_s": 20.0, "kind": "probe-unavailable"},
                ]
            },
            "faults invalid: overlapping probe-unavailable fault windows",
        ),
        (
            {"scenario": "static-LR", "initial_config": "HR", "user_overrides": []},
            "initial_config 'HR' conflicts with pinned static config 'LR'",
        ),
    ],
)
def test_a_document_breaking_one_cross_field_rule_gets_exactly_its_diagnostic(changes, diagnostic):
    config, diags = parse_scenario({**BASE, **changes})
    assert config is None
    assert diags == [diagnostic]


def test_a_warmup_duration_below_one_trace_step_is_accepted():
    # the window [0, 0.5) selects sample 0, which `selects no trace samples` checks
    config, diags = parse_scenario({**BASE, "warmup": {"duration_s": 0.5}})
    assert diags == []
    assert config.warmup == (0.0, 0.5)


PROBE_DOWN = "probe-unavailable"


# StreamConfig and FaultWindow check nothing, and neither do the functions the parsed values
# reach (generate_trace, Analyzer, StreamState.apply_config): the parser is the one home of
# these rules.
@pytest.mark.parametrize(
    "path, value, diagnostic",
    [
        (("adaptation_space", 0, "frame_rate"), 0, "adaptation_space[0].frame_rate must be >= 1, got 0"),
        (("adaptation_space", 0, "scale_w"), 0, "adaptation_space[0].scale_w must be >= 1, got 0"),
        (("adaptation_space", 0, "scale_h"), -1, "adaptation_space[0].scale_h must be >= 1, got -1"),
        (
            ("adaptation_space", 0, "quality_score"),
            1.5,
            "adaptation_space[0].quality_score must be <= 1, got 1.5",
        ),
        (
            ("adaptation_space", 0, "quality_score"),
            -0.1,
            "adaptation_space[0].quality_score must be >= 0, got -0.1",
        ),
        (
            ("faults", 0, "kind"),
            "outage",
            "faults[0].kind must be one of ['probe-unavailable', 'registry-unavailable'], got 'outage'",
        ),
        (
            ("faults", 0),
            {"start_s": 5, "end_s": 5, "kind": PROBE_DOWN},
            "faults[0] needs start_s < end_s, at least 1 µs apart, got [5, 5)",
        ),
        (
            ("faults", 0),
            {"start_s": 9, "end_s": 5, "kind": PROBE_DOWN},
            "faults[0] needs start_s < end_s, at least 1 µs apart, got [9, 5)",
        ),
        (("trace", "mean_mbps"), 0, "trace.mean_mbps must be > 0, got 0"),
        (("trace", "period_s"), 0, "trace.period_s must be >= 1e-06, got 0"),
        (("trace", "noise_sd_mbps"), -1, "trace.noise_sd_mbps must be >= 0, got -1"),
        (("reconfig_delay_s",), -1, "reconfig_delay_s must be >= 0, got -1"),
        (("hysteresis_mbps",), -0.5, "hysteresis_mbps must be >= 0, got -0.5"),
    ],
)
def test_a_rule_no_value_type_checks_is_exactly_one_parser_diagnostic(path, value, diagnostic):
    config, diags = parse_scenario(mutated(BASE, path, value))
    assert config is None
    assert diags == [diagnostic]


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("adaptation_space", 0, "frame_rate"), 30.9, "adaptation_space[0].frame_rate"),
        (("adaptation_space", 0, "frame_rate"), 30.0, "adaptation_space[0].frame_rate"),
        (("adaptation_space", 0, "frame_rate"), True, "adaptation_space[0].frame_rate"),
        (("adaptation_space", 0, "frame_rate"), "30", "adaptation_space[0].frame_rate"),
        (("adaptation_space", 0, "quality_score"), "0.5", "adaptation_space[0].quality_score"),
        (("adaptation_space", 0, "name"), None, "adaptation_space[0].name"),
        (("adaptation_space", 0, "extra"), 1, "adaptation_space[0].extra"),
        (("faults", 0, "start_s"), "90", "faults[0].start_s"),
        (("faults", 0, "start_s"), True, "faults[0].start_s"),
        (("faults", 0, "extra"), 1, "faults[0].extra"),
        (("user_overrides", 0, "at_s"), True, "user_overrides[0].at_s"),
        (("user_overrides", 0, "extra"), 1, "user_overrides[0].extra"),
    ],
)
def test_values_of_the_wrong_type_or_key_are_diagnosed_by_path(path, value, where):
    config, diags = parse_scenario(mutated(BASE, path, value))
    assert config is None
    assert any(where in d for d in diags), diags


@pytest.mark.parametrize("name", ["", "A,B", ",", "L\nR", "L\r\nR", "L\x1cR", "L\u2028R", "LR\n"])
def test_a_config_name_that_cannot_head_a_runs_csv_column_is_one_diagnostic(name):
    # each once ran to exit 0 and wrote a runs.csv header that compare rejected
    config, diags = parse_scenario(mutated(BASE, ("adaptation_space", 0, "name"), name))
    assert config is None
    assert len(diags) == 1 and diags[0].startswith("adaptation_space[0].name "), diags


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
