from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import strategies as st

from adastream.kb import AdaptationSpace, RunRecord, StreamConfig, default_space
from adastream.mapek import Engine
from adastream.netsim import FaultSchedule, FaultWindow
from adastream.metrics import RunFold, quality_scores
from adastream.scenario import parse_scenario

# Hypothesis mixes literals from every loaded module outside the standard
# library, site-packages and test files into about one draw in twenty. The
# suite that first drew the recorded inputs loaded the CLI and the benchmark's
# runner, layers and workloads; loading them here (spec_check loads the
# benchmark's) makes tests/spec_corpus.py's redraw draw what that suite drew.
# No test draws from these strategies; the redraw alone does.
import adastream.cli  # noqa: E402,F401
from spec_check import BASE, DELAY_US, run_into_jsonl, small_document
from spec_corpus import DELETE


def fold_of(records, space: AdaptationSpace) -> RunFold:
    """The records folded as `run_experiment` folds its runs."""
    fold = RunFold(space.names, quality_scores(space))
    for record in records:
        fold.add(record)
    return fold


LR = StreamConfig("LR", 30, 0.99)
PROBE_DOWN, REGISTRY_DOWN = "probe-unavailable", "registry-unavailable"

# The checked value types' error rules, in one table that tests/test_kb.py and
# tests/test_netsim.py run by type. Each checked type: the keyword arguments of `of` for one valid value, and
# changes to them, each with the exact ValueError message `of` raises, or None
# where the changed value is valid too. FaultSchedule.of takes the windows and
# keeps only its per-kind index of them.
OF_CASES = {
    AdaptationSpace: (
        {"configs": default_space().configs},
        [
            ({"configs": ()}, "adaptation space must not be empty"),
            ({"configs": (LR, LR)}, "config names must be unique, got ['LR', 'LR']"),
        ],
    ),
    RunRecord: (
        {"run_index": 0, "duration_us": 100, "reconfig_us": 10, "switches": 1, "streamed_us": {"LR": 90}},
        [
            ({"run_index": -1}, "run index and switches must be non-negative, got -1 and 1"),
            ({"switches": -3}, "run index and switches must be non-negative, got 0 and -3"),
            ({"streamed_us": {"LR": 100, "HR": -10}}, "run 0: negative streamed time in {'LR': 100, 'HR': -10}"),
            ({"duration_us": 0}, "run duration must be positive, got 0 us"),
            ({"reconfig_us": 120}, "reconfig time 120 us outside [0, 100] us"),
            (
                {"streamed_us": {"LR": 80}},
                "run 0: time accounting broken: streamed 80 + reconfig 10 != duration 100",
            ),
        ],
    ),
    FaultSchedule: (
        # windows of one kind may touch
        {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(9, 12, PROBE_DOWN))},
        [
            (
                {"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(8, 12, PROBE_DOWN))},
                "overlapping probe-unavailable fault windows",
            ),
            # windows of different kinds may overlap
            ({"windows": (FaultWindow(5, 9, PROBE_DOWN), FaultWindow(8, 12, REGISTRY_DOWN))}, None),
        ],
    ),
}


def check_of(cls) -> None:
    """Build `cls.of`'s valid value and each table row: a valid row builds, an invalid
    one raises exactly its ValueError message."""
    fields, changes = OF_CASES[cls]
    cls.of(**fields)
    for changed, message in changes:
        if message is None:
            cls.of(**{**fields, **changed})
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
            cls.of(**{**fields, **changed})
        assert type(raised.value) is ValueError


def make_scenario(**overrides):
    """`small_document(**overrides)`, parsed."""
    config, diags = parse_scenario(small_document(**overrides))
    assert config is not None, f"fixture scenario invalid: {diags}"
    return config


def run_dropping_events(config) -> tuple[RunRecord, ...]:
    """The engine's run records, in order, with each run's tick records dropped."""
    records = []
    Engine(config).run(lambda record, ticks: records.append(record))
    return tuple(records)


def run_with_events(config) -> tuple[tuple[RunRecord, ...], list[dict]]:
    """Run the engine and parse the events.jsonl lines it wrote.

    The lines are parsed as one JSON array, in one call, which takes half
    the time of a json.loads per line; test_event_sink checks each line on
    its own.
    """
    records, text = run_into_jsonl(Engine(config))
    return records, json.loads("[" + ",".join(text.splitlines()) + "]")


# Bounds on a generated document: its loop ticks and its trace samples.
_MAX_TICKS = 20_000
_MAX_SAMPLES = 50_000

# Quote, backslash, control characters, and non-ASCII (BMP and astral); no
# ',' or line break, which a config name may not hold.
NAME_CHARS = st.sampled_from(list('"\\\x00\x01\x1f\x7f\t/é€😀ab'))


@st.composite
def bounded_documents(draw, own_space=False):
    """A scenario document of at most _MAX_TICKS ticks and _MAX_SAMPLES trace samples.

    Times are drawn in whole microseconds, so each seconds value in the
    document converts back exactly. Some documents hold a total run time
    below one trace step, or a warmup window between two sample instants.
    With `own_space`, each brings its own adaptation space: one to three
    configs, whose names need JSON escaping and whose frame rates may tie.
    """
    runs = draw(st.integers(1, 4))
    step_us = draw(st.sampled_from([1, 1_000, 250_000, 1_000_000, 3_000_000, 60_000_000]))
    interval_us = draw(st.sampled_from(
        [us for us in (1, 1_000, 250_000, 1_000_000, 3_000_000) if runs * us <= _MAX_SAMPLES * step_us]
    ))
    run_limit_us = min(_MAX_TICKS * interval_us, _MAX_SAMPLES * step_us) // runs
    run_us = interval_us * draw(st.integers(1, max(1, run_limit_us // interval_us)))
    total_us = runs * run_us

    def instant(steps):
        """On, or just off, one of the first `steps` sample instants."""
        nudge = draw(st.sampled_from([0, 1, -1, step_us // 2]))
        return max(0, draw(st.integers(0, steps)) * step_us + nudge)

    start_us, end_us = instant(30), instant(60)
    if end_us <= start_us:
        end_us = start_us + draw(st.integers(1, step_us))
    warmup = {"start_s": start_us / 1e6, "end_s": end_us / 1e6}
    warmup["duration_s"] = end_us / 1e6 + draw(st.sampled_from([0.0, 1.0, 1e4]))

    faults = []
    for kind in ("probe-unavailable", "registry-unavailable"):
        cursor = 0
        for _ in range(draw(st.integers(0, 2))):
            start = cursor + draw(st.integers(0, total_us))
            cursor = start + draw(st.integers(1, total_us))
            faults.append({"start_s": start / 1e6, "end_s": cursor / 1e6, "kind": kind})

    names, space = ["LR", "HR"], {}
    if own_space:
        names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
        space["adaptation_space"] = [
            {
                "name": name,
                "frame_rate": draw(st.sampled_from([1, 30, 60])),
                "scale_w": 320,
                "scale_h": 240,
                "quality_score": draw(st.sampled_from([0.0, 0.2, 0.99, 1.0])),
            }
            for name in names
        ]
    scenario = draw(st.sampled_from(["adaptive", "adaptive", *(f"static-{name}" for name in names)]))
    overrides = []
    if scenario == "adaptive":
        overrides = [
            {"at_s": draw(st.integers(0, total_us)) / 1e6, "target": draw(st.sampled_from(names))}
            for _ in range(draw(st.integers(0, 3)))
        ]
    return {
        "schema_version": 1,
        "scenario": scenario,
        "runs": runs,
        "run_duration_s": run_us / 1e6,
        "monitor_interval_s": interval_us / 1e6,
        "reconfig_delay_s": draw(st.sampled_from([0.0, 1e-6, 0.5, 2.7, 100.0])),
        # amplitudes above the mean clamp the trace to 0 Mbps for part of each period
        "trace": {
            "mean_mbps": draw(st.sampled_from([0.5, 5.0])),
            "amplitude_mbps": draw(st.sampled_from([0.0, 2.0, 8.0])),
            "period_s": draw(st.sampled_from([1e-6, 0.5, 7.0, 61.0])),
            "noise_sd_mbps": draw(st.sampled_from([0.0, 0.3])),
            "step_s": step_us / 1e6,
        },
        "probe_noise_sd_mbps": draw(st.sampled_from([0.0, 0.5])),
        "warmup": warmup,
        "faults": faults,
        **space,
        "hysteresis_mbps": draw(st.sampled_from([0.0, 0.4])),
        "user_overrides": overrides,
        "seed": draw(st.integers(0, 2**31)),
    }


# tests/spec_corpus_fmean.jsonl: lists of floats in [0, 1], each the per-run tp and qp
# values of one fold. Long lists are built from a few drawn values, since a draw per
# element would overrun Hypothesis's buffer; repeats of values near 1 and near 0 stress
# the rounding.
_BELOW_ONE = math.nextafter(1.0, 0.0)
_UNIT = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e-307),  # subnormals and their neighbours
    st.floats(min_value=0.999, max_value=_BELOW_ONE),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 0.5, _BELOW_ONE, 1.0]),
)
_LONG = st.builds(
    lambda pattern, length: (pattern * (length // len(pattern) + 1))[:length],
    st.lists(_UNIT, min_size=1, max_size=7),
    st.integers(1_000, 20_000),
)
FMEAN_VALUES = st.one_of(st.lists(_UNIT, min_size=1, max_size=300), _LONG)


def key_paths(node, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from key_paths(child, path + (key,))


# tests/spec_corpus_mutations.jsonl: one to three odd values, each put at (or
# deleting) a path of spec_check's BASE document.
_ODD_VALUES = st.one_of(
    st.sampled_from([
        DELETE, None, True, False, "", "90", [], [1.0], {}, {"x": 1},
        math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-7, 2e-7, 4e-7, 0, 0.0, -1, -0.5,
    ]),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
)
MUTATIONS = st.lists(st.tuples(st.sampled_from(list(key_paths(BASE))), _ODD_VALUES), min_size=1, max_size=3)

# tests/spec_corpus_stream_ops.jsonl: a switch delay and up to 40 stream operations.
# A step's dt is k whole delays plus an offset, at least 1 us: offsets of -1, 0 and 1
# land steps just before, on and just after a switch's deadline.
STREAM_DELAYS = st.sampled_from((0, 1, DELAY_US))
_STEP = st.tuples(
    st.just("step"), st.integers(0, 3), st.one_of(st.integers(-1, 1), st.integers(-1, 3_000_000))
)
STREAM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.sampled_from(("LR", "HR", "MR"))),
        _STEP,
        st.just(("finalize",)),
    ),
    max_size=40,
)
