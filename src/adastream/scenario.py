"""Scenario configuration: the JSON schema driving one experiment.

`load_scenario` either returns a fully-validated ScenarioConfig or raises
ScenarioError carrying *every* violation found, not just the first.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .errors import ScenarioError
from .kb import AdaptationSpace, StreamConfig, default_space
from .netsim import FAULT_KINDS, FaultSchedule, FaultWindow, TraceParams, sample_indices
from .units import to_us

SCENARIO_SCHEMA_VERSION = 1


class WarmupParams(NamedTuple):
    start_s: float
    end_s: float


class UserOverride(NamedTuple):
    """Scheduled user configuration command: force `target` at time `at_us`."""

    at_us: int
    target: str


class ScenarioConfig(NamedTuple):
    scenario: str
    runs: int
    run_duration_us: int
    monitor_interval_us: int
    reconfig_delay_us: int
    trace: TraceParams
    probe_noise_sd_mbps: float
    warmup: WarmupParams
    faults: FaultSchedule
    space: AdaptationSpace
    initial_config: str
    hysteresis_mbps: float
    user_overrides: tuple[UserOverride, ...]
    seed: int

    @property
    def total_duration_us(self) -> int:
        return self.runs * self.run_duration_us


# generous sanity ceiling for every number, in its own unit, unless its field sets one
_NUMBER_CAP = 1e8

# the clock's resolution: a shorter positive duration rounds to 0 µs
_MIN_DURATION_S = 1e-6

# keeps a typo'd config from allocating a trace with billions of samples, or
# from running as many loop ticks
_MAX_TRACE_SAMPLES = 20_000_000

# a run's tick records and its events text are held until the run ends, under
# 2 KB a tick, so one run's ticks are capped too
_MAX_RUN_TICKS = 1_000_000


class _Field(NamedTuple):
    """One key of a scenario object: its JSON type, default and accepted range."""

    name: str
    type: type  # int, float (any finite number), str, dict or list
    default: object = ...  # ... marks a required key, None an optional one with no default
    ge: float | None = None  # the bounds apply to int and float fields
    gt: float | None = None
    le: float | None = _NUMBER_CAP


_TOP_FIELDS = (
    _Field("schema_version", int, ge=SCENARIO_SCHEMA_VERSION, le=SCENARIO_SCHEMA_VERSION),
    _Field("scenario", str),
    _Field("runs", int, ge=1, le=10_000_000),
    _Field("run_duration_s", float, ge=_MIN_DURATION_S),
    _Field("monitor_interval_s", float, 1.0, ge=_MIN_DURATION_S),
    _Field("reconfig_delay_s", float, 2.7, ge=0),
    _Field("trace", dict, {}),
    _Field("probe_noise_sd_mbps", float, 0.0, ge=0),
    _Field("warmup", dict, {}),
    _Field("faults", list, []),
    _Field("adaptation_space", list, None),
    _Field("initial_config", str, None),
    _Field("hysteresis_mbps", float, 0.0, ge=0),
    _Field("user_overrides", list, []),
    _Field("seed", int, le=None),
)
_TRACE_FIELDS = (
    _Field("mean_mbps", float, 5.0, gt=0),
    _Field("amplitude_mbps", float, 0.0, ge=0),
    _Field("period_s", float, 600.0, ge=_MIN_DURATION_S),
    _Field("noise_sd_mbps", float, 0.0, ge=0),
    _Field("step_s", float, 1.0, ge=_MIN_DURATION_S),
)
_WARMUP_FIELDS = (
    _Field("duration_s", float, 10800.0, gt=0),
    _Field("start_s", float, 0.0, ge=0),
    _Field("end_s", float, None, ge=0),  # absent: duration_s
)
_FAULT_FIELDS = (
    _Field("start_s", float, ge=0),
    _Field("end_s", float, ge=0),
    _Field("kind", str),
)
_OVERRIDE_FIELDS = (
    _Field("at_s", float, ge=0),
    _Field("target", str),
)
_SPACE_FIELDS = (
    _Field("name", str),
    _Field("frame_rate", int, ge=1),
    _Field("scale_w", int, ge=1),
    _Field("scale_h", int, ge=1),
    _Field("quality_score", float, ge=0, le=1),
)

# the Python types json.loads gives for each field type, and the type's name
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
    list: ((list,), "a list"),
}


def _read(obj, where: str, fields: tuple[_Field, ...], diags: list[str]) -> tuple[dict, bool]:
    """Read one JSON object by its field table, with a diagnostic per violation.

    Returns the values that passed, defaults filled in, and whether every
    field and key did.
    """
    if type(obj) is not dict:
        diags.append(f"{where or 'scenario config'} must be an object, got {obj!r}")
        return {}, False
    prefix = f"{where}." if where else ""
    count = len(diags)
    values = {}
    present = 0
    for name, kind, default, ge, gt, le in fields:
        if name not in obj:
            if default is ...:
                diags.append(f"{prefix}{name} is required")
            else:
                values[name] = default
            continue
        present += 1
        value = obj[name]
        accepted, noun = _JSON_TYPES[kind]
        if type(value) not in accepted or (type(value) is float and not math.isfinite(value)):
            diags.append(f"{prefix}{name} must be {noun}, got {value!r}")
        elif kind is not int and kind is not float:
            values[name] = value
        elif ge is not None and value < ge:
            diags.append(f"{prefix}{name} must be >= {ge:g}, got {value!r}")
        elif gt is not None and value <= gt:
            diags.append(f"{prefix}{name} must be > {gt:g}, got {value!r}")
        elif le is not None and value > le:
            diags.append(f"{prefix}{name} must be <= {le:g}, got {value!r}")
        else:
            values[name] = value
    if present < len(obj):
        for key in sorted(obj.keys() - {field.name for field in fields}):
            diags.append(f"unknown key {prefix + key!r}")
    return values, len(diags) == count


def _parse_space(raw: list | None, diags: list[str]) -> AdaptationSpace | None:
    if raw is None:
        return default_space()
    configs = []
    for i, entry in enumerate(raw):
        values, ok = _read(entry, f"adaptation_space[{i}]", _SPACE_FIELDS, diags)
        name = values.get("name")
        # a name heads a runs.csv column, seconds_<name>; "" splits into no lines
        if name is not None and ("," in name or name.splitlines() != [name]):
            diags.append(f"adaptation_space[{i}].name must be one line, non-empty, without ',', got {name!r}")
            ok = False
        # scale_w and scale_h are required and checked, and no output reads them
        configs.append(StreamConfig(values["name"], values["frame_rate"], values["quality_score"]) if ok else None)
    if None in configs:
        return None
    try:
        return AdaptationSpace.of(configs=tuple(configs))
    except ValueError as exc:
        diags.append(f"adaptation_space invalid: {exc}")
        return None


def _parse_faults(raw: list, diags: list[str]) -> FaultSchedule:
    windows = []
    for i, entry in enumerate(raw):
        where = f"faults[{i}]"
        values, ok = _read(entry, where, _FAULT_FIELDS, diags)
        if not ok:
            continue
        start, end, kind = values["start_s"], values["end_s"], values["kind"]
        if kind not in FAULT_KINDS:
            diags.append(f"{where}.kind must be one of {list(FAULT_KINDS)}, got {kind!r}")
            continue
        # compared on the engine's microsecond clock, where 1e-7 and 2e-7 s are both 0
        start_us, end_us = to_us(start), to_us(end)
        if start_us >= end_us:
            diags.append(f"{where} needs start_s < end_s, at least 1 µs apart, got [{start}, {end})")
            continue
        windows.append(FaultWindow(start_us=start_us, end_us=end_us, kind=kind))
    try:
        return FaultSchedule.of(windows=tuple(windows))
    except ValueError as exc:
        diags.append(f"faults invalid: {exc}")
        return FaultSchedule.of()


def parse_scenario(doc: object) -> tuple[ScenarioConfig | None, list[str]]:
    """Validate a scenario document, collecting all violations."""
    diags: list[str] = []
    top, _ = _read(doc, "", _TOP_FIELDS, diags)

    # a sub-object or list whose own type is wrong is left out of `top`
    space = _parse_space(top["adaptation_space"], diags) if "adaptation_space" in top else None

    scenario = top.get("scenario")
    pinned: str | None = None
    if scenario is not None and scenario.startswith("static-"):
        pinned = scenario[len("static-"):]
        if space is not None and pinned not in space.names:
            diags.append(
                f"scenario {scenario!r} pins config {pinned!r}, which is not in the adaptation space"
            )
    elif scenario not in (None, "adaptive"):
        diags.append(f"scenario must be 'adaptive' or 'static-<config>', got {scenario!r}")

    # past this point the clock runs in microseconds: each value is converted once
    runs = top.get("runs")
    run_duration, interval = top.get("run_duration_s"), top.get("monitor_interval_s")
    run_duration_us = None if run_duration is None else to_us(run_duration)
    interval_us = None if interval is None else to_us(interval)
    # runs execute back-to-back on one clock, so the per-run tick grid
    # must line up with the global monitoring grid
    if None not in (run_duration_us, interval_us) and run_duration_us % interval_us != 0:
        diags.append(
            f"run_duration_s ({run_duration}) must be a whole multiple of "
            f"monitor_interval_s ({interval})"
        )

    trace = None
    if "trace" in top:
        values, ok = _read(top["trace"], "trace", _TRACE_FIELDS, diags)
        if ok:
            trace = TraceParams(step_us=to_us(values.pop("step_s")), **values)

    warmup = None
    if "warmup" in top:
        values, ok = _read(top["warmup"], "warmup", _WARMUP_FIELDS, diags)
        if ok:
            w_duration, w_start = values["duration_s"], values["start_s"]
            w_end = w_duration if values["end_s"] is None else values["end_s"]
            if w_start >= w_end or w_end > w_duration:
                diags.append(
                    f"warmup window needs 0 <= start_s < end_s <= duration_s, "
                    f"got [{w_start}, {w_end}) over {w_duration}"
                )
            elif trace is not None and not sample_indices(
                to_us(w_start), to_us(w_end), trace.step_us
            ):
                diags.append(f"warmup window [{w_start}, {w_end}) selects no trace samples")
            else:
                warmup = WarmupParams(start_s=w_start, end_s=w_end)

    faults = _parse_faults(top.get("faults", []), diags)

    initial = top.get("initial_config")
    if space is not None:
        if initial is None:
            if pinned is not None:
                initial = pinned
            else:
                # Adaptive runs boot at the highest-frame-rate config.
                initial = space.highest_rate_config.name
        elif initial not in space.names:
            diags.append(f"initial_config {initial!r} not in the adaptation space")
        elif pinned is not None and initial != pinned:
            diags.append(
                f"initial_config {initial!r} conflicts with pinned static config {pinned!r}"
            )

    overrides: list[UserOverride] = []
    for i, entry in enumerate(top.get("user_overrides", [])):
        values, ok = _read(entry, f"user_overrides[{i}]", _OVERRIDE_FIELDS, diags)
        if not ok:
            continue
        target = values["target"]
        if space is not None and target not in space.names:
            diags.append(f"user_overrides[{i}].target {target!r} not in the adaptation space")
            continue
        overrides.append(UserOverride(at_us=to_us(values["at_s"]), target=target))
    if overrides and pinned is not None:
        diags.append("user_overrides require the adaptive scenario")

    if None not in (runs, run_duration_us, trace):
        step_us = trace.step_us
        # what Engine generates: ceil(duration / step) samples for the runs,
        # and for the warmup only up to end_s
        samples = -(-runs * run_duration_us // step_us)
        if warmup is not None:
            samples += -(-to_us(warmup.end_s) // step_us)
        if samples > _MAX_TRACE_SAMPLES:
            diags.append(
                f"experiment needs {samples} trace samples; limit is {_MAX_TRACE_SAMPLES} "
                f"(reduce runs/run_duration_s or raise trace.step_s)"
            )
    if None not in (run_duration_us, interval_us):
        run_ticks = -(-run_duration_us // interval_us)
        if run_ticks > _MAX_RUN_TICKS:
            diags.append(
                f"a run needs {run_ticks} loop ticks; limit is {_MAX_RUN_TICKS} "
                f"(reduce run_duration_s or raise monitor_interval_s)"
            )
        if runs is not None and runs * run_ticks > _MAX_TRACE_SAMPLES:
            diags.append(
                f"experiment needs {runs * run_ticks} loop ticks; limit is {_MAX_TRACE_SAMPLES} "
                f"(reduce runs/run_duration_s or raise monitor_interval_s)"
            )

    if diags:
        return None, diags

    config = ScenarioConfig(
        scenario=scenario,
        runs=runs,
        run_duration_us=run_duration_us,
        monitor_interval_us=interval_us,
        reconfig_delay_us=to_us(top["reconfig_delay_s"]),
        trace=trace,
        probe_noise_sd_mbps=top["probe_noise_sd_mbps"],
        warmup=warmup,
        faults=faults,
        space=space,
        initial_config=initial,
        hysteresis_mbps=top["hysteresis_mbps"],
        user_overrides=tuple(sorted(overrides, key=lambda o: o.at_us)),
        seed=top["seed"],
    )
    return config, []


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file; raises ScenarioError on any violation."""
    import json  # here, not at the top: a `compare` child never loads it
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an over-long int, deep nesting
        raise ScenarioError([f"{path} is not valid JSON: {exc}"]) from exc
    config, diags = parse_scenario(doc)
    if config is None:
        raise ScenarioError(diags)
    return config
