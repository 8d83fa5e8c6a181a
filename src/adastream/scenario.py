"""Scenario configuration: the JSON schema driving one experiment.

`load_scenario` either returns a fully-validated ScenarioConfig or raises
ScenarioError carrying *every* violation found, not just the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ScenarioError
from .kb import AdaptationSpace, StreamConfig, default_space
from .netsim import FAULT_KINDS, FaultSchedule, FaultWindow
from .units import to_us

SCENARIO_SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "scenario",
    "runs",
    "run_duration_s",
    "monitor_interval_s",
    "reconfig_delay_s",
    "trace",
    "probe_noise_sd_mbps",
    "warmup",
    "faults",
    "adaptation_space",
    "initial_config",
    "hysteresis_mbps",
    "user_overrides",
    "seed",
}

_TRACE_KEYS = {"mean_mbps", "amplitude_mbps", "period_s", "noise_sd_mbps", "step_s"}
_WARMUP_KEYS = {"duration_s", "start_s", "end_s"}


@dataclass(frozen=True)
class TraceParams:
    mean_mbps: float = 5.0
    amplitude_mbps: float = 0.0
    period_s: float = 600.0
    noise_sd_mbps: float = 0.0
    step_s: float = 1.0


@dataclass(frozen=True)
class WarmupParams:
    duration_s: float = 10800.0
    start_s: float = 0.0
    end_s: float = 10800.0


@dataclass(frozen=True)
class UserOverride:
    """Scheduled user configuration command: force `target` at time `at_us`."""

    at_us: int
    target: str


@dataclass(frozen=True)
class ScenarioConfig:
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
    def mode(self) -> str:
        return "adaptive" if self.scenario == "adaptive" else "static"

    @property
    def total_duration_us(self) -> int:
        return self.runs * self.run_duration_us

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


# generous sanity ceiling for every time/speed field, in its own unit
_NUMBER_CAP = 1e8

# keeps a typo'd config from allocating a trace with billions of samples
_MAX_TRACE_SAMPLES = 20_000_000


def _get_number(doc: dict, key: str, diags: list[str], default=None, minimum=None, strict_min=False):
    value = doc.get(key, default)
    if value is None:
        diags.append(f"{key} is required")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        diags.append(f"{key} must be a finite number, got {value!r}")
        return None
    if minimum is not None:
        if strict_min and value <= minimum:
            diags.append(f"{key} must be > {minimum}, got {value}")
            return None
        if not strict_min and value < minimum:
            diags.append(f"{key} must be >= {minimum}, got {value}")
            return None
    if abs(value) > _NUMBER_CAP:
        diags.append(f"{key} is implausibly large ({value!r}); limit is {_NUMBER_CAP:g}")
        return None
    return value


def _parse_space(raw, diags: list[str]) -> AdaptationSpace | None:
    if raw is None:
        return default_space()
    if not isinstance(raw, list) or not raw:
        diags.append("adaptation_space must be a non-empty list of config objects")
        return None
    configs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            diags.append(f"adaptation_space[{i}] must be an object")
            continue
        try:
            configs.append(
                StreamConfig(
                    name=str(entry["name"]),
                    frame_rate=int(entry["frame_rate"]),
                    scale_w=int(entry["scale_w"]),
                    scale_h=int(entry["scale_h"]),
                    quality_score=float(entry["quality_score"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            diags.append(f"adaptation_space[{i}] invalid: {exc}")
    if not configs:
        return None
    try:
        return AdaptationSpace(configs=tuple(configs))
    except ValueError as exc:
        diags.append(f"adaptation_space invalid: {exc}")
        return None


def _parse_faults(raw, diags: list[str]) -> FaultSchedule:
    windows = []
    if raw is None:
        raw = []
    if not isinstance(raw, list):
        diags.append("faults must be a list of window objects")
        raw = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            diags.append(f"faults[{i}] must be an object")
            continue
        kind = entry.get("kind")
        if kind not in FAULT_KINDS:
            diags.append(f"faults[{i}].kind must be one of {list(FAULT_KINDS)}, got {kind!r}")
            continue
        try:
            start = float(entry["start_s"])
            end = float(entry["end_s"])
        except (KeyError, TypeError, ValueError):
            diags.append(f"faults[{i}] needs numeric start_s and end_s")
            continue
        if not (math.isfinite(start) and math.isfinite(end)) or abs(end) > _NUMBER_CAP:
            diags.append(f"faults[{i}] bounds must be finite and below {_NUMBER_CAP:g}")
            continue
        if start < 0 or start >= end:
            diags.append(f"faults[{i}] needs 0 <= start_s < end_s, got [{start}, {end})")
            continue
        windows.append(FaultWindow(start_us=to_us(start), end_us=to_us(end), kind=kind))
    try:
        return FaultSchedule(windows=tuple(windows))
    except ValueError as exc:
        diags.append(f"faults invalid: {exc}")
        return FaultSchedule()


def parse_scenario(doc: dict) -> tuple[ScenarioConfig | None, list[str]]:
    """Validate a scenario document, collecting all violations."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return None, ["scenario config must be a JSON object"]

    for key in sorted(set(doc) - _TOP_LEVEL_KEYS):
        diags.append(f"unknown key {key!r}")

    version = doc.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        diags.append(f"schema_version must be {SCENARIO_SCHEMA_VERSION}, got {version!r}")

    space = _parse_space(doc.get("adaptation_space"), diags)

    scenario = doc.get("scenario")
    pinned: str | None = None
    if not isinstance(scenario, str):
        diags.append(f"scenario must be a string label, got {scenario!r}")
        scenario = None
    elif scenario == "adaptive":
        pass
    elif scenario.startswith("static-"):
        pinned = scenario[len("static-"):]
        if space is not None and pinned not in space:
            diags.append(
                f"scenario {scenario!r} pins config {pinned!r}, which is not in the adaptation space"
            )
    else:
        diags.append(f"scenario must be 'adaptive' or 'static-<config>', got {scenario!r}")
        scenario = None

    runs = doc.get("runs")
    if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
        diags.append(f"runs must be >= 1, got {runs!r}")
        runs = None
    elif runs > 10_000_000:
        diags.append(f"runs is implausibly large ({runs})")
        runs = None

    run_duration = _get_number(doc, "run_duration_s", diags, minimum=0, strict_min=True)
    interval = _get_number(doc, "monitor_interval_s", diags, default=1.0, minimum=0, strict_min=True)
    if run_duration is not None and interval is not None:
        # runs execute back-to-back on one clock, so the per-run tick grid
        # must line up with the global monitoring grid
        if to_us(run_duration) % to_us(interval) != 0:
            diags.append(
                f"run_duration_s ({run_duration}) must be a whole multiple of "
                f"monitor_interval_s ({interval})"
            )
    delay = _get_number(doc, "reconfig_delay_s", diags, default=2.7, minimum=0)
    probe_noise = _get_number(doc, "probe_noise_sd_mbps", diags, default=0.0, minimum=0)
    hysteresis = _get_number(doc, "hysteresis_mbps", diags, default=0.0, minimum=0)

    seed = doc.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        diags.append(f"seed must be an integer, got {seed!r}")
        seed = None

    raw_trace = doc.get("trace", {})
    trace = None
    if not isinstance(raw_trace, dict):
        diags.append("trace must be an object")
    else:
        for key in sorted(set(raw_trace) - _TRACE_KEYS):
            diags.append(f"unknown trace key {key!r}")
        tdiags: list[str] = []
        mean = _get_number(raw_trace, "mean_mbps", tdiags, default=5.0, minimum=0, strict_min=True)
        amplitude = _get_number(raw_trace, "amplitude_mbps", tdiags, default=0.0, minimum=0)
        period = _get_number(raw_trace, "period_s", tdiags, default=600.0, minimum=0, strict_min=True)
        noise = _get_number(raw_trace, "noise_sd_mbps", tdiags, default=0.0, minimum=0)
        step = _get_number(raw_trace, "step_s", tdiags, default=1.0, minimum=0, strict_min=True)
        diags.extend(f"trace.{d}" for d in tdiags)
        if not tdiags:
            trace = TraceParams(
                mean_mbps=mean, amplitude_mbps=amplitude, period_s=period,
                noise_sd_mbps=noise, step_s=step,
            )

    raw_warmup = doc.get("warmup", {})
    warmup = None
    if not isinstance(raw_warmup, dict):
        diags.append("warmup must be an object")
    else:
        for key in sorted(set(raw_warmup) - _WARMUP_KEYS):
            diags.append(f"unknown warmup key {key!r}")
        wdiags: list[str] = []
        w_duration = _get_number(raw_warmup, "duration_s", wdiags, default=10800.0, minimum=0, strict_min=True)
        w_start = _get_number(raw_warmup, "start_s", wdiags, default=0.0, minimum=0)
        w_end = _get_number(raw_warmup, "end_s", wdiags, default=w_duration if w_duration else 10800.0)
        diags.extend(f"warmup.{d}" for d in wdiags)
        if not wdiags:
            if w_start >= w_end or w_end > w_duration:
                diags.append(
                    f"warmup window needs 0 <= start_s < end_s <= duration_s, "
                    f"got [{w_start}, {w_end}) over {w_duration}"
                )
            else:
                warmup = WarmupParams(duration_s=w_duration, start_s=w_start, end_s=w_end)
        if trace is not None and warmup is not None and warmup.duration_s < trace.step_s:
            diags.append("warmup.duration_s must cover at least one trace step")
            warmup = None

    faults = _parse_faults(doc.get("faults"), diags)

    initial = doc.get("initial_config")
    if initial is not None and not isinstance(initial, str):
        diags.append(f"initial_config must be a string, got {initial!r}")
        initial = None
    if space is not None:
        if initial is None:
            if pinned is not None:
                initial = pinned
            else:
                # Adaptive runs boot at the highest-frame-rate config.
                initial = space.highest_rate_config.name
        elif initial not in space:
            diags.append(f"initial_config {initial!r} not in the adaptation space")
        elif pinned is not None and initial != pinned:
            diags.append(
                f"initial_config {initial!r} conflicts with pinned static config {pinned!r}"
            )

    overrides: list[UserOverride] = []
    raw_overrides = doc.get("user_overrides", [])
    if not isinstance(raw_overrides, list):
        diags.append("user_overrides must be a list")
        raw_overrides = []
    for i, entry in enumerate(raw_overrides):
        if not isinstance(entry, dict) or "at_s" not in entry or "target" not in entry:
            diags.append(f"user_overrides[{i}] needs at_s and target")
            continue
        try:
            at_s = float(entry["at_s"])
        except (TypeError, ValueError):
            diags.append(f"user_overrides[{i}].at_s must be a number")
            continue
        target = entry["target"]
        if not math.isfinite(at_s) or not 0 <= at_s <= _NUMBER_CAP:
            diags.append(f"user_overrides[{i}].at_s must be in [0, {_NUMBER_CAP:g}]")
            continue
        if space is not None and target not in space:
            diags.append(f"user_overrides[{i}].target {target!r} not in the adaptation space")
            continue
        overrides.append(UserOverride(at_us=to_us(at_s), target=str(target)))
    if overrides and pinned is not None:
        diags.append("user_overrides require the adaptive scenario")

    if runs is not None and run_duration is not None and trace is not None:
        # what Engine generates: ceil(duration / step) samples for the runs,
        # and for the warmup only up to max(end_s, step_s)
        step_us = to_us(trace.step_s)
        samples = -(-runs * to_us(run_duration) // step_us)
        if warmup is not None:
            samples += -(-to_us(max(warmup.end_s, trace.step_s)) // step_us)
        if samples > _MAX_TRACE_SAMPLES:
            diags.append(
                f"experiment needs {samples} trace samples; limit is {_MAX_TRACE_SAMPLES} "
                f"(reduce runs/run_duration_s or raise trace.step_s)"
            )

    if diags:
        return None, diags

    config = ScenarioConfig(
        scenario=scenario,
        runs=runs,
        run_duration_us=to_us(run_duration),
        monitor_interval_us=to_us(interval),
        reconfig_delay_us=to_us(delay),
        trace=trace,
        probe_noise_sd_mbps=probe_noise,
        warmup=warmup,
        faults=faults,
        space=space,
        initial_config=initial,
        hysteresis_mbps=hysteresis,
        user_overrides=tuple(sorted(overrides, key=lambda o: o.at_us)),
        seed=seed,
    )
    return config, []


def bundled_config_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'table3-adaptive')."""
    filename = name if name.endswith(".json") else f"{name}.json"
    path = Path(__file__).parent / "configs" / filename
    if not path.exists():
        bundled = sorted(p.stem for p in (Path(__file__).parent / "configs").glob("*.json"))
        raise ScenarioError([f"no bundled config {name!r}; available: {bundled}"])
    return path


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file; raises ScenarioError on any violation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path} is not valid JSON: {exc}"]) from exc
    config, diags = parse_scenario(doc)
    if config is None:
        raise ScenarioError(diags)
    return config
