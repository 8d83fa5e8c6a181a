from __future__ import annotations

import re

import pytest

from adastream.errors import SimulationError
from adastream.mapek import Engine
from adastream.scenario import UserOverride, WarmupParams, load_scenario

from conftest import make_scenario, run_with_events
from spec_check import bundled_config_path, registered_strategies, run_into_jsonl


# -- the loop ------------------------------------------------------------------


def test_hysteresis_band_reduces_switching():
    noisy = dict(
        runs=10,
        trace={"mean_mbps": 5.0, "amplitude_mbps": 0.5, "period_s": 61.0, "noise_sd_mbps": 0.8},
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 600.0},
        probe_noise_sd_mbps=0.3,
    )
    _, bare = run_with_events(make_scenario(**noisy))
    _, banded = run_with_events(make_scenario(**noisy, hysteresis_mbps=1.5))
    assert len(registered_strategies(banded)) < len(registered_strategies(bare))


@pytest.mark.parametrize(
    "config",
    [load_scenario(bundled_config_path("table3-adaptive")), make_scenario(hysteresis_mbps=1.0)],
    ids=["bundled-adaptive", "first-probe-inside-the-band"],
)
def test_a_second_run_replays_the_first(config):
    # Each run builds its own knowledge base, stream and analyzer; one carried
    # over would start the second run on the first run's last strategy,
    # stream state or sticky classification.
    engine = Engine(config)
    if config.hysteresis_mbps:
        _, upload, _ = engine.monitor.tick(0)
        assert abs(upload - engine.threshold_mbps) < config.hysteresis_mbps
    assert run_into_jsonl(engine) == run_into_jsonl(engine)


TRACE = make_scenario().trace
# Each SimulationError Engine.__init__ raises, exactly, for make_scenario(runs=2) with `fields`
# replaced: a hand-built config the parser would refuse. With no runs aggregate divides by zero,
# a negative delay never drains so the stream never switches, and a zero step divides by zero.
ENGINE_REFUSALS = [
    ("runs-0", {"runs": 0}, "runs must be at least 1, got 0"),
    ("runs-minus-1", {"runs": -1}, "runs must be at least 1, got -1"),
    ("run-duration-0", {"run_duration_us": 0}, "run duration must be positive, got 0 us"),
    ("run-off-the-tick-grid", {"run_duration_us": 2_500_000}, "run duration 2500000 us is not a whole number of ticks"),
    ("monitor-interval-0", {"monitor_interval_us": 0}, "run duration 30000000 us is not a whole number of ticks"),
    ("initial-config-outside-the-space", {"initial_config": "XX"}, "config 'XX' is not in the adaptation space"),
    # the first override names a config in the space; only the second is unknown
    ("override-target-outside-the-space", {"user_overrides": (UserOverride(0, "LR"), UserOverride(1_000_000, "XX"))},
     "config 'XX' is not in the adaptation space"),
    ("reconfig-delay-minus-5", {"reconfig_delay_us": -5}, "reconfig delay must be non-negative, got -5 us"),
    ("trace-step-0", {"trace": TRACE._replace(step_us=0)}, "trace step must be positive, got 0 us"),
    # The samples of [-5, 65) s would be the slice [-5:65], which wraps round to
    # the samples of [60, 65) s and reads 5.186 Mbps, where [0, 65) s reads 5.013.
    ("warmup-starts-below-0", {"warmup": WarmupParams(-5.0, 65.0)}, "warmup window starts at -5 s, before the trace"),
    ("between-samples", {"warmup": WarmupParams(27.2, 27.5)},
     "warmup window [27.2, 27.5) s selects no trace sample"),
    ("end-rounds-to-0-us", {"warmup": WarmupParams(0.0, 4e-7)},
     "warmup window [0, 4e-07) s selects no trace sample"),
    # a trace 10 Mbps below 0 is clamped to 0 over the whole window
    ("threshold-0", {"trace": TRACE._replace(mean_mbps=-10.0)},
     "warmup window [27, 65) s gives a threshold of 0 Mbps (the clamped trace is zero there); "
     "move the window or raise trace.mean_mbps"),
]


@pytest.mark.parametrize("fields, message", [pytest.param(f, m, id=i) for i, f, m in ENGINE_REFUSALS])
def test_engine_refuses_a_config_the_loop_cannot_run(fields, message):
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        Engine(make_scenario(runs=2)._replace(**fields))
