from __future__ import annotations

import re

import pytest

from adastream.errors import SimulationError
from adastream.kb import AdaptationStrategy, KnowledgeBase, default_space
from adastream.mapek import Analyzer, Engine, Executor, plan
from adastream.netsim import BandwidthTrace, FaultSchedule, FaultWindow, probe
from adastream.scenario import UserOverride, WarmupParams, load_scenario
from adastream.stream import StreamState
from adastream.units import to_us

from conftest import bundled_config_path, make_scenario, registered_strategies, run_into_jsonl, run_with_events

SPACE = default_space()


def sample(upload, ok=True, t_us=0):
    """A probe's message: (t_us, upload_mbps, ok)."""
    return (t_us, upload, ok)


# -- messages ------------------------------------------------------------


def test_healthy_sample_upload_must_be_non_negative():
    # The probe clamps its noisy reading at 0, here on a trace at 0 Mbps; the
    # acceptance spec tests check every monitor line of the spec corpus.
    zero = BandwidthTrace(uploads=(0.0,), step_us=to_us(1))
    samples = [probe(zero, FaultSchedule.of(), t_us, 5.0, seed=3) for t_us in range(40)]
    uploads = [upload for _, upload, _ in samples]
    assert min(uploads) == 0.0 < max(uploads)
    # a faulted probe reads no upload at all
    faulted = FaultSchedule.of((FaultWindow(0, 1, "probe-unavailable"),))
    assert probe(zero, faulted, 0, 5.0, seed=3) == (0, 0.0, False)


# -- analysis ------------------------------------------------------------


def test_analyze_tie_goes_above():
    assert Analyzer(threshold=4.0).evaluate(sample(4.0)) == "above-threshold"


def test_analyze_below():
    assert Analyzer(threshold=4.0).evaluate(sample(4.0 - 1e-9)) == "below-threshold"


def test_analyze_faulted_sample_is_unknown():
    assert Analyzer(threshold=4.0).evaluate(sample(0.0, ok=False)) == "unknown"


def test_analyzer_with_zero_band_matches_bare_threshold():
    analyzer = Analyzer(threshold=4.0)
    # a bare threshold keeps no state: each reading is classified on its own
    for upload in (3.0, 4.5, 3.999, 4.0, 3.0):
        expected = "above-threshold" if upload >= 4.0 else "below-threshold"
        assert analyzer.evaluate(sample(upload)) == expected


def test_analyzer_band_suppresses_flip_flop():
    analyzer = Analyzer(threshold=4.0, hysteresis_band=0.5)
    kinds = [analyzer.evaluate(sample(u)) for u in (5.0, 4.2, 3.8, 4.1, 3.3, 3.9, 4.6)]
    # readings inside [3.5, 4.5) keep the previous classification
    assert kinds == [
        "above-threshold", "above-threshold", "above-threshold", "above-threshold",
        "below-threshold", "below-threshold", "above-threshold",
    ]


def test_analyzer_unknown_does_not_clear_state():
    analyzer = Analyzer(threshold=4.0, hysteresis_band=0.5)
    assert analyzer.evaluate(sample(5.0)) == "above-threshold"
    assert analyzer.evaluate(sample(0.0, ok=False)) == "unknown"
    assert analyzer.evaluate(sample(4.0)) == "above-threshold"  # inside band, sticky


# -- planning --------------------------------------------------------------


def test_plan_below_threshold_degrades_to_low_rate():
    assert plan("below-threshold", SPACE) == "LR"


def test_plan_above_threshold_upgrades_from_low_rate():
    assert plan("above-threshold", SPACE) == "HR"


def test_plan_unknown_keeps_current():
    assert plan("unknown", SPACE) is None


def test_plan_above_threshold_keeps_high_rate():
    # A constant trace ties at the threshold, i.e. above, at every tick; the
    # planner names the applied HR each time, so the engine issues nothing.
    config = make_scenario(
        runs=1,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
    )
    assert config.initial_config == "HR"
    _, events = run_with_events(config)
    assert {e["condition"] for e in events if e["event"] == "analyze"} == {"above-threshold"}
    assert {e["action"] for e in events if e["event"] == "plan"} == {"keep"}
    assert registered_strategies(events) == []


# -- execution ----------------------------------------------------------------


def test_execute_applies_latest_strategy():
    kb = KnowledgeBase()
    kb.register_strategy(AdaptationStrategy(1, "HR", "above-threshold"))
    stream = StreamState("LR", to_us(2.7))
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", 1, "HR", True)
    assert (stream.active, stream.target) == ("LR", "HR")
    assert stream.reconfig_remaining_us == to_us(2.7)


def test_execute_registry_unavailable_falls_back():
    kb = KnowledgeBase()
    kb.register_strategy(AdaptationStrategy(1, "HR", "above-threshold"))
    stream = StreamState("LR", to_us(2.7))
    assert Executor().execute(kb, stream, registry_available=False) == ("fallback", None, "LR", False)
    # still streaming, unchanged
    assert (stream.active, stream.target, stream.reconfig_remaining_us) == ("LR", "LR", 0)


def test_execute_fallback_reports_the_target_of_a_switch_in_flight():
    kb = KnowledgeBase()
    stream = StreamState("LR", to_us(2.7))
    stream.apply_config("HR")
    assert Executor().execute(kb, stream, registry_available=False) == ("fallback", None, "HR", False)
    assert (stream.active, stream.target) == ("LR", "HR")


def test_execute_matching_target_is_free():
    kb = KnowledgeBase()
    kb.register_strategy(AdaptationStrategy(1, "LR", "below-threshold"))
    stream = StreamState("LR", to_us(2.7))
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", 1, "LR", False)
    assert stream.reconfig_remaining_us == 0


def test_execute_empty_registry_is_noop():
    kb = KnowledgeBase()
    stream = StreamState("LR", to_us(2.7))
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", None, None, False)


def test_execute_compares_against_pending_target():
    # a switch to HR is in flight; the latest strategy reverses to LR
    kb = KnowledgeBase()
    stream = StreamState("LR", to_us(2.7))
    stream.apply_config("HR")
    kb.register_strategy(AdaptationStrategy(1, "HR", "above-threshold"))
    kb.register_strategy(AdaptationStrategy(2, "LR", "below-threshold"))
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", 2, "LR", True)
    assert (stream.active, stream.target) == ("LR", "LR")
    assert stream.reconfig_remaining_us == to_us(2.7)  # the deadline holds
    # a strategy naming the committed config is a no-op, though HR is not active
    kb.register_strategy(AdaptationStrategy(3, "HR", "above-threshold"))
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", 3, "HR", True)
    assert Executor().execute(kb, stream, registry_available=True) == ("registry", 3, "HR", False)


# -- the loop ------------------------------------------------------------------


def test_user_override_issues_user_config_strategy():
    config = make_scenario(
        runs=2,
        trace={"mean_mbps": 5.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 600.0},
        user_overrides=[{"at_s": 10.0, "target": "LR"}],
    )
    records, events = run_with_events(config)
    # the override fires once at t=10; threshold planning resumes next tick
    # and reverts (constant trace ties at the threshold, i.e. above)
    strategies = registered_strategies(events)
    registered_at = {e["strategy_id"]: e["t_us"] for e in events if e["event"] == "register" and e["ok"]}
    user_strategies = [s for s in strategies if s.reason == "user-config"]
    assert len(user_strategies) == 1
    assert user_strategies[0].target == "LR"
    assert registered_at[user_strategies[0].id] == to_us(10)
    revert = strategies[1]
    assert revert.reason == "above-threshold" and revert.target == "HR"
    assert registered_at[revert.id] == to_us(11)
    applied = [e for e in events if e["event"] == "execute" and e["applied"]]
    assert [e["strategy_id"] for e in applied] == [s.id for s in strategies]


def test_override_during_registry_outage_is_reported_not_retried():
    config = make_scenario(
        runs=2,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 10.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        user_overrides=[{"at_s": 12.0, "target": "LR"}],
    )
    records, events = run_with_events(config)
    strategy_events = [
        e for e in events
        if (e["event"] == "plan" and e["action"] == "strategy") or e["event"] == "register"
    ]
    # One plan and one dropped registration at the override's tick, and no
    # retry once the registry is back at t=20.
    assert strategy_events == [
        {"seq": 12 * 5 + 2, "run": 0, "t_us": to_us(12), "event": "plan",
         "action": "strategy", "target": "LR", "reason": "user-config"},
        {"seq": 12 * 5 + 3, "run": 0, "t_us": to_us(12), "event": "register",
         "ok": False, "strategy_id": None, "target": "LR"},
    ]
    assert registered_strategies(events) == []
    assert [r.switches for r in records] == [0, 0]
    assert all(r.streamed_us == {"HR": to_us(30)} for r in records)


def test_registry_outage_during_a_switch_falls_back_to_the_pending_target():
    config = make_scenario(
        runs=1,
        reconfig_delay_s=5.5,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 13.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        user_overrides=[{"at_s": 12.0, "target": "LR"}],
    )
    records, events = run_with_events(config)
    # The switch to LR starts at 12 s and drains during the 17 s tick; the
    # outage from 13 s drops every HR strategy the planner issues meanwhile.
    fallbacks = [e for e in events if e["event"] == "execute" and e["source"] == "fallback"]
    assert [e["t_us"] for e in fallbacks] == [to_us(t) for t in range(13, 20)]
    assert all(e["target"] == "LR" and not e["applied"] for e in fallbacks)
    active = {e["t_us"]: e["active"] for e in events if e["event"] == "step"}
    assert [active[to_us(t)] for t in range(11, 18)] == ["HR"] * 6 + ["LR"]
    # The planner reads the committed LR too, so it asks for HR at every tick.
    registers = [(e["t_us"], e["ok"], e["target"]) for e in events if e["event"] == "register"]
    assert registers == [
        (to_us(12), True, "LR"),
        *[(to_us(t), False, "HR") for t in range(13, 20)],
        (to_us(20), True, "HR"),
    ]


def test_overrides_falling_due_at_one_tick_leave_only_the_latest():
    config = make_scenario(
        runs=1,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        user_overrides=[{"at_s": 12.2, "target": "LR"}, {"at_s": 12.7, "target": "HR"}],
    )
    records, events = run_with_events(config)
    # Both fall due at the 13 s tick. The HR one acts, and as the stream is
    # already on HR it plans nothing; the LR one leaves no event at all.
    plans = [e for e in events if e["event"] == "plan" and e["t_us"] == to_us(13)]
    assert plans == [
        {"seq": 13 * 5 + 2, "run": 0, "t_us": to_us(13), "event": "plan", "action": "keep"},
    ]
    assert all(e.get("target") != "LR" for e in events)
    assert registered_strategies(events) == []
    assert records[0].streamed_us == {"HR": to_us(30)}


def test_a_due_override_takes_its_ticks_plan_even_when_it_changes_nothing():
    config = make_scenario(
        runs=1,
        initial_config="LR",
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 0.0, "end_s": 5.0, "kind": "probe-unavailable"}],
        user_overrides=[{"at_s": 5.0, "target": "LR"}],
    )
    _, events = run_with_events(config)
    # From 5 s the analyzer calls for HR, but at 5 s the override to the
    # applied LR wins the tick and plans nothing; the planner acts at 6 s.
    analyses = {e["t_us"]: e["condition"] for e in events if e["event"] == "analyze"}
    assert analyses[to_us(5)] == "above-threshold"
    plans = [e for e in events if e["event"] == "plan" and e["t_us"] in (to_us(5), to_us(6))]
    assert plans == [
        {"seq": 5 * 5 + 2, "run": 0, "t_us": to_us(5), "event": "plan", "action": "keep"},
        {"seq": 6 * 5 + 2, "run": 0, "t_us": to_us(6), "event": "plan",
         "action": "strategy", "target": "HR", "reason": "above-threshold"},
    ]
    assert registered_strategies(events) == [AdaptationStrategy(1, "HR", "above-threshold")]


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
