from __future__ import annotations

import pytest

from adastream.errors import SimulationError
from adastream.kb import AdaptationStrategy, KnowledgeBase, default_space
from adastream.mapek import (
    Analyzer,
    Engine,
    ExecuteOutcome,
    Executor,
    Monitor,
    plan,
)
from adastream.netsim import BandwidthTrace, FaultSchedule, FaultWindow, SpeedSample, generate_trace, probe
from adastream.scenario import UserOverride
from adastream.stream import StepOutcome, StreamState
from adastream.units import to_us

from conftest import DroppingSink, run_dropping_events, run_with_events

SPACE = default_space()


def sample(upload, ok=True, t_us=0):
    return SpeedSample(t_us=t_us, upload_mbps=upload, ok=ok)


# -- messages ------------------------------------------------------------


def test_healthy_sample_upload_must_be_non_negative():
    # The probe clamps its noisy reading at 0, here on a trace at 0 Mbps; the
    # acceptance property checks every monitor line of generated runs.
    zero = BandwidthTrace(uploads=(0.0,), step_us=to_us(1))
    uploads = [probe(zero, FaultSchedule(), t_us, 5.0, seed=3).upload_mbps for t_us in range(40)]
    assert min(uploads) == 0.0 < max(uploads)
    faulted = SpeedSample(t_us=0, upload_mbps=0.0, ok=False)
    assert not faulted.ok and faulted.upload_mbps == 0.0


@pytest.mark.parametrize(
    "message, fields",
    [
        (SpeedSample(t_us=5, upload_mbps=1.5, ok=True), ("t_us", "upload_mbps", "ok")),
        (
            ExecuteOutcome(source="registry", strategy_id=1, target="LR", applied=True),
            ("source", "strategy_id", "target", "applied"),
        ),
        (
            StepOutcome(reconfig_us=2, streamed_us=3, active="LR"),
            ("reconfig_us", "streamed_us", "active"),
        ),
    ],
    ids=["SpeedSample", "ExecuteOutcome", "StepOutcome"],
)
def test_loop_messages_are_immutable_values(message, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(message, name, getattr(message, name))
    copy = type(message)(**{name: getattr(message, name) for name in fields})
    assert copy == message


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


def test_plan_above_threshold_keeps_high_rate(scenario_factory):
    # A constant trace ties at the threshold, i.e. above, at every tick; the
    # planner names the applied HR each time, so the engine issues nothing.
    config = scenario_factory(
        runs=1,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
    )
    assert config.initial_config == "HR"
    result, events = run_with_events(config)
    assert {e["condition"] for e in events if e["event"] == "analyze"} == {"above-threshold"}
    assert {e["action"] for e in events if e["event"] == "plan"} == {"keep"}
    assert result.kb.strategies == ()


# -- monitoring ------------------------------------------------------------


def thirty_second_trace(amplitude):
    return generate_trace(
        mean=5, amplitude=amplitude, period=60, noise_sd=0, duration_us=to_us(30), step_us=to_us(1), seed=0
    )


def test_monitor_healthy_tick_reports_bandwidth():
    trace = thirty_second_trace(amplitude=0)
    monitor = Monitor(trace, FaultSchedule(), probe_noise_sd=0, probe_seed=1)
    s = monitor.tick(to_us(10))
    assert s == SpeedSample(t_us=to_us(10), upload_mbps=5.0, ok=True)


def test_monitor_tick_inside_fault_window():
    trace = thirty_second_trace(amplitude=0)
    faults = FaultSchedule(windows=(FaultWindow(to_us(5), to_us(15), "probe-unavailable"),))
    monitor = Monitor(trace, faults, probe_noise_sd=0, probe_seed=1)
    s = monitor.tick(to_us(10))
    assert not s.ok and s.upload_mbps == 0.0


def test_monitor_tick_deterministic():
    trace = thirty_second_trace(amplitude=1)
    monitor = Monitor(trace, FaultSchedule(), probe_noise_sd=0.5, probe_seed=9)
    assert monitor.tick(to_us(4)) == monitor.tick(to_us(4))


# -- execution ----------------------------------------------------------------


def test_execute_applies_latest_strategy():
    kb = KnowledgeBase(last_applied="LR")
    kb.register_strategy(AdaptationStrategy(1, 0, "HR", "above-threshold"))
    stream = StreamState("LR")
    outcome = Executor(to_us(2.7)).execute(kb, stream, registry_available=True)
    assert outcome.applied and outcome.target == "HR" and outcome.strategy_id == 1
    assert stream.pending == "HR"
    assert kb.last_applied == "HR"


def test_execute_registry_unavailable_falls_back():
    kb = KnowledgeBase(last_applied="LR")
    kb.register_strategy(AdaptationStrategy(1, 0, "HR", "above-threshold"))
    stream = StreamState("LR")
    outcome = Executor(to_us(2.7)).execute(kb, stream, registry_available=False)
    assert not outcome.applied
    assert outcome.source == "fallback" and outcome.target == "LR"
    assert stream.pending is None  # still streaming, unchanged
    assert kb.last_applied == "LR"


def test_execute_matching_target_is_free():
    kb = KnowledgeBase(last_applied="LR")
    kb.register_strategy(AdaptationStrategy(1, 0, "LR", "below-threshold"))
    stream = StreamState("LR")
    outcome = Executor(to_us(2.7)).execute(kb, stream, registry_available=True)
    assert not outcome.applied
    assert stream.reconfig_remaining_us == 0


def test_execute_empty_registry_is_noop():
    kb = KnowledgeBase(last_applied="LR")
    stream = StreamState("LR")
    outcome = Executor(to_us(2.7)).execute(kb, stream, registry_available=True)
    assert not outcome.applied and outcome.strategy_id is None


def test_execute_compares_against_pending_target():
    # a switch to HR is in flight; the latest strategy reverses to LR
    kb = KnowledgeBase(last_applied="HR")
    stream = StreamState("LR")
    stream.apply_config("HR", to_us(2.7))
    kb.register_strategy(AdaptationStrategy(1, 0, "HR", "above-threshold"))
    kb.register_strategy(AdaptationStrategy(2, 1_000_000, "LR", "below-threshold"))
    outcome = Executor(to_us(2.7)).execute(kb, stream, registry_available=True)
    assert outcome.applied and outcome.target == "LR"
    assert stream.pending == "LR"


# -- the loop ------------------------------------------------------------------


def test_static_scenario_registers_nothing(scenario_factory):
    result = run_dropping_events(scenario_factory(scenario="static-LR", runs=5))
    assert len(result.records) == 5
    assert all(r.reconfig_us == 0 for r in result.records)
    assert all(r.streamed_us == {"LR": to_us(30)} for r in result.records)
    assert result.kb.strategies == ()


def test_loop_is_deterministic(scenario_factory):
    a = run_dropping_events(scenario_factory(runs=3))
    b = run_dropping_events(scenario_factory(runs=3))
    assert a.records == b.records
    assert a.kb.strategies == b.kb.strategies
    assert a.threshold_mbps == b.threshold_mbps


def test_seed_changes_the_event_log(scenario_factory):
    _, a = run_with_events(scenario_factory(runs=3))
    _, b = run_with_events(scenario_factory(runs=3, seed=43))
    assert a != b


def test_adaptive_loop_adapts_and_accounts_exactly(scenario_factory):
    result = run_dropping_events(scenario_factory(runs=10))
    assert len(result.kb.strategies) > 0
    for record in result.records:
        assert record.streamed_total_us + record.reconfig_us == record.duration_us


def test_no_redundant_strategies(scenario_factory):
    result = run_dropping_events(scenario_factory(runs=10))
    targets = [s.target for s in result.kb.strategies]
    assert all(a != b for a, b in zip(targets, targets[1:]))
    ids = [s.id for s in result.kb.strategies]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_every_applied_change_traces_to_one_earlier_registration(scenario_factory):
    _, events = run_with_events(scenario_factory(runs=10))
    registered = {
        e["strategy_id"]: e["seq"] for e in events if e["event"] == "register" and e["ok"]
    }
    applied = [e for e in events if e["event"] == "execute" and e["applied"]]
    assert applied, "adaptive scenario should reconfigure at least once"
    seen: set[int] = set()
    for event in applied:
        sid = event["strategy_id"]
        assert sid in registered, "applied a strategy that was never registered"
        assert registered[sid] < event["seq"], "strategy applied before registration"
        assert sid not in seen, "one strategy applied twice"
        seen.add(sid)


def test_probe_fault_window_freezes_planning(scenario_factory):
    window = FaultWindow(to_us(30), to_us(60), "probe-unavailable")
    config = scenario_factory(runs=3, faults=[
        {"start_s": 30.0, "end_s": 60.0, "kind": "probe-unavailable"},
    ])
    assert config.faults.windows == (window,)
    result, events = run_with_events(config)
    in_window = [e for e in events if window.start_us <= e["t_us"] < window.end_us]
    assert all(e["condition"] == "unknown" for e in in_window if e["event"] == "analyze")
    assert all(e["action"] == "keep" for e in in_window if e["event"] == "plan")
    for record in result.records:  # the stream never halted
        assert record.streamed_total_us + record.reconfig_us == record.duration_us


def test_registry_fault_window_uses_fallback_only(scenario_factory):
    config = scenario_factory(runs=4, faults=[
        {"start_s": 30.0, "end_s": 66.0, "kind": "registry-unavailable"},
    ])
    result, events = run_with_events(config)
    start, end = to_us(30), to_us(66)
    in_window = [e for e in events if start <= e["t_us"] < end]
    executes = [e for e in in_window if e["event"] == "execute"]
    assert executes
    assert all(e["source"] == "fallback" and not e["applied"] for e in executes)
    registers = [e for e in in_window if e["event"] == "register"]
    assert all(not e["ok"] for e in registers)
    for record in result.records:
        assert record.streamed_total_us + record.reconfig_us == record.duration_us


def test_user_override_issues_user_config_strategy(scenario_factory):
    config = scenario_factory(
        runs=2,
        trace={"mean_mbps": 5.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 600.0},
        user_overrides=[{"at_s": 10.0, "target": "LR"}],
    )
    result, events = run_with_events(config)
    # the override fires once at t=10; threshold planning resumes next tick
    # and reverts (constant trace ties at the threshold, i.e. above)
    user_strategies = [s for s in result.kb.strategies if s.reason == "user-config"]
    assert len(user_strategies) == 1
    assert user_strategies[0].target == "LR"
    assert user_strategies[0].issued_at_us == to_us(10)
    revert = result.kb.strategies[1]
    assert revert.reason == "above-threshold" and revert.target == "HR"
    assert revert.issued_at_us == to_us(11)
    applied = [e for e in events if e["event"] == "execute" and e["applied"]]
    assert [e["strategy_id"] for e in applied] == [s.id for s in result.kb.strategies]


def test_override_during_registry_outage_is_reported_not_retried(scenario_factory):
    config = scenario_factory(
        runs=2,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 10.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        user_overrides=[{"at_s": 12.0, "target": "LR"}],
    )
    result, events = run_with_events(config)
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
    assert result.kb.strategies == ()
    assert [r.switches for r in result.records] == [0, 0]
    assert all(r.streamed_us == {"HR": to_us(30)} for r in result.records)


def test_registry_outage_during_a_switch_falls_back_to_the_pending_target(scenario_factory):
    config = scenario_factory(
        runs=1,
        reconfig_delay_s=5.5,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 13.0, "end_s": 20.0, "kind": "registry-unavailable"}],
        user_overrides=[{"at_s": 12.0, "target": "LR"}],
    )
    result, events = run_with_events(config)
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


def test_overrides_falling_due_at_one_tick_leave_only_the_latest(scenario_factory):
    config = scenario_factory(
        runs=1,
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        user_overrides=[{"at_s": 12.2, "target": "LR"}, {"at_s": 12.7, "target": "HR"}],
    )
    result, events = run_with_events(config)
    # Both fall due at the 13 s tick. The HR one acts, and as the stream is
    # already on HR it plans nothing; the LR one leaves no event at all.
    plans = [e for e in events if e["event"] == "plan" and e["t_us"] == to_us(13)]
    assert plans == [
        {"seq": 13 * 5 + 2, "run": 0, "t_us": to_us(13), "event": "plan", "action": "keep"},
    ]
    assert all(e.get("target") != "LR" for e in events)
    assert result.kb.strategies == ()
    assert result.records[0].streamed_us == {"HR": to_us(30)}


def test_a_due_override_takes_its_ticks_plan_even_when_it_changes_nothing(scenario_factory):
    config = scenario_factory(
        runs=1,
        initial_config="LR",
        trace={"mean_mbps": 10.0, "amplitude_mbps": 0.0, "period_s": 61.0, "noise_sd_mbps": 0.0},
        probe_noise_sd_mbps=0.0,
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 60.0},
        faults=[{"start_s": 0.0, "end_s": 5.0, "kind": "probe-unavailable"}],
        user_overrides=[{"at_s": 5.0, "target": "LR"}],
    )
    result, events = run_with_events(config)
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
    assert result.kb.strategies == (AdaptationStrategy(1, to_us(6), "HR", "above-threshold"),)


def test_hysteresis_band_reduces_switching(scenario_factory):
    noisy = dict(
        runs=10,
        trace={"mean_mbps": 5.0, "amplitude_mbps": 0.5, "period_s": 61.0, "noise_sd_mbps": 0.8},
        warmup={"duration_s": 600.0, "start_s": 0.0, "end_s": 600.0},
        probe_noise_sd_mbps=0.3,
    )
    bare = run_dropping_events(scenario_factory(**noisy))
    banded = run_dropping_events(scenario_factory(**noisy, hysteresis_mbps=1.5))
    assert len(banded.kb.strategies) < len(bare.kb.strategies)


def test_engine_refuses_to_run_twice(scenario_factory):
    engine = Engine(scenario_factory(runs=1))
    engine.run(DroppingSink())
    with pytest.raises(SimulationError):
        engine.run(DroppingSink())


def test_engine_refuses_a_run_that_is_not_a_whole_number_of_intervals(scenario_factory):
    config = scenario_factory(runs=2)._replace(run_duration_us=2_500_000)
    assert config.monitor_interval_us == 1_000_000
    with pytest.raises(SimulationError, match="^run duration 2500000 us is not a whole number of ticks$"):
        Engine(config)


def test_engine_rejects_a_non_positive_monitor_interval(scenario_factory):
    config = scenario_factory(runs=1)._replace(monitor_interval_us=0)
    with pytest.raises(SimulationError, match="^run duration 30000000 us is not a whole number of ticks$"):
        Engine(config)


def test_engine_rejects_an_initial_config_outside_the_space(scenario_factory):
    config = scenario_factory(runs=1)._replace(initial_config="XX")
    with pytest.raises(SimulationError, match="^config 'XX' is not in the adaptation space$"):
        Engine(config)


def test_engine_rejects_an_override_target_outside_the_space(scenario_factory):
    # the first override names a config in the space; only the second is unknown
    overrides = (UserOverride(at_us=0, target="LR"), UserOverride(at_us=1_000_000, target="XX"))
    config = scenario_factory(runs=1)._replace(user_overrides=overrides)
    with pytest.raises(SimulationError, match="^config 'XX' is not in the adaptation space$"):
        Engine(config)


def test_sub_second_monitor_interval(scenario_factory):
    result, events = run_with_events(scenario_factory(runs=2, monitor_interval_s=0.5))
    steps = [e for e in events if e["event"] == "step"]
    assert len(steps) == 2 * 60
    assert all(e["dt_us"] == 500_000 for e in steps)
    for record in result.records:
        assert record.streamed_total_us + record.reconfig_us == record.duration_us
