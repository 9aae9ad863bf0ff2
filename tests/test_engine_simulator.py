"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_events_run_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_scheduled_from_callbacks():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(5, second)

    def second():
        seen.append(sim.now)

    sim.schedule(3, first)
    sim.run()
    assert seen == [3, 8]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


def test_zero_delay_event_runs_at_current_cycle():
    sim = Simulator()
    times = []
    sim.schedule(4, lambda: sim.schedule(0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [4]


def test_stop_halts_the_run_loop():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: (seen.append(1), sim.stop()))
    sim.schedule(2, lambda: seen.append(2))
    sim.run()
    assert seen == [1]
    assert sim.pending_events == 1


def test_until_predicate_stops_run():
    sim = Simulator()
    seen = []
    for t in range(1, 6):
        sim.schedule(t, lambda t=t: seen.append(t))
    sim.run(until=lambda: len(seen) >= 3)
    assert seen == [1, 2, 3]


def test_max_cycles_guard_raises():
    sim = Simulator(max_cycles=100)

    def rearm():
        sim.schedule(60, rearm)

    sim.schedule(60, rearm)
    with pytest.raises(SimulationError):
        sim.run()


def test_run_returns_final_cycle():
    sim = Simulator()
    sim.schedule(42, lambda: None)
    assert sim.run() == 42


# ----------------------------------------------------------------------
# Event fusion (try_fuse fast path)
# ----------------------------------------------------------------------

def test_try_fuse_rejected_outside_run():
    sim = Simulator(fusion=True)
    assert not sim.try_fuse(10)
    assert sim.now == 0
    assert sim.events_fused == 0


def test_try_fuse_rejected_when_fusion_disabled():
    sim = Simulator(fusion=False)
    results = []
    sim.schedule(1, lambda: results.append(sim.try_fuse(5)))
    sim.run()
    assert results == [False]
    assert sim.events_fused == 0


def test_no_fusion_env_var_disables_fusion(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FUSION", "1")
    assert Simulator().fusion_enabled is False
    monkeypatch.delenv("REPRO_NO_FUSION")
    assert Simulator().fusion_enabled is True


def test_fuse_succeeds_when_strictly_earlier_than_head():
    sim = Simulator(fusion=True)
    seen = []

    def racer():
        # Continuation at cycle 5 < queue head at 10: may fuse.
        assert sim.try_fuse(5)
        seen.append(sim.now)

    sim.schedule(1, racer)
    sim.schedule(10, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5, 10]
    assert sim.events_fused == 1


def test_fuse_refused_on_time_tie_with_queue_head():
    """An inline continuation tying the queue head must lose FIFO order."""
    sim = Simulator(fusion=True)
    seen = []

    def racer():
        # Continuation due exactly at the head's cycle: the queued event
        # holds the smaller sequence number and must run first.
        assert not sim.try_fuse(10)
        sim.schedule_at(10, lambda: seen.append("late"))

    sim.schedule(10, lambda: seen.append("head"))
    sim.schedule(1, racer)
    sim.run()
    assert seen == ["head", "late"]
    assert sim.events_fused == 0


def test_fuse_refused_when_daemon_event_due():
    sim = Simulator(fusion=True)
    ticks = []
    sim.schedule(7, lambda: ticks.append(("daemon", sim.now)), daemon=True)
    results = []
    sim.schedule(1, lambda: results.append(sim.try_fuse(7)))
    sim.schedule(1, lambda: results.append(sim.try_fuse(8)))
    sim.schedule(9, lambda: ticks.append(("real", sim.now)))
    sim.run()
    # Both attempts tie or pass the daemon due time 7: refused.
    assert results == [False, False]
    assert ticks == [("daemon", 7), ("real", 9)]


def test_daemon_interleaving_identical_with_and_without_fusion():
    """Daemon observers fire at the same points regardless of fusion."""
    def scenario(fusion: bool):
        sim = Simulator(fusion=fusion)
        log = []

        def chain(step: int):
            log.append(("ev", sim.now))
            if step >= 6:
                return
            target = sim.now + 4
            if sim.try_fuse(target):
                chain(step + 1)
            else:
                sim.schedule_at(target, lambda: chain(step + 1))

        for due in (9, 18):
            sim.schedule(due, lambda d=due: log.append(("daemon", sim.now)),
                         daemon=True)
        sim.schedule(2, lambda: chain(0))
        sim.schedule(10, lambda: log.append(("other", sim.now)))
        sim.run()
        return log, sim.events_fused

    fused_log, n_fused = scenario(True)
    unfused_log, n_unfused = scenario(False)
    assert fused_log == unfused_log
    assert n_unfused == 0 and n_fused > 0


def test_fuse_refused_after_stop():
    sim = Simulator(fusion=True)
    results = []

    def first():
        sim.stop()
        results.append(sim.try_fuse(5))

    sim.schedule(1, first)
    sim.schedule(20, lambda: results.append("unreachable"))
    sim.run()
    assert results == [False]


def test_until_predicate_disables_fusion_for_the_whole_run():
    sim = Simulator(fusion=True)
    results = []
    sim.schedule(1, lambda: results.append(sim.try_fuse(5)))
    sim.schedule(30, lambda: None)
    sim.run(until=lambda: False)
    assert results == [False]
    assert sim.events_fused == 0


def test_fuse_refused_beyond_max_cycles():
    sim = Simulator(max_cycles=100, fusion=True)
    results = []
    sim.schedule(1, lambda: results.append(sim.try_fuse(101)))
    sim.run()
    assert results == [False]


# ----------------------------------------------------------------------
# Daemon events interacting with stop() (watchdog-style usage)
# ----------------------------------------------------------------------

def test_stop_from_daemon_preempts_popped_regular_event():
    """A daemon stopping the run must prevent the co-due regular event."""
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: (seen.append("daemon"), sim.stop()), daemon=True)
    sim.schedule(5, lambda: seen.append("regular"))
    sim.run()
    assert seen == ["daemon"]
    # The regular event went back on the queue unexecuted.
    assert sim.pending_events == 1
    assert sim.now == 5


def test_stop_from_daemon_suppresses_later_same_due_daemon():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: (seen.append("d1"), sim.stop()), daemon=True)
    sim.schedule(5, lambda: seen.append("d2"), daemon=True)
    sim.schedule(6, lambda: seen.append("regular"))
    sim.run()
    assert seen == ["d1"]
    assert sim.pending_events == 1


def test_run_resumes_cleanly_after_daemon_stop():
    """The pushed-back event runs on the next run() call."""
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: (seen.append("daemon"), sim.stop()), daemon=True)
    sim.schedule(5, lambda: seen.append("regular"))
    sim.run()
    sim.run()
    assert seen == ["daemon", "regular"]
    assert sim.pending_events == 0


def test_daemon_exception_propagates_without_running_regular_event():
    """A raising daemon (the watchdog) must preempt the co-due event."""
    sim = Simulator()
    seen = []

    def boom():
        raise SimulationError("watchdog fired")

    sim.schedule(5, boom, daemon=True)
    sim.schedule(5, lambda: seen.append("regular"))
    with pytest.raises(SimulationError, match="watchdog fired"):
        sim.run()
    assert seen == []


def test_rearming_daemon_ticks_alongside_event_chain():
    """A self-re-arming daemon (watchdog idiom) observes every interval."""
    def scenario(fusion: bool):
        sim = Simulator(fusion=fusion)
        log = []

        def tick():
            log.append(("tick", sim.now))
            sim.schedule(10, tick, daemon=True)

        def chain(step: int):
            log.append(("ev", sim.now))
            if step >= 8:
                return
            target = sim.now + 4
            if sim.try_fuse(target):
                chain(step + 1)
            else:
                sim.schedule_at(target, lambda: chain(step + 1))

        sim.schedule(10, tick, daemon=True)
        sim.schedule(1, lambda: chain(0))
        sim.run()
        return log, sim.events_fused

    fused_log, n_fused = scenario(True)
    unfused_log, n_unfused = scenario(False)
    assert fused_log == unfused_log
    assert n_unfused == 0 and n_fused > 0
    # Daemon ticks interleave with the chain but never outlive it: the
    # last logged entry is a regular event, not a daemon tick.
    assert fused_log[-1][0] == "ev"
    assert ("tick", 10) in fused_log and ("tick", 20) in fused_log


def test_fusion_stats_accounting():
    sim = Simulator(fusion=True)

    def fuser():
        assert sim.try_fuse(sim.now + 1)

    sim.schedule(1, fuser)
    sim.schedule(10, lambda: None)
    sim.run()
    stats = sim.fusion_stats()
    assert stats["events_executed"] == 2
    assert stats["events_fused"] == 1
    assert stats["events_total"] == 3
    assert stats["fused_ratio"] == pytest.approx(1 / 3)


# ----------------------------------------------------------------------
# Per-cycle event calendar
# ----------------------------------------------------------------------

def test_event_scheduled_at_now_runs_after_queued_same_cycle_events():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(0, lambda: order.append("scheduled-at-now"))

    sim.schedule(5, first)
    sim.schedule(5, lambda: order.append("second"))
    sim.schedule(5, lambda: order.append("third"))
    sim.schedule(6, lambda: order.append("next-cycle"))
    sim.run()
    assert order == ["first", "second", "third", "scheduled-at-now", "next-cycle"]


def test_daemon_event_runs_before_regular_event_of_the_same_cycle():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("regular"))
    sim.schedule(5, lambda: order.append("daemon"), daemon=True)
    sim.run()
    assert order == ["daemon", "regular"]


def test_pending_events_counts_events_inside_cycle_lists():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(4, lambda: None)
    sim.schedule(9, lambda: None)
    sim.schedule(9, lambda: None, daemon=True)
    assert sim.pending_events == 4
    sim.schedule(1, sim.stop)
    sim.run()
    assert sim.pending_events == 4
    sim.run()
    assert sim.pending_events == 0


def test_checkpoint_round_trip_preserves_same_cycle_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c", "d"):
        sim.schedule(7, lambda t=tag: order.append(t))
    sim.schedule(3, lambda: order.append("early"))
    state = sim.export_state()
    assert [(time, seq) for time, seq, _ in state["queue"]] == [
        (3, 0), (7, 1), (7, 2), (7, 3), (7, 4),
    ]

    restored = Simulator()
    # Entries may arrive in any order; (time, seq) decides the run order.
    restored.load_state(state, reversed(state["queue"]))
    assert restored.pending_events == 5
    restored.run()
    assert order == ["early", "a", "b", "c", "d"]
    assert restored.now == 7
