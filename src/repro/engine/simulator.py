"""Discrete-event simulation kernel.

Regular events live in a *per-cycle calendar*: a dict maps each pending
cycle to the FIFO list of callbacks due then, and a heap holds only the
distinct pending cycles, as plain ints.  Scheduling appends to the cycle's
list (pushing the cycle onto the heap when the list is new); the run loop
takes callbacks from the front of the earliest cycle's list, and a cycle
leaves the heap when its last event is taken.  Events of one cycle
therefore run in the order they were scheduled — including events
scheduled *at* the current cycle from inside a callback, which join the
end of that cycle's list — so event ordering is fully deterministic.

*Daemon* events (``schedule(..., daemon=True)``) are pure observers such as
the interval stats sampler (``repro.trace.sampler``): they live in their
own small heap of ``(time, seq, callback)`` entries, run just before the
first regular event at or after their due time, and never keep the
simulation alive or advance the clock past the last real event — so they
cannot perturb a simulation's outcome.  The main event loop only pays one
truthiness test per event for their existence, keeping untraced runs at
full speed.

Event fusion (the :meth:`Simulator.try_fuse` fast path)
-------------------------------------------------------

Most events in this simulator are core-operation completions: a core
finishes a load/store/work op and schedules its own continuation a few
cycles later.  When that continuation is due *strictly before* every other
pending event — regular or daemon — executing it inline is exactly
equivalent to scheduling it and letting the run loop take it next.
:meth:`try_fuse` implements that claim check: callers (the core's
coroutine trampoline, see ``repro.cores.core.Core._resume``) ask "may I
just advance the clock to ``time`` and keep running?" and the simulator
answers yes only when

* fusion is enabled and a ``run()`` without an ``until`` predicate is
  active (an ``until`` predicate must be re-evaluated after *every*
  event, so fusion is disabled for such runs),
* ``stop()`` has not been requested,
* ``time`` does not exceed ``max_cycles`` (the runaway guard must fire
  exactly as it would on the calendar path), and
* ``time`` is strictly earlier than both the earliest pending cycle
  (``_cycles[0]``) and the daemon queue head.

The strict-less-than comparison is what makes fused and unfused runs
provably identical: an event at the same cycle as a pending one must run
after it (FIFO within the cycle), so it is never fused.  Because a cycle
stays on the heap until its last event has been taken, the heap head is
exactly the earliest cycle that still holds an event.  Daemon events run
just before the first regular event at-or-after their due time, so fusing
past a due daemon event is likewise forbidden.  Under these rules the
sequence of executed callbacks, the clock values they observe, and every
statistic they record are identical whether fusion is on or off — only
the host-side calendar traffic disappears.  Set ``REPRO_NO_FUSION=1`` (or
construct with ``fusion=False``) to force every continuation through the
calendar for differential testing; the hot loop then pays a single extra
branch per completed operation.

This kernel is deliberately minimal: the memory system resolves most
latencies analytically (see ``repro.mem``), so the event calendar only
carries core wake-ups, ULI deliveries, and watchdog checks.  That keeps the
event count per simulated cycle low enough for Python to simulate 64-core
systems at interactive speed.
"""

from __future__ import annotations

import heapq
import os
from typing import Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside a simulation (deadlock, overflow)."""


class Simulator:
    """A deterministic discrete-event simulator with a cycle-granular clock."""

    __slots__ = (
        "_cycles",
        "_calendar",
        "_daemon_queue",
        "_seq",
        "now",
        "max_cycles",
        "_running",
        "_stop_requested",
        "fusion_enabled",
        "_fusible",
        "events_executed",
        "events_fused",
    )

    def __init__(self, max_cycles: int = 500_000_000, fusion: Optional[bool] = None):
        #: Heap of the distinct cycles that hold at least one regular event.
        self._cycles: List[int] = []
        #: Cycle -> FIFO list of the regular callbacks due at that cycle.
        self._calendar: Dict[int, List[Callable[[], None]]] = {}
        self._daemon_queue: List[Tuple[int, int, Callable[[], None]]] = []
        #: Tie-break sequence of the daemon heap.
        self._seq = 0
        self.now = 0
        self.max_cycles = max_cycles
        self._running = False
        self._stop_requested = False
        if fusion is None:
            fusion = not os.environ.get("REPRO_NO_FUSION")
        #: Whether the event-fusion fast path may be used at all.
        self.fusion_enabled = bool(fusion)
        #: True only inside a ``run()`` that is allowed to fuse.
        self._fusible = False
        #: Events executed through the calendar (taken by the run loop).
        self.events_executed = 0
        #: Continuations executed inline via :meth:`try_fuse`.
        self.events_fused = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: int, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now (>= 0).

        ``daemon`` events (observers such as the interval stats sampler)
        never keep the simulation alive: the run loop stops once only
        daemon events remain, without executing them or advancing the
        clock.  They therefore cannot perturb a simulation's outcome.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + int(delay), callback, daemon)

    def schedule_at(
        self, time: int, callback: Callable[[], None], daemon: bool = False
    ) -> None:
        """Schedule ``callback`` at absolute cycle ``time`` (>= now).

        A regular event joins the end of its cycle's FIFO list; the cycle
        is pushed onto the heap only when that list is new.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        if daemon:
            heapq.heappush(self._daemon_queue, (time, self._seq, callback))
            self._seq += 1
            return
        bucket = self._calendar.get(time)
        if bucket is None:
            self._calendar[time] = [callback]
            heapq.heappush(self._cycles, time)
        else:
            bucket.append(callback)

    # ------------------------------------------------------------------
    # Event fusion (fast path)
    # ------------------------------------------------------------------
    def try_fuse(self, time: int) -> bool:
        """Claim an inline continuation at cycle ``time``.

        Returns True — and advances the clock to ``time`` — when running
        the continuation immediately is provably identical to scheduling
        it and letting the run loop take it next: ``time`` must be
        strictly earlier than every pending regular and daemon event,
        within the ``max_cycles`` guard, with no stop requested and no
        ``until`` predicate installed.  Returns False (clock untouched)
        otherwise; the caller must then schedule normally.

        When fusion is disabled this is a single-branch early exit, so the
        unfused hot loop pays at most one extra branch per operation.
        """
        if not self._fusible:
            return False
        if self._stop_requested or time > self.max_cycles:
            return False
        cycles = self._cycles
        if cycles and cycles[0] <= time:
            return False
        daemon_queue = self._daemon_queue
        if daemon_queue and daemon_queue[0][0] <= time:
            return False
        self.now = time
        self.events_fused += 1
        return True

    @property
    def fusion_active(self) -> bool:
        """Whether the current ``run()`` is allowed to fuse continuations."""
        return self._fusible

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Drain the event calendar.

        Runs until no regular (non-daemon) events remain, ``until()``
        returns True (checked after each event), ``stop()`` is called, or
        ``max_cycles`` is exceeded.  Returns the final cycle count.
        """
        self._running = True
        self._stop_requested = False
        # An ``until`` predicate must observe every event boundary, so its
        # presence forces the slow path for the whole run.
        self._fusible = self.fusion_enabled and until is None
        cycles = self._cycles
        calendar = self._calendar
        daemon_queue = self._daemon_queue
        heappop = heapq.heappop
        executed = 0
        try:
            while cycles:
                time = cycles[0]
                if time > self.max_cycles:
                    raise SimulationError(
                        f"simulation exceeded max_cycles={self.max_cycles}; "
                        "likely deadlock or runaway spin loop"
                    )
                if daemon_queue and daemon_queue[0][0] <= time:
                    # Due daemons run before the cycle's next regular event,
                    # which stays queued while they run: a checkpoint daemon
                    # snapshots the calendar, and a stopping daemon (deadlock
                    # watchdog) must leave the un-executed event in place.
                    while daemon_queue and daemon_queue[0][0] <= time:
                        dtime, _dseq, dcallback = heappop(daemon_queue)
                        self.now = dtime
                        dcallback()
                        if self._stop_requested:
                            break
                    if self._stop_requested:
                        break
                    continue
                bucket = calendar[time]
                callback = bucket.pop(0)
                if not bucket:
                    # Last event of the cycle: the heap head moves on before
                    # the callback runs, so its fusion tests see the next
                    # pending cycle.
                    heappop(cycles)
                    del calendar[time]
                self.now = time
                executed += 1
                callback()
                if self._stop_requested or (until is not None and until()):
                    break
        finally:
            self._running = False
            self._fusible = False
            self.events_executed += executed
        return self.now

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    @property
    def pending_events(self) -> int:
        """Pending non-daemon events (the ones that drive the run loop)."""
        return sum(map(len, self._calendar.values()))

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Clock/counter state plus the pending regular events.

        Events are exported as ``(time, seq, callback)`` tuples in run
        order, ``seq`` numbering them so that sorting by ``(time, seq)``
        restores each cycle's FIFO order.  The callbacks are still live
        callables; the checkpoint layer converts them to serializable
        descriptors.  Daemon events are deliberately not exported: daemons
        are observers that re-arm themselves relative to the restored
        clock.
        """
        calendar = self._calendar
        queue = []
        for time in sorted(calendar):
            for callback in calendar[time]:
                queue.append((time, len(queue), callback))
        return {
            "now": self.now,
            "seq": self._seq,
            "max_cycles": self.max_cycles,
            "events_executed": self.events_executed,
            "events_fused": self.events_fused,
            "queue": queue,
        }

    def load_state(self, state: dict, events) -> None:
        """Install clock/counters and rebuild the event calendar.

        ``events`` carries (time, seq, callback) tuples whose callbacks the
        checkpoint layer has rebound to this simulator's components; they
        are queued in ``(time, seq)`` order.  The daemon queue is cleared;
        observers must re-arm afterwards (the clock is already at the
        restored cycle, so ``schedule_at`` with an absolute due time keeps
        their phase identical to an uninterrupted run).
        """
        self.now = state["now"]
        self._seq = state["seq"]
        self.max_cycles = state["max_cycles"]
        self.events_executed = state["events_executed"]
        self.events_fused = state["events_fused"]
        self._calendar.clear()
        self._cycles.clear()
        for time, _seq, callback in sorted(events, key=lambda e: (e[0], e[1])):
            self.schedule_at(time, callback)
        self._daemon_queue.clear()
        self._stop_requested = False

    def fusion_stats(self) -> dict:
        """Host-side event accounting: calendar events vs fused continuations."""
        total = self.events_executed + self.events_fused
        return {
            "events_executed": self.events_executed,
            "events_fused": self.events_fused,
            "events_total": total,
            "fused_ratio": (self.events_fused / total) if total else 0.0,
        }
