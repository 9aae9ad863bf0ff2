"""Core model: executes one hardware thread as a generator coroutine.

Two core flavours, matching the paper's Table II:

* **tiny** — single-issue in-order RV64GC-like core: ``Work(n)`` costs n
  cycles, memory latency is fully exposed.
* **big** — 4-way out-of-order core approximated with two parameters:
  ``issue_width`` divides compute cycles and ``mlp_factor`` scales the
  exposed portion of memory miss latency (modeling overlap from the
  128-entry ROB / 16-entry LSQ).

The core owns the ULI receive logic of Section IV: a one-entry request
buffer, enable/disable state, NACK when disabled/busy/halted, handler entry
latency (a few cycles on tiny cores, tens on big cores — in-flight
instructions must drain), and handler execution as a nested coroutine frame
on top of the interrupted thread.

Hot-path structure
------------------

Executing one architectural operation is the simulator's innermost loop,
so the coroutine machinery is built around a *trampoline*
(:meth:`Core._resume`): each iteration sends the previous result into the
thread generator, dispatches the yielded op through a per-kind
bound-method table (``_op_*``, each returning ``(result, latency)``), and
then asks the simulator for the event-fusion fast path
(:meth:`repro.engine.simulator.Simulator.try_fuse`).  If the completion
is strictly earlier than every pending event the clock advances inline
and the loop continues — no closure allocation, no calendar traffic, no
event dispatch.  Otherwise the op parks its result on the core and appends
a *preallocated* continuation (``_complete_cont``, the bound trampoline
itself) straight to the simulator's per-cycle event calendar; when that
event fires the trampoline takes the parked result, checks for a pending
ULI at this op boundary, and carries on.  ULI handler entry is checked at
exactly the op boundaries where the unfused path would check it, so fused
and unfused runs are cycle- and statistic-identical.

Thread code yields ops *by value* (``v = yield ctx.load(addr)``): the
:class:`~repro.cores.context.ThreadContext` methods return ``ops.*``
objects, so an op costs no wrapper generator and no extra delegation
frame.  A yielded ``None`` (what ``ctx.work(n)``/``ctx.idle(n)`` return
for ``n <= 0``) is answered with ``None`` at once: no cycles, no counters,
no op boundary.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappush
from typing import Any, Callable, Generator, List, Optional

from repro.cores import ops
from repro.engine.simulator import SimulationError, Simulator
from repro.engine.stats import StatGroup
from repro.mem.address import LINE_MASK as _LINE_MASK
from repro.mem.address import WORD_INDEX_MASK as _WORD_INDEX_MASK
from repro.mem.address import WORD_SHIFT as _WORD_SHIFT
from repro.mem.amo import apply_amo
from repro.trace.tracer import NULL_TRACER

#: Sentinel pushed on the resume stack when a handler interrupts a core
#: that is blocked waiting for its own ULI response (no value to deliver).
_NO_RESULT = object()

#: Default argument of :meth:`Core._resume`: called with no argument (as
#: the op-completion event), the trampoline resumes with the parked result.
_PENDING = object()

#: Stat categories for the Figure 7 execution-time breakdown.
TIME_CATEGORIES = (
    "compute",
    "load",
    "store",
    "amo",
    "flush",
    "invalidate",
    "uli",
    "idle",
)


class Core:
    """One core tile: coroutine executor + ULI receiver."""

    __slots__ = (
        "core_id",
        "sim",
        "l1",
        "tracer",
        "is_big",
        "issue_width",
        "mlp_factor",
        "uli_network",
        "uli_entry_latency",
        "stats",
        "_frames",
        "_resume_stack",
        "halted",
        "spinning",
        "uli_enabled",
        "_in_handler",
        "_pending_uli",
        "_uli_waiting",
        "_deferred_uli_resp",
        "_uli_send_time",
        "_handler_entry_time",
        "_wait_handler_cycles",
        "uli_handler_factory",
        "_peers",
        "_pending_result",
        "_complete_cont",
        "_resume_none_cont",
        "_dispatch_table",
        "_cnt",
        "_c_uli_handler",
        "_ckpt_log",
        "_ff",
    )

    #: Op kind -> unbound ``_op_*`` method name; bound per instance into
    #: ``_dispatch_table`` so dispatch is one dict lookup + call.
    _OP_METHODS = {
        "work": "_op_work",
        "idle": "_op_idle",
        "load": "_op_load",
        "store": "_op_store",
        "amo": "_op_amo",
        "invalidate": "_op_invalidate",
        "flush": "_op_flush",
        "uli_enable": "_op_uli_enable",
        "uli_disable": "_op_uli_disable",
        "uli_send": "_op_uli_send",
    }

    def __init__(
        self,
        core_id: int,
        sim: Simulator,
        l1,
        stats: StatGroup,
        is_big: bool = False,
        issue_width: int = 1,
        mlp_factor: float = 1.0,
        uli_network=None,
        uli_entry_latency: int = 5,
        tracer=NULL_TRACER,
    ):
        self.core_id = core_id
        self.sim = sim
        self.l1 = l1
        self.tracer = tracer
        self.is_big = is_big
        self.issue_width = max(1, issue_width)
        self.mlp_factor = mlp_factor
        self.uli_network = uli_network
        self.uli_entry_latency = uli_entry_latency
        self.stats = stats.child(f"core_{core_id}")

        self._frames: List[Generator] = []
        self._resume_stack: List[Any] = []
        self.halted = True

        #: Scheduler-spin marker, maintained by the runtime: True while the
        #: thread is hunting for work (steal attempts, join polling, worker
        #: idle loops), False inside task bodies and their fixed per-task
        #: bookkeeping.  Spin instruction counts scale with *wait
        #: durations*, so they are timing artifacts, not work; counting
        #: them separately gives the sampling estimator a timing-invariant
        #: instruction measure (repro.sampling.estimate).
        self.spinning = False

        # ULI receiver state.
        self.uli_enabled = False
        self._in_handler = False
        self._pending_uli: Optional[int] = None
        self._uli_waiting = False
        self._deferred_uli_resp: Optional[bool] = None
        self._uli_send_time = 0
        self._handler_entry_time = 0
        self._wait_handler_cycles = 0
        #: Set by the runtime: thief_id -> handler generator.
        self.uli_handler_factory: Optional[Callable[[int], Generator]] = None

        #: Wired by :meth:`attach_peers`; an unattached core fails loudly.
        self._peers: Optional[List["Core"]] = None

        # Preallocated continuations: the event calendar carries these
        # bound methods instead of a fresh closure per operation.
        self._pending_result: Any = None
        self._complete_cont = self._resume
        self._resume_none_cont = self._resume_none

        # Per-kind dispatch table and the raw counter dict of this core's
        # stat group: op handlers run a few hundred thousand times per
        # simulated millisecond, so they index the (in-place mutated)
        # defaultdict directly instead of going through handle objects.
        self._dispatch_table = {
            kind: getattr(self, name) for kind, name in self._OP_METHODS.items()
        }
        self._cnt = self.stats._counters
        self._c_uli_handler = self.stats.counter("cycles_uli_handler")

        #: Checkpoint send-log (repro.engine.checkpoint): when a Machine
        #: enables checkpointing this is the machine-wide list that records
        #: every value sent into a thread generator, so a snapshot can be
        #: restored by replaying the sends into freshly created coroutines.
        #: None (the default) costs the hot loop one branch per operation.
        self._ckpt_log: Optional[List] = None

        #: Functional fast-forward state (repro.sampling.FastForwardState)
        #: armed by the sampling controller between detailed windows.  None
        #: (the default) costs one branch per trampoline entry; when set,
        #: _resume redirects to :meth:`_resume_ff`, which executes ops
        #: against flat memory with no timing model.
        self._ff = None

    # ------------------------------------------------------------------
    # Thread startup
    # ------------------------------------------------------------------
    def start(self, thread: Generator, delay: int = 0) -> None:
        """Begin executing ``thread`` on this core."""
        if self._frames:
            raise SimulationError(f"core {self.core_id} already running a thread")
        self._frames.append(thread)
        self.halted = False
        self.sim.schedule(delay, self._resume_none_cont)

    # ------------------------------------------------------------------
    # Coroutine machinery
    # ------------------------------------------------------------------
    def _resume_none(self) -> None:
        self._resume(None)

    def _resume(self, value: Any = _PENDING) -> None:
        """Drive the thread coroutine, fusing op completions inline.

        Called without an argument it is the op-completion event
        (``_complete_cont``): the parked result is taken, and a pending
        ULI is entered first, since this is an op boundary.

        Each iteration is one architectural operation: send the previous
        result in, dispatch the yielded op, and either continue inline
        (fusion granted: the completion is provably the next event) or
        park the result and append the preallocated continuation to the
        simulator's per-cycle calendar.

        The fusion test is :meth:`Simulator.try_fuse` inlined with its
        operands hoisted to locals (the calendar structures are mutated in
        place and ``_fusible``/``max_cycles`` cannot change while a
        callback is running, so hoisting is safe); with fusion disabled
        the loop pays exactly one extra branch per op.
        """
        if value is _PENDING:
            value = self._pending_result
            self._pending_result = None
            if (
                self._pending_uli is not None
                and self.uli_enabled
                and not self._in_handler
            ):
                self._resume_stack.append(value)
                self._enter_handler()
                return
        if self._ff is not None:
            return self._resume_ff(value)
        frames = self._frames
        sim = self.sim
        table = self._dispatch_table
        cycles = sim._cycles
        calendar = sim._calendar
        daemon_queue = sim._daemon_queue
        max_cycles = sim.max_cycles
        fusible = sim._fusible
        log = self._ckpt_log
        cid = self.core_id
        fused = 0
        frame = frames[-1]
        try:
            while True:
                try:
                    # Every value that enters a thread generator funnels
                    # through this single send, so the checkpoint log is a
                    # complete replay script for the coroutine stacks.
                    if log is not None:
                        log.append((cid, value))
                    op = frame.send(value)
                except StopIteration:
                    frames.pop()
                    if self._in_handler and frames:
                        saved = self._finish_handler()
                        if saved is _NO_RESULT:
                            return
                        value = saved
                        frame = frames[-1]
                        continue
                    if not frames:
                        self.halted = True
                    return
                try:
                    fn = table[op.KIND]
                except AttributeError:
                    if op is None:
                        # work/idle with n <= 0: free, and no op boundary.
                        value = None
                        continue
                    raise SimulationError(f"thread yielded {op!r}, not an op") from None
                except KeyError:
                    raise SimulationError(f"unknown op kind {op.KIND!r}") from None
                out = fn(op)
                if out is None:
                    # Asynchronous op (uli_send): resumes via deliver_uli_response.
                    return
                value, latency = out
                if self._in_handler:
                    # Victim-side DTS cost (Section VI-C: "<1% of execution time").
                    self._c_uli_handler.add(latency)
                completion = sim.now + latency
                if (
                    fusible
                    and completion <= max_cycles
                    and not sim._stop_requested
                    and (not cycles or cycles[0] > completion)
                    and (not daemon_queue or daemon_queue[0][0] > completion)
                ):
                    sim.now = completion
                    fused += 1
                    # Op boundary: identical ULI handler entry check to the
                    # one the completion event performs on the unfused path.
                    if (
                        self._pending_uli is not None
                        and self.uli_enabled
                        and not self._in_handler
                    ):
                        self._resume_stack.append(value)
                        self._enter_handler()
                        return
                    continue
                self._pending_result = value
                # Simulator.schedule_at inlined: join the completion
                # cycle's FIFO list, pushing the cycle if it is new.
                bucket = calendar.get(completion)
                if bucket is None:
                    calendar[completion] = [self._complete_cont]
                    heappush(cycles, completion)
                else:
                    bucket.append(self._complete_cont)
                return
        finally:
            if fused:
                sim.events_fused += fused

    def _resume_ff(self, value: Any) -> None:
        """Functional fast-forward trampoline (repro.sampling).

        Executes up to ``ff.slice_budget`` instructions of the thread
        inline against the *flat* main-memory word store — architectural
        state (memory words, task queues, RNG draws, ULI handshakes)
        evolves exactly as it would in detail, but no caches, NoC, or
        latency models are touched.  Each op charges its kind's
        calibrated pseudo-cycle cost from ``ff.costs`` (the previous
        measurement window's average load/store/AMO/... latency — see
        :class:`repro.sampling.ff.FastForwardState`), work charges one
        cycle per instruction, and the slice parks at
        ``now + round(charged) + idle`` with *real* idle latency — so
        work, the steal protocol's contended memory ops, and spin
        backoff keep their detailed relative rates and the
        fast-forwarded schedule stays representative.

        The memory system must be reconciled with flat memory before the
        first fast-forward slice
        (:meth:`repro.machine.Machine.prepare_fastforward`): L1s are
        empty throughout the period, the L2 stays warm with clean copies,
        and every line a store/AMO mutates is recorded in ``ff.written``
        so its stale L2 copy can be purged on exit.
        Only ``instructions`` is counted here (identically to the detailed
        ``_op_*`` handlers); the ``cycles_*`` breakdown counters advance
        only during detailed phases and are extrapolated from window
        deltas.  ULI send/deliver/handler flows are the ordinary ones —
        interrupt latencies stay real — and the handler-entry check after
        each op matches the detailed op-boundary check exactly.
        """
        ff = self._ff
        frames = self._frames
        sim = self.sim
        cid = self.core_id
        cnt = self._cnt
        mem_lines = ff.memory._lines
        ff_written = ff.written
        quantum = ff.slice_budget
        costs = ff.costs
        c_load = costs["load"]
        c_store = costs["store"]
        c_amo = costs["amo"]
        line_mask = _LINE_MASK
        word_shift = _WORD_SHIFT
        word_index_mask = _WORD_INDEX_MASK
        # Instruction counts accumulate in locals and flush once per slice
        # (in the ``finally``): the trampoline is the sampled mode's inner
        # loop, and two counter-dict writes per op dominate it.  No
        # checkpoint send-log here — sampling refuses checkpointing.
        executed = 0
        spin = 0
        charged = 0.0
        idle_cycles = 0
        frame = frames[-1]
        try:
            while True:
                try:
                    op = frame.send(value)
                except StopIteration:
                    frames.pop()
                    if self._in_handler and frames:
                        saved = self._finish_handler()
                        if saved is _NO_RESULT:
                            return
                        value = saved
                        frame = frames[-1]
                        continue
                    if not frames:
                        self.halted = True
                    return
                try:
                    kind = op.KIND
                except AttributeError:
                    if op is None:
                        value = None
                        continue
                    raise SimulationError(f"thread yielded {op!r}, not an op") from None
                if kind == "work":
                    n = op.n
                    executed += n
                    if self.spinning:
                        spin += n
                    charged += n
                    value = None
                elif kind == "load":
                    # bypass and cached loads are architecturally identical
                    # here: flat memory is the single coherent view.
                    addr = op.addr
                    line = mem_lines.get(addr & line_mask)
                    value = (
                        0
                        if line is None
                        else line[(addr >> word_shift) & word_index_mask]
                    )
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += c_load
                elif kind == "store":
                    addr = op.addr
                    base = addr & line_mask
                    ff_written.add(base)
                    line = mem_lines.get(base)
                    if line is None:
                        line = mem_lines[base] = [0] * 8
                    line[(addr >> word_shift) & word_index_mask] = op.value
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += c_store
                    value = None
                elif kind == "amo":
                    addr = op.addr
                    base = addr & line_mask
                    ff_written.add(base)
                    line = mem_lines.get(base)
                    if line is None:
                        line = mem_lines[base] = [0] * 8
                    idx = (addr >> word_shift) & word_index_mask
                    new, value = apply_amo(op.op, line[idx], op.operand)
                    line[idx] = new
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += c_amo
                elif kind == "idle":
                    # Specs with stretch > 1 lengthen idle backoff:
                    # blocked cores re-poll less often, thinning the
                    # spin-wait instructions that otherwise dominate
                    # fast-forward on large machines.  Never shortened —
                    # spin loops must not collapse relative to busy
                    # cores — and never stretched in the period's
                    # cooldown tail, so every sleeper wakes to real-rate
                    # polling before the next measurement window opens.
                    idle_cycles = max(1, op.n)
                    if ff.consumed + executed < ff.stretch_until:
                        idle_cycles *= ff.idle_scale
                    value = None
                    break
                elif kind == "uli_send":
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += 1.0
                    # Asynchronous: resumes via deliver_uli_response with
                    # the real ULI network latency.
                    self._send_uli(op.victim)
                    return
                elif kind == "invalidate" or kind == "flush":
                    # This core's L1 was dropped entering fast-forward and
                    # stays empty throughout it: architecturally a no-op.
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += costs[kind]
                    value = None
                elif kind == "uli_enable":
                    self.uli_enabled = True
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += 1.0
                    value = None
                elif kind == "uli_disable":
                    self.uli_enabled = False
                    executed += 1
                    if self.spinning:
                        spin += 1
                    charged += 1.0
                    value = None
                else:
                    raise SimulationError(f"unknown op kind {kind!r}")
                # Op boundary: identical ULI handler entry check to the
                # detailed trampoline's.
                if (
                    self._pending_uli is not None
                    and self.uli_enabled
                    and not self._in_handler
                ):
                    self._resume_stack.append(value)
                    self._enter_handler()
                    return
                if executed >= quantum:
                    break
            # Deterministic ±25% per-slice jitter on the charged pseudo-time.
            # Uniform charges would hold cores in perfect lockstep (real
            # machines de-phase through contention randomness); lockstepped
            # cores arrive at shared AMO counters in synchronized convoys
            # and the detailed windows then measure serialization the exact
            # run never exhibits.
            seed = (cid * 0x9E3779B1 + cnt["instructions"] + executed) & 0xFFFFFFFF
            r = ((seed * 2654435761 + 1013904223) & 0xFFFFFFFF) / 2.0**32
            delay = int(round(charged * (0.75 + 0.5 * r))) + idle_cycles
            self._pending_result = value
            sim.schedule_at(sim.now + (delay if delay > 0 else 1), self._complete_cont)
        finally:
            if executed:
                cnt["instructions"] += executed
                if spin:
                    cnt["instructions_spin"] += spin
                ff.consume(executed)

    def _charge_memory(self, latency: int) -> int:
        """Scale exposed memory latency for big cores (MLP overlap)."""
        if latency <= 1 or self.mlp_factor >= 1.0:
            return latency
        return 1 + max(0, math.ceil((latency - 1) * self.mlp_factor))

    # ------------------------------------------------------------------
    # Per-kind op execution (bound into _dispatch_table)
    #
    # Each returns (result, latency) — or None when the op completes
    # asynchronously — and records its own instruction/cycle counters
    # through the preallocated handles.
    # ------------------------------------------------------------------
    def _op_work(self, op: ops.Work):
        n = op.n
        issue_width = self.issue_width
        latency = n if issue_width == 1 else math.ceil(n / issue_width)
        if latency < 1:
            latency = 1
        cnt = self._cnt
        cnt["instructions"] += n
        if self.spinning:
            cnt["instructions_spin"] += n
        cnt["cycles_compute"] += latency
        return None, latency

    def _op_idle(self, op: ops.Idle):
        latency = max(1, op.n)
        self._cnt["cycles_idle"] += latency
        return None, latency

    def _op_load(self, op: ops.Load):
        now = self.sim.now
        if op.bypass:
            value, latency = self.l1.l2.read_word_bypass(self.core_id, op.addr, now)
        else:
            value, latency = self.l1.load(op.addr, now)
        latency = self._charge_memory(latency)
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_load"] += 1
        cnt["cycles_load"] += latency
        return value, latency

    def _op_store(self, op: ops.Store):
        latency = self._charge_memory(self.l1.store(op.addr, op.value, self.sim.now))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_store"] += 1
        cnt["cycles_store"] += latency
        return None, latency

    def _op_amo(self, op: ops.Amo):
        old, latency = self.l1.amo(op.op, op.addr, op.operand, self.sim.now)
        latency = self._charge_memory(latency)
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_amo"] += 1
        cnt["cycles_amo"] += latency
        return old, latency

    def _op_invalidate(self, op: ops.InvAll):
        latency = max(1, self.l1.invalidate_all(self.sim.now))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_invalidate"] += 1
        cnt["cycles_invalidate"] += latency
        return None, latency

    def _op_flush(self, op: ops.FlushAll):
        latency = max(1, self.l1.flush_all(self.sim.now))
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["ops_flush"] += 1
        cnt["cycles_flush"] += latency
        return None, latency

    def _op_uli_enable(self, op: ops.UliEnable):
        self.uli_enabled = True
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["cycles_compute"] += 1
        return None, 1

    def _op_uli_disable(self, op: ops.UliDisable):
        self.uli_enabled = False
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        cnt["cycles_compute"] += 1
        return None, 1

    def _op_uli_send(self, op: ops.UliSend):
        cnt = self._cnt
        cnt["instructions"] += 1
        if self.spinning:
            cnt["instructions_spin"] += 1
        self._send_uli(op.victim)
        return None

    # ------------------------------------------------------------------
    # ULI sender side
    # ------------------------------------------------------------------
    def _send_uli(self, victim_core_id: int) -> None:
        if self.uli_network is None:
            raise SimulationError("ULI network not configured on this system")
        self.stats.add("uli_requests_sent")
        latency = self.uli_network.send_latency(self.core_id, victim_core_id)
        self._uli_waiting = True
        self._uli_send_time = self.sim.now
        victim = self._peer(victim_core_id)
        # partial (not a closure) so an in-flight request is recognizable
        # and serializable by repro.engine.checkpoint.
        self.sim.schedule(latency, partial(victim.deliver_uli_request, self.core_id))

    def deliver_uli_response(self, ack: bool) -> None:
        """Called (via event) when the victim's ACK/NACK arrives."""
        if self._in_handler:
            # We are servicing someone else's steal; hold our response.
            self._deferred_uli_resp = ack
            return
        self._uli_waiting = False
        self.stats.add("uli_acks" if ack else "uli_nacks")
        # Handler time spent while waiting was already charged per-op;
        # charge only the genuine wait here.
        wait = self.sim.now - self._uli_send_time - self._wait_handler_cycles
        self._wait_handler_cycles = 0
        if self._ff is None:
            # Fast-forward waits elapse in pseudo-cycles; charging them
            # would leak pseudo-time into the (detailed-only) counters
            # that sampled estimation treats as measured.
            self.stats.add("cycles_uli", max(0, wait))
        self._resume(ack)

    # ------------------------------------------------------------------
    # ULI receiver side
    # ------------------------------------------------------------------
    def deliver_uli_request(self, thief_core_id: int) -> None:
        """A steal request arrived at this core's one-entry buffer."""
        rejectable = (
            not self.uli_enabled
            or self._in_handler
            or self._pending_uli is not None
            or self.halted
            or self.uli_handler_factory is None
        )
        if rejectable:
            self.stats.add("uli_rejected")
            self._respond(thief_core_id, ack=False)
            return
        self._pending_uli = thief_core_id
        if self._uli_waiting:
            # The interrupted thread is blocked on its own ULI response:
            # no op boundary will occur, so take the interrupt immediately.
            self._resume_stack.append(_NO_RESULT)
            self._enter_handler()
        # Otherwise the handler starts at the next op boundary (the
        # completion event's or the fused boundary check in _resume).

    def _can_enter_handler(self) -> bool:
        return (
            self._pending_uli is not None
            and self.uli_enabled
            and not self._in_handler
        )

    def trace_state(self, state: str) -> None:
        """Record a core-activity state transition (no-op when untraced)."""
        if self.tracer.enabled:
            self.tracer.core_state(self.core_id, self.sim.now, state)

    def _enter_handler(self) -> None:
        self._in_handler = True
        self._handler_entry_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.push_state(self.core_id, self.sim.now, "uli-handler")
        thief = self._pending_uli
        self.stats.add("uli_handled")
        if self._ff is None:
            # Architectural count above is exact even during fast-forward;
            # cycle charges are timing and stay detailed-only.
            self.stats.add("cycles_uli", self.uli_entry_latency)
            self.stats.add("cycles_uli_handler", self.uli_entry_latency)
        if self._ckpt_log is not None:
            # Replay marker: a handler frame was pushed for this thief.
            self._ckpt_log.append(("h", self.core_id, thief))
        handler = self.uli_handler_factory(thief)
        self._frames.append(handler)
        self.sim.schedule(self.uli_entry_latency, self._resume_none_cont)

    def _finish_handler(self) -> Any:
        """Tear down a finished handler frame.

        Returns the value to resume the interrupted thread with, or
        ``_NO_RESULT`` when that thread is still blocked on its own ULI
        response (the caller must not step it).
        """
        thief = self._pending_uli
        self._pending_uli = None
        self._in_handler = False
        if self.tracer.enabled:
            self.tracer.pop_state(self.core_id, self.sim.now)
        self._respond(thief, ack=True)
        saved = self._resume_stack.pop()
        if saved is _NO_RESULT:
            # Back to waiting for our own ULI response; do not bill the
            # handler's cycles as wait time too.
            self._wait_handler_cycles += self.sim.now - self._handler_entry_time
            if self._deferred_uli_resp is not None:
                resp, self._deferred_uli_resp = self._deferred_uli_resp, None
                self.deliver_uli_response(resp)
            return _NO_RESULT
        return saved

    def _respond(self, thief_core_id: int, ack: bool) -> None:
        latency = self.uli_network.send_latency(self.core_id, thief_core_id)
        thief = self._peer(thief_core_id)
        # partial (not a closure) so an in-flight response is recognizable
        # and serializable by repro.engine.checkpoint.
        self.sim.schedule(latency, partial(thief.deliver_uli_response, ack))

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_peers(self, peers: List["Core"]) -> None:
        self._peers = peers

    def _peer(self, core_id: int) -> "Core":
        peers = self._peers
        if peers is None:
            raise SimulationError(
                f"core {self.core_id} is not attached to any peers "
                "(Machine must call attach_peers before ULI traffic)"
            )
        return peers[core_id]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def busy_cycles(self) -> int:
        return sum(
            self.stats.get(f"cycles_{cat}")
            for cat in TIME_CATEGORIES
            if cat != "idle"
        )

    def cycle_breakdown(self) -> dict:
        return {cat: self.stats.get(f"cycles_{cat}") for cat in TIME_CATEGORIES}
