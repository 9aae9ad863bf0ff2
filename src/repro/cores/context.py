"""Thread context: the programming interface of a simulated hardware thread.

Each op method *returns* the :mod:`repro.cores.ops` object for one
architectural operation; thread code yields it to its core, which resumes
the generator with the op's result once the op's latency has elapsed::

    def execute(self, rt, ctx):
        n = yield ctx.load(self.addr)
        yield ctx.work(5)
        yield ctx.store(self.addr, n + 1)

Runtime and application helpers that issue several ops (``rt.fork_join``,
``parallel_for``, a deque's ``push``) stay generators, and thread code calls
them with the same ``yield``: ``task_id = yield dq.steal(ctx)``.  Every
thread generator runs under :func:`drive`, which treats a yielded generator
as a sub-call on an explicit stack, so an op resumes two frames (the driver
and the innermost generator) however deep the task nesting.  ``yield from``
still works inside driven code, but each delegating level adds a frame that
every op passes through.

``work(n)`` and ``idle(n)`` with ``n <= 0`` return None instead of an op.
The core answers a yielded None with None at once: it costs no cycles,
counts nothing and is not an op boundary (no ULI handler can enter there).

The context also carries the thread id and a per-thread RNG used by victim
selection, keeping all randomness deterministic per run.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.engine.rng import XorShift64
from repro.cores import ops


def drive(root: Generator) -> Generator:
    """Run thread code ``root`` on an explicit stack of generators.

    A generator yielded by the running frame is a sub-call: it is pushed,
    run to its return, and its return value is sent to the caller.  Any
    other yielded value (an op, or None) passes out to the core, and the
    core's answer is sent back into the innermost frame.  An exception
    leaving a sub-call is thrown into its caller, and one thrown into the
    driver (``close()`` included) goes to the innermost frame, exactly as
    a ``yield from`` chain would propagate them.  Returns ``root``'s
    return value.
    """
    generator = GeneratorType
    stack = []
    push = stack.append
    pop = stack.pop
    frame = root
    send = frame.send
    value = None
    error = None
    while True:
        try:
            if error is None:
                out = send(value)
            else:
                exc, error = error, None
                out = frame.throw(exc)
            # Runs of ops stay in this inner loop: one send and one yield
            # per op.
            while out.__class__ is not generator:
                try:
                    value = yield out
                except BaseException as exc:
                    error = exc
                    break
                out = send(value)
            else:
                push(frame)
                frame = out
                send = frame.send
                value = None
        except StopIteration as stop:
            if not stack:
                return stop.value
            frame = pop()
            send = frame.send
            value = stop.value
        except BaseException as exc:
            if not stack:
                raise
            frame = pop()
            send = frame.send
            error = exc


class ThreadContext:
    """Per-hardware-thread handle passed to runtime and task code."""

    def __init__(self, core, tid: int, n_threads: int, rng: Optional[XorShift64]):
        self.core = core
        self.tid = tid
        self.n_threads = n_threads
        self.rng = rng

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------
    def load(self, addr: int) -> ops.Load:
        return ops.Load(addr)

    def bypass_load(self, addr: int) -> ops.Load:
        """Uncached load resolved at the shared L2 (mailbox reads)."""
        return ops.Load(addr, bypass=True)

    def store(self, addr: int, value: Any) -> ops.Store:
        return ops.Store(addr, value)

    def amo(self, op: str, addr: int, operand: Any) -> ops.Amo:
        return ops.Amo(op, addr, operand)

    def cas(self, addr: int, expected: int, desired: int) -> ops.Amo:
        """Compare-and-swap; yields the old value (== expected on success)."""
        return ops.Amo("cas", addr, (expected, desired))

    def amo_add(self, addr: int, delta: int) -> ops.Amo:
        return ops.Amo("add", addr, delta)

    def amo_sub(self, addr: int, delta: int) -> ops.Amo:
        return ops.Amo("sub", addr, delta)

    def amo_or(self, addr: int, bits: int) -> ops.Amo:
        return ops.Amo("or", addr, bits)

    def amo_min(self, addr: int, value: int) -> ops.Amo:
        return ops.Amo("min", addr, value)

    # ------------------------------------------------------------------
    # Compute / waiting
    # ------------------------------------------------------------------
    def work(self, n: int) -> Optional[ops.Work]:
        return ops.Work(n) if n > 0 else None

    def idle(self, n: int) -> Optional[ops.Idle]:
        return ops.Idle(n) if n > 0 else None

    # ------------------------------------------------------------------
    # Software coherence instructions
    # ------------------------------------------------------------------
    def cache_invalidate(self) -> ops.InvAll:
        return ops.INV_ALL

    def cache_flush(self) -> ops.FlushAll:
        return ops.FLUSH_ALL

    # ------------------------------------------------------------------
    # User-level interrupts (Direct Task Stealing)
    # ------------------------------------------------------------------
    def uli_send_req(self, victim_tid: int) -> ops.UliSend:
        """Send a steal request; yields the ACK (True) or NACK (False)."""
        return ops.UliSend(victim_tid)

    def uli_enable(self) -> ops.UliEnable:
        return ops.ULI_ENABLE

    def uli_disable(self) -> ops.UliDisable:
        return ops.ULI_DISABLE

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def choose_victim(self) -> int:
        """Uniform random victim other than self (paper: random selection)."""
        return self.rng.choice_excluding(self.n_threads, self.tid)
