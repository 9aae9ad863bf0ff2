"""Tests for :func:`repro.cores.context.drive`, the explicit-stack driver
that runs every thread generator: sub-calls and their return values,
exception propagation, ULI handlers, checkpoint replay, and the rule that
thread code in the package calls helpers with ``yield``, not ``yield from``.
"""

import ast
from pathlib import Path

import pytest

from repro.config import make_config
from repro.core import Task, WorkStealingRuntime
from repro.cores import ops
from repro.cores.context import drive
from repro.engine.checkpoint import CheckpointDaemon
from repro.machine import Machine

from helpers import run_thread, tiny_machine


def pending_sub_calls(driver):
    """Callers waiting on a sub-call inside a suspended ``drive`` generator."""
    if driver.gi_frame is None:
        return 0
    return len(driver.gi_frame.f_locals.get("stack", ()))


def echo(gen):
    """Drive ``gen`` against a fake core that answers each op ``x`` with
    ``2 * x``; returns (ops seen, return value)."""
    seen = []
    try:
        op = gen.send(None)
        while True:
            seen.append(op)
            op = gen.send(None if op is None else 2 * op)
    except StopIteration as stop:
        return seen, stop.value


# ----------------------------------------------------------------------
# Sub-calls and return values
# ----------------------------------------------------------------------
def chain(depth):
    """``depth`` nested sub-calls around one op; returns op result + depth."""
    if depth == 0:
        value = yield 21
        return value
    inner = yield chain(depth - 1)
    return inner + 1


class TestSubCalls:
    def test_nested_return_values(self):
        def root():
            a = yield chain(0)
            b = yield chain(30)
            c = yield 5  # a plain op between sub-calls
            return a, b, c

        seen, value = echo(drive(root()))
        assert seen == [21, 21, 5]
        assert value == (42, 72, 10)

    def test_sub_call_without_ops_returns_at_once(self):
        def nothing():
            return "done"
            yield  # pragma: no cover

        def root():
            return (yield nothing())

        assert echo(drive(root())) == ([], "done")

    def test_none_passes_to_core(self):
        def root():
            got = yield None
            return got

        assert echo(drive(root())) == ([None], None)

    def test_yield_from_still_works_inside_driven_code(self):
        def delegating():
            return (yield from chain(3))

        def root():
            x = yield delegating()
            y = yield from delegating()
            return x, y

        assert echo(drive(root())) == ([21, 21], (45, 45))

    def test_ops_on_a_real_core(self):
        machine = tiny_machine()
        ctx = machine.make_contexts()[1]
        addr = machine.address_space.alloc_words(4, "x")
        machine.host_write_array(addr, [3, 4, 5, 6])
        out = {}

        def load_sum(lo, hi):
            if hi - lo == 1:
                return (yield ctx.load(addr + 8 * lo))
            mid = (lo + hi) // 2
            left = yield load_sum(lo, mid)
            yield ctx.work(2)
            right = yield load_sum(mid, hi)
            return left + right

        def root():
            out["sum"] = yield load_sum(0, 4)
            yield ctx.store(addr, out["sum"])

        run_thread(machine, 1, drive(root()))
        assert out["sum"] == 18
        assert machine.host_read_word(addr) == 18
        assert machine.cores[1].halted


# ----------------------------------------------------------------------
# Exceptions
# ----------------------------------------------------------------------
def _program(log, call):
    """One three-level program; ``call(gen)`` is how a caller invokes a
    helper (``drive``'s ``yield gen`` or a reference ``yield from gen``)."""

    def innermost():
        try:
            yield 1
            raise ValueError("boom")
        finally:
            log.append("innermost-finally")

    def middle():
        try:
            yield from call(innermost())
        finally:
            log.append("middle-finally")

    def outer():
        try:
            yield from call(middle())
        except ValueError as exc:
            log.append(f"caught {exc}")
        value = yield 3
        return value

    return outer()


def _sub_call(gen):
    return (yield gen)


class TestExceptions:
    def test_caught_by_caller_finally_innermost_first(self):
        log = []
        seen, value = echo(drive(_program(log, _sub_call)))
        assert log == ["innermost-finally", "middle-finally", "caught boom"]
        assert (seen, value) == ([1, 3], 6)
        # The same program as a yield-from chain behaves identically.
        ref_log = []
        assert echo(_program(ref_log, lambda gen: gen)) == (seen, value)
        assert ref_log == log

    def test_uncaught_exception_leaves_the_driver(self):
        log = []

        def failing():
            try:
                yield 1
                raise KeyError("k")
            finally:
                log.append("failing-finally")

        def root():
            try:
                yield failing()
            finally:
                log.append("root-finally")

        with pytest.raises(KeyError):
            echo(drive(root()))
        assert log == ["failing-finally", "root-finally"]

    def test_close_unwinds_innermost_first(self):
        log = []

        def level(depth):
            try:
                if depth == 0:
                    yield 1
                else:
                    yield level(depth - 1)
            finally:
                log.append(depth)

        gen = drive(level(3))
        assert gen.send(None) == 1
        gen.close()
        assert log == [0, 1, 2, 3]

    def test_thrown_exception_reaches_innermost_frame(self):
        def inner():
            try:
                yield 1
            except RuntimeError:
                return "handled"

        def root():
            return (yield inner())

        gen = drive(root())
        assert gen.send(None) == 1
        with pytest.raises(StopIteration) as stop:
            gen.throw(RuntimeError("x"))
        assert stop.value.value == "handled"


# ----------------------------------------------------------------------
# ULI handlers
# ----------------------------------------------------------------------
class TestUliHandler:
    def test_handler_sub_calls_and_interrupted_sub_call(self):
        machine = tiny_machine("bt-hcc-dts-gwb")
        victim_ctx = machine.make_contexts()[2]
        base = machine.address_space.alloc_words(16, "v")
        machine.host_write_array(base, list(range(1, 17)))
        handled = []
        result = {}

        def handler_load(i):
            yield ops.Work(2)
            return (yield victim_ctx.load(base + 8 * i))

        def handler(thief):
            first = yield handler_load(0)
            last = yield handler_load(15)
            interrupted = pending_sub_calls(machine.cores[2]._frames[0])
            handled.append((thief, first + last, interrupted))

        machine.cores[2].uli_handler_factory = lambda thief: drive(handler(thief))

        def summed(lo, hi):
            total = 0
            for i in range(lo, hi):
                total += yield victim_ctx.load(base + 8 * i)
                yield victim_ctx.work(40)
            return total

        def victim():
            yield victim_ctx.uli_enable()
            left = yield summed(0, 8)
            right = yield summed(8, 16)
            result["sum"] = left + right

        acks = []

        def thief():
            yield ops.Idle(100)
            acks.append((yield ops.UliSend(2)))

        machine.cores[2].start(drive(victim()))
        machine.cores[1].start(drive(thief()))
        machine.sim.run()
        assert acks == [True]
        assert handled == [(1, 17, 1)]  # victim was inside summed()
        assert result["sum"] == sum(range(1, 17))
        assert machine.cores[2].stats.get("uli_handled") == 1


# ----------------------------------------------------------------------
# Checkpoint replay through nested sub-calls
# ----------------------------------------------------------------------
class NestedSum(Task):
    """Sums ``src[lo:hi]`` into ``dst[slot]``: internal nodes fork two
    children, leaves sum through ``DEPTH`` levels of helper sub-calls."""

    DEPTH = 6

    def __init__(self, src, dst, lo, hi, slot):
        super().__init__()
        self.src, self.dst = src, dst
        self.lo, self.hi, self.slot = lo, hi, slot

    def execute(self, rt, ctx):
        if self.hi - self.lo <= 4:
            total = yield self._helper(ctx, self.DEPTH)
            yield ctx.store(self.dst + 8 * self.slot, total)
            return
        mid = (self.lo + self.hi) // 2
        children = [
            NestedSum(self.src, self.dst, self.lo, mid, 2 * self.slot + 1),
            NestedSum(self.src, self.dst, mid, self.hi, 2 * self.slot + 2),
        ]
        yield rt.fork_join(ctx, self, children)

    def _helper(self, ctx, depth):
        if depth:
            value = yield self._helper(ctx, depth - 1)
            yield ctx.work(3)
            return value
        total = 0
        for i in range(self.lo, self.hi):
            total += yield ctx.load(self.src + 8 * i)
            yield ctx.work(5)
        return total


N_WORDS = 64
KIND = "bt-hcc-dts-gwb"


def build_nested():
    machine = Machine(make_config(KIND, "tiny", seed=7))
    machine.enable_checkpointing()
    src = machine.address_space.alloc_words(N_WORDS, "src")
    dst = machine.address_space.alloc_words(2 * N_WORDS, "dst")
    machine.host_write_array(src, [3 * i + 1 for i in range(N_WORDS)])
    rt = WorkStealingRuntime(machine)
    return machine, rt, lambda: NestedSum(src, dst, 0, N_WORDS, 0), dst


def nested_end_state(machine, rt, cycles):
    return {
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "digest": machine.memory_digest(machine.address_space.regions()),
        "tasks": rt.stats.get("tasks_executed"),
    }




class TestCheckpointReplay:
    def test_restore_inside_nested_sub_calls_matches_uninterrupted_run(self):
        machine, rt, root, dst = build_nested()
        cycles = rt.run(root())
        reference = nested_end_state(machine, rt, cycles)
        # Only leaves store, each its chunk's sum.
        assert sum(machine.host_read_array(dst, 2 * N_WORDS)) == sum(
            3 * i + 1 for i in range(N_WORDS)
        )

        machine, rt, root, _ = build_nested()
        snaps = []

        def take(m):
            depth = max(pending_sub_calls(c._frames[-1]) for c in m.cores if c._frames)
            snaps.append((depth, m.snapshot()))

        daemon = CheckpointDaemon(machine, 300, take)
        daemon.arm()
        cycles = rt.run(root())
        daemon.cancel()
        assert nested_end_state(machine, rt, cycles) == reference
        deep = [snap for depth, snap in snaps if depth > NestedSum.DEPTH]
        assert deep, "no snapshot caught a thread inside the helper chain"
        for snap in deep:
            machine, rt, root, _ = build_nested()
            machine.restore(snap, root())
            resumed = nested_end_state(machine, rt, rt.resume_run())
            assert resumed == reference, f"divergence from snapshot@{snap['cycle']}"


# ----------------------------------------------------------------------
# The thread-code idiom
# ----------------------------------------------------------------------
def test_no_yield_from_in_thread_code():
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = []
    for sub in ("core", "apps", "analysis"):
        for path in sorted((package / sub).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{path.relative_to(package)}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.YieldFrom)
            ]
    assert offenders == [], "call thread-code helpers with `yield`, not `yield from`"
