"""Core model tests: op timing, big-core parameters, cycle accounting."""

import ast
from pathlib import Path

from repro.cores import ops
from repro.cores.core import Core

from helpers import run_thread, tiny_machine


def make():
    machine = tiny_machine()
    addr = machine.address_space.alloc_words(8, "x")
    machine.host_write_word(addr, 9)
    return machine, addr


class TestTinyCoreExecution:
    def test_work_costs_its_cycles(self):
        machine, _ = make()

        def thread():
            yield ops.Work(10)

        cycles = run_thread(machine, 1, thread())
        assert cycles == 10

    def test_load_returns_value(self):
        machine, addr = make()
        seen = []

        def thread():
            value = yield ops.Load(addr)
            seen.append(value)

        run_thread(machine, 1, thread())
        assert seen == [9]

    def test_instruction_counting(self):
        machine, addr = make()

        def thread():
            yield ops.Work(5)
            yield ops.Load(addr)
            yield ops.Store(addr, 1)
            yield ops.Amo("add", addr, 1)
            yield ops.Idle(3)  # idle is not an instruction

        run_thread(machine, 1, thread())
        assert machine.cores[1].stats.get("instructions") == 8

    def test_cycle_breakdown_categories(self):
        machine, addr = make()

        def thread():
            yield ops.Work(5)
            yield ops.Load(addr)
            yield ops.Store(addr, 2)
            yield ops.Idle(7)

        run_thread(machine, 1, thread())
        breakdown = machine.cores[1].cycle_breakdown()
        assert breakdown["compute"] == 5
        assert breakdown["idle"] == 7
        assert breakdown["load"] >= 1
        assert breakdown["store"] >= 1
        assert sum(breakdown.values()) == machine.sim.now

    def test_non_positive_work_and_idle_are_free_and_no_op_boundary(self):
        """``ctx.work``/``ctx.idle`` with n <= 0 yield None: the core sends
        None straight back, costing no cycles, counting nothing, and not
        taking a pending ULI (which enters only at op boundaries)."""
        machine, _ = make()
        core = machine.cores[1]
        ctx = machine.make_contexts()[1]
        entered = []

        def handler(thief):
            entered.append(thief)
            yield ctx.work(1)

        core.uli_handler_factory = handler
        seen = []

        def thread():
            yield ctx.uli_enable()
            yield ctx.work(3)
            now = machine.sim.now
            counters = dict(core.stats._counters)
            core._pending_uli = 2  # would enter at the next op boundary
            seen.append((yield ctx.work(0)))
            seen.append((yield ctx.idle(0)))
            seen.append((yield ctx.work(-4)))
            core._pending_uli = None
            seen.append(machine.sim.now == now)
            seen.append(dict(core.stats._counters) == counters)

        run_thread(machine, 1, thread())
        assert seen == [None, None, None, True, True]
        assert entered == []

    def test_busy_excludes_idle(self):
        machine, _ = make()

        def thread():
            yield ops.Work(5)
            yield ops.Idle(100)

        run_thread(machine, 1, thread())
        assert machine.cores[1].busy_cycles() == 5

    def test_core_halts_after_thread(self):
        machine, _ = make()

        def thread():
            yield ops.Work(1)

        run_thread(machine, 1, thread())
        assert machine.cores[1].halted


class TestBigCoreModel:
    def test_issue_width_divides_compute(self):
        machine, _ = make()

        def thread():
            yield ops.Work(40)

        cycles = run_thread(machine, 0, thread())  # core 0 is big (width 4)
        assert cycles == 10

    def test_mlp_reduces_exposed_miss_latency(self):
        big_machine, big_addr = make()

        def thread(addr):
            yield ops.Load(addr)

        big_cycles = run_thread(big_machine, 0, thread(big_addr))
        tiny_machine_, tiny_addr = make()
        tiny_cycles = run_thread(tiny_machine_, 1, thread(tiny_addr))
        assert big_cycles < tiny_cycles

    def test_hits_not_scaled_below_one_cycle(self):
        machine, addr = make()

        def thread():
            yield ops.Load(addr)  # miss
            yield ops.Load(addr)  # hit

        run_thread(machine, 0, thread())
        # a hit costs exactly 1 cycle even on the big core
        assert machine.cores[0].stats.get("cycles_load") >= 2


class TestBypassLoad:
    def test_bypass_load_skips_l1(self):
        machine, addr = make()
        seen = []

        def thread():
            value = yield ops.Load(addr, bypass=True)
            seen.append(value)

        run_thread(machine, 1, thread())
        assert seen == [9]
        assert machine.l1s[1].resident(addr) is None
        assert machine.l1s[1].stats.get("loads") == 0


class TestOneTrampoline:
    def test_only_resume_sends_into_thread_frames(self):
        # Every value that enters a thread generator goes through one
        # trampoline, so fusion, ULI handler entry and the checkpoint send
        # log are kept in one place rather than in hand-synced twins.
        source = Path(__file__).resolve().parents[1] / "src/repro/cores/core.py"
        tree = ast.parse(source.read_text(), filename=str(source))
        (core_class,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Core"
        ]
        senders = [
            method.name
            for method in core_class.body
            if isinstance(method, ast.FunctionDef)
            and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                for node in ast.walk(method)
            )
        ]
        assert senders == ["_resume"]

    def test_core_has_no_fast_forward_state(self):
        # The deleted sampled mode parked its fast-forward state in an
        # "ff" slot that the trampoline tested on every entry.
        parts = {part for slot in Core.__slots__ for part in slot.split("_")}
        assert "ff" not in parts
