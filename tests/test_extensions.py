"""Tests for extension features: Chase-Lev lock-free deques and the
asymmetry-aware ("big-first") steal policy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.system import SCALES, make_config
from repro.core import Task, WorkStealingRuntime
from repro.core.chaselev import ChaseLevDeque
from repro.core.taskqueue import TaskDeque
from repro.cores import ops
from repro.engine.simulator import SimulationError
from repro.machine import Machine
from repro.mem.address import WORD_BYTES

from helpers import run_thread, tiny_machine


def pyfib(n):
    return n if n < 2 else pyfib(n - 1) + pyfib(n - 2)


class FibTask(Task):
    def __init__(self, n, out_addr):
        super().__init__()
        self.n = n
        self.out_addr = out_addr

    def execute(self, rt, ctx):
        if self.n < 2:
            yield ctx.store(self.out_addr, self.n)
            return
        scratch = rt.machine.address_space.alloc_words(2, "s")
        yield from rt.fork_join(
            ctx, self,
            [FibTask(self.n - 1, scratch), FibTask(self.n - 2, scratch + WORD_BYTES)],
        )
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)


def drive(machine, core_id, gen):
    result = {}

    def wrapper():
        result["value"] = yield from gen
        if False:
            yield

    run_thread(machine, core_id, wrapper())
    return result.get("value")


class TestChaseLevDeque:
    def test_push_take_lifo(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield from dq.push(ctx, task_id)
            out = []
            for _ in range(4):
                out.append((yield from dq.take(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [3, 2, 1, 0]

    def test_steal_fifo(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield from dq.push(ctx, task_id)
            out = []
            for _ in range(4):
                out.append((yield from dq.steal(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [1, 2, 3, 0]

    def test_overflow_raises(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield from dq.push(ctx, task_id)

        with pytest.raises(SimulationError):
            drive(machine, 1, body(ctxs[1]))

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb"))
    def test_concurrent_owner_and_thieves_claim_each_item_once(self, kind):
        machine = tiny_machine(kind)
        dq = ChaseLevDeque(machine, 1, capacity=256)
        claimed_addr = machine.address_space.alloc_words(64, "claimed")
        ctxs = machine.make_contexts()

        def owner(ctx):
            for task_id in range(1, 33):
                yield from dq.push(ctx, task_id)
                yield ctx.work(3)
            while True:
                got = yield from dq.take(ctx)
                if not got:
                    break
                yield ctx.amo_add(claimed_addr + (got - 1) * 8, 1)
                yield ctx.work(5)

        def thief(ctx):
            misses = 0
            while misses < 30:
                got = yield from dq.steal(ctx)
                if got:
                    misses = 0
                    yield ctx.amo_add(claimed_addr + (got - 1) * 8, 1)
                    yield ctx.work(5)
                else:
                    misses += 1
                    yield ctx.idle(7)

        machine.cores[1].start(owner(ctxs[1]))
        machine.cores[2].start(thief(ctxs[2]))
        machine.cores[3].start(thief(ctxs[3]))
        machine.sim.run()
        counts = machine.host_read_array(claimed_addr, 32)
        assert counts == [1] * 32  # every task claimed exactly once

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb"))
    def test_runtime_with_chase_lev_correct(self, kind):
        machine = tiny_machine(kind)
        rt = WorkStealingRuntime(machine, deque_kind="chase-lev")
        out = machine.address_space.alloc_words(1, "out")
        rt.run(FibTask(9, out))
        assert machine.host_read_word(out) == pyfib(9)

    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb"))
    def test_last_element_owner_thief_cas_race(self, kind):
        """Owner take() and thief steal() race for the single remaining
        item; the head CAS must hand it to exactly one of them."""
        machine = tiny_machine(kind)
        dq = ChaseLevDeque(machine, 1, capacity=16)
        ctxs = machine.make_contexts()
        got = {}

        def owner(ctx):
            yield from dq.push(ctx, 7)
            yield ctx.work(2)  # window for the thief to move in
            got["owner"] = yield from dq.take(ctx)

        def thief(ctx):
            for _ in range(64):
                task_id = yield from dq.steal(ctx)
                if task_id:
                    got["thief"] = task_id
                    return
                yield ctx.idle(3)
            got["thief"] = 0

        machine.cores[1].start(owner(ctxs[1]))
        machine.cores[2].start(thief(ctxs[2]))
        machine.sim.run()
        winners = [v for v in (got["owner"], got["thief"]) if v]
        assert winners == [7]  # claimed exactly once, by whoever won

        # The deque must still be consistent: empty for both sides.
        machine2 = machine  # same machine, fresh generators
        assert drive(machine2, 1, dq.take(ctxs[1])) == 0
        assert drive(machine2, 2, dq.steal(ctxs[2])) == 0

    def test_slot_wraparound_beyond_capacity(self):
        """head/tail grow without bound; slot indices wrap mod capacity."""
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 1, capacity=4)
        ctxs = machine.make_contexts()

        def body(ctx):
            out = []
            for task_id in (1, 2, 3, 4):
                yield from dq.push(ctx, task_id)
            out.append((yield from dq.steal(ctx)))  # 1 (head slot 0 freed)
            out.append((yield from dq.steal(ctx)))  # 2 (head slot 1 freed)
            yield from dq.push(ctx, 5)  # tail=4 -> physical slot 0
            yield from dq.push(ctx, 6)  # tail=5 -> physical slot 1
            for _ in range(5):
                out.append((yield from dq.take(ctx)))
            return out

        assert drive(machine, 1, body(ctxs[1])) == [1, 2, 6, 5, 4, 3, 0]

    def test_chase_lev_overflow_message_names_owner_and_capacity(self):
        machine = tiny_machine()
        dq = ChaseLevDeque(machine, 3, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield from dq.push(ctx, task_id)

        with pytest.raises(
            SimulationError, match=r"chase-lev deque 3 overflow \(capacity 2\)"
        ):
            drive(machine, 3, body(ctxs[3]))

    def test_chase_lev_rejected_with_dts(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine("bt-hcc-dts-gwb"), deque_kind="chase-lev")

    def test_unknown_deque_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine(), deque_kind="ring")


class TestTaskDequeOverflow:
    def test_enqueue_past_capacity_raises_with_owner_and_capacity(self):
        machine = tiny_machine()
        dq = TaskDeque(machine, 2, capacity=2)
        ctxs = machine.make_contexts()

        def body(ctx):
            for task_id in (1, 2, 3):
                yield from dq.enqueue(ctx, task_id)

        with pytest.raises(
            SimulationError, match=r"task deque 2 overflow \(capacity 2\)"
        ):
            drive(machine, 2, body(ctxs[2]))


class _ForcedRng:
    """Deterministic rng stub: always takes the big-first branch and picks
    the candidate at a fixed offset."""

    def __init__(self, pick: int = 0):
        self.pick = pick

    def random(self) -> float:
        return 0.0  # < 0.5, so the policy probes a big core

    def randint(self, a: int, b: int) -> int:
        return min(a + self.pick, b)

    def choice_excluding(self, n: int, excluded: int) -> int:
        return 0 if excluded != 0 else 1


class TestStealPolicy:
    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-dts-gwb"))
    def test_big_first_policy_correct(self, kind):
        machine = tiny_machine(kind)
        rt = WorkStealingRuntime(machine, steal_policy="big-first")
        out = machine.address_space.alloc_words(1, "out")
        rt.run(FibTask(9, out))
        assert machine.host_read_word(out) == pyfib(9)
        assert rt.stats.get("steals") > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingRuntime(tiny_machine(), steal_policy="chaotic")

    def test_big_first_never_selects_self(self):
        machine = tiny_machine()
        rt = WorkStealingRuntime(machine, steal_policy="big-first")
        ctx = rt.contexts[0]  # the only big core: must not pick itself
        for _ in range(100):
            assert rt._choose_victim(ctx) != 0

    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_big_first_probes_a_real_big_core_at_every_scale(self, scale):
        """Regression: the policy must draw candidates from the machine's
        actual big-core id list, not an assumed 0..n_big-1 range."""
        machine = Machine(make_config("bt-mesi", scale))
        rt = WorkStealingRuntime(machine, steal_policy="big-first")
        big_ids = machine.big_core_ids()
        tiny_ids = machine.tiny_core_ids()
        assert big_ids and tiny_ids

        # From a tiny core, every candidate offset lands on a real big core.
        ctx = rt.contexts[tiny_ids[0]]
        for pick in range(len(big_ids)):
            ctx.rng = _ForcedRng(pick)
            victim = rt._choose_victim(ctx)
            assert victim in big_ids
            assert victim != ctx.tid

        # From a big core, the policy never probes itself.
        big_ctx = rt.contexts[big_ids[0]]
        big_ctx.rng = _ForcedRng(0)
        victim = rt._choose_victim(big_ctx)
        assert victim != big_ctx.tid
        if len(big_ids) > 1:
            assert victim in big_ids
