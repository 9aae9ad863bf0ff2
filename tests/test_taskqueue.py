"""Task deque tests: LIFO/FIFO semantics, locking, overflow."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.taskqueue import TaskDeque
from repro.cores import ops
from repro.engine.simulator import SimulationError

from helpers import run_thread, tiny_machine


def setup(kind="bt-mesi", capacity=64):
    machine = tiny_machine(kind)
    rtctx = machine.make_contexts()
    dq = TaskDeque(machine, owner_tid=1, capacity=capacity)
    return machine, rtctx, dq


def drive(machine, core_id, gen):
    result = {}

    def wrapper():
        result["value"] = yield from gen
        if False:
            yield

    run_thread(machine, core_id, wrapper())
    return result.get("value")


class TestDequeSemantics:
    def test_dequeue_tail_is_lifo(self):
        machine, ctxs, dq = setup()

        def thread(ctx):
            for task_id in (1, 2, 3):
                yield from dq.enqueue(ctx, task_id)
            popped = []
            for _ in range(3):
                popped.append((yield from dq.dequeue_tail(ctx)))
            return popped

        assert drive(machine, 1, thread(ctxs[1])) == [3, 2, 1]

    def test_steal_head_is_fifo(self):
        machine, ctxs, dq = setup()

        def thread(ctx):
            for task_id in (1, 2, 3):
                yield from dq.enqueue(ctx, task_id)
            stolen = []
            for _ in range(3):
                stolen.append((yield from dq.steal_head(ctx)))
            return stolen

        assert drive(machine, 1, thread(ctxs[1])) == [1, 2, 3]

    def test_empty_returns_zero(self):
        machine, ctxs, dq = setup()

        def thread(ctx):
            a = yield from dq.dequeue_tail(ctx)
            b = yield from dq.steal_head(ctx)
            return (a, b)

        assert drive(machine, 1, thread(ctxs[1])) == (0, 0)

    def test_mixed_ends(self):
        machine, ctxs, dq = setup()

        def thread(ctx):
            for task_id in (1, 2, 3, 4):
                yield from dq.enqueue(ctx, task_id)
            stolen = yield from dq.steal_head(ctx)
            popped = yield from dq.dequeue_tail(ctx)
            return (stolen, popped)

        assert drive(machine, 1, thread(ctxs[1])) == (1, 4)

    def test_overflow_raises(self):
        machine, ctxs, dq = setup(capacity=4)

        def thread(ctx):
            for task_id in range(1, 7):
                yield from dq.enqueue(ctx, task_id)

        with pytest.raises(SimulationError):
            drive(machine, 1, thread(ctxs[1]))

    def test_circular_reuse_beyond_capacity(self):
        machine, ctxs, dq = setup(capacity=4)

        def thread(ctx):
            out = []
            for round_ in range(5):
                for task_id in (10 + round_, 20 + round_):
                    yield from dq.enqueue(ctx, task_id)
                out.append((yield from dq.dequeue_tail(ctx)))
                out.append((yield from dq.dequeue_tail(ctx)))
            return out

        out = drive(machine, 1, thread(ctxs[1]))
        assert out == [20, 10, 21, 11, 22, 12, 23, 13, 24, 14]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["enq", "deq", "steal"]), max_size=40))
    def test_matches_python_deque_model(self, script):
        from collections import deque as pydeque

        machine, ctxs, dq = setup(capacity=128)
        model = pydeque()
        next_id = [1]

        def thread(ctx):
            results = []
            for action in script:
                if action == "enq":
                    task_id = next_id[0]
                    next_id[0] += 1
                    yield from dq.enqueue(ctx, task_id)
                    model.append(task_id)
                elif action == "deq":
                    got = yield from dq.dequeue_tail(ctx)
                    expected = model.pop() if model else 0
                    results.append((got, expected))
                else:
                    got = yield from dq.steal_head(ctx)
                    expected = model.popleft() if model else 0
                    results.append((got, expected))
            return results

        for got, expected in drive(machine, 1, thread(ctxs[1])) or []:
            assert got == expected


class TestDequeLock:
    def test_lock_provides_mutual_exclusion(self):
        for kind in ("bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb"):
            machine, ctxs, dq = setup(kind)
            shared = machine.address_space.alloc_words(1, "shared")
            machine.host_write_word(shared, 0)
            trace = []

            def worker(ctx, tid):
                # The Figure 3b critical-section recipe: invalidate after
                # acquire, flush before release.
                for _ in range(10):
                    yield from dq.lock_acquire(ctx)
                    yield ctx.cache_invalidate()
                    value = yield ctx.load(shared)
                    yield ctx.work(5)  # widen the race window
                    yield ctx.store(shared, value + 1)
                    yield ctx.cache_flush()
                    yield dq.lock_release(ctx)
                trace.append(tid)

            machine.cores[1].start(worker(ctxs[1], 1))
            machine.cores[2].start(worker(ctxs[2], 2))
            machine.cores[3].start(worker(ctxs[3], 3))
            machine.sim.run()
            assert len(trace) == 3
            assert machine.host_read_word(shared) == 30, kind

    def test_lock_release_visible_to_spinners(self):
        machine, ctxs, dq = setup("bt-hcc-gwb")
        order = []

        def holder(ctx):
            yield from dq.lock_acquire(ctx)
            yield ctx.work(200)
            order.append("release")
            yield dq.lock_release(ctx)

        def contender(ctx):
            yield ctx.idle(10)
            yield from dq.lock_acquire(ctx)
            order.append("acquired")
            yield dq.lock_release(ctx)

        machine.cores[1].start(holder(ctxs[1]))
        machine.cores[2].start(contender(ctxs[2]))
        machine.sim.run()
        assert order == ["release", "acquired"]
