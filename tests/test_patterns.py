"""parallel_for / parallel_invoke pattern tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FuncTask, Task, WorkStealingRuntime, parallel_for, parallel_invoke
from repro.core.patterns import RangeTask

from helpers import tiny_machine


class _PforRoot(Task):
    def __init__(self, n, grain, out_base):
        super().__init__()
        self.n = n
        self.grain = grain
        self.out_base = out_base

    def execute(self, rt, ctx):
        def body(rt, ctx, lo, hi):
            for i in range(lo, hi):
                old = yield ctx.amo_add(self.out_base + i * 8, 1)
                assert old == 0  # each index visited exactly once

        yield from parallel_for(rt, ctx, 0, self.n, body, self.grain)


def run_pfor(kind, n, grain):
    machine = tiny_machine(kind)
    rt = WorkStealingRuntime(machine)
    out = machine.address_space.alloc_words(max(1, n), "out")
    rt.run(_PforRoot(n, grain, out))
    return machine.host_read_array(out, max(1, n))


class TestParallelFor:
    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-gwb"))
    @pytest.mark.parametrize("n,grain", [(1, 1), (7, 2), (16, 4), (33, 8), (10, 100)])
    def test_every_index_once(self, kind, n, grain):
        assert run_pfor(kind, n, grain) == [1] * n

    def test_empty_range_is_noop(self):
        assert run_pfor("bt-mesi", 0, 4) == [0]

    def test_bad_grain_rejected(self):
        with pytest.raises(ValueError):
            RangeTask(0, 10, 0, None)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 16))
    def test_property_full_coverage(self, n, grain):
        assert run_pfor("bt-mesi", n, grain) == [1] * n


class TestParallelInvoke:
    def test_runs_every_body(self):
        machine = tiny_machine("bt-hcc-dts-gwb")
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(3, "out")

        def make_body(i):
            def body(rt, ctx):
                yield ctx.store(out + i * 8, i + 1)

            return body

        class Root(Task):
            def execute(self, rt, ctx):
                yield from parallel_invoke(
                    rt, ctx, make_body(0), make_body(1), make_body(2)
                )

        rt.run(Root())
        assert machine.host_read_array(out, 3) == [1, 2, 3]

    def test_no_bodies_is_noop(self):
        machine = tiny_machine()
        rt = WorkStealingRuntime(machine)

        class Root(Task):
            def execute(self, rt, ctx):
                yield from parallel_invoke(rt, ctx)
                yield ctx.work(1)

        rt.run(Root())  # completes without error

    def test_nested_invoke(self):
        machine = tiny_machine("bt-hcc-gwb")
        rt = WorkStealingRuntime(machine)
        counter = machine.address_space.alloc_words(1, "c")
        machine.host_write_word(counter, 0)

        def leaf(rt, ctx):
            yield ctx.amo_add(counter, 1)

        def inner(rt, ctx):
            yield from parallel_invoke(rt, ctx, leaf, leaf)

        class Root(Task):
            def execute(self, rt, ctx):
                yield from parallel_invoke(rt, ctx, inner, inner, leaf)

        rt.run(Root())
        assert machine.host_read_word(counter) == 5


class TestFuncTask:
    def test_functask_wraps_generator(self):
        machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        out = machine.address_space.alloc_words(1, "out")

        def body(rt, ctx):
            yield ctx.store(out, 42)

        class Root(Task):
            def execute(self, rt, ctx):
                yield from rt.fork_join(ctx, self, [FuncTask(body)])

        rt.run(Root())
        assert machine.host_read_word(out) == 42
