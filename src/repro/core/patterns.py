"""High-level parallel patterns: ``parallel_for`` and ``parallel_invoke``.

These mirror the templated generic patterns of Intel TBB / Cilk Plus shown
in Figure 2 of the paper: ``parallel_invoke`` forks a set of task bodies
and joins them (divide-and-conquer); ``parallel_for`` recursively splits an
index range into half-ranges until the *grain size* is reached, then runs
the loop body serially on each leaf chunk.  Grain size is the task
granularity knob studied in Section V-D / Figure 4.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.task import FuncTask, Task


class RangeTask(Task):
    """Recursive binary splitting of ``[lo, hi)`` down to ``grain``."""

    ARG_WORDS = 3

    def __init__(self, lo: int, hi: int, grain: int, body: Callable):
        super().__init__()
        if grain < 1:
            raise ValueError("grain size must be >= 1")
        self.lo = lo
        self.hi = hi
        self.grain = grain
        self.body = body

    def execute(self, rt, ctx):
        if self.hi - self.lo <= self.grain:
            yield self.body(rt, ctx, self.lo, self.hi)
            return
        mid = (self.lo + self.hi) // 2
        left = RangeTask(self.lo, mid, self.grain, self.body)
        right = RangeTask(mid, self.hi, self.grain, self.body)
        yield rt.fork_join(ctx, self, [left, right])


def parallel_for(rt, ctx, lo: int, hi: int, body: Callable, grain: int = 1):
    """Run ``body(rt, ctx, chunk_lo, chunk_hi)`` over ``[lo, hi)`` in parallel.

    Equivalent to the paper's ``parallel_for( 0, n, [&](int i){...} )`` with
    a TBB-style ``grainsize``; the body receives a chunk, not a single
    index, so per-chunk loops can batch their memory operations.
    """
    if hi <= lo:
        return
    root = RangeTask(lo, hi, grain, body)
    yield rt.run_inline(ctx, root)


def parallel_invoke(rt, ctx, *bodies: Callable):
    """Fork each generator function ``body(rt, ctx)`` and join them all."""
    if not bodies:
        return
    root = _InvokeAllTask(bodies)
    yield rt.run_inline(ctx, root)


class _InvokeAllTask(Task):
    def __init__(self, bodies: Sequence[Callable]):
        super().__init__()
        self.bodies = bodies

    def execute(self, rt, ctx):
        children = [FuncTask(body) for body in self.bodies]
        yield rt.fork_join(ctx, self, children)
