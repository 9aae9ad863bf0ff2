"""cilk5-cs: parallel mergesort (cilksort).

Faithful to the MIT Cilk-5 ``cilksort`` structure: recursive spawn-and-sync
sorting with a *parallel divide-and-conquer merge* (split the larger run at
its midpoint, binary-search the split point in the other run, and merge the
two halves as parallel tasks).  The parallel merge is what gives cilksort
its polylogarithmic span — with a serial merge the top-level merge would
dominate the critical path.

Each recursion level sorts four quarters in place, merges quarter pairs
into the temp buffer in parallel, then merges the two temp halves back —
so the result always lands in the data buffer without a separate copy
pass; leaves run a serial insertion sort.  Every element access is a
simulated memory operation.
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import Task
from repro.engine.rng import XorShift64


class _SortTask(Task):
    """Sort data[lo:hi) in place, cilksort-style.

    Four quarters are sorted in parallel (in ``data``), pairs of quarters
    are merged in parallel into ``temp``, and the two temp halves are
    merged back into ``data`` — exactly the cilk5 ``cilksort`` recursion.
    """

    ARG_WORDS = 3

    def __init__(self, app, lo, hi, grain: int):
        super().__init__()
        self.app = app
        self.lo = lo
        self.hi = hi
        self.grain = grain

    def execute(self, rt, ctx):
        app, lo, hi, g = self.app, self.lo, self.hi, self.grain
        if hi - lo <= g or hi - lo < 4:  # quartering needs >= 4 elements
            yield app.serial_sort(ctx, app.data, lo, hi)
            return
        quarter = (hi - lo) // 4
        m1 = lo + quarter
        m2 = lo + 2 * quarter
        m3 = lo + 3 * quarter
        yield rt.fork_join(
            ctx,
            self,
            [
                _SortTask(app, lo, m1, g),
                _SortTask(app, m1, m2, g),
                _SortTask(app, m2, m3, g),
                _SortTask(app, m3, hi, g),
            ],
        )
        yield rt.fork_join(
            ctx,
            self,
            [
                _MergeTask(app, app.data, app.temp, lo, m1, m1, m2, lo, g),
                _MergeTask(app, app.data, app.temp, m2, m3, m3, hi, m2, g),
            ],
        )
        yield rt.fork_join(
            ctx,
            self,
            [_MergeTask(app, app.temp, app.data, lo, m2, m2, hi, lo, g)],
        )


class _MergeTask(Task):
    """Merge src[lo1:hi1) and src[lo2:hi2) into dst starting at dlo."""

    ARG_WORDS = 5

    def __init__(self, app, src, dst, lo1, hi1, lo2, hi2, dlo, grain):
        super().__init__()
        self.app = app
        self.src = src
        self.dst = dst
        self.lo1 = lo1
        self.hi1 = hi1
        self.lo2 = lo2
        self.hi2 = hi2
        self.dlo = dlo
        self.grain = grain

    def execute(self, rt, ctx):
        app = self.app
        n1 = self.hi1 - self.lo1
        n2 = self.hi2 - self.lo2
        if n1 + n2 <= 2 * self.grain:
            yield app.serial_merge(
                ctx, self.src, self.dst, self.lo1, self.hi1, self.lo2, self.hi2, self.dlo
            )
            return
        # Split the larger run at its midpoint; binary-search the other.
        if n1 >= n2:
            mid1 = (self.lo1 + self.hi1) // 2
            pivot = yield self.src.load(ctx, mid1)
            mid2 = yield app.lower_bound(ctx, self.src, self.lo2, self.hi2, pivot)
        else:
            mid2 = (self.lo2 + self.hi2) // 2
            pivot = yield self.src.load(ctx, mid2)
            mid1 = yield app.lower_bound(ctx, self.src, self.lo1, self.hi1, pivot)
        d_split = self.dlo + (mid1 - self.lo1) + (mid2 - self.lo2)
        children = [
            _MergeTask(app, self.src, self.dst, self.lo1, mid1, self.lo2, mid2,
                       self.dlo, self.grain),
            _MergeTask(app, self.src, self.dst, mid1, self.hi1, mid2, self.hi2,
                       d_split, self.grain),
        ]
        yield rt.fork_join(ctx, self, children)


@register_app("cilk5-cs")
class CilkSort(AppInstance):
    name = "cilk5-cs"
    pm = "ss"

    def __init__(self, n: int = 512, grain: int = 64, seed: int = 7):
        super().__init__()
        self.n = n
        self.grain = max(2, grain)
        self.seed = seed
        self.data: SimArray = None
        self.temp: SimArray = None
        self._input = None

    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        self.machine = machine
        rng = XorShift64(self.seed)
        self._input = [rng.randint(0, 1 << 20) for _ in range(self.n)]
        self.data = SimArray(machine, self.n, "cs_data")
        self.temp = SimArray(machine, self.n, "cs_temp")
        self.data.host_init(self._input)
        self.temp.host_fill(0)

    def make_root(self, serial: bool = False):
        grain = self.n if serial else self.grain
        return _SortTask(self, 0, self.n, grain)

    def check(self) -> None:
        result = self.data.host_read()
        expected = sorted(self._input)
        assert result == expected, "cilk5-cs: output is not the sorted input"

    # ------------------------------------------------------------------
    # Kernels (generator methods)
    # ------------------------------------------------------------------
    def serial_sort(self, ctx, arr: SimArray, lo: int, hi: int):
        """In-place insertion sort on the simulated array."""
        for i in range(lo + 1, hi):
            key = yield arr.load(ctx, i)
            j = i - 1
            while j >= lo:
                current = yield arr.load(ctx, j)
                yield ctx.work(1)
                if current <= key:
                    break
                yield arr.store(ctx, j + 1, current)
                j -= 1
            yield arr.store(ctx, j + 1, key)

    def serial_merge(self, ctx, src, dst, lo1, hi1, lo2, hi2, dlo):
        """Two-pointer merge of two sorted runs."""
        i, j, k = lo1, lo2, dlo
        a = b = None
        while i < hi1 and j < hi2:
            if a is None:
                a = yield src.load(ctx, i)
            if b is None:
                b = yield src.load(ctx, j)
            yield ctx.work(1)
            if a <= b:
                yield dst.store(ctx, k, a)
                i += 1
                a = None
            else:
                yield dst.store(ctx, k, b)
                j += 1
                b = None
            k += 1
        while i < hi1:
            value = yield src.load(ctx, i)
            yield dst.store(ctx, k, value)
            i += 1
            k += 1
        while j < hi2:
            value = yield src.load(ctx, j)
            yield dst.store(ctx, k, value)
            j += 1
            k += 1

    def lower_bound(self, ctx, arr: SimArray, lo: int, hi: int, key: int):
        """First index in sorted arr[lo:hi) whose value is >= key."""
        while lo < hi:
            mid = (lo + hi) // 2
            value = yield arr.load(ctx, mid)
            yield ctx.work(2)
            if value < key:
                lo = mid + 1
            else:
                hi = mid
        return lo
