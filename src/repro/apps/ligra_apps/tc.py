"""ligra-tc: triangle counting by sorted adjacency intersection.

Counts each triangle once under the ordering u < v < w.  Parallelization is
*edge-parallel*: the task range spans edge indices, and each directed edge
(u, v) with v > u contributes one intersection |adj(u) ∩ adj(v) ∩ {>v}|
computed by a two-pointer merge over the sorted adjacency lists.  Edge
granularity distributes a hub vertex's intersections over many tasks, the
same trick real triangle-counting kernels use.  Leaves accumulate local
counts and publish with a single ``amo_add``.

The number of edges per task is the granularity knob swept in Figure 4 of
the paper ("triangles processed by each task").
"""

from __future__ import annotations

from repro.apps.common import SimArray, register_app
from repro.apps.ligra.base import LigraApp
from repro.core.patterns import parallel_for


@register_app("ligra-tc")
class LigraTriangleCounting(LigraApp):
    name = "ligra-tc"

    def setup_arrays(self, machine) -> None:
        self.count_addr = self.counter("triangles")
        # Edge source array: CSR row-expansion, part of the input encoding.
        sources = []
        for u in range(self.graph.n):
            sources.extend([u] * self.graph.degree(u))
        self.edge_src = SimArray(machine, max(1, self.graph.m), "ligra_tc_esrc")
        if self.graph.m:
            self.edge_src.host_init(sources)

    def make_root(self, serial: bool = False):
        grain = max(1, self.graph.m if serial else self.grain)
        from repro.apps.ligra.base import _LigraRootTask

        return _LigraRootTask(self, grain)

    def run(self, rt, ctx, grain: int):
        def body(rt, ctx, lo, hi):
            local = 0
            for e in range(lo, hi):
                u = yield self.edge_src.load(ctx, e)
                v = yield self.g.edge_target(ctx, e)
                yield ctx.work(1)
                if v <= u:
                    continue
                local += yield self._intersect_gt(ctx, u, v)
            if local:
                yield ctx.amo_add(self.count_addr, local)

        yield parallel_for(rt, ctx, 0, self.graph.m, body, grain)

    def _intersect_gt(self, ctx, u: int, v: int):
        """|adj(u) ∩ adj(v) ∩ {w : w > v}| via two-pointer merge."""
        g = self.g
        u_start, u_end = yield g.edge_range(ctx, u)
        v_start, v_end = yield g.edge_range(ctx, v)
        i, j = u_start, v_start
        count = 0
        a = b = None
        while i < u_end and j < v_end:
            if a is None:
                a = yield g.edge_target(ctx, i)
            if b is None:
                b = yield g.edge_target(ctx, j)
            yield ctx.work(1)
            if a == b:
                if a > v:
                    count += 1
                i += 1
                j += 1
                a = b = None
            elif a < b:
                i += 1
                a = None
            else:
                j += 1
                b = None
        return count

    def check(self) -> None:
        got = self.machine.host_read_word(self.count_addr)
        expected = self._reference_count()
        assert got == expected, f"ligra-tc: counted {got}, expected {expected}"

    def _reference_count(self):
        count = 0
        adj_sets = [set(nbrs) for nbrs in self.graph.adj]
        for u in range(self.graph.n):
            for v in self.graph.neighbors(u):
                if v <= u:
                    continue
                for w in self.graph.neighbors(v):
                    if w > v and w in adj_sets[u]:
                        count += 1
        return count
