"""ligra-bfs: round-synchronous breadth-first search.

Dense frontier representation (one word per vertex, double-buffered by
round parity).  Each frontier vertex claims undiscovered neighbors with a
compare-and-swap on the parent array — Ligra's non-deterministic
fine-grained synchronization — and leaves accumulate the next frontier size
with one ``amo_add`` per chunk.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp


@register_app("ligra-bfs")
class LigraBfs(LigraApp):
    name = "ligra-bfs"

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        self.parent = self.array("parent", [-1] * n)
        self.front = [self.array("front0", [0] * n), self.array("front1", [0] * n)]
        self.count_addr = self.counter("frontier_size")
        self.src = self.source_vertex()

    def run(self, rt, ctx, grain: int):
        src = self.src
        yield self.parent.store(ctx, src, src)
        yield self.front[0].store(ctx, src, 1)
        round_index = 0
        while True:
            yield ctx.amo("xchg", self.count_addr, 0)
            cur = self.front[round_index % 2]
            nxt = self.front[(round_index + 1) % 2]

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt):
                claimed = 0
                for v in range(lo, hi):
                    active = yield cur.load(ctx, v)
                    yield ctx.work(1)
                    if not active:
                        continue
                    yield cur.store(ctx, v, 0)
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        p = yield self.parent.load(ctx, u)
                        yield ctx.work(1)
                        if p != -1:
                            continue
                        old = yield self.parent.cas(ctx, u, -1, v)
                        if old == -1:
                            yield nxt.store(ctx, u, 1)
                            claimed += 1
                if claimed:
                    yield ctx.amo_add(self.count_addr, claimed)

            yield self.pfor(rt, ctx, body, grain)
            size = yield ctx.load(self.count_addr)
            if size == 0:
                break
            round_index += 1

    def check(self) -> None:
        dist = self._reference_distances()
        parent = self.parent.host_read()
        levels = self._levels_from_parents(parent)
        for v in range(self.graph.n):
            if dist[v] is None:
                assert parent[v] == -1, f"ligra-bfs: unreachable {v} got a parent"
            else:
                assert levels[v] == dist[v], (
                    f"ligra-bfs: vertex {v} at level {levels[v]}, expected {dist[v]}"
                )

    # ------------------------------------------------------------------
    def _reference_distances(self):
        from collections import deque

        dist = [None] * self.graph.n
        dist[self.src] = 0
        queue = deque([self.src])
        while queue:
            v = queue.popleft()
            for u in self.graph.neighbors(v):
                if dist[u] is None:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def _levels_from_parents(self, parent):
        levels = [None] * self.graph.n
        levels[self.src] = 0
        for v in range(self.graph.n):
            if parent[v] == -1 or v == self.src:
                continue
            # follow the parent chain (guaranteed acyclic for a BFS tree)
            chain = []
            u = v
            while levels[u] is None:
                chain.append(u)
                assert parent[u] != -1, f"ligra-bfs: broken parent chain at {u}"
                assert u in self.graph.neighbors(parent[u]), (
                    f"ligra-bfs: {parent[u]} is not a neighbor of {u}"
                )
                u = parent[u]
            base = levels[u]
            for node in reversed(chain):
                base += 1
                levels[node] = base
        return levels
