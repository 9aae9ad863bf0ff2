"""ligra-bfsbv: breadth-first search with bit-vector frontiers.

The bit-vector optimized BFS variant: visited set and both frontiers are
packed 64 vertices per word.  Chunks skip whole zero words of the frontier
(fewer loads than ligra-bfs) and claim vertices with ``amo_or`` on the
visited words, so several discoveries share one atomic word update.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp

BITS = 64


@register_app("ligra-bfsbv")
class LigraBfsBitvector(LigraApp):
    name = "ligra-bfsbv"

    def setup_arrays(self, machine) -> None:
        n_words = (self.graph.n + BITS - 1) // BITS
        self.n_words = n_words
        self.visited = self.array("visited", [0] * n_words)
        self.front = [
            self.array("front0", [0] * n_words),
            self.array("front1", [0] * n_words),
        ]
        self.level = self.array("level", [-1] * self.graph.n)
        self.count_addr = self.counter("frontier_size")
        self.src = self.source_vertex()

    def run(self, rt, ctx, grain: int):
        src = self.src
        yield self.visited.amo(ctx, "or", src // BITS, 1 << (src % BITS))
        yield self.front[0].store(ctx, src // BITS, 1 << (src % BITS))
        yield self.level.store(ctx, src, 0)
        round_index = 0
        while True:
            yield ctx.amo("xchg", self.count_addr, 0)
            cur = self.front[round_index % 2]
            nxt = self.front[(round_index + 1) % 2]
            depth = round_index + 1

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt, depth=depth):
                # A frontier word belongs to the chunk containing its first
                # vertex, so each word is read-and-cleared by exactly one
                # leaf task per round.
                discovered = 0
                word_lo = (lo + BITS - 1) // BITS
                word_hi = (hi + BITS - 1) // BITS
                for w in range(word_lo, min(word_hi, self.n_words)):
                    bits = yield cur.load(ctx, w)
                    yield ctx.work(1)
                    if not bits:
                        continue  # the bit-vector win: one load skips 64 vertices
                    yield cur.store(ctx, w, 0)
                    while bits:
                        low = bits & (-bits)
                        bits ^= low
                        v = w * BITS + low.bit_length() - 1
                        yield ctx.work(2)
                        start, end = yield self.g.edge_range(ctx, v)
                        for e in range(start, end):
                            u = yield self.g.edge_target(ctx, e)
                            mask = 1 << (u % BITS)
                            seen = yield self.visited.load(ctx, u // BITS)
                            yield ctx.work(1)
                            if seen & mask:
                                continue
                            old = yield self.visited.amo(ctx, "or", u // BITS, mask)
                            if not old & mask:
                                yield self.nxt_set(ctx, nxt, u)
                                yield self.level.store(ctx, u, depth)
                                discovered += 1
                if discovered:
                    yield ctx.amo_add(self.count_addr, discovered)

            yield self.pfor(rt, ctx, body, grain)
            size = yield ctx.load(self.count_addr)
            if size == 0:
                break
            round_index += 1

    def nxt_set(self, ctx, nxt, v: int):
        yield nxt.amo(ctx, "or", v // BITS, 1 << (v % BITS))

    def check(self) -> None:
        from collections import deque

        dist = [-1] * self.graph.n
        dist[self.src] = 0
        queue = deque([self.src])
        while queue:
            v = queue.popleft()
            for u in self.graph.neighbors(v):
                if dist[u] == -1:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        got = self.level.host_read()
        assert got == dist, "ligra-bfsbv: level array mismatch"
