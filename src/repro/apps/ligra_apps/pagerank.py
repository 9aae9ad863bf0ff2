"""ligra-pr: PageRank (extension — not part of the paper's 13 kernels).

Pull-based, round-synchronous PageRank over the symmetric rMat graph:
``rank'[v] = (1-d)/n + d * sum(rank[u]/deg(u) for u in nbr(v))`` with
double-buffered rank arrays, so the computation is fully deterministic and
checkable bit-for-bit against a Python reference.  Demonstrates that the
runtime + HCC machinery supports workloads beyond the paper's original
set; it is exercised by the test suite on all coherence configurations.
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp

DAMPING = 0.85


@register_app("ligra-pr")
class LigraPageRank(LigraApp):
    name = "ligra-pr"

    def __init__(self, scale=6, avg_degree=8, grain=8, seed=42, iterations=5):
        super().__init__(scale, avg_degree, grain, seed)
        self.iterations = iterations

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        initial = [1.0 / n] * n
        self.rank = [self.array("rank0", initial), self.array("rank1", [0.0] * n)]
        self.degree = self.array("degree", [self.graph.degree(v) for v in range(n)])

    def run(self, rt, ctx, grain: int):
        n = self.graph.n
        base = (1.0 - DAMPING) / n
        for iteration in range(self.iterations):
            cur = self.rank[iteration % 2]
            nxt = self.rank[(iteration + 1) % 2]

            def body(rt, ctx, lo, hi, cur=cur, nxt=nxt):
                for v in range(lo, hi):
                    acc = 0.0
                    start, end = yield self.g.edge_range(ctx, v)
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        rank_u = yield cur.load(ctx, u)
                        deg_u = yield self.degree.load(ctx, u)
                        yield ctx.work(2)
                        acc += rank_u / deg_u
                    yield ctx.work(2)
                    yield nxt.store(ctx, v, base + DAMPING * acc)

            yield self.pfor(rt, ctx, body, grain)

    def check(self) -> None:
        expected = self._reference()
        got = self.rank[self.iterations % 2].host_read()
        for v in range(self.graph.n):
            assert abs(got[v] - expected[v]) < 1e-12, (
                f"ligra-pr: rank[{v}] = {got[v]}, expected {expected[v]}"
            )
        # Ranks form (approximately) a probability distribution.
        assert abs(sum(got) - 1.0) < 0.2

    def _reference(self):
        n = self.graph.n
        ranks = [1.0 / n] * n
        base = (1.0 - DAMPING) / n
        for _ in range(self.iterations):
            nxt = [0.0] * n
            for v in range(n):
                acc = 0.0
                for u in self.graph.neighbors(v):
                    acc += ranks[u] / self.graph.degree(u)
                nxt[v] = base + DAMPING * acc
            ranks = nxt
        return ranks
