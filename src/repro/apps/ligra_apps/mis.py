"""ligra-mis: maximal independent set (Luby's algorithm).

Each vertex has a fixed random priority.  Per round, an undecided vertex
joins the set when every undecided neighbor has lower priority; vertices
adjacent to a set member drop out.  With fixed priorities this converges to
the sequential greedy MIS in decreasing-priority order, which the checker
verifies exactly (plus the independence/maximality invariants).
"""

from __future__ import annotations

from repro.apps.common import register_app
from repro.apps.ligra.base import LigraApp
from repro.engine.rng import XorShift64

UNDECIDED, IN_SET, OUT = 0, 1, 2


@register_app("ligra-mis")
class LigraMis(LigraApp):
    name = "ligra-mis"

    def setup_arrays(self, machine) -> None:
        n = self.graph.n
        rng = XorShift64(self.seed ^ 0x5151)
        # A random permutation of 1..n gives unique priorities.
        self._priorities = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = rng.randint(0, i)
            self._priorities[i], self._priorities[j] = (
                self._priorities[j],
                self._priorities[i],
            )
        self.priority = self.array("priority", self._priorities)
        self.status = self.array("status", [UNDECIDED] * n)
        self.decided_addr = self.counter("decided")

    def run(self, rt, ctx, grain: int):
        n = self.graph.n
        total_decided = 0
        while total_decided < n:
            yield ctx.amo("xchg", self.decided_addr, 0)

            def body(rt, ctx, lo, hi):
                decided = 0
                for v in range(lo, hi):
                    state = yield self.status.load(ctx, v)
                    yield ctx.work(1)
                    if state != UNDECIDED:
                        continue
                    prio_v = yield self.priority.load(ctx, v)
                    start, end = yield self.g.edge_range(ctx, v)
                    joins = True
                    drops = False
                    for e in range(start, end):
                        u = yield self.g.edge_target(ctx, e)
                        state_u = yield self.status.load(ctx, u)
                        yield ctx.work(1)
                        if state_u == IN_SET:
                            drops = True
                            break
                        if state_u == UNDECIDED:
                            prio_u = yield self.priority.load(ctx, u)
                            yield ctx.work(1)
                            if prio_u > prio_v:
                                joins = False
                    if drops:
                        yield self.status.store(ctx, v, OUT)
                        decided += 1
                    elif joins:
                        yield self.status.store(ctx, v, IN_SET)
                        decided += 1
                if decided:
                    yield ctx.amo_add(self.decided_addr, decided)

            yield self.pfor(rt, ctx, body, grain)
            decided = yield ctx.load(self.decided_addr)
            total_decided += decided

    def check(self) -> None:
        status = self.status.host_read()
        in_set = [v for v in range(self.graph.n) if status[v] == IN_SET]
        # Invariant 1: independence.
        member = set(in_set)
        for v in in_set:
            for u in self.graph.neighbors(v):
                assert u not in member, f"ligra-mis: adjacent members {v},{u}"
        # Invariant 2: maximality (every OUT vertex has an IN neighbor).
        for v in range(self.graph.n):
            assert status[v] != UNDECIDED, f"ligra-mis: {v} undecided at exit"
            if status[v] == OUT:
                assert any(u in member for u in self.graph.neighbors(v)), (
                    f"ligra-mis: {v} is OUT with no IN neighbor"
                )
        # Exact match with the greedy MIS in decreasing priority order.
        expected = self._greedy_reference()
        assert member == expected, "ligra-mis: not the greedy-by-priority MIS"

    def _greedy_reference(self):
        order = sorted(range(self.graph.n), key=lambda v: -self._priorities[v])
        chosen = set()
        blocked = set()
        for v in order:
            if v in blocked:
                continue
            chosen.add(v)
            blocked.update(self.graph.neighbors(v))
        return chosen
