"""Graph substrate for the Ligra-style kernels.

* :func:`rmat` — a from-scratch deterministic R-MAT edge generator (the
  paper's inputs are rMat graphs), recursively placing each edge into a
  quadrant with the classic (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) split.
* :class:`HostGraph` — host-side CSR with symmetrization, deduplication,
  sorted adjacency lists, and deterministic edge weights.
* :class:`SimGraph` — the CSR arrays in simulated memory with generator
  accessors used by the kernels.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.apps.common import SimArray
from repro.cores import ops
from repro.engine.rng import XorShift64


def rmat(
    scale: int,
    avg_degree: int,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> List[Tuple[int, int]]:
    """Generate ~``n * avg_degree`` R-MAT edges over ``n = 2**scale`` vertices.

    Each recursion level takes one ``XorShift64(seed)`` draw ``u`` and picks
    a quadrant by ``r < a``, ``r < a + b``, ``r < a + b + c``, where
    ``r = (u >> 11) / 2**53`` is ``XorShift64.random()``.  Since
    ``k / 2**53 < p`` exactly when ``k < ceil(p * 2**53)`` for an integer
    ``k``, each test compares ``u`` itself against
    ``ceil(p * 2**53) << 11``, with the xorshift64* step inlined.
    """
    n = 1 << scale
    n_edges = n * avg_degree
    t_a = math.ceil(a * 2.0**53) << 11
    t_ab = math.ceil((a + b) * 2.0**53) << 11
    t_abc = math.ceil((a + b + c) * 2.0**53) << 11
    mask = (1 << 64) - 1
    x = XorShift64(seed)._state
    edges = []
    for _ in range(n_edges):
        u = v = 0
        half = n >> 1
        while half:
            x ^= x >> 12
            x ^= (x << 25) & mask
            x ^= x >> 27
            r = (x * 0x2545F4914F6CDD1D) & mask
            if r < t_a:
                pass
            elif r < t_ab:
                v += half
            elif r < t_abc:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        edges.append((u, v))
    return edges


class HostGraph:
    """Host-side CSR graph built from an edge list."""

    def __init__(
        self,
        n: int,
        edges: List[Tuple[int, int]],
        symmetric: bool = True,
        weighted: bool = False,
        weight_seed: int = 5,
    ):
        edge_set = set()
        for u, v in edges:
            if u == v:
                continue
            edge_set.add((u, v))
            if symmetric:
                edge_set.add((v, u))
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for u, v in sorted(edge_set):
            adjacency[u].append(v)
        self.n = n
        self.adj = adjacency
        self.m = sum(len(nbrs) for nbrs in adjacency)
        self.offsets = [0] * (n + 1)
        for v in range(n):
            self.offsets[v + 1] = self.offsets[v] + len(adjacency[v])
        self.edge_targets = [v for nbrs in adjacency for v in nbrs]
        self.weights: Optional[List[int]] = None
        if weighted:
            rng = XorShift64(weight_seed)
            self.weights = [1 + rng.randint(0, 7) for _ in range(self.m)]

    def degree(self, v: int) -> int:
        return self.offsets[v + 1] - self.offsets[v]

    def neighbors(self, v: int) -> List[int]:
        return self.adj[v]

    def edge_weight(self, v: int, edge_index: int) -> int:
        """Weight of the ``edge_index``-th outgoing edge of ``v``."""
        if self.weights is None:
            return 1
        return self.weights[self.offsets[v] + edge_index]


def rmat_graph(
    scale: int,
    avg_degree: int = 8,
    seed: int = 42,
    symmetric: bool = True,
    weighted: bool = False,
) -> HostGraph:
    """Convenience: generate an rMat edge list and build the CSR graph."""
    n = 1 << scale
    return HostGraph(n, rmat(scale, avg_degree, seed), symmetric, weighted)


class SimGraph:
    """CSR graph resident in simulated memory."""

    def __init__(self, machine, graph: HostGraph, name: str = "graph"):
        self.host = graph
        self.n = graph.n
        self.m = graph.m
        self.offsets = SimArray(machine, graph.n + 1, f"{name}_offsets")
        self.offsets.host_init(graph.offsets)
        self.edges = SimArray(machine, max(1, graph.m), f"{name}_edges")
        if graph.m:
            self.edges.host_init(graph.edge_targets)
        self.weights: Optional[SimArray] = None
        if graph.weights is not None:
            self.weights = SimArray(machine, max(1, graph.m), f"{name}_weights")
            self.weights.host_init(graph.weights)

    # ------------------------------------------------------------------
    # Accessors: edge_target returns its one op and the others are
    # generators; callers ``yield`` either.
    # ------------------------------------------------------------------
    def edge_range(self, ctx, v: int):
        """Load [start, end) of v's adjacency (two offset loads)."""
        start = yield self.offsets.load(ctx, v)
        end = yield self.offsets.load(ctx, v + 1)
        return start, end

    def edge_target(self, ctx, edge_index: int) -> ops.Load:
        return self.edges.load(ctx, edge_index)

    def edge_weight(self, ctx, edge_index: int):
        if self.weights is None:
            return 1
        weight = yield self.weights.load(ctx, edge_index)
        return weight
