"""2D mesh on-chip network with XY routing (latency + traffic model).

Matches the paper's Garnet configuration at the structural level: an
``rows x cols`` mesh of routers (one per core tile), 16B flits, 1-cycle
channel and 1-cycle router latency, XY dimension-ordered routing.  L2 cache
banks and DRAM controllers sit one virtual row below the core mesh, one per
column (Figure 1 of the paper).

The model is analytic: a message's latency is per-hop router+channel delay
plus body-flit serialization.  Link-level contention is not simulated
flit-by-flit (endpoint contention is modeled at L2 banks and DRAM
controllers instead); injected bytes and byte-hops are accounted exactly.

Routes are fixed, so hop counts are tabulated once: ``core_hops`` (core x
core, built here) and :meth:`Mesh.bank_hops` (core x bank, built by the
L2 for its bank count).  Hot callers — the L2 and the ULI network — index
those tables, and :meth:`Mesh.latency_table` applied to them, instead of
recomputing positions, hops and latency per message; every entry comes
from :meth:`Mesh.wire_latency`, the one latency formula.  Fault-injected
NoC jitter is not part of a table: callers draw it per message, at the
same points :meth:`Mesh.latency` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

Position = Tuple[int, int]


@dataclass(frozen=True)
class MeshConfig:
    rows: int
    cols: int
    flit_bytes: int = 16
    router_latency: int = 1
    channel_latency: int = 1


class Mesh:
    """Mesh geometry, hop counts, and message latency."""

    #: Fault-injection hook (repro.faults); the machine replaces this on
    #: its instance when a plan is active, so the default path pays one
    #: ``is not None`` branch per message.
    fault_injector = None

    def __init__(self, config: MeshConfig):
        self.config = config
        self.rows = config.rows
        self.cols = config.cols
        positions = [self.core_position(c) for c in range(self.rows * self.cols)]
        #: Hop count of the XY route between two cores, ``[src][dst]``.
        self.core_hops: List[List[int]] = [
            [self.hops(a, b) for b in positions] for a in positions
        ]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def core_position(self, core_id: int) -> Position:
        """Tile coordinates of a core (row-major placement)."""
        n = self.rows * self.cols
        if not 0 <= core_id < n:
            raise ValueError(f"core {core_id} outside {self.rows}x{self.cols} mesh")
        return (core_id // self.cols, core_id % self.cols)

    def bank_position(self, bank_id: int, n_banks: int) -> Position:
        """Tile coordinates of an L2 bank / memory controller.

        Banks live in a virtual row below the core mesh and are spread
        across columns (one bank per column in the paper's 8-bank, 8-column
        configuration).
        """
        if n_banks <= 0:
            raise ValueError("need at least one bank")
        if n_banks > self.cols:
            raise ValueError(
                f"{n_banks} banks cannot occupy distinct columns of a "
                f"{self.rows}x{self.cols} mesh"
            )
        if not 0 <= bank_id < n_banks:
            raise ValueError(f"bank {bank_id} outside 0..{n_banks - 1}")
        # Evenly spread banks across columns, distributing any remainder
        # (floor of the ideal fractional position keeps positions distinct
        # and strictly increasing whenever n_banks <= cols).
        col = bank_id * self.cols // n_banks
        return (self.rows, col)

    def bank_hops(self, n_banks: int) -> List[List[int]]:
        """Hop count of the XY route between each core and each of
        ``n_banks`` L2 banks, ``[core][bank]`` (routes are symmetric)."""
        banks = [self.bank_position(b, n_banks) for b in range(n_banks)]
        return [
            [self.hops(self.core_position(c), bank) for bank in banks]
            for c in range(self.rows * self.cols)
        ]

    # ------------------------------------------------------------------
    # Latency / distance
    # ------------------------------------------------------------------
    def hops(self, a: Position, b: Position) -> int:
        """Number of router-to-router hops on the XY route from a to b."""
        if a == b:
            return 0
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def wire_latency(self, hop_count: int, n_bytes: int) -> int:
        """Fault-free latency in cycles of an ``n_bytes`` message over
        ``hop_count`` hops: the mesh's one latency formula."""
        cfg = self.config
        per_hop = cfg.router_latency + cfg.channel_latency
        flits = max(1, math.ceil(n_bytes / cfg.flit_bytes))
        # Head flit pays per-hop latency; body flits pipeline behind it.
        return hop_count * per_hop + (flits - 1)

    def latency_table(self, hop_table: List[List[int]], n_bytes: int) -> List[List[int]]:
        """:meth:`wire_latency` of ``n_bytes`` applied to every entry of a
        hop table (``core_hops`` or a :meth:`bank_hops` table)."""
        return [[self.wire_latency(h, n_bytes) for h in row] for row in hop_table]

    def latency(self, a: Position, b: Position, n_bytes: int) -> int:
        """End-to-end latency in cycles of an ``n_bytes`` message a -> b."""
        latency = self.wire_latency(self.hops(a, b), n_bytes)
        if self.fault_injector is not None:
            latency += self.fault_injector.noc_extra()
        return latency

    @property
    def n_links(self) -> int:
        """Number of unidirectional inter-router links (for utilization)."""
        horizontal = 2 * self.rows * (self.cols - 1)
        vertical = 2 * (self.rows - 1) * self.cols
        # plus the links down to the bank row
        bank_links = 2 * self.cols
        return horizontal + vertical + bank_links
