"""User-level interrupt (ULI) network.

The paper models the ULI fabric as a dedicated mesh with two virtual
channels (request and response, to avoid protocol deadlock), 1-cycle router
and channel latency, and single-word messages.  Each core has a one-entry
request buffer and a one-entry response buffer; a core whose buffer is full
NACKs the sender.

This module provides latency and statistics for that fabric.  Delivery
semantics (enable/disable, handler execution, ACK/NACK) live in
``repro.cores.uli_unit``; this class is purely the wires.

Checkpointing note: a message "in flight" on this network exists only as
a pending delivery event in the simulator's calendar (``deliver_uli_request`` /
``deliver_uli_response`` partials scheduled ``send_latency()`` cycles
out).  ``repro.engine.checkpoint`` therefore snapshots in-flight ULI
traffic as event descriptors (``uli_req`` / ``uli_resp`` with their
victim/thief operands and due times) rather than anything held here —
this class is stateless apart from its counters, which are captured with
the rest of the stats tree.
"""

from __future__ import annotations

from repro.engine.stats import StatGroup
from repro.noc.mesh import Mesh
from repro.trace.tracer import NULL_TRACER

#: Each ULI message is a single word: destination + payload.
ULI_MESSAGE_BYTES = 8


class UliNetwork:
    """Dedicated request/response mesh for user-level interrupts."""

    #: Fault-injection hook (repro.faults), set by the machine when a
    #: plan with ULI delays is active.
    fault_injector = None

    def __init__(self, mesh: Mesh, stats: StatGroup, sim=None, tracer=NULL_TRACER):
        self.mesh = mesh
        self.stats = stats.child("uli_network")
        self.sim = sim
        self.tracer = tracer
        self._tracing = tracer.enabled and sim is not None
        self._cnt = self.stats._counters
        # Route tables, [src_core][dst_core]: hop counts and the fault-free
        # latency of one ULI message.
        self._hops = mesh.core_hops
        self._latency = mesh.latency_table(mesh.core_hops, ULI_MESSAGE_BYTES)

    def send_latency(self, src_core: int, dst_core: int) -> int:
        """Latency in cycles for one ULI message between two cores."""
        latency = self._latency[src_core][dst_core]
        # Fault jitter is drawn as a data-mesh message's would be, NoC
        # jitter first, then the ULI-specific delay.
        if self.mesh.fault_injector is not None:
            latency += self.mesh.fault_injector.noc_extra()
        if self.fault_injector is not None:
            latency += self.fault_injector.uli_extra(src_core, dst_core)
        cnt = self._cnt
        cnt["messages"] += 1
        cnt["total_hops"] += self._hops[src_core][dst_core]
        cnt["total_latency"] += latency
        cnt["bytes"] += ULI_MESSAGE_BYTES
        if self._tracing:
            self.tracer.uli_message(src_core, dst_core, self.sim.now, latency)
        return latency

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of link-cycles carrying ULI flits (paper reports <5%)."""
        if elapsed_cycles <= 0:
            return 0.0
        flit_hops = self.stats.get("total_hops")
        capacity = self.mesh.n_links * elapsed_cycles
        if capacity == 0:
            return 0.0
        return flit_hops / capacity

    def average_latency(self) -> float:
        messages = self.stats.get("messages")
        if messages == 0:
            return 0.0
        return self.stats.get("total_latency") / messages
