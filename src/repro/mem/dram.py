"""DRAM controller model: fixed access latency + bandwidth-limited queue.

The paper's systems have one memory controller per mesh column with 16GB/s
aggregate bandwidth.  We model each controller as a FIFO server: a request
occupies the controller for ``bytes / bytes_per_cycle`` cycles (bandwidth)
and the data returns after an additional fixed DRAM access latency.
Back-to-back requests queue behind each other, which is how memory-bandwidth
saturation shows up in the simulated systems.
"""

from __future__ import annotations

import math

from repro.engine.stats import StatGroup
from repro.trace.tracer import NULL_TRACER


class DramController:
    """A single bandwidth-limited memory channel."""

    #: Event tracer; replaced per-machine when tracing is enabled.
    tracer = NULL_TRACER

    #: Fault-injection hook (repro.faults); the machine sets it on its
    #: instances when a plan with DRAM throttle windows is active.
    fault_injector = None

    def __init__(
        self,
        controller_id: int,
        stats: StatGroup,
        access_latency: int = 60,
        bytes_per_cycle: float = 2.0,
    ):
        self.controller_id = controller_id
        self.access_latency = access_latency
        self.bytes_per_cycle = bytes_per_cycle
        self.busy_until = 0
        self.stats = stats.child(f"dram{controller_id}")
        self._cnt = self.stats._counters

    # Checkpoint support (repro.engine.checkpoint): the queue clock is the
    # only per-run mutable field outside the stats tree.
    def export_state(self) -> dict:
        return {"busy_until": self.busy_until}

    def load_state(self, state: dict) -> None:
        self.busy_until = state["busy_until"]

    def access(self, now: int, n_bytes: int) -> int:
        """Issue an access at cycle ``now``; return its total latency."""
        service = max(1, math.ceil(n_bytes / self.bytes_per_cycle))
        if self.fault_injector is not None:
            service = self.fault_injector.dram_service(now, service)
        start = max(now, self.busy_until)
        self.busy_until = start + service
        completion = start + service + self.access_latency
        queue_delay = start - now
        cnt = self._cnt
        cnt["accesses"] += 1
        cnt["bytes"] += n_bytes
        cnt["queue_cycles"] += queue_delay
        cnt["busy_cycles"] += service
        if self.tracer.enabled:
            self.tracer.dram_sample(self.controller_id, now, queue_delay)
        return completion - now
