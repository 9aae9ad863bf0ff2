"""Activity-based energy model.

The paper reports that the best HCC+DTS configuration reaches "similar
energy efficiency" to full hardware coherence; its energy argument is
driven by activity counts (cache accesses, network traffic, DRAM accesses)
rather than circuit-level simulation.  This model does the same: each event
class carries a fixed energy (rough 28nm-class numbers in picojoules), and
a system's energy is the weighted sum of its counters.

The absolute joules are not meaningful; ratios between configurations are
the reproduced quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.machine import Machine

#: Event energies in picojoules (order-of-magnitude literature values).
DEFAULT_ENERGY_PJ = {
    "tiny_core_cycle": 2.0,
    "big_core_cycle": 25.0,
    "idle_cycle_factor": 0.15,  # clock-gated fraction of active energy
    "l1_access": 5.0,
    "l2_access": 25.0,
    "dram_access": 2000.0,
    "noc_byte_hop": 0.8,
    "uli_message": 4.0,
}


@dataclass
class EnergyReport:
    total_pj: float
    breakdown_pj: Dict[str, float] = field(default_factory=dict)

    def ratio_to(self, other: "EnergyReport") -> float:
        return self.total_pj / max(1e-12, other.total_pj)


def estimate_energy(machine: Machine, coefficients: Dict[str, float] = None) -> EnergyReport:
    """Estimate the energy of a completed simulation on ``machine``."""
    c = dict(DEFAULT_ENERGY_PJ)
    if coefficients:
        c.update(coefficients)
    tiny_busy = big_busy = tiny_idle = big_idle = 0
    for core in machine.cores:
        busy = core.busy_cycles()
        idle = core.stats.get("cycles_idle")
        if core.is_big:
            big_busy += busy
            big_idle += idle
        else:
            tiny_busy += busy
            tiny_idle += idle
    l1_accesses = 0
    for l1 in machine.l1s:
        l1_accesses += (
            l1.stats.get("loads") + l1.stats.get("stores") + l1.stats.get("amos")
        )
    l2_accesses = machine.l2.stats.get("accesses") + machine.l2.stats.get("writebacks")
    dram_accesses = sum(mc.stats.get("accesses") for mc in machine.l2.dram)
    breakdown: Dict[str, float] = {}

    # Core energy: active cycles at full rate, idle cycles clock-gated.
    breakdown["cores"] = (
        tiny_busy * c["tiny_core_cycle"]
        + big_busy * c["big_core_cycle"]
        + tiny_idle * c["tiny_core_cycle"] * c["idle_cycle_factor"]
        + big_idle * c["big_core_cycle"] * c["idle_cycle_factor"]
    )
    # L1 energy: every load/store/AMO touches the array once.
    breakdown["l1"] = l1_accesses * c["l1_access"]
    breakdown["l2"] = l2_accesses * c["l2_access"]
    breakdown["dram"] = dram_accesses * c["dram_access"]
    # NoC energy: proportional to byte-hops.
    breakdown["noc"] = machine.traffic.total_byte_hops() * c["noc_byte_hop"]
    breakdown["uli"] = (
        machine.stats.child("uli_network").get("messages") * c["uli_message"]
    )

    return EnergyReport(total_pj=sum(breakdown.values()), breakdown_pj=breakdown)
