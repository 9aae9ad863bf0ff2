"""Fused-vs-unfused differential for the event-fusion fast path.

Runs a fixed mix of app×config entries twice — once with the event-fusion
fast path enabled and once with it disabled — and fails unless every run
agrees on the final cycle count, ``StatGroup.flatten()`` and the NoC
traffic bytes.  The report gives each entry's event count, fused share,
fused and unfused wall time and speedup.  It is a determinism check with
a stopwatch attached, not a benchmark: ``perfbench/`` is the repository's
wall-clock benchmark.

The default mix is deliberately weighted toward dispatch-bound runs
(the ``kernel-*`` throughput microkernels and serial-elision baselines):
those measure the engine itself, which is what the fast path accelerates.
Task-parallel runs on many-core configs appear too, but their event
streams interleave across cores, so little fuses and their speedup is
intentionally modest — the report records the ratio per entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class PerfEntry:
    """One benchmarked simulation."""

    app: str
    kind: str
    scale: str
    serial: bool = False


#: The full differential mix (``repro perf``; ``repro profile`` samples it).
DEFAULT_MIX: Tuple[PerfEntry, ...] = (
    PerfEntry("kernel-spin", "serial-io", "large", serial=True),
    PerfEntry("kernel-spin", "serial-io", "quick", serial=True),
    PerfEntry("kernel-stream", "serial-io", "quick", serial=True),
    PerfEntry("cilk5-cs", "serial-io", "quick", serial=True),
    PerfEntry("ligra-bfs", "serial-io", "quick", serial=True),
    PerfEntry("cilk5-cs", "bt-hcc-dts-dnv", "tiny"),
)

#: Small mix for CI smoke runs (seconds, not minutes).
SMOKE_MIX: Tuple[PerfEntry, ...] = (
    PerfEntry("kernel-spin", "serial-io", "tiny", serial=True),
    PerfEntry("kernel-stream", "serial-io", "tiny", serial=True),
    PerfEntry("cilk5-cs", "bt-hcc-dts-dnv", "tiny"),
)


def _run_once(entry: PerfEntry, fusion: bool) -> Dict:
    """Build a fresh machine, run the entry, return its outputs + wall time."""
    from repro.apps import make_app
    from repro.config import make_config
    from repro.core import WorkStealingRuntime
    from repro.harness.params import app_params
    from repro.machine import Machine

    app = make_app(entry.app, **app_params(entry.app, entry.scale))
    machine = Machine(make_config(entry.kind, entry.scale))
    app.setup(machine)
    machine.sim.fusion_enabled = fusion
    kwargs = {"serial_elision": True} if entry.serial else {}
    runtime = WorkStealingRuntime(machine, **kwargs)
    start = time.perf_counter()
    cycles = runtime.run(app.make_root(serial=False))
    wall = time.perf_counter() - start
    app.check()
    return {
        "wall": wall,
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "traffic": machine.traffic.snapshot(),
        "fusion": machine.sim.fusion_stats(),
    }


def run_entry(entry: PerfEntry, repeats: int = 1) -> Dict:
    """Run one entry fused and unfused; require identical outputs.

    Every run must agree on the final cycle count, the flattened stats
    tree and the traffic bytes (the last two are separate trees: neither
    holds the other).  Wall time is the best of ``repeats`` runs per mode.
    """
    fused = [_run_once(entry, fusion=True) for _ in range(repeats)]
    unfused = [_run_once(entry, fusion=False) for _ in range(repeats)]

    def outputs(run: Dict) -> Tuple:
        return run["cycles"], run["flatten"], run["traffic"]

    reference = outputs(fused[0])
    if any(outputs(r) != reference for r in fused + unfused):
        raise AssertionError(
            f"{entry.app}/{entry.kind}/{entry.scale}: fused and unfused "
            "runs disagree on cycles, StatGroup.flatten() or traffic — "
            "fusion changed results"
        )
    wall_fused = min(r["wall"] for r in fused)
    wall_unfused = min(r["wall"] for r in unfused)
    fusion = fused[0]["fusion"]
    return {
        "app": entry.app,
        "kind": entry.kind,
        "scale": entry.scale,
        "serial": entry.serial,
        "cycles": fused[0]["cycles"],
        "events": fusion["events_total"],
        "events_fused": fusion["events_fused"],
        "fused_ratio": fusion["fused_ratio"],
        "wall_fused_s": wall_fused,
        "wall_unfused_s": wall_unfused,
        "speedup": wall_unfused / wall_fused if wall_fused > 0 else 0.0,
        "stats_identical": True,
    }


def run_mix(
    mix: Optional[List[PerfEntry]] = None, repeats: int = 1
) -> Dict:
    """Run the whole mix; return per-entry rows and the mix aggregate."""
    entries = [run_entry(e, repeats=repeats) for e in (mix or list(DEFAULT_MIX))]
    wall_fused = sum(e["wall_fused_s"] for e in entries)
    wall_unfused = sum(e["wall_unfused_s"] for e in entries)
    events = sum(e["events"] for e in entries)
    events_fused = sum(e["events_fused"] for e in entries)
    return {
        "entries": entries,
        "aggregate": {
            "wall_fused_s": wall_fused,
            "wall_unfused_s": wall_unfused,
            "speedup": wall_unfused / wall_fused if wall_fused > 0 else 0.0,
            "events": events,
            "events_fused": events_fused,
            "fused_ratio": events_fused / events if events else 0.0,
        },
    }


def format_report(payload: Dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"{'app':<14} {'config':<16} {'scale':<6} {'events':>9} "
        f"{'fused%':>7} {'fused s':>8} {'unfused s':>9} {'speedup':>8}"
    ]
    rows = [
        (f"{e['app']:<14} {e['kind']:<16} {e['scale']:<6}", e)
        for e in payload["entries"]
    ]
    rows.append((f"{'-- mix --':<38}", payload["aggregate"]))
    for label, r in rows:
        lines.append(
            f"{label} {r['events']:>9} {100 * r['fused_ratio']:>6.1f}% "
            f"{r['wall_fused_s']:>8.3f} {r['wall_unfused_s']:>9.3f} "
            f"{r['speedup']:>7.2f}x"
        )
    return "\n".join(lines)
