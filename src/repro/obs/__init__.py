"""Unified observability: live telemetry, self-profiling, and a run ledger.

Everything the repo previously knew about a simulation was retrospective —
Perfetto traces and end-of-run ``StatGroup`` aggregates explain a *finished*
run.  This package adds the two lenses HTS and Myrmics motivate for
heterogeneous runtimes (live utilization and wall-time attribution), plus a
durable record of *past* work:

* :mod:`repro.obs.heartbeat` — a daemon-event heartbeat that periodically
  writes an atomic JSON progress snapshot per run; ``repro top`` tails a
  directory of them as a live top-style view of a running simulation or
  sweep.  Instrumented runs stay cycle-identical to bare runs.
* :mod:`repro.obs.profile` — a statistical sampler (SIGPROF plus a frame
  walk) that attributes host time to simulator layers (core trampoline,
  L1/L2/DRAM, NoC, event loop, runtime, apps) with a standard error per
  share, driven by ``repro profile``; the hot loop carries no probes.
* :mod:`repro.obs.ledger` — every ``run_experiment`` appends one
  machine-readable manifest line (keys, seeds, lineage, wall time, host
  fingerprint, outcome) to a JSONL ledger; ``repro report`` aggregates it.
* :mod:`repro.obs.metrics` — a counter/gauge registry over ``StatGroup``
  with JSONL/CSV/Prometheus-textfile exporters, decoupling the interval
  sampler from the tracer.

All three data producers (heartbeat, sampler, ledger) are **off by
default** and none participates in result identity: an observed run is
byte-identical to a bare one.
"""

from __future__ import annotations

import os
import platform
import sys


def host_fingerprint() -> dict:
    """A stable identity block for the executing host + interpreter.

    Embedded in every ledger line and in perfbench's output so past runs
    and benchmark numbers stay attributable across machines.
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "release": platform.release(),
        "node": platform.node(),
        "cpu_count": os.cpu_count() or 1,
    }


from repro.obs.heartbeat import HeartbeatWriter, heartbeat_dir  # noqa: E402
from repro.obs.ledger import RunLedger, get_ledger, set_ledger  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    MetricsRegistry,
    machine_metrics,
    prometheus_lines,
    samples_to_jsonl,
    write_prometheus_textfile,
)
from repro.obs.profile import LayerSampler  # noqa: E402

__all__ = [
    "host_fingerprint",
    "HeartbeatWriter",
    "heartbeat_dir",
    "RunLedger",
    "get_ledger",
    "set_ledger",
    "MetricsRegistry",
    "machine_metrics",
    "prometheus_lines",
    "samples_to_jsonl",
    "write_prometheus_textfile",
    "LayerSampler",
]
