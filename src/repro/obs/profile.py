"""Engine self-profiling: a statistical sampler of host time per layer.

The engine floor cannot be attacked blind: "the simulator is slow" is
not actionable, "29% of samples land in the core trampoline and 14% in
the L2 directory" is.  This module measures where *host* time goes
during a simulation without touching the hot loop: while armed,
``setitimer(ITIMER_PROF)`` delivers SIGPROF every :data:`INTERVAL_S` of
process CPU time, and the handler walks the interrupted frame stack.
The innermost frame in the ``repro`` package names the layer the sample
counts toward:

=======================  ==================================================
layer                    frames
=======================  ==================================================
``core.trampoline``      ``cores/core.py`` outside the two below: the
                         ``_resume`` loop, ULI handler entry and exit
``core.ops``             ``Core._op_*`` dispatch bodies, plus the op
                         objects and thread context in ``cores/``
``engine.fastforward``   ``Core._resume_ff`` and ``sampling/``
``engine.loop``          ``engine/simulator.py`` and the other engine
                         daemons (watchdog, checkpointing)
``engine.rng``           ``engine/rng.py``
``engine.stats``         ``engine/stats.py``
``mem.l1``               ``mem/l1/`` protocols
``mem.l2``               ``mem/l2.py`` directory and banks
``mem.dram``             ``mem/dram.py``
``mem.other``            the rest of ``mem/``: tag arrays, backing store,
                         AMO helper, traffic counters
``noc.mesh``             ``noc/mesh.py``
``noc.uli``              ``noc/uli.py``
``runtime``              the work-stealing runtime (``core/``)
``apps``                 application code (``apps/``)
``machine.build``        ``machine.py``
``harness``              any other ``repro`` code (driver, configuration)
``host``                 no ``repro`` frame on the stack
=======================  ==================================================

Names match ``perfbench/layers.py`` wherever that layer exists there.
Each layer's share carries the binomial standard error
``sqrt(p(1-p)/n)`` over ``n`` samples.  The kernel rounds the requested
interval up to its timer tick (a 1 ms request gives about 250 Hz on a
4 ms-tick kernel), so the report counts samples and never assumes a rate.

Sampling observes only host time: the simulation never sees the handler,
so sampled runs are bit-identical to bare ones
(``tests/test_determinism.py``).  ``signal.signal`` only works on the
main thread, so the sampler is armed by ``repro profile`` and not by
``run_experiment``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager

import repro

#: Requested SIGPROF interval in seconds of process CPU time.
INTERVAL_S = 0.001

#: Layer of a frame by its path under the package, first match wins.
_PATH_LAYERS = (
    ("cores/", "core.ops"),
    ("sampling/", "engine.fastforward"),
    ("engine/rng.py", "engine.rng"),
    ("engine/stats.py", "engine.stats"),
    ("engine/", "engine.loop"),
    ("mem/l1/", "mem.l1"),
    ("mem/l2.py", "mem.l2"),
    ("mem/dram.py", "mem.dram"),
    ("mem/", "mem.other"),
    ("noc/mesh.py", "noc.mesh"),
    ("noc/uli.py", "noc.uli"),
    ("core/", "runtime"),
    ("apps/", "apps"),
    ("machine.py", "machine.build"),
)
HARNESS = "harness"
HOST = "host"

#: Every layer a sample can count toward.
LAYERS = tuple(
    dict.fromkeys(("core.trampoline", *(layer for _, layer in _PATH_LAYERS), HARNESS, HOST))
)

_ROOT = os.path.dirname(repro.__file__) + os.sep


def frame_layer(frame) -> str:
    """The layer of the innermost ``repro`` frame on ``frame``'s stack."""
    while frame is not None:
        code = frame.f_code
        path = code.co_filename
        if path.startswith(_ROOT):
            rel = path[len(_ROOT):]
            if rel == "cores/core.py":
                name = code.co_name
                if name == "_resume_ff":
                    return "engine.fastforward"
                if not name.startswith("_op_"):
                    return "core.trampoline"
            for prefix, layer in _PATH_LAYERS:
                if rel.startswith(prefix):
                    return layer
            return HARNESS
        frame = frame.f_back
    return HOST


class LayerSampler:
    """Counts SIGPROF samples per layer while :meth:`armed`."""

    def __init__(self):
        self.samples: Counter = Counter()

    def _on_sigprof(self, signum, frame) -> None:
        self.samples[frame_layer(frame)] += 1

    @contextmanager
    def armed(self):
        """Sample for the duration of the block (main thread only).

        The previous SIGPROF handler and ``ITIMER_PROF`` value are
        restored on exit, timer first so no tick can reach the restored
        handler (SIGPROF's default action terminates the process).
        """
        previous = signal.signal(signal.SIGPROF, self._on_sigprof)
        try:
            timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            try:
                yield self
            finally:
                signal.setitimer(signal.ITIMER_PROF, *timer)
        finally:
            signal.signal(signal.SIGPROF, previous)


def attribution(samples: Counter) -> dict:
    """Ranked per-layer shares with their binomial standard errors."""
    n = sum(samples.values())
    rows = []
    for layer, count in samples.most_common():
        p = count / n
        rows.append(
            {
                "layer": layer,
                "samples": count,
                "share": p,
                "stderr": math.sqrt(p * (1 - p) / n),
            }
        )
    return {"samples": n, "layers": rows}


# ----------------------------------------------------------------------
# The `repro profile` driver
# ----------------------------------------------------------------------
def run_profile(mix=None, repeats: int = 1, quick: bool = False) -> dict:
    """Sample the perf mix, each entry run ``repeats`` times fused.

    Each run is ``repro.harness.perf._run_once``, so the shares describe
    the fused leg of the ``repro perf`` differential.
    """
    from repro.harness.perf import DEFAULT_MIX, SMOKE_MIX, _run_once

    if mix is None:
        mix = SMOKE_MIX if quick else DEFAULT_MIX
    sampler = LayerSampler()
    start = time.perf_counter()
    with sampler.armed():
        for entry in mix:
            for _ in range(repeats):
                _run_once(entry, fusion=True)
    payload = attribution(sampler.samples)
    payload["total_wall_s"] = time.perf_counter() - start
    payload["mix"] = [
        {"app": e.app, "kind": e.kind, "scale": e.scale, "serial": e.serial}
        for e in mix
    ]
    payload["repeats"] = repeats
    return payload


def format_profile(payload: dict) -> str:
    """Ranked per-layer table for the CLI."""
    total = payload["total_wall_s"]
    n = payload["samples"]
    rate = n / total if total > 0 else 0.0
    lines = [
        f"sampled wall time: {total:.3f}s  {n} samples (~{rate:.0f} Hz)",
        f"{'layer':<20} {'samples':>8} {'share':>7} {'stderr':>7}",
    ]
    for row in payload["layers"]:
        lines.append(
            f"{row['layer']:<20} {row['samples']:>8} "
            f"{100 * row['share']:>6.1f}% {100 * row['stderr']:>6.1f}%"
        )
    return "\n".join(lines)


def write_profile(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
