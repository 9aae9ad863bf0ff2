#!/usr/bin/env python3
"""The repository benchmark: host time of the paper's evaluation runs.

Each workload is a closed loop with one client: the next simulation starts
when the previous one returns.  Everything runs in this process with the
repository's defaults: no ``REPRO_*`` variables, no result store, no worker
pool, and a cold memo cache at the start of every pass.

* ``table3-quick``: Table III regeneration at ``quick`` scale (16 cores),
  three apps on all 11 configurations plus the cilkview work/span
  analysis, through ``repro.harness.runner`` as ``tables.table3`` calls it.
  Its many short simulations expose per-run costs: Machine build, R-MAT
  generation in ``app.setup``, ``app.check``, cilkview and harness keying.
* ``paper-parallel``: three 64-core ``paper`` points.  Heap events, L1/L2,
  mesh and ULI traffic and the runtime steal path dominate.
* ``paper-serial``: the ``serial-io`` baselines of the same three apps.
  One in-order core fuses nearly every event and never steals, so heap,
  steal and ULI changes must show no effect here.

Run it from the repository root::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 40 --trace 0

A run repeats passes over its workload until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics, writing the
traced spans to ``perfbench/out/``.  Every simulation's result fields
(except ``extras``) are hashed; the hashes must agree across passes, and
every simulation runs ``app.check()``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The fail ratio is ``failed / attempted``: it is printed, and
carried by those two keys rather than as a metric, since it is zero when
all is well.  ``python3 -m pytest perfbench`` runs the benchmark's
self-tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("table3-quick", "paper-parallel", "paper-serial")
DEFAULT_SEED = 1
#: Setup is measured in this process and in this many fresh child
#: processes; ``setup_s`` is the median.
SETUP_PROBES = 6

#: Table III slice: one recursive cilk5 kernel, the cheapest cilk5 kernel
#: and one Ligra kernel, so R-MAT generation shows in ``app.setup``.
TABLE3_APPS = ("cilk5-lu", "cilk5-nq", "ligra-radii")
PAPER_POINTS = (
    ("ligra-bfs", "bt-hcc-dts-dnv"),
    ("cilk5-cs", "bt-hcc-gwb"),
    ("ligra-cc", "bt-mesi"),
)

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "wall_s": "s",
    "sim_p50_s": "s",
    "sim_tail_s": "s",
    "kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit, in report order.  Each group notes the
#: end-to-end metric it should move, and on which workload.
PER_LAYER = {
    # Per-simulation costs: sim_p50_s and wall_s on table3-quick; near zero
    # on the paper workloads.
    "harness.self_s": "s",
    "machine.build_s": "s",
    "apps.setup_s": "s",
    "apps.check_s": "s",
    "analysis.workspan_s": "s",
    "analysis.energy_s": "s",
    # Event heap: wall_s and kips on paper-parallel; no move on paper-serial,
    # where one core fuses all but about one event per simulation.
    "engine.heap_events": "count",
    "engine.fused_events": "count",
    "engine.fused_ratio": "ratio",
    "engine.schedule_at_s": "s",
    # Untraced core.run_s over all events.
    "engine.us_per_event": "us",
    # L1: the largest share on paper-serial, present on every workload.
    "mem.l1.calls": "count",
    "mem.l1.self_s": "s",
    "mem.l1.hit_rate": "ratio",
    # L2/directory, DRAM and mesh: mostly paper-parallel.
    "mem.l2.calls": "count",
    "mem.l2.self_s": "s",
    "mem.l2.miss_ratio": "ratio",
    "mem.l2.owner_recalls": "count",
    "mem.dram.calls": "count",
    "mem.dram.self_s": "s",
    "noc.mesh.calls": "count",
    "noc.mesh.self_s": "s",
    "noc.traffic_bytes": "bytes",
    # ULI: the DTS point of paper-parallel only; zero on paper-serial.
    "noc.uli.calls": "count",
    "noc.uli.self_s": "s",
    "noc.uli.messages": "count",
    # Simulated counts: a change that only speeds up the simulator must
    # leave them identical.
    "core.run_s": "s",
    "core.tasks": "count",
    "core.steals": "count",
    "core.steal_attempts": "count",
    "core.uli_nacks": "count",
    "core.steal_success_ratio": "ratio",
    # The unwrapped rest of core.run (trampoline, runtime and app
    # generators, heap loop): every workload.
    "cores.self_s": "s",
    # Traced over untraced pass wall time, minus 1.
    "trace.overhead": "ratio",
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One timed operation: a simulation, or a work/span analysis."""

    app: str
    kind: str
    scale: str
    serial: bool = False
    watchdog: Optional[int] = None
    workspan: bool = False

    @property
    def label(self) -> str:
        return f"{self.app} {'workspan' if self.workspan else self.kind} {self.scale}"


def plan(workload: str) -> List[Op]:
    """The ordered operations of one pass over ``workload``."""
    from repro.config.system import DTS_KINDS, HCC_KINDS

    if workload == "table3-quick":
        kinds = ("o3x1", "o3x4", "o3x8", "bt-mesi") + tuple(HCC_KINDS) + tuple(DTS_KINDS)
        ops = []
        for app in TABLE3_APPS:
            ops.append(Op(app, "serial-io", "quick", serial=True))
            ops.append(Op(app, "", "quick", workspan=True))
            ops.extend(Op(app, kind, "quick") for kind in kinds)
        return ops
    if workload == "paper-parallel":
        return [Op(app, kind, "paper") for app, kind in PAPER_POINTS]
    if workload == "paper-serial":
        return [Op(app, "serial-io", "paper", serial=True) for app, _ in PAPER_POINTS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def seeded_inputs(seed: int) -> dict:
    """Generated inputs for ``seed``: the only way the seed reaches the program."""
    rng = random.Random(seed)
    return {"rmat_seed": rng.randrange(1, 2**31), "machine_seed": rng.randrange(1, 2**63)}


def app_overrides(app: str, inputs: dict) -> dict:
    # Only the Ligra kernels generate their input (an R-MAT graph) from a seed.
    return {"seed": inputs["rmat_seed"]} if app.startswith("ligra-") else {}


def result_digest(obj) -> str:
    """sha256 of a result's fields, ``extras`` (run provenance) excluded."""
    fields = dataclasses.asdict(obj)
    fields.pop("extras", None)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float = 0.0
    instructions: int = 0
    sim_times: List[float] = field(default_factory=list)
    #: Per-op digest in plan order; None where the op raised.
    digests: List[Optional[str]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    tracer: object = None


def run_op(op: Op, inputs: dict, tracer=None):
    """Run one op through the harness's public entry points."""
    from repro.harness import runner

    overrides = app_overrides(op.app, inputs)
    name = "analysis.workspan" if op.workspan else "harness"
    with tracer.span(name) if tracer is not None else nullcontext():
        if op.workspan:
            return runner.workspan(op.app, op.scale, **overrides)
        return runner.run_experiment(
            op.app, op.kind, op.scale, serial=op.serial, check=True,
            app_overrides=overrides, config_overrides={"seed": inputs["machine_seed"]},
            watchdog=op.watchdog,
        )


def run_pass(ops: List[Op], inputs: dict, tracer=None) -> PassResult:
    """One pass over ``ops``; failures are recorded, never raised."""
    from repro.harness import runner

    runner.clear_cache()
    result = PassResult(tracer=tracer)
    start = time.perf_counter()
    for sim_id, op in enumerate(ops):
        if tracer is not None:
            tracer.sim_id = sim_id
        before = runner.simulation_count()
        op_start = time.perf_counter()
        try:
            out = run_op(op, inputs, tracer)
            if not op.workspan and runner.simulation_count() != before + 1:
                raise RuntimeError("result came from a cache, not a simulation")
        except Exception as exc:  # a failed op is counted, the run goes on
            result.digests.append(None)
            result.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.harvest()
        elapsed = time.perf_counter() - op_start
        result.digests.append(result_digest(out))
        if not op.workspan:
            result.sim_times.append(elapsed)
            result.instructions += out.instructions
    result.wall_s = time.perf_counter() - start
    return result


def run_passes(ops: List[Op], inputs: dict, seconds: float, traced: bool) -> List[PassResult]:
    """Repeat passes until ``seconds`` have passed (closest whole number).

    A traced run repeats an untraced pass (only ``core.run`` timed) and a
    traced pass, so drift on the host affects both alike.
    """
    from layers import LayerTracer

    passes: List[PassResult] = []
    rounds: List[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if traced:
            for hot in (False, True):
                tracer = LayerTracer(hot=hot)
                with tracer.installed():
                    passes.append(run_pass(ops, inputs, tracer))
        else:
            passes.append(run_pass(ops, inputs))
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop when another round would end further from the target.
        if now - start + statistics.median(rounds) / 2 >= seconds:
            return passes


def count_failures(ops: List[Op], passes: List[PassResult]) -> int:
    """Raised ops, plus ops whose digest differs from the first pass's."""
    reference = passes[0].digests
    failed = 0
    for p in passes:
        for i, digest in enumerate(p.digests):
            if digest is None or digest != reference[i]:
                failed += 1
    return failed


def workload_digest(ops: List[Op], digests: List[Optional[str]]) -> str:
    h = hashlib.sha256()
    for op, digest in zip(ops, digests):
        h.update(f"{op.label} {digest}\n".encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def tail(samples: List[float]):
    """(value, percentile, samples beyond) of the highest percentile that
    has at least ten samples beyond it, but never below the median.

    Under 21 samples that percentile would lie below the median, which is
    no tail; the median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index < (n - 1) / 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[index], 100.0 * (index + 1) / n, 10


def end_to_end(passes: List[PassResult], setup_samples: List[float]) -> dict:
    sims = [t for p in passes for t in p.sim_times]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_p50_s": statistics.median(sims),
        "sim_tail_s": tail(sims)[0],
        "kips": statistics.median(p.instructions / p.wall_s / 1000.0 for p in passes),
        "setup_s": statistics.median(setup_samples),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: List[PassResult]) -> dict:
    """Median over traced passes of each per-layer metric."""
    untraced = [p for p in passes if not p.tracer.hot]
    traced = [p for p in passes if p.tracer.hot]
    layer_runs = [p.tracer.layer_metrics() for p in traced]
    out = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
    events = out["engine.heap_events"] + out["engine.fused_events"]
    run_s = statistics.median(p.tracer.total_s["core.run"] for p in untraced)
    out["engine.us_per_event"] = run_s / events * 1e6 if events else 0.0
    out["trace.overhead"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0
    )
    return {name: out[name] for name in PER_LAYER}


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def setup(workload: str, seed: int):
    """Import, build the workload and run one untimed tiny warm-up.

    Returns (ops, inputs, seconds this process took to get here).
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    from repro.harness import runner

    runner.set_result_store(None)
    ops = plan(workload)
    inputs = seeded_inputs(seed)
    run_op(dataclasses.replace(ops[0], scale="tiny"), inputs)
    runner.clear_cache()
    return ops, inputs, time.perf_counter() - STARTED


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured in a child process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_record() -> dict:
    from repro.obs import host_fingerprint

    return {"host": host_fingerprint(), "nproc": len(os.sched_getaffinity(0))}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    ops, inputs, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    traced = bool(args.trace)
    setup_samples = [setup_s]
    if not traced:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    passes = run_passes(ops, inputs, args.seconds, traced)
    failed = count_failures(ops, passes)
    attempted = len(ops) * len(passes)
    sims = sum(len(p.sim_times) for p in passes)
    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(inputs)}")
    print(json.dumps(host_record(), sort_keys=True))
    print(f"passes {len(passes)}, ops {attempted}, simulations timed {sims}, "
          f"failed {failed}, fail_ratio {failed / attempted:.6g}")
    for p in passes:
        for error in p.errors:
            print(f"FAILED {error}")
    print(f"digest {workload_digest(ops, passes[0].digests)}")
    print("pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))

    if traced:
        metrics = per_layer(passes)
        sum_error = max(p.tracer.run_sum_error() for p in passes if p.tracer.hot)
        print(f"layer self times vs core.run: relative error {sum_error:.3g}")
        per_sim = sum(not op.workspan for op in ops)
        print(f"per simulation: {metrics['engine.heap_events'] / per_sim:.6g} heap events, "
              f"{metrics['noc.uli.calls'] / per_sim:.6g} ULI calls")
        units = PER_LAYER
        write_spans(args, passes)
    else:
        metrics = end_to_end(passes, setup_samples)
        _, pct, beyond = tail([t for p in passes for t in p.sim_times])
        print(f"sim_tail_s is p{pct:.4g} of {sims} samples ({beyond} beyond it)")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:26s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def write_spans(args, passes: List[PassResult]) -> None:
    """Write the traced passes' spans and aggregates to ``perfbench/out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": [
            {
                "traced": p.tracer.hot,
                "wall_s": p.wall_s,
                "spans": p.tracer.spans,
                "self_s": dict(p.tracer.self_s),
                "calls": dict(p.tracer.calls),
                "counts": dict(p.tracer.counts),
            }
            for p in passes
        ],
    }
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
