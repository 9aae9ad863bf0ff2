"""Experiment runner: one (app, config, scale) simulation -> ExperimentResult.

Results are memoized per process *and* persisted to an optional on-disk
:class:`repro.harness.resultstore.ResultStore`, the way a results database
would in the paper's gem5 workflow: the Table III runs feed Figures 5-8
without re-simulating, and a warm rerun of any benchmark against the same
results directory performs zero simulations.

The store is configured explicitly with :func:`set_result_store` (the CLI's
``--results-dir`` / ``--no-store`` flags) or ambiently via the
``REPRO_RESULTS_DIR`` environment variable.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro import __version__
from repro.analysis.cilkview import CilkviewAnalyzer, WorkSpanReport
from repro.analysis.energy import EnergyReport, estimate_energy
from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.checkpoint import (
    CheckpointConfig,
    CheckpointDaemon,
    CheckpointError,
    ParkDaemon,
    ParkedRun,
    capture_init_state,
    capture_run_state,
    load_snapshot,
    restore_init_state,
    save_snapshot,
)
from repro.faults import FaultPlan
from repro.harness.params import app_params, init_signature
from repro.harness.resultstore import STORE_SCHEMA, ResultStore, hash_key
from repro.machine import Machine
from repro.obs.heartbeat import heartbeat_dir


@dataclass
class ExperimentResult:
    app: str
    kind: str
    scale: str
    serial: bool
    cycles: int
    instructions: int
    tasks: int
    spawns: int
    steals: int
    steal_attempts: int
    l1_hit_rate_tiny: float
    lines_invalidated: int
    lines_flushed: int
    invalidate_ops: int
    flush_ops: int
    amos: int
    traffic_bytes: Dict[str, int]
    tiny_breakdown: Dict[str, int]
    energy: EnergyReport
    uli_handled: int = 0
    uli_handler_cycles: int = 0
    uli_nacks: int = 0
    uli_utilization: float = 0.0
    uli_avg_latency: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_traffic(self) -> int:
        return sum(self.traffic_bytes.values())


_CACHE: Dict[Tuple, ExperimentResult] = {}
_WORKSPAN_CACHE: Dict[Tuple, WorkSpanReport] = {}

#: Number of timed machine simulations actually executed in this process
#: (cache and store hits do not count) — the quantity warm-store smoke
#: tests assert to be zero.
_SIM_COUNT = 0

#: Lazily initialized process-wide result store; the sentinel means "not
#: configured yet, consult REPRO_RESULTS_DIR on first use".
_STORE_UNSET = object()
_STORE: Union[object, Optional[ResultStore]] = _STORE_UNSET

#: ``source`` of this process's ledger lines.  Grid and serve workers
#: relabel themselves ("grid", "serve") so `repro report` can tell sweep
#: and service work from ad-hoc runs.
LEDGER_SOURCE = "runner"


def default_scale() -> str:
    """Benchmark scale, overridable with REPRO_SCALE=paper|large|quick."""
    return os.environ.get("REPRO_SCALE", "quick")


def simulation_count() -> int:
    """How many real simulations this process has executed so far."""
    return _SIM_COUNT


# ----------------------------------------------------------------------
# Result store configuration
# ----------------------------------------------------------------------
def get_result_store() -> Optional[ResultStore]:
    """The process-wide result store (REPRO_RESULTS_DIR), or None."""
    global _STORE
    if _STORE is _STORE_UNSET:
        path = os.environ.get("REPRO_RESULTS_DIR")
        _STORE = ResultStore(path) if path else None
    return _STORE


def set_result_store(store) -> Optional[ResultStore]:
    """Install ``store`` (a ResultStore, a directory path, or None)."""
    global _STORE
    if store is None or isinstance(store, ResultStore):
        _STORE = store
    else:
        _STORE = ResultStore(store)
    return _STORE


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
def canonicalize(value):
    """Recursively reduce ``value`` to a hashable, order-independent form.

    Dicts become key-sorted tuples of (key, canonical value) pairs, lists
    and tuples become tuples, sets become repr-sorted tuples.  This is the
    memo-key form; the on-disk store applies the same discipline through
    ``json.dumps(sort_keys=True)``.
    """
    if isinstance(value, dict):
        return tuple((k, canonicalize(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonicalize(v) for v in value), key=repr))
    return value


def _robustness_dict(
    faults: Optional[FaultPlan], sanitize: bool, watchdog: Optional[int]
) -> dict:
    """Canonical description of the fault/sanitizer/watchdog setup.

    Part of both the memo key and the persistent store key: a faulted or
    sanitized run must never satisfy a cache probe for a clean one (or
    vice versa).  The watchdog participates too — it cannot change a
    *successful* run's numbers, but a result produced under a different
    deadlock policy is a different experiment.
    """
    return {
        "faults": faults.as_dict() if faults is not None else None,
        "sanitize": bool(sanitize),
        "watchdog": watchdog,
    }


def memo_key(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool = False,
    app_overrides: Optional[dict] = None,
    runtime_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    faults: Optional[FaultPlan] = None,
    sanitize: bool = False,
    watchdog: Optional[int] = None,
) -> Tuple:
    """The in-process memo key for one experiment (always hashable)."""
    return (
        app_name,
        kind,
        scale,
        bool(serial),
        canonicalize(app_overrides or {}),
        canonicalize(runtime_kwargs or {}),
        canonicalize(config_overrides or {}),
        canonicalize(_robustness_dict(faults, sanitize, watchdog)),
    )


def _experiment_store_key(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool,
    app_overrides: Optional[dict],
    runtime_kwargs: Optional[dict],
    config_overrides: Optional[dict],
    faults: Optional[FaultPlan] = None,
    sanitize: bool = False,
    watchdog: Optional[int] = None,
) -> dict:
    """The persistent store key: resolved params + config + code version.

    App parameters and the system configuration are resolved before
    hashing, so editing a scale preset or an input table invalidates
    exactly the affected entries.
    """
    config = make_config(kind, scale, **(config_overrides or {}))
    return {
        "schema": STORE_SCHEMA,
        "code_version": __version__,
        "experiment": {
            "app": app_name,
            "kind": kind,
            "scale": scale,
            "serial": bool(serial),
            "app_params": app_params(app_name, scale, **(app_overrides or {})),
            "runtime_kwargs": runtime_kwargs or {},
            "config": dataclasses.asdict(config),
            "robustness": _robustness_dict(faults, sanitize, watchdog),
            # Schema 3: identifies the shared init phase.  Computed the
            # same way for cold and warm-started runs (checkpointing never
            # perturbs outcomes), so either satisfies probes for the other;
            # whether a stored result actually warm-started or resumed is
            # recorded in the payload's "lineage", not the key.
            "init_signature": init_signature(
                app_name, scale, **(app_overrides or {})
            ),
        },
    }


def _workspan_store_key(app_name: str, scale: str, overrides: dict) -> dict:
    return {
        "schema": STORE_SCHEMA,
        "code_version": __version__,
        "workspan": {
            "app": app_name,
            "scale": scale,
            "app_params": app_params(app_name, scale, **overrides),
        },
    }


#: Failure kinds that are deterministic functions of the experiment: a
#: retry would only reproduce them, so neither the grid nor the job
#: service retries them.
DETERMINISTIC_ERRORS = ("deadlock", "violation")


def classify_failure(exc: BaseException) -> Tuple[str, str, dict]:
    """(error kind, message, diagnostic) for a failed simulation.

    The one failure-kind table: the ledger, grid workers, the grid's
    serial path and the job service all label failures with it.  Kinds
    are ``deadlock`` (the watchdog's per-core dump as diagnostic),
    ``violation`` (the sanitizer's violation list) and ``error``.
    """
    from repro.engine.watchdog import DeadlockError
    from repro.sanitize import SanitizerError

    if isinstance(exc, DeadlockError):
        return "deadlock", str(exc), exc.diagnostic
    if isinstance(exc, SanitizerError):
        return "violation", str(exc), {"violations": exc.violations}
    return "error", f"{exc!r}", {}


def _ledger_record(
    outcome: str,
    *,
    app_name: str,
    kind: str,
    scale: str,
    serial: bool,
    wall_s: float,
    store_key=None,
    error=None,
    message=None,
    cycles=None,
    seed=None,
    robustness=None,
    lineage=None,
) -> None:
    """Append one run-manifest line when a ledger is configured (no-op
    otherwise — the ledger is strictly off by default)."""
    from repro.obs.ledger import get_ledger

    ledger = get_ledger()
    if ledger is None:
        return
    ledger.record(
        source=LEDGER_SOURCE,
        outcome=outcome,
        app=app_name,
        kind=kind,
        scale=scale,
        serial=bool(serial),
        error=error,
        message=message,
        wall_s=wall_s,
        cycles=cycles,
        seed=seed,
        robustness=robustness,
        lineage=lineage,
        store_key=hash_key(store_key) if store_key is not None else None,
    )


def run_experiment(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool = False,
    check: bool = True,
    use_cache: bool = True,
    app_overrides: Optional[dict] = None,
    runtime_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    tracer=None,
    sample_interval: Optional[int] = None,
    faults=None,
    sanitize: bool = False,
    watchdog: Optional[int] = None,
    checkpoint=None,
) -> ExperimentResult:
    """Simulate ``app_name`` on configuration ``kind`` at ``scale``.

    Passing a :class:`repro.trace.Tracer` (and optionally a
    ``sample_interval`` in cycles for the interval statistics sampler)
    records a cycle-accurate event trace of the run.  Traced runs always
    simulate — the memo cache and the on-disk result store are bypassed,
    since a cached result carries no events — but the *result* is
    identical either way: tracing never perturbs simulated timing.

    ``faults`` (a :class:`repro.faults.FaultPlan`, preset name, or spec
    string), ``sanitize``, and ``watchdog`` (a grace in cycles) configure
    the robustness subsystem; all three participate in the memo and store
    keys.  A sanitized run raises :class:`repro.sanitize.SanitizerError`
    on any invariant violation; a watchdogged run raises
    :class:`repro.engine.DeadlockError` with a per-core diagnostic instead
    of grinding to ``max_cycles``.

    ``checkpoint`` (a :class:`repro.engine.CheckpointConfig`, a snapshot
    path, or a kwargs dict) enables deterministic checkpoint/restore:
    with ``path`` + ``interval`` the run snapshots itself periodically;
    with ``resume`` an existing snapshot at ``path`` is restored and the
    run finishes from there, byte-identical to an uninterrupted run; with
    ``init_dir`` the post-``setup`` state is shared across configurations
    (warm-start fan-out).  Checkpointing never perturbs a simulation's
    outcome, so it participates in neither the memo key nor the store key;
    provenance lands in ``result.extras`` (``ckpt_*`` keys) and the store
    payload's ``lineage``.
    """
    started = time.perf_counter()
    faults = FaultPlan.coerce(faults)
    ckpt = CheckpointConfig.coerce(checkpoint)
    robustness = _robustness_dict(faults, sanitize, watchdog)
    traced = tracer is not None or sample_interval is not None
    if traced:
        use_cache = False
    key = memo_key(
        app_name, kind, scale, serial, app_overrides, runtime_kwargs,
        config_overrides, faults, sanitize, watchdog,
    )
    if use_cache and key in _CACHE:
        result = _CACHE[key]
        _ledger_record(
            "memo-hit",
            app_name=app_name, kind=kind, scale=scale, serial=serial,
            wall_s=time.perf_counter() - started,
            cycles=result.cycles, robustness=robustness,
        )
        return result

    store = get_result_store() if use_cache else None
    store_key = None
    if store is not None:
        store_key = _experiment_store_key(
            app_name, kind, scale, serial,
            app_overrides, runtime_kwargs, config_overrides,
            faults, sanitize, watchdog,
        )
        payload = store.load(store_key)
        if payload is not None:
            from repro.harness.export import result_from_dict

            result = result_from_dict(payload["result"])
            _CACHE[key] = result
            _ledger_record(
                "store-hit",
                app_name=app_name, kind=kind, scale=scale, serial=serial,
                wall_s=time.perf_counter() - started, store_key=store_key,
                cycles=result.cycles, robustness=robustness,
                lineage=payload.get("lineage"),
            )
            return result

    # The uncached path runs in a helper so this wrapper can guarantee the
    # observability postconditions on *every* exit: exactly one ledger
    # line per call (success or failure) and a finalized heartbeat file.
    ctx: dict = {}
    try:
        result = _simulate_experiment(
            app_name, kind, scale, serial, check, use_cache,
            app_overrides, runtime_kwargs, config_overrides,
            tracer, sample_interval, faults, sanitize, watchdog,
            ckpt, key, store, store_key, ctx,
        )
    except ParkedRun as exc:
        # Preemption is not a failure: the run's snapshot is on disk and a
        # later resume finishes it byte-identically.  The ledger records
        # the parked attempt so wall-time accounting stays complete.
        heartbeat = ctx.get("heartbeat")
        if heartbeat is not None:
            heartbeat.finalize("parked")
        _ledger_record(
            "parked",
            app_name=app_name, kind=kind, scale=scale, serial=serial,
            wall_s=time.perf_counter() - started, store_key=store_key,
            cycles=exc.cycle, seed=ctx.get("seed"), robustness=robustness,
            lineage=ctx.get("lineage"),
        )
        raise
    except Exception as exc:
        heartbeat = ctx.get("heartbeat")
        if heartbeat is not None:
            heartbeat.finalize("failed", error=repr(exc))
        _ledger_record(
            "failed",
            app_name=app_name, kind=kind, scale=scale, serial=serial,
            wall_s=time.perf_counter() - started, store_key=store_key,
            error=classify_failure(exc)[0],
            message=(str(exc).splitlines() or [repr(exc)])[0],
            seed=ctx.get("seed"), robustness=robustness,
            lineage=ctx.get("lineage"),
        )
        raise
    heartbeat = ctx.get("heartbeat")
    if heartbeat is not None:
        heartbeat.finalize("done")
    _ledger_record(
        "ok",
        app_name=app_name, kind=kind, scale=scale, serial=serial,
        wall_s=time.perf_counter() - started, store_key=store_key,
        cycles=result.cycles, seed=ctx.get("seed"),
        robustness=robustness, lineage=ctx.get("lineage"),
    )
    return result


def _simulate_experiment(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool,
    check: bool,
    use_cache: bool,
    app_overrides: Optional[dict],
    runtime_kwargs: Optional[dict],
    config_overrides: Optional[dict],
    tracer,
    sample_interval: Optional[int],
    faults,
    sanitize: bool,
    watchdog: Optional[int],
    ckpt,
    key,
    store,
    store_key,
    ctx: dict,
) -> ExperimentResult:
    """The uncached simulation path of :func:`run_experiment`.

    ``ctx`` is an out-channel for provenance the caller needs even when
    this function raises mid-run: the machine seed, the checkpoint lineage
    dict, and the heartbeat writer (the caller finalizes it — "done" or
    "failed" — once the outcome is known).
    """
    global _SIM_COUNT
    _SIM_COUNT += 1
    params = app_params(app_name, scale, **(app_overrides or {}))
    machine = Machine(
        make_config(kind, scale, **(config_overrides or {})),
        tracer=tracer,
        faults=faults,
        sanitize=sanitize,
    )
    ctx["seed"] = machine.config.seed
    run_snapshots = ckpt is not None and ckpt.path is not None
    if run_snapshots:
        machine.enable_checkpointing()

    lineage = {"warm_start": False, "resumed_from_cycle": None, "snapshots_taken": 0}
    ctx["lineage"] = lineage
    resume_snap = None
    if run_snapshots and ckpt.resume and os.path.exists(ckpt.path):
        resume_snap = load_snapshot(ckpt.path)

    # Warm start: restore the shared post-setup image instead of running
    # the app's (possibly expensive) serial init phase again.  Resumed
    # runs re-execute setup: its effects are overwritten by the restore,
    # but the app object it produces must exist either way.
    app = None
    if resume_snap is None and ckpt is not None and ckpt.init_dir:
        sig = init_signature(app_name, scale, **(app_overrides or {}))
        init_path = os.path.join(ckpt.init_dir, f"{sig}.init")
        if os.path.exists(init_path):
            app = restore_init_state(machine, load_snapshot(init_path), signature=sig)
            lineage["warm_start"] = True
    if app is None:
        app = make_app(app_name, **params)
        app.setup(machine)
        if resume_snap is None and ckpt is not None and ckpt.init_dir and ckpt.save_init:
            try:
                save_snapshot(init_path, capture_init_state(machine, app, sig))
            except CheckpointError:
                # Setup consumed machine.rng: this app's init phase is not
                # configuration-invariant, so every run must cold-start.
                pass

    rt_kwargs = dict(runtime_kwargs or {})
    if serial:
        # Table III "serial IO" baseline: the serial elision of the same
        # program (same grain, no runtime bookkeeping).
        rt_kwargs["serial_elision"] = True
    if watchdog is not None:
        rt_kwargs["watchdog"] = watchdog
    runtime = WorkStealingRuntime(machine, **rt_kwargs)

    heartbeat = None
    hb_dir = heartbeat_dir()
    if hb_dir:
        from repro.obs.heartbeat import HeartbeatWriter

        heartbeat = HeartbeatWriter.for_run(
            machine, runtime, hb_dir,
            meta={
                "app": app_name,
                "kind": kind,
                "scale": scale,
                "serial": bool(serial),
            },
        )
        ctx["heartbeat"] = heartbeat

    sampler = None
    if sample_interval is not None:
        from repro.obs.metrics import machine_metrics
        from repro.trace.sampler import IntervalSampler
        from repro.trace.tracer import NULL_TRACER

        # engine=False: event/fusion gauges differ between fused and
        # unfused runs, and sampled traces must stay byte-identical.
        sampler = IntervalSampler(
            machine.sim, machine_metrics(machine, engine=False).collect,
            sample_interval,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
        if run_snapshots:
            # Let snapshots carry (and restores re-arm) the sampler.
            machine.ckpt_sampler = sampler
        if resume_snap is None:
            sampler.start()

    daemon = None
    if run_snapshots and ckpt.interval:
        daemon = CheckpointDaemon(
            machine,
            ckpt.interval,
            lambda m: save_snapshot(ckpt.path, capture_run_state(m)),
        )
    park_daemon = None
    if ckpt is not None and ckpt.park_path:
        if not run_snapshots:
            raise CheckpointError(
                "a preemptible (park_path) run needs a snapshot path"
            )
        park_daemon = ParkDaemon(
            machine,
            ckpt.park_poll,
            ckpt.park_path,
            lambda m: save_snapshot(ckpt.path, capture_run_state(m)),
            snapshot_path=ckpt.path,
        )
    if resume_snap is not None:
        machine.restore(resume_snap, app.make_root(serial=False))
        lineage["resumed_from_cycle"] = resume_snap["cycle"]
        if daemon is not None:
            daemon.arm()
        if park_daemon is not None:
            park_daemon.arm()
        # Heartbeat starts after the restore so its daemon tick rides the
        # restored event queue (restore rebuilds simulator state).
        if heartbeat is not None:
            heartbeat.start()
        cycles = runtime.resume_run()
    else:
        if daemon is not None:
            daemon.arm()
        if park_daemon is not None:
            park_daemon.arm()
        if heartbeat is not None:
            heartbeat.start()
        cycles = runtime.run(app.make_root(serial=False))
    if park_daemon is not None:
        park_daemon.cancel()
    if daemon is not None:
        daemon.cancel()
        lineage["snapshots_taken"] = daemon.snapshots_taken
    if run_snapshots and not ckpt.keep and os.path.exists(ckpt.path):
        # The run completed; a leftover snapshot would only be clutter
        # (and a stale resume source).  ``keep=True`` preserves it.
        os.remove(ckpt.path)
    if sampler is not None:
        sampler.finalize()
    if tracer is not None:
        tracer.core_labels.update(machine.core_labels())
        tracer.set_meta(
            app=app_name, kind=kind, scale=scale, serial=bool(serial),
            seed=machine.config.seed, n_cores=machine.config.n_cores,
            cycles=cycles, sample_interval=sample_interval,
        )
        tracer.finish(machine.sim.now)
    if machine.sanitizer is not None:
        # Raises SanitizerError before any (less diagnostic) check failure.
        machine.sanitizer.finish(runtime)
    if check:
        app.check()

    result = assemble_result(app_name, kind, scale, serial, machine, runtime, cycles)
    if machine.fault_injector is not None:
        result.extras["faults_fired"] = machine.fault_injector.total_fired()
    if machine.sanitizer is not None:
        result.extras["sanitizer_walks"] = machine.sanitizer.stats.get("walks")
    # Checkpoint provenance: diagnostics only, never part of result
    # identity (a warm-started or resumed run is byte-identical to a cold
    # one; comparisons should ignore ``extras``).
    if lineage["warm_start"]:
        result.extras["ckpt_warm_start"] = 1.0
    if lineage["resumed_from_cycle"] is not None:
        result.extras["ckpt_resumed_from"] = float(lineage["resumed_from_cycle"])
    if lineage["snapshots_taken"]:
        result.extras["ckpt_snapshots"] = float(lineage["snapshots_taken"])
    if use_cache:
        _CACHE[key] = result
    if store is not None:
        from repro.harness.export import result_to_dict

        store.store(
            store_key,
            {"key": store_key, "result": result_to_dict(result), "lineage": lineage},
        )
    return result


def assemble_result(
    app_name: str,
    kind: str,
    scale: str,
    serial: bool,
    machine,
    runtime,
    cycles: int,
) -> ExperimentResult:
    """Build an :class:`ExperimentResult` from a finished machine/runtime."""
    tiny_ids = machine.tiny_core_ids() or list(range(machine.config.n_cores))
    l1_agg = machine.aggregate_l1_stats(tiny_ids)
    uli_stats = machine.stats.child("uli_network")
    uli_messages = uli_stats.get("messages")
    return ExperimentResult(
        app=app_name,
        kind=kind,
        scale=scale,
        serial=serial,
        cycles=cycles,
        instructions=machine.total_instructions(),
        tasks=runtime.stats.get("tasks_executed"),
        spawns=runtime.stats.get("spawns"),
        steals=runtime.stats.get("steals"),
        steal_attempts=runtime.stats.get("steal_attempts"),
        l1_hit_rate_tiny=machine.l1_hit_rate(tiny_ids),
        lines_invalidated=l1_agg["lines_invalidated"],
        lines_flushed=l1_agg["lines_flushed"],
        invalidate_ops=l1_agg["invalidate_ops"],
        flush_ops=l1_agg["flush_ops"],
        amos=l1_agg["amos"],
        traffic_bytes=machine.traffic.snapshot(),
        tiny_breakdown=machine.aggregate_core_breakdown(tiny_ids),
        energy=estimate_energy(machine),
        uli_handled=runtime.stats.get("uli_handler_runs"),
        uli_handler_cycles=sum(
            machine.cores[c].stats.get("cycles_uli_handler") for c in tiny_ids
        ),
        uli_nacks=runtime.stats.get("steal_nacks"),
        uli_utilization=machine.uli_network.utilization(max(1, cycles)),
        uli_avg_latency=(
            uli_stats.get("total_latency") / uli_messages if uli_messages else 0.0
        ),
    )


def adopt_result(
    result: ExperimentResult,
    app_overrides: Optional[dict] = None,
    runtime_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    faults=None,
    sanitize: bool = False,
    watchdog: Optional[int] = None,
) -> None:
    """Insert an externally computed result (e.g. from a grid worker) into
    the in-process memo cache and, when configured, the result store.

    Refuses anything that is not a successful :class:`ExperimentResult`:
    adopting a ``FailedResult`` would persist a failure as a success and
    every later probe of that key would silently skip the simulation.
    """
    if getattr(result, "failed", False) or not isinstance(result, ExperimentResult):
        raise TypeError(
            f"refusing to adopt {type(result).__name__} into the result "
            "cache/store: only successful ExperimentResults are cacheable"
        )
    faults = FaultPlan.coerce(faults)
    key = memo_key(
        result.app, result.kind, result.scale, result.serial,
        app_overrides, runtime_kwargs, config_overrides,
        faults, sanitize, watchdog,
    )
    _CACHE[key] = result
    store = get_result_store()
    if store is not None:
        store_key = _experiment_store_key(
            result.app, result.kind, result.scale, result.serial,
            app_overrides, runtime_kwargs, config_overrides,
            faults, sanitize, watchdog,
        )
        if not store.contains(store_key):
            from repro.harness.export import result_to_dict

            store.store(
                store_key, {"key": store_key, "result": result_to_dict(result)}
            )


def run_serial_baseline(app_name: str, scale: str, **kwargs) -> ExperimentResult:
    """The Table III baseline: serial elision on one in-order core."""
    return run_experiment(app_name, "serial-io", scale, serial=True, **kwargs)


def workspan(app_name: str, scale: str, /, **overrides) -> WorkSpanReport:
    """Cilkview work/span analysis of the app at this scale's input."""
    key = (app_name, scale, canonicalize(overrides))
    if key in _WORKSPAN_CACHE:
        return _WORKSPAN_CACHE[key]
    store = get_result_store()
    store_key = None
    if store is not None:
        store_key = _workspan_store_key(app_name, scale, overrides)
        payload = store.load(store_key)
        if payload is not None:
            report = WorkSpanReport(**payload["workspan"])
            _WORKSPAN_CACHE[key] = report
            return report
    params = app_params(app_name, scale, **overrides)
    app = make_app(app_name, **params)
    analyzer = CilkviewAnalyzer()
    app.setup(analyzer.machine)
    report = analyzer.analyze(app.make_root())
    _WORKSPAN_CACHE[key] = report
    if store is not None:
        store.store(
            store_key,
            {"key": store_key, "workspan": dataclasses.asdict(report)},
        )
    return report


def clear_cache() -> None:
    _CACHE.clear()
    _WORKSPAN_CACHE.clear()
