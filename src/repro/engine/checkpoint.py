"""Deterministic simulation checkpoint/restore (gem5-style).

A *run snapshot* captures the complete deterministic state of a simulation
at an event boundary — clock and event calendar, per-core coroutine stacks,
runtime bookkeeping, every cache/directory/DRAM/NoC/traffic structure,
statistics, RNG streams, tracer events, and backing memory — so the run can
be killed and later finished in a fresh process with byte-identical
results.  An *init snapshot* captures only the host-visible post-``setup``
state (backing memory, address space, the app object) so the N
configuration variants of a sweep can warm-start from one shared serial
init phase instead of re-running it N times.

The hard problem is the coroutine stacks: thread programs are Python
generators, which cannot be pickled.  Instead of serializing frames the
machine keeps a *send log* (``Machine.enable_checkpointing``): every value
sent into a thread generator funnels through a single call site in
``Core._resume``, which appends ``(core_id, value)`` to a machine-wide
list; pushing a ULI handler frame appends a ``("h", core_id, thief)``
marker.  A snapshot stores this log, and restore *replays* it — it rebuilds
the app, machine, and runtime from the original arguments, starts fresh
thread generators, then walks the log sending each value into the top
frame of its core (popping on ``StopIteration``, pushing handler frames on
markers).  Host-side state mutated between yields (task registration,
address-space allocation, per-thread RNG draws, progress counters)
re-executes identically because it is a pure function of the sent values.
Everything else — simulated time, caches, stats, memory, pending events — is
then overwritten concretely from the snapshot, which also clobbers any
double-counting the replay performed.  Replay never dispatches op handlers
and never advances the clock; tracing is suppressed for its duration.

Determinism argument, in brief: (1) all generator sends go through the
logged call site, so the log is a complete replay script for the coroutine
stacks; (2) op handlers (``Core._op_*``) only touch state that is restored
concretely; (3) the event calendar holds only four callback shapes (core
wake, op completion, ULI request, ULI response — the latter two are
``functools.partial`` objects precisely so they are recognizable), each
reducible to a plain descriptor; (4) daemon events are observers that
cannot perturb the simulation, so they are re-armed at their next absolute
multiple rather than captured.  ``tests/test_checkpoint.py`` verifies
byte-identical memory digests, statistics, and Perfetto traces across
protocols, with fusion on and off, with steals in flight.

Snapshots are gzip-compressed pickles of plain dicts/lists/tuples with a
magic string and a format version; ``load_snapshot`` refuses anything it
does not recognize.
"""

from __future__ import annotations

import copy
import gzip
import io
import os
import pickle
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

MAGIC = "repro-checkpoint"

#: Bump whenever the snapshot layout changes incompatibly.
FORMAT_VERSION = 1

#: Marker encoding of the ``Core._NO_RESULT`` sentinel on resume stacks
#: (the sentinel itself is an anonymous object and cannot be pickled).
_NO_RESULT_MARK = "__repro_no_result__"


class CheckpointError(RuntimeError):
    """A snapshot could not be taken, loaded, or restored."""


class ParkedRun(RuntimeError):
    """A run was parked (preempted): its state was snapshotted and the
    event loop abandoned.

    Raised by :class:`ParkDaemon` *after* the snapshot has been written,
    so the snapshot is always a complete, safe-point capture; resuming it
    (``CheckpointConfig.resume``) finishes the run byte-identically to an
    uninterrupted one.  Carries the park cycle and the snapshot path so
    supervisors can journal where the run stopped.
    """

    def __init__(self, cycle: int, path: Optional[str]):
        super().__init__(f"run parked at cycle {cycle}")
        self.cycle = cycle
        self.path = path


# ----------------------------------------------------------------------
# Harness-facing configuration
# ----------------------------------------------------------------------
@dataclass
class CheckpointConfig:
    """How a harness run uses checkpointing.

    ``path``/``interval`` drive periodic run snapshots; ``resume`` makes
    ``run_experiment`` restore from ``path`` when it exists; ``init_dir``
    enables warm-start init snapshots shared across configurations.
    ``park_path`` makes the run *preemptible*: a :class:`ParkDaemon` polls
    for that file every ``park_poll`` cycles and, when it appears,
    snapshots the run to ``path`` and raises :class:`ParkedRun` — a
    supervisor parks a worker by touching the file and resumes it later
    with ``resume=True``.  None of these fields participate in memo or
    store keys: checkpointing never perturbs a simulation's outcome.
    """

    path: Optional[str] = None
    interval: Optional[int] = None
    resume: bool = False
    init_dir: Optional[str] = None
    save_init: bool = True
    keep: bool = False
    park_path: Optional[str] = None
    park_poll: int = 2_000

    @classmethod
    def coerce(cls, value) -> Optional["CheckpointConfig"]:
        """None | CheckpointConfig | snapshot path | kwargs dict."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(path=value)
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(f"cannot interpret checkpoint spec {value!r}")


# ----------------------------------------------------------------------
# Snapshot file I/O
# ----------------------------------------------------------------------
def save_snapshot(path: str, snap: dict) -> str:
    """Atomically write ``snap`` as a gzipped pickle; returns ``path``."""
    data = gzip.compress(pickle.dumps(snap, protocol=4), compresslevel=1)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return path


def load_snapshot(path: str) -> dict:
    """Read and validate a snapshot written by :func:`save_snapshot`."""
    try:
        with gzip.open(path, "rb") as fh:
            snap = pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise CheckpointError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(snap, dict) or snap.get("magic") != MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    version = snap.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path} has snapshot format version {version}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    return snap


# ----------------------------------------------------------------------
# Event descriptors
#
# Exactly four callback shapes ever reach the regular event calendar (see
# Core.start/_resume/_send_uli/_respond); anything else is a bug worth
# failing loudly on.
# ----------------------------------------------------------------------
def _describe_event(entry) -> tuple:
    time, seq, callback = entry
    bound_self = getattr(callback, "__self__", None)
    if bound_self is not None:
        name = getattr(callback, "__name__", "")
        if name == "_resume":
            return (time, seq, "complete", bound_self.core_id)
        if name == "_resume_none":
            return (time, seq, "wake", bound_self.core_id)
    if isinstance(callback, partial):
        fn = callback.func
        target = getattr(fn, "__self__", None)
        name = getattr(fn, "__name__", "")
        if target is not None and name == "deliver_uli_request":
            return (time, seq, "uli_req", target.core_id, callback.args[0])
        if target is not None and name == "deliver_uli_response":
            return (time, seq, "uli_resp", target.core_id, callback.args[0])
    raise CheckpointError(
        f"cannot serialize in-flight event {callback!r} at cycle {time}"
    )


def _rebuild_event(entry, cores) -> tuple:
    time, seq, kind = entry[0], entry[1], entry[2]
    core = cores[entry[3]]
    if kind == "complete":
        callback = core._complete_cont
    elif kind == "wake":
        callback = core._resume_none_cont
    elif kind == "uli_req":
        callback = partial(core.deliver_uli_request, entry[4])
    elif kind == "uli_resp":
        callback = partial(core.deliver_uli_response, entry[4])
    else:
        raise CheckpointError(f"unknown event descriptor kind {kind!r}")
    return (time, seq, callback)


# ----------------------------------------------------------------------
# Per-subsystem capture/restore helpers
# ----------------------------------------------------------------------
def _capture_stats(group) -> dict:
    return {
        "counters": dict(group._counters),
        "children": {
            name: _capture_stats(child) for name, child in group._children.items()
        },
    }


def _restore_stats(group, snap: dict) -> None:
    # In place: Core/L1 hot paths hold direct references to the raw
    # counter dicts, so the dict objects must survive the restore.
    counters = group._counters
    counters.clear()
    counters.update(snap["counters"])
    children = snap["children"]
    for name, child_snap in children.items():
        _restore_stats(group.child(name), child_snap)
    for name, child in group._children.items():
        if name not in children:
            _restore_stats(child, {"counters": {}, "children": {}})


def _capture_core(core) -> dict:
    from repro.cores.core import _NO_RESULT

    return {
        "halted": core.halted,
        "uli_enabled": core.uli_enabled,
        "in_handler": core._in_handler,
        "pending_uli": core._pending_uli,
        "uli_waiting": core._uli_waiting,
        "deferred_uli_resp": core._deferred_uli_resp,
        "uli_send_time": core._uli_send_time,
        "handler_entry_time": core._handler_entry_time,
        "wait_handler_cycles": core._wait_handler_cycles,
        "pending_result": core._pending_result,
        "resume_stack": [
            _NO_RESULT_MARK if value is _NO_RESULT else value
            for value in core._resume_stack
        ],
        "frame_depth": len(core._frames),
    }


def _restore_core(core, snap: dict) -> None:
    from repro.cores.core import _NO_RESULT

    core.halted = snap["halted"]
    core.uli_enabled = snap["uli_enabled"]
    core._in_handler = snap["in_handler"]
    core._pending_uli = snap["pending_uli"]
    core._uli_waiting = snap["uli_waiting"]
    core._deferred_uli_resp = snap["deferred_uli_resp"]
    core._uli_send_time = snap["uli_send_time"]
    core._handler_entry_time = snap["handler_entry_time"]
    core._wait_handler_cycles = snap["wait_handler_cycles"]
    core._pending_result = snap["pending_result"]
    core._resume_stack = [
        _NO_RESULT if value == _NO_RESULT_MARK else value
        for value in snap["resume_stack"]
    ]


def _capture_rngs(machine, runtime) -> dict:
    state: Dict[str, Any] = {
        "machine": machine.rng._state,
        "contexts": [ctx.rng._state for ctx in runtime.contexts],
        "steal_failures": [
            getattr(ctx, "_steal_failures", 0) for ctx in runtime.contexts
        ],
        # Start cycle of each thread's current steal attempt: consumed by
        # the tracer when an in-flight steal completes after the restore
        # (the replayed frame re-read sim.now before the clock came back).
        "steal_starts": [
            getattr(ctx, "_steal_start", 0) for ctx in runtime.contexts
        ],
    }
    injector = machine.fault_injector
    if injector is not None:
        state["fault"] = {
            "noc": injector._noc_rng._state,
            "uli": injector._uli_rng._state,
            "steal": injector._steal_rng._state,
            "l1": [rng._state for rng in injector._l1_rngs],
        }
    return state


def _restore_rngs(machine, runtime, state: dict) -> None:
    machine.rng._state = state["machine"]
    for ctx, rng_state in zip(runtime.contexts, state["contexts"]):
        ctx.rng._state = rng_state
    for ctx, failures in zip(runtime.contexts, state["steal_failures"]):
        ctx._steal_failures = failures
    for ctx, start in zip(runtime.contexts, state["steal_starts"]):
        ctx._steal_start = start
    injector = machine.fault_injector
    fault_state = state.get("fault")
    if injector is not None and fault_state is not None:
        injector._noc_rng._state = fault_state["noc"]
        injector._uli_rng._state = fault_state["uli"]
        injector._steal_rng._state = fault_state["steal"]
        for rng, rng_state in zip(injector._l1_rngs, fault_state["l1"]):
            rng._state = rng_state


def _capture_sanitizer(sanitizer) -> Optional[dict]:
    if sanitizer is None:
        return None
    return {
        "violations": copy.deepcopy(sanitizer.violations),
        "unpublished": dict(sanitizer._unpublished),
        "by_core": {cid: set(words) for cid, words in sanitizer._by_core.items()},
        "interval": sanitizer.interval,
    }


def _restore_sanitizer(machine, state: Optional[dict]) -> None:
    sanitizer = machine.sanitizer
    if sanitizer is None:
        if state is not None:
            raise CheckpointError(
                "snapshot was taken with the sanitizer installed; "
                "rebuild the machine with sanitize=True before restoring"
            )
        return
    if state is None:
        raise CheckpointError(
            "snapshot was taken without the sanitizer; "
            "rebuild the machine with sanitize=False before restoring"
        )
    sanitizer.violations = copy.deepcopy(state["violations"])
    sanitizer._unpublished = dict(state["unpublished"])
    sanitizer._by_core = {cid: set(words) for cid, words in state["by_core"].items()}
    # Re-arm the periodic SWMR walk at its next absolute multiple so walk
    # cycles (and the "walks" counter) match the uninterrupted run.
    _rearm_at_next_multiple(machine.sim, sanitizer.interval, sanitizer._walk_tick)


def _capture_tracer(tracer) -> Optional[dict]:
    if not tracer.enabled:
        return None
    return copy.deepcopy(dict(tracer.__dict__))


def _restore_tracer(tracer, state: Optional[dict]) -> None:
    if state is None:
        return
    # Wholesale: every Tracer field is plain data living in __dict__.
    # Clearing also drops the instance-level ``enabled = False`` replay
    # shade, re-exposing the class attribute (True).
    tracer.__dict__.clear()
    tracer.__dict__.update(copy.deepcopy(state))


def _rearm_at_next_multiple(sim, interval: int, callback: Callable[[], None]) -> None:
    """Schedule a self-re-arming daemon at its next absolute phase point.

    Periodic daemons armed at cycle 0 fire at k*interval; after a restore
    to cycle T the next firing must be at the smallest multiple strictly
    greater than T (the firing *at* T, if any, happened before the
    snapshot was taken).
    """
    due = (sim.now // interval + 1) * interval
    sim.schedule_at(due, callback, daemon=True)


# ----------------------------------------------------------------------
# Run snapshots
# ----------------------------------------------------------------------
def capture_run_state(machine) -> dict:
    """Snapshot a checkpoint-enabled machine mid-run (or at completion).

    Must be called between events — from a daemon callback or outside
    ``sim.run()`` — so every core is parked (its continuation, if any, is
    in the calendar and its pending result is concrete).
    """
    if machine._ckpt_log is None:
        raise CheckpointError(
            "machine was built without checkpointing; call "
            "Machine.enable_checkpointing() before the run starts"
        )
    runtime = machine.runtime
    if runtime is None:
        raise CheckpointError("no runtime attached to this machine")
    sim = machine.sim
    sim_state = sim.export_state()
    sim_state["queue"] = [_describe_event(entry) for entry in sim_state["queue"]]
    sampler = getattr(machine, "ckpt_sampler", None)
    return {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": "run",
        "cycle": sim.now,
        "sim": sim_state,
        "log": list(machine._ckpt_log),
        "cores": [_capture_core(core) for core in machine.cores],
        "l1s": [l1.export_state() for l1 in machine.l1s],
        "l2": machine.l2.export_state(),
        "dram": [controller.export_state() for controller in machine.l2.dram],
        "traffic": machine.traffic.export_state(),
        "memory": machine.memory.export_state(),
        "address_space": machine.address_space.export_state(),
        "stats": _capture_stats(machine.stats),
        "rng": _capture_rngs(machine, runtime),
        "runtime": {
            "done": runtime.done,
            "progress": runtime.progress,
            "next_task_id": runtime._next_task_id,
        },
        "tracer": _capture_tracer(machine.tracer),
        "sanitizer": _capture_sanitizer(machine.sanitizer),
        "sampler": (
            {
                "samples": copy.deepcopy(sampler.samples),
                "prev": copy.deepcopy(sampler._prev),
                "interval": sampler.interval,
            }
            if sampler is not None
            else None
        ),
    }


def _replay_log(machine, log: List) -> None:
    """Walk the send log against freshly started thread generators.

    Sends advance the coroutines through exactly the host-side execution
    of the recorded run; yielded ops are discarded (their architectural
    effects are restored concretely afterwards).
    """
    cores = machine.cores
    for entry in log:
        first = entry[0]
        if first.__class__ is str:  # ("h", core_id, thief): handler push
            core = cores[entry[1]]
            core._frames.append(core.uli_handler_factory(entry[2]))
            continue
        frames = cores[first]._frames
        try:
            frames[-1].send(entry[1])
        except StopIteration:
            frames.pop()


def _validate_replay(machine, runtime, snap: dict) -> None:
    """Cross-check replay-reconstructed host state against the snapshot.

    Any mismatch means the rebuild diverged from the recorded run (wrong
    app parameters, code drift, nondeterminism) — restoring on top of it
    would silently corrupt the simulation, so fail loudly instead.
    """
    problems = []
    for core, core_snap in zip(machine.cores, snap["cores"]):
        if len(core._frames) != core_snap["frame_depth"]:
            problems.append(
                f"core {core.core_id}: frame depth {len(core._frames)} "
                f"!= snapshot {core_snap['frame_depth']}"
            )
    rt_snap = snap["runtime"]
    if runtime.done != rt_snap["done"]:
        problems.append(f"runtime.done {runtime.done} != {rt_snap['done']}")
    if runtime.progress != rt_snap["progress"]:
        problems.append(
            f"runtime.progress {runtime.progress} != {rt_snap['progress']}"
        )
    if runtime._next_task_id != rt_snap["next_task_id"]:
        problems.append(
            f"next_task_id {runtime._next_task_id} != {rt_snap['next_task_id']}"
        )
    addr_next = snap["address_space"]["next"]
    if machine.address_space._next != addr_next:
        problems.append(
            f"address space next {machine.address_space._next:#x} "
            f"!= snapshot {addr_next:#x}"
        )
    for ctx, rng_state in zip(runtime.contexts, snap["rng"]["contexts"]):
        if ctx.rng._state != rng_state:
            problems.append(f"thread {ctx.tid}: rng state diverged during replay")
    if problems:
        raise CheckpointError(
            "replay diverged from snapshot:\n  " + "\n  ".join(problems)
        )


def restore_run_state(machine, snap: dict, root, main_tid: int = 0) -> None:
    """Restore ``snap`` into a freshly built machine/runtime pair.

    The caller must have rebuilt the app, machine (with checkpointing
    enabled and the same tracer/fault/sanitizer setup), and runtime with
    the original arguments, *without* starting the run.  ``root`` is a
    fresh root task from ``app.make_root``.
    """
    if snap.get("kind") != "run":
        raise CheckpointError(f"expected a run snapshot, got {snap.get('kind')!r}")
    runtime = machine.runtime
    if runtime is None:
        raise CheckpointError("no runtime attached to this machine")
    if machine._ckpt_log is None:
        raise CheckpointError("enable_checkpointing() must precede restore")
    if machine.sim.now != 0 or machine._ckpt_log:
        raise CheckpointError("restore requires a machine that has not run yet")

    tracer = machine.tracer
    recording = tracer.enabled
    if recording and snap["tracer"] is None:
        raise CheckpointError(
            "cannot resume an untraced snapshot with tracing enabled: the "
            "events before the snapshot were never recorded"
        )
    if recording:
        # Instance attribute shades the Tracer class attribute; removed
        # again when the tracer state is restored wholesale below.
        tracer.enabled = False
    runtime._tracing = False
    try:
        runtime.start_threads(root, main_tid)
        _replay_log(machine, snap["log"])
        _validate_replay(machine, runtime, snap)
    finally:
        if recording and tracer.__dict__.get("enabled") is False:
            del tracer.__dict__["enabled"]
        runtime._tracing = tracer.enabled

    # Concrete overwrite of all timed/architectural state.
    for core, core_snap in zip(machine.cores, snap["cores"]):
        _restore_core(core, core_snap)
    sim_state = snap["sim"]
    events = [_rebuild_event(entry, machine.cores) for entry in sim_state["queue"]]
    machine.sim.load_state(sim_state, events)
    for l1, l1_state in zip(machine.l1s, snap["l1s"]):
        l1.load_state(l1_state)
    machine.l2.load_state(snap["l2"])
    for controller, dram_state in zip(machine.l2.dram, snap["dram"]):
        controller.load_state(dram_state)
    machine.traffic.load_state(snap["traffic"])
    machine.memory.load_state(snap["memory"])
    machine.address_space.load_state(snap["address_space"])
    _restore_stats(machine.stats, snap["stats"])
    _restore_rngs(machine, runtime, snap["rng"])
    runtime.done = snap["runtime"]["done"]
    runtime.progress = snap["runtime"]["progress"]
    runtime._next_task_id = snap["runtime"]["next_task_id"]
    _restore_tracer(tracer, snap["tracer"])
    runtime._tracing = tracer.enabled
    _restore_sanitizer(machine, snap["sanitizer"])
    sampler_state = snap.get("sampler")
    sampler = getattr(machine, "ckpt_sampler", None)
    if sampler_state is not None:
        if sampler is None:
            raise CheckpointError(
                "snapshot carries interval-sampler state; recreate the "
                "sampler (same interval) before restoring"
            )
        sampler.samples = copy.deepcopy(sampler_state["samples"])
        sampler._prev = copy.deepcopy(sampler_state["prev"])
        _rearm_at_next_multiple(machine.sim, sampler.interval, sampler._tick)
    elif sampler is not None:
        raise CheckpointError(
            "cannot resume with an interval sampler: the snapshot was "
            "taken without one, so the earlier intervals were never sampled"
        )
    # Continue the send log from the snapshot so later snapshots of the
    # resumed run are themselves restorable (in place: cores share the list).
    machine._ckpt_log[:] = snap["log"]


# ----------------------------------------------------------------------
# Init (warm-start) snapshots
# ----------------------------------------------------------------------
class _AppPickler(pickle.Pickler):
    """Pickles an app object, persisting its machine out by reference."""

    def __init__(self, buffer, machine):
        super().__init__(buffer, protocol=4)
        self._machine = machine

    def persistent_id(self, obj):
        if obj is self._machine:
            return "machine"
        return None


class _AppUnpickler(pickle.Unpickler):
    def __init__(self, buffer, machine):
        super().__init__(buffer)
        self._machine = machine

    def persistent_load(self, pid):
        if pid == "machine":
            return self._machine
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def capture_init_state(machine, app, signature: Optional[str] = None) -> dict:
    """Snapshot the post-``setup`` host state for warm-start fan-out.

    Valid only between ``app.setup(machine)`` and runtime construction:
    the snapshot carries backing memory, the address space, and the app
    object (machine references persisted by id).  Setup is a host-only
    phase — it must not consume ``machine.rng`` or touch timed state —
    which is what makes one init snapshot valid for every configuration
    of the same (app, scale, app_params); this is checked here.
    """
    from repro.engine.rng import XorShift64

    sim = machine.sim
    if sim.now != 0 or sim.events_executed or sim.events_fused:
        raise CheckpointError("init snapshots must be taken before the run starts")
    if machine.rng._state != XorShift64(machine.config.seed)._state:
        raise CheckpointError(
            "app setup consumed machine.rng; its init phase is not "
            "configuration-invariant, so warm-starting it is unsound"
        )
    buffer = io.BytesIO()
    _AppPickler(buffer, machine).dump(app)
    return {
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "kind": "init",
        "signature": signature,
        "app_pickle": buffer.getvalue(),
        "memory": machine.memory.export_state(),
        "address_space": machine.address_space.export_state(),
    }


def restore_init_state(machine, snap: dict, signature: Optional[str] = None):
    """Apply an init snapshot to a fresh machine; returns the app object.

    The caller then constructs the runtime and runs normally — further
    allocations continue from the restored address-space cursor exactly
    as they would have after a real ``setup``.
    """
    if snap.get("kind") != "init":
        raise CheckpointError(f"expected an init snapshot, got {snap.get('kind')!r}")
    if signature is not None and snap.get("signature") != signature:
        raise CheckpointError(
            f"init snapshot signature {snap.get('signature')!r} does not "
            f"match this experiment's {signature!r}"
        )
    if machine.sim.now != 0 or machine.sim.events_executed:
        raise CheckpointError("init snapshots restore only into fresh machines")
    machine.memory.load_state(snap["memory"])
    machine.address_space.load_state(snap["address_space"])
    return _AppUnpickler(io.BytesIO(snap["app_pickle"]), machine).load()


# ----------------------------------------------------------------------
# Periodic snapshot daemon
# ----------------------------------------------------------------------
class CheckpointDaemon:
    """Self-re-arming daemon taking a snapshot every ``interval`` cycles.

    Daemon events run between regular events, so every snapshot lands at a
    safe point with all cores parked.  ``write`` receives the machine and
    is responsible for capture + persistence (the harness adds experiment
    metadata there).  Firing cycles are absolute multiples of the
    interval, so a resumed run's later snapshots (and tracer checkpoint
    marks) land at the same cycles as an uninterrupted run's.
    """

    def __init__(self, machine, interval: int, write: Callable):
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval}")
        self.machine = machine
        self.interval = int(interval)
        self.write = write
        self.snapshots_taken = 0
        self._armed = False

    def arm(self) -> None:
        self._armed = True
        _rearm_at_next_multiple(self.machine.sim, self.interval, self._tick)

    def cancel(self) -> None:
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        machine = self.machine
        tracer = machine.tracer
        if tracer.enabled:
            tracer.checkpoint_mark(machine.sim.now)
        self.write(machine)
        self.snapshots_taken += 1
        _rearm_at_next_multiple(machine.sim, self.interval, self._tick)


# ----------------------------------------------------------------------
# Preemption (park/resume)
# ----------------------------------------------------------------------
class ParkDaemon:
    """Cooperative preemption point riding the event queue.

    Every ``poll_interval`` simulated cycles (a daemon event, so always a
    safe point with all cores parked between events) the daemon checks
    whether ``park_path`` exists.  When it does, it snapshots the run via
    ``write(machine)`` and raises :class:`ParkedRun`, abandoning the event
    loop.  The exception propagates out of ``runtime.run`` exactly like
    the watchdog's ``DeadlockError``; by then the snapshot is already on
    disk, so the process can simply exit and a later run with
    ``CheckpointConfig.resume`` finishes byte-identically.

    A wedged run executes no events and therefore never reaches the poll —
    supervisors must pair the park request with a kill deadline and fall
    back to the last *periodic* snapshot for such workers.
    """

    def __init__(
        self,
        machine,
        poll_interval: int,
        park_path: str,
        write: Callable,
        snapshot_path: Optional[str] = None,
    ):
        if poll_interval <= 0:
            raise ValueError(
                f"park poll interval must be positive, got {poll_interval}"
            )
        self.machine = machine
        self.poll_interval = int(poll_interval)
        self.park_path = park_path
        self.write = write
        #: Where ``write`` persists the snapshot (carried on the raised
        #: ParkedRun so supervisors learn the resume source); None when
        #: the callback captures in memory.
        self.snapshot_path = snapshot_path
        self._armed = False

    def arm(self) -> None:
        self._armed = True
        _rearm_at_next_multiple(self.machine.sim, self.poll_interval, self._tick)

    def cancel(self) -> None:
        self._armed = False

    def _tick(self) -> None:
        if not self._armed:
            return
        machine = self.machine
        if os.path.exists(self.park_path):
            self._armed = False
            self.write(machine)
            raise ParkedRun(machine.sim.now, self.snapshot_path)
        _rearm_at_next_multiple(machine.sim, self.poll_interval, self._tick)
