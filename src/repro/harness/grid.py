"""Parallel experiment grid: fan an (app, config, scale) grid over workers.

Every paper artifact (Tables III-V, Figures 5-8) is derived from the same
experiment grid.  :func:`run_grid` executes a list of :class:`GridPoint`s
either serially in-process or on a pool of ``multiprocessing`` workers,
with a per-run timeout, one retry on failure, and an optional progress/ETA
line.  Completed results are adopted into the parent's memo cache (and the
persistent result store when one is configured), so the table/figure
producers that follow hit the cache instead of re-simulating.

Determinism: a simulation's outcome is a pure function of its grid point —
every Machine seeds its own RNG from the configuration — so a parallel run
is bit-identical to a serial one.  Workers return results serialized
through ``result_to_dict`` and the parent revives them with
``result_from_dict``; Python's JSON float round-trip is exact, so even
float fields survive the process boundary unchanged (this is asserted by
``tests/test_grid.py``).

Worker count resolution order: explicit ``jobs=`` argument, then
:func:`set_default_jobs` (the CLI's ``--jobs``), then the ``REPRO_JOBS``
environment variable, then 1 (serial).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence

import repro.harness.runner as runner
from repro.engine.checkpoint import ParkedRun
from repro.harness import termlog
from repro.harness.retry import Backoff, BackoffPolicy
from repro.harness.runner import DETERMINISTIC_ERRORS, ExperimentResult

#: Default retry schedule for failed grid workers: exponential backoff
#: with decorrelated jitter (repro.harness.retry), shared discipline with
#: the serve supervisor.  A crashed worker usually shares its cause with
#: its siblings (OOM, disk, a wedged store), so immediate same-slot
#: retries mostly burn an attempt reproducing the failure.
GRID_BACKOFF = BackoffPolicy(base_s=0.2, cap_s=5.0, multiplier=3.0)


class GridError(RuntimeError):
    """A grid point failed (or timed out) on every allowed attempt."""


@dataclass
class FailedResult:
    """A grid point that did not produce a result (``on_error="record"``).

    Occupies the failed point's slot in ``run_grid``'s output so a sweep
    with one wedged configuration still returns every other cell.  The
    ``error`` field is one of ``"deadlock"``, ``"violation"``,
    ``"timeout"``, or ``"error"``; ``diagnostic`` carries the watchdog's
    per-core dump (or the sanitizer's violation list) when available.
    """

    app: str
    kind: str
    scale: str
    label: str
    error: str
    message: str
    diagnostic: dict = field(default_factory=dict)
    attempts: int = 1

    #: Discriminator mirroring ExperimentResult duck-typing checks.
    failed: bool = True


@dataclass(frozen=True)
class GridPoint:
    """One cell of the experiment grid: run_experiment's arguments."""

    app: str
    kind: str
    scale: str
    serial: bool = False
    check: bool = True
    app_overrides: Optional[dict] = None
    runtime_kwargs: Optional[dict] = None
    config_overrides: Optional[dict] = None
    faults: Optional[object] = None
    sanitize: bool = False
    watchdog: Optional[int] = None
    #: Checkpoint spec (CheckpointConfig kwargs dict; kept as plain data so
    #: points pickle across worker processes).  Injected by run_grid's
    #: checkpoint_dir machinery; not part of the experiment's identity.
    checkpoint: Optional[dict] = None

    def label(self) -> str:
        parts = [self.app, self.kind, self.scale]
        if self.serial:
            parts.append("serial")
        if self.app_overrides:
            parts.append(f"app={self.app_overrides}")
        if self.runtime_kwargs:
            parts.append(f"rt={self.runtime_kwargs}")
        if self.config_overrides:
            parts.append(f"cfg={self.config_overrides}")
        if self.faults is not None:
            parts.append(f"faults={self.faults}")
        if self.sanitize:
            parts.append("sanitize")
        return " ".join(parts)

    def as_fields(self) -> dict:
        """Constructor kwargs (picklable; rebuilds the point in a worker)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def run_kwargs(self) -> dict:
        """Keyword arguments for :func:`repro.harness.runner.run_experiment`."""
        return dict(
            app_name=self.app,
            kind=self.kind,
            scale=self.scale,
            serial=self.serial,
            check=self.check,
            app_overrides=self.app_overrides,
            runtime_kwargs=self.runtime_kwargs,
            config_overrides=self.config_overrides,
            faults=self.faults,
            sanitize=self.sanitize,
            watchdog=self.watchdog,
            checkpoint=self.checkpoint,
        )


def expand_grid(
    apps: Sequence[str],
    kinds: Sequence[str],
    scales: Sequence[str],
    **common,
) -> List[GridPoint]:
    """The full cross product, app-major (the paper's presentation order)."""
    return [
        GridPoint(app, kind, scale, **common)
        for app in apps
        for kind in kinds
        for scale in scales
    ]


# ----------------------------------------------------------------------
# Default worker count
# ----------------------------------------------------------------------
_DEFAULT_JOBS: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Process-wide default for ``run_grid(jobs=None)`` (CLI ``--jobs``)."""
    global _DEFAULT_JOBS
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _DEFAULT_JOBS = jobs


def default_jobs() -> int:
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    env = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


class _Progress:
    """A single overwriting [done/total + ETA] line, via ``termlog``.

    ETA comes from a *windowed* completion rate over the most recent
    simulated runs, with store/memo hits excluded: a warm store satisfies
    its points in microseconds, so the naive ``elapsed / done * remaining``
    extrapolation announces a wildly optimistic ETA right until the first
    cold point lands (and a wildly pessimistic one on a sweep that ends in
    a burst of hits).  Hits still advance ``done`` — they just contribute
    no rate evidence.  The window keeps the estimate honest when per-point
    cost drifts across a sweep (small scales first, large scales last).
    """

    #: Completions the rate window spans (timestamps kept: WINDOW + 1).
    WINDOW = 16

    def __init__(self, total: int, enabled: bool, clock=time.monotonic):
        self.total = total
        self.enabled = enabled
        self.done = 0
        self.hits = 0
        self._clock = clock
        self.start = clock()
        #: Timestamps of simulated (non-hit) completions, seeded with the
        #: start time so the first miss already defines a rate.
        self._window = deque([self.start], maxlen=self.WINDOW + 1)
        #: Last computed ETA in seconds (None until an estimate exists);
        #: exposed for tests and for the ledger's ETA-accuracy accounting.
        self.last_eta: Optional[float] = None

    def _eta(self, now: float) -> Optional[float]:
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if len(self._window) >= 2:
            span = self._window[-1] - self._window[0]
            completions = len(self._window) - 1
            if span > 0:
                return remaining / (completions / span)
        # No simulated completion yet (all hits so far): fall back to the
        # naive extrapolation, which at least reflects observed hit cost.
        if self.done > 0:
            return (now - self.start) / self.done * remaining
        return None

    def step(self, label: str, instant: bool = False) -> None:
        """Count one completed point; ``instant`` marks a store/memo hit."""
        self.done += 1
        now = self._clock()
        if instant:
            self.hits += 1
        else:
            self._window.append(now)
        self.last_eta = self._eta(now)
        if not self.enabled:
            return
        elapsed = now - self.start
        eta_text = f"{self.last_eta:6.1f}s" if self.last_eta is not None else "   ?  "
        termlog.status(
            f"[{self.done}/{self.total}] {label:<48.48s} "
            f"elapsed {elapsed:6.1f}s  ETA {eta_text}"
        )
        if self.done == self.total:
            termlog.end_status()

    def note(self, message: str) -> None:
        if self.enabled:
            termlog.log(message)


# ----------------------------------------------------------------------
# Worker processes: the core shared by run_grid and repro.serve
# ----------------------------------------------------------------------
def _worker_entry(
    conn, point_kwargs: dict, results_dir: Optional[str], ledger_source: str
) -> None:
    """Run one grid point in a child process; ship the result (or the
    failure) back through ``conn`` as JSON-safe plain data.

    Messages: ``("ok", {"result", "sims"})``, ``("parked", {"cycle",
    "snapshot"})``, ``(kind, {"message", "diagnostic"})`` for a kind in
    :data:`~repro.harness.runner.DETERMINISTIC_ERRORS`, or ``("err",
    traceback)`` for anything else.
    """
    try:
        runner.LEDGER_SOURCE = ledger_source
        runner.set_result_store(results_dir)
        point = GridPoint(**point_kwargs)
        result = runner.run_experiment(**point.run_kwargs())
        from repro.harness.export import result_to_dict

        # ``sims`` lets the parent's ETA estimator distinguish a real
        # simulation from a store hit (0 = satisfied from cache/store).
        message = (
            "ok",
            {"result": result_to_dict(result), "sims": runner.simulation_count()},
        )
    except ParkedRun as exc:
        # Preempted by a supervisor (repro.serve): the snapshot is already
        # on disk; report where the run stopped and exit cleanly.
        message = ("parked", {"cycle": exc.cycle, "snapshot": exc.path})
    except BaseException as exc:  # report, never hang the parent
        error, text, diagnostic = runner.classify_failure(exc)
        if error in DETERMINISTIC_ERRORS:
            message = (error, {"message": text, "diagnostic": diagnostic})
        else:
            import traceback

            message = ("err", f"{exc!r}\n{traceback.format_exc()}")
    try:
        conn.send(message)
        conn.close()
    except Exception:  # the parent is gone; nobody is left to tell
        pass


def _live_helper_threads():
    """Names of live non-daemon threads other than the caller's.

    Forking while a non-daemon helper (ledger appender, heartbeat writer,
    third-party pool) is running clones whatever locks it holds into the
    child — where no thread will ever release them — so fork is only safe
    when none are alive.  Daemon threads are excluded: the obs helpers are
    daemonic by construction and hold no locks across their sleep.
    """
    import threading

    current = threading.current_thread()
    return [
        thread.name
        for thread in threading.enumerate()
        if thread is not current
        and not thread.daemon
        and thread.is_alive()
    ]


def _mp_context():
    """Pick the multiprocessing start method for grid/serve workers.

    ``REPRO_MP=spawn|fork`` forces a method (``fork`` asserts no live
    non-daemon helper threads first — a forced fork with helpers alive is
    a latent deadlock, better refused loudly).  Unset, prefer fork (cheap,
    inherits loaded modules) unless helper threads are alive or fork is
    unavailable, in which case fall back to spawn.
    """
    methods = multiprocessing.get_all_start_methods()
    choice = os.environ.get("REPRO_MP", "").strip().lower()
    if choice:
        if choice not in ("fork", "spawn"):
            raise ValueError(f"REPRO_MP must be 'spawn' or 'fork', got {choice!r}")
        if choice not in methods:
            raise ValueError(f"REPRO_MP={choice} unsupported on this platform")
        if choice == "fork":
            helpers = _live_helper_threads()
            if helpers:
                raise RuntimeError(
                    "REPRO_MP=fork with live non-daemon threads "
                    f"{helpers}: forked children would inherit their locks "
                    "held forever; stop the helpers or use REPRO_MP=spawn"
                )
        return multiprocessing.get_context(choice)
    if "fork" in methods and not _live_helper_threads():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


class WorkerHandle:
    """A live grid worker process plus its result pipe."""

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.is_alive()

    def poll_message(self):
        """The worker's (status, payload) message, or None; "gone" when
        the pipe broke before any message arrived."""
        try:
            if not self.conn.poll(0):
                return None
            return self.conn.recv()
        except (EOFError, OSError):
            return ("gone", None)

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()


def spawn_worker(point: GridPoint, ledger_source: str) -> WorkerHandle:
    """Start one worker process running ``point``.

    The worker uses this process's result store and labels its ledger
    lines with ``ledger_source``.
    """
    store = runner.get_result_store()
    results_dir = str(store.root) if store is not None else None
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_worker_entry,
        args=(child_conn, point.as_fields(), results_dir, ledger_source),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return WorkerHandle(proc, parent_conn)


def record_lost_worker(
    point: GridPoint,
    ledger_source: str,
    error: str,
    message: str,
    attempt: int,
    wall_s: Optional[float],
) -> None:
    """Write the ledger line a worker could not write for itself.

    A worker that failed inside ``run_experiment`` wrote its own line
    before reporting; one that was killed (timeout, wedged, park grace)
    or died silently did not, so its supervisor records the attempt.
    """
    from repro.obs.ledger import get_ledger

    ledger = get_ledger()
    if ledger is None:
        return
    ledger.record(
        source=ledger_source,
        outcome="failed",
        error=error,
        message=message.splitlines()[0] if message else error,
        app=point.app,
        kind=point.kind,
        scale=point.scale,
        serial=point.serial,
        attempt=attempt,
        wall_s=wall_s,
    )


@dataclass
class _Running:
    point: GridPoint
    handle: WorkerHandle
    started: float
    deadline: Optional[float]
    attempt: int = 1


# ----------------------------------------------------------------------
# The grid driver
# ----------------------------------------------------------------------
def _record_failure(
    point: GridPoint, error: str, message: str, diagnostic: dict, attempts: int
) -> FailedResult:
    first_line = message.splitlines()[0] if message else error
    termlog.alert(f"{error}: {point.label()}: {first_line}")
    return FailedResult(
        app=point.app,
        kind=point.kind,
        scale=point.scale,
        label=point.label(),
        error=error,
        message=message,
        diagnostic=diagnostic or {},
        attempts=attempts,
    )


def _point_checkpoint_spec(
    point: GridPoint,
    checkpoint_dir: str,
    checkpoint_interval: Optional[int],
    resume: bool,
    warm_init: bool,
) -> dict:
    """The CheckpointConfig kwargs injected into one grid point.

    The snapshot filename is derived from the point's full identity (all
    constructor fields except ``checkpoint`` itself), so a rerun of the
    same sweep — or a retry of one point — finds exactly its own snapshot
    and two different points can never collide.
    """
    from repro.harness.resultstore import hash_key

    identity = {k: v for k, v in point.as_fields().items() if k != "checkpoint"}
    if identity.get("faults") is not None:
        identity["faults"] = str(identity["faults"])
    digest = hash_key({"grid_point": identity})[:20]
    return dict(
        path=os.path.join(checkpoint_dir, f"{digest}.ckpt"),
        interval=checkpoint_interval,
        resume=resume,
        init_dir=os.path.join(checkpoint_dir, "init") if warm_init else None,
    )


def _precompute_init_snapshots(points: Sequence[GridPoint], meter) -> None:
    """Run each distinct app init phase once, serially, in the parent.

    Every point whose ``checkpoint`` spec names an ``init_dir`` gets its
    post-setup image written there (keyed by init signature), so the
    fanned-out configuration variants all warm-start from one shared init
    instead of each re-running it.  Apps whose setup consumes the machine
    RNG are skipped with a note — they cold-start safely.
    """
    from repro.apps import make_app
    from repro.config import make_config
    from repro.engine.checkpoint import (
        CheckpointError,
        capture_init_state,
        save_snapshot,
    )
    from repro.harness.params import app_params, init_signature
    from repro.machine import Machine

    seen = set()
    for point in points:
        init_dir = (point.checkpoint or {}).get("init_dir")
        if not init_dir:
            continue
        overrides = point.app_overrides or {}
        sig = init_signature(point.app, point.scale, **overrides)
        if sig in seen:
            continue
        seen.add(sig)
        path = os.path.join(init_dir, f"{sig}.init")
        if os.path.exists(path):
            continue
        app = make_app(point.app, **app_params(point.app, point.scale, **overrides))
        machine = Machine(
            make_config(point.kind, point.scale, **(point.config_overrides or {}))
        )
        app.setup(machine)
        try:
            save_snapshot(path, capture_init_state(machine, app, sig))
        except CheckpointError as exc:
            meter.note(f"no init snapshot for {point.app}/{point.scale}: {exc}")


def run_grid(
    points: Sequence[GridPoint],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[bool] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = 50_000,
    warm_init: bool = False,
    backoff: Optional[BackoffPolicy] = None,
):
    """Run every grid point; return results in input order.

    ``jobs > 1`` fans points out over a process pool; each run gets at most
    ``timeout`` wall-clock seconds (None = unlimited) and ``retries`` fresh
    attempts after a failure or timeout before :class:`GridError` is
    raised.  Retries wait out an exponential backoff with decorrelated
    jitter (``backoff``, default :data:`GRID_BACKOFF`; pass
    ``repro.harness.retry.NO_BACKOFF`` for immediate retries) instead of
    respawning into the same failure.  All completed results are adopted
    into the in-process memo cache and the configured result store, so
    follow-up ``run_experiment`` calls for the same points are free.

    ``on_error="record"`` makes sweeps crash-tolerant: a point that
    deadlocks, trips the sanitizer, times out, or errors yields a
    :class:`FailedResult` in its slot (announced via ``termlog.alert``)
    instead of aborting the whole grid.  Deadlocks and sanitizer
    violations are deterministic, so they are never retried.

    ``checkpoint_dir`` turns on deterministic checkpointing: every point
    snapshots itself each ``checkpoint_interval`` cycles into its own file
    under the directory.  ``on_error="resume"`` is ``"record"`` plus
    restore-on-restart — a retried, re-run, or previously killed point
    picks up from its latest snapshot instead of starting over (results
    are byte-identical either way; it requires ``checkpoint_dir``).
    ``warm_init`` additionally runs each distinct app init phase once,
    serially, and warm-starts every configuration variant from that shared
    post-setup image.
    """
    if on_error not in ("raise", "record", "resume"):
        raise ValueError(
            f"on_error must be 'raise', 'record', or 'resume', got {on_error!r}"
        )
    if on_error == "resume" and checkpoint_dir is None:
        raise ValueError("on_error='resume' requires checkpoint_dir")
    if warm_init and checkpoint_dir is None:
        raise ValueError("warm_init requires checkpoint_dir")
    points = list(points)
    if checkpoint_dir is not None:
        points = [
            replace(
                point,
                checkpoint=_point_checkpoint_spec(
                    point,
                    checkpoint_dir,
                    checkpoint_interval,
                    resume=(on_error == "resume"),
                    warm_init=warm_init,
                ),
            )
            for point in points
        ]
    if jobs is None:
        jobs = default_jobs()
    meter = _Progress(len(points), termlog.progress_enabled(progress))
    if not points:
        return []
    if warm_init:
        _precompute_init_snapshots(points, meter)
    if on_error == "resume":
        on_error = "record"
    if jobs <= 1 or len(points) == 1:
        results = []
        for point in points:
            sims_before = runner.simulation_count()
            try:
                results.append(runner.run_experiment(**point.run_kwargs()))
            except Exception as exc:
                if on_error != "record":
                    raise
                error, message, diagnostic = runner.classify_failure(exc)
                results.append(
                    _record_failure(point, error, message, diagnostic, attempts=1)
                )
            meter.step(
                point.label(),
                instant=(runner.simulation_count() == sims_before),
            )
        return results
    return _run_parallel(points, jobs, timeout, retries, meter, on_error, backoff)


def _run_parallel(
    points: List[GridPoint],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    meter: _Progress,
    on_error: str = "raise",
    backoff: Optional[BackoffPolicy] = None,
) -> List[ExperimentResult]:
    from repro.harness.export import result_from_dict

    pending = deque(enumerate(points))
    running: Dict[int, _Running] = {}
    results: List[Optional[ExperimentResult]] = [None] * len(points)
    policy = backoff if backoff is not None else GRID_BACKOFF
    #: Per-point retry state (decorrelated jitter needs the previous
    #: delay), created on first failure.
    backoffs: Dict[int, Backoff] = {}
    #: Points waiting out their backoff: idx -> (point, next attempt).
    delayed: Dict[int, tuple] = {}

    def spawn(idx: int, point: GridPoint, attempt: int) -> None:
        handle = spawn_worker(point, "grid")
        now = time.monotonic()
        deadline = (now + timeout) if timeout else None
        running[idx] = _Running(point, handle, now, deadline, attempt)

    def fail(
        idx: int,
        reason: str,
        error: str = "error",
        diagnostic: Optional[dict] = None,
        worker_reported: bool = True,
    ) -> None:
        slot = running.pop(idx)
        slot.handle.close()
        if not worker_reported:
            record_lost_worker(
                slot.point, "grid", error, reason, slot.attempt,
                wall_s=time.monotonic() - slot.started,
            )
        if error not in DETERMINISTIC_ERRORS and slot.attempt <= retries:
            state = backoffs.setdefault(idx, Backoff(policy))
            delay = state.fail()
            meter.note(
                f"retrying {slot.point.label()} "
                f"(attempt {slot.attempt + 1}, backoff {delay:.2f}s): "
                f"{reason.splitlines()[0]}"
            )
            delayed[idx] = (slot.point, slot.attempt + 1)
        elif on_error == "record":
            results[idx] = _record_failure(
                slot.point, error, reason, diagnostic or {}, slot.attempt
            )
            meter.step(slot.point.label())
        else:
            raise GridError(
                f"grid point {slot.point.label()} failed after "
                f"{slot.attempt} attempt(s): {reason}"
            )

    try:
        while pending or running or delayed:
            # Backed-off retries whose delay has elapsed respawn first:
            # they have been waiting longest and hold a results slot.
            for idx in list(delayed):
                if len(running) >= jobs:
                    break
                if backoffs[idx].ready():
                    point, attempt = delayed.pop(idx)
                    spawn(idx, point, attempt)
            while pending and len(running) < jobs:
                idx, point = pending.popleft()
                spawn(idx, point, attempt=1)
            made_progress = False
            for idx in list(running):
                slot = running[idx]
                message = slot.handle.poll_message()
                if message is not None:
                    made_progress = True
                    status, payload = message
                    if status == "ok":
                        running.pop(idx).handle.close()
                        result = result_from_dict(payload["result"])
                        runner.adopt_result(
                            result,
                            app_overrides=slot.point.app_overrides,
                            runtime_kwargs=slot.point.runtime_kwargs,
                            config_overrides=slot.point.config_overrides,
                            faults=slot.point.faults,
                            sanitize=slot.point.sanitize,
                            watchdog=slot.point.watchdog,
                        )
                        results[idx] = result
                        meter.step(
                            slot.point.label(), instant=(payload["sims"] == 0)
                        )
                    elif status in DETERMINISTIC_ERRORS:
                        fail(
                            idx, payload["message"], error=status,
                            diagnostic=payload.get("diagnostic"),
                        )
                    elif status == "parked":
                        # The grid never requests parks itself (only the
                        # serve supervisor does); a stale park file counts
                        # as a retryable interruption — the retry resumes
                        # from the snapshot under on_error="resume".
                        fail(
                            idx,
                            f"worker parked at cycle {payload.get('cycle')}",
                            error="parked",
                        )
                    elif status == "gone":
                        fail(
                            idx,
                            "worker died before reporting a result",
                            worker_reported=False,
                        )
                    else:
                        fail(idx, payload)
                elif not slot.handle.alive():
                    made_progress = True
                    fail(
                        idx,
                        f"worker exited with code {slot.handle.proc.exitcode}",
                        worker_reported=False,
                    )
                elif slot.deadline is not None and time.monotonic() > slot.deadline:
                    made_progress = True
                    fail(
                        idx,
                        f"timed out after {timeout}s",
                        error="timeout",
                        worker_reported=False,
                    )
            if not made_progress:
                time.sleep(0.02)
    finally:
        for slot in running.values():
            slot.handle.close()
    return results  # type: ignore[return-value]
