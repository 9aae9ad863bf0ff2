"""Job supervisor: dispatch, worker supervision, retry, preemption.

The :class:`Supervisor` is the service's synchronous core: one
:meth:`poll` call performs a complete supervision tick — reap worker
messages, detect dead/wedged/timed-out workers, admit backed-off retries,
preempt for deadline jobs, and dispatch pending work into free slots.
The asyncio server (``repro.serve.server``) just calls ``poll()`` on a
timer; unit tests call it directly with an injected clock, spawn function,
and heartbeat probe, so every failure path is exercisable in milliseconds
without real processes.

Workers are the *grid's* workers: each dispatch builds a
:class:`repro.harness.grid.GridPoint` and starts it with
:func:`repro.harness.grid.spawn_worker` — the same entry point, pipe
protocol, failure kinds, and result serialization as ``run_grid``, so
serve inherits the grid's determinism and store adoption for free.  A
worker the supervisor kills or loses gets its ledger line from
:func:`repro.harness.grid.record_lost_worker`.  Every run gets a
periodic checkpoint (resume point for kills) and, when preemptible, a
park file the supervisor can touch to request a cooperative preemption
(``repro.engine.checkpoint.ParkDaemon``).

Supervision verdicts per worker, in check order:

1. message received — terminal (``ok``/``deadlock``/``violation``),
   ``parked``, or a retryable error;
2. process died without a message — retryable (``worker-died``);
3. wall-clock budget exceeded — kill, retryable (``timeout``);
4. heartbeat snapshot too old — kill, retryable (``wedged``);
5. park grace expired — kill, requeue *without* burning an attempt
   (``park-timeout``; the job restarts from its last periodic snapshot).

Retryable failures wait out the policy's decorrelated-jitter backoff
(shared helper with the grid: ``repro.harness.retry``); a job that fails
``max_attempts`` times is quarantined as terminally ``failed`` — one
poison job can never wedge the service.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.harness.grid import (
    GridPoint,
    WorkerHandle,
    record_lost_worker,
    spawn_worker,
)
from repro.harness.retry import Backoff
from repro.harness.runner import DETERMINISTIC_ERRORS
from repro.serve.journal import Journal
from repro.serve.policy import ServePolicy, admission_reason
from repro.serve.queue import Job, JobQueue, JobRecord


def spawn_grid_worker(record: JobRecord, checkpoint: dict) -> WorkerHandle:
    """Fork one grid worker for ``record`` (the default spawn function)."""
    point = GridPoint(**record.job.grid_fields(), checkpoint=checkpoint)
    return spawn_worker(point, "serve")


class HeartbeatAgeTracker:
    """Ages heartbeat snapshots on the supervisor's injected clock.

    File mtimes live in the wall-clock domain (``time.time``) while every
    supervision verdict runs on the injectable ``clock`` (default
    ``time.monotonic``); subtracting one from the other lets an NTP step
    instantly "age" a healthy worker past the wedged threshold — and makes
    the wedged path untestable under a fake clock.  The tracker therefore
    never subtracts an mtime from anything: mtimes are compared only for
    *equality* (did the snapshot change since last look?), each change is
    stamped with the injected clock, and ages are differences of those
    stamps.  The first observation of a pid counts as fresh (age 0): the
    worker gets one full ``wedged_after_s`` window from the moment the
    supervisor starts watching it, never a head start from stale files.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        #: pid -> (newest mtime last seen, injected-clock stamp of that
        #: observation).  Mtimes are opaque change tokens here.
        self._seen: Dict[int, tuple] = {}

    @staticmethod
    def _newest_mtime(pid: int) -> Optional[float]:
        from repro.obs.heartbeat import heartbeat_dir

        directory = heartbeat_dir()
        if not directory:
            return None
        newest = None
        for path in glob.glob(os.path.join(directory, f"{pid}-*.json")):
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            if newest is None or mtime > newest:
                newest = mtime
        return newest

    def __call__(self, pid: int) -> Optional[float]:
        """Seconds (on the injected clock) since worker ``pid`` last
        replaced a heartbeat snapshot, or None when no snapshot exists
        (heartbeats off → no wedged verdict, the wall-clock timeout is
        the only backstop)."""
        newest = self._newest_mtime(pid)
        if newest is None:
            self._seen.pop(pid, None)
            return None
        now = self.clock()
        last = self._seen.get(pid)
        if last is None or last[0] != newest:
            self._seen[pid] = (newest, now)
            return 0.0
        return max(0.0, now - last[1])

    def forget(self, pid: int) -> None:
        """Drop state for a reaped worker (pids get recycled)."""
        self._seen.pop(pid, None)


@dataclass
class _Active:
    """Book-keeping for one dispatched worker."""

    record: JobRecord
    handle: WorkerHandle
    started_at: float
    deadline: Optional[float]
    snapshot_path: str
    park_path: Optional[str]
    park_deadline: Optional[float] = None


@dataclass
class _Delayed:
    """A retry waiting out its backoff."""

    record: JobRecord
    backoff: Backoff


class Supervisor:
    """Synchronous supervision core for the job service."""

    def __init__(
        self,
        queue: JobQueue,
        journal: Journal,
        policy: ServePolicy,
        workdir: str,
        spawn: Callable[[JobRecord, dict], WorkerHandle] = spawn_grid_worker,
        clock: Callable[[], float] = time.monotonic,
        heartbeat_age: Optional[Callable[[int], Optional[float]]] = None,
        log: Optional[Callable[[str], None]] = None,
    ):
        self.queue = queue
        self.journal = journal
        self.policy = policy
        self.workdir = workdir
        self.snapshots_dir = os.path.join(workdir, "snapshots")
        os.makedirs(self.snapshots_dir, exist_ok=True)
        self.spawn = spawn
        self.clock = clock
        # Default tracker shares the supervisor's clock so wedged verdicts
        # run in the same (fake-steppable) time domain as every other one.
        self.heartbeat_age = (
            heartbeat_age if heartbeat_age is not None
            else HeartbeatAgeTracker(clock)
        )
        self.log = log or (lambda message: None)
        self.active: Dict[str, _Active] = {}
        self.delayed: Dict[str, _Delayed] = {}
        #: Persistent per-job backoff state (decorrelated jitter carries
        #: the previous delay across retries of the same job).
        self._backoffs: Dict[str, Backoff] = {}
        #: leader job id -> follower records coalesced behind it.
        self.followers: Dict[str, List[JobRecord]] = {}
        #: Jobs whose next start resumes a preempted run (parked, or
        #: killed at park grace expiry); such starts are not attempts.
        self._park_resumes: set = set()

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Admit (or explicitly reject) one job; returns its record."""
        jid = self.queue.new_id()
        reason = admission_reason(self.policy, self.queue, job)
        if reason is not None:
            self.journal.append("reject", id=jid, job=job.as_dict(), reason=reason)
            record = JobRecord(
                id=jid, job=job, state="rejected",
                outcome="rejected", message=reason,
            )
            self.queue.add(record)
            self.log(f"{jid} rejected: {reason}")
            return record
        self.journal.append("submit", id=jid, job=job.as_dict())
        record = JobRecord(id=jid, job=job)
        self.queue.add(record)
        self.log(f"{jid} submitted: {job.app}/{job.kind}/{job.scale}")
        return record

    # ------------------------------------------------------------------
    # The supervision tick
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """One complete supervision pass (cheap; call it on a timer)."""
        self._reap_messages()
        self._check_watchdogs()
        self._admit_delayed()
        self._maybe_preempt()
        self._dispatch()

    def idle(self) -> bool:
        """True when no job can make further progress without new input."""
        return not self.active and not self.delayed and not any(
            record.state in ("pending", "parked")
            for record in self.queue.records.values()
        )

    def shutdown(self) -> None:
        """Kill every live worker (their jobs recover from the journal)."""
        for jid in list(self.active):
            active = self.active.pop(jid)
            active.handle.kill()
            active.handle.close()

    # ------------------------------------------------------------------
    # Message reaping
    # ------------------------------------------------------------------
    def _reap_messages(self) -> None:
        for jid in list(self.active):
            active = self.active[jid]
            message = active.handle.poll_message()
            if message is not None:
                status, payload = message
                self._on_message(jid, active, status, payload)
            elif not active.handle.alive():
                self._lose(jid, "worker-died",
                           "worker exited without reporting a result")

    def _on_message(self, jid: str, active: _Active, status, payload) -> None:
        record = active.record
        if status == "gone":
            self._lose(jid, "worker-died", "result pipe broke")
            return
        self._close(jid)
        if status == "ok":
            self._complete(record, payload["result"])
        elif status == "parked":
            self._on_parked(active, payload)
        elif status in DETERMINISTIC_ERRORS:
            message = (payload or {}).get("message", status)
            self._quarantine(record, status, message)
        else:  # "err" payload is the worker's traceback string
            self._retry(record, "error", str(payload))

    def _lose(self, jid: str, error: str, message: str) -> None:
        """Reap a worker that cannot report for itself (killed by a
        watchdog, or dead), record its attempt in the ledger, and retry
        the job."""
        active = self.active[jid]
        active.handle.kill()
        self._close(jid)
        record_lost_worker(
            GridPoint(**active.record.job.grid_fields()), "serve",
            error, message, active.record.attempts,
            wall_s=self.clock() - active.started_at,
        )
        self._retry(active.record, error, message)

    def _close(self, jid: str) -> None:
        active = self.active.pop(jid)
        active.handle.close()
        forget = getattr(self.heartbeat_age, "forget", None)
        if forget is not None:
            forget(active.handle.pid)
        if active.park_path:
            # Consume any pending park request so a later resume of this
            # job is not immediately re-parked by a stale file.
            try:
                os.unlink(active.park_path)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def _complete(self, record: JobRecord, result: dict) -> None:
        self.journal.append("done", id=record.id, outcome="ok")
        record.state = "done"
        record.outcome = "ok"
        record.result = result
        record.snapshot = None
        self._backoffs.pop(record.id, None)
        self.log(f"{record.id} done")
        for follower in self.followers.pop(record.id, []):
            self.journal.append("done", id=follower.id, outcome="dedup")
            follower.state = "done"
            follower.outcome = "dedup"
            follower.result = result
            self.log(f"{follower.id} done (dedup of {record.id})")

    def _on_parked(self, active: _Active, payload) -> None:
        record = active.record
        snapshot = (payload or {}).get("snapshot") or active.snapshot_path
        self.journal.append(
            "park", id=record.id,
            snapshot=snapshot, cycle=(payload or {}).get("cycle"),
        )
        record.snapshot = snapshot
        record.parks += 1
        self._park_resumes.add(record.id)
        self.queue.repark(record)
        self.log(f"{record.id} parked at cycle {(payload or {}).get('cycle')}")

    def _quarantine(self, record: JobRecord, error: str, message: str) -> None:
        self.journal.append("failed", id=record.id, error=error, message=message)
        record.state = "failed"
        record.outcome = error
        record.message = message
        self._backoffs.pop(record.id, None)
        self.log(f"{record.id} failed: {error}")
        # Followers must run for themselves now (and will store-hit if the
        # failure was environmental and a retrying twin later succeeds).
        for follower in self.followers.pop(record.id, []):
            follower.dedup_of = None
            self.queue.requeue(follower)

    def _retry(self, record: JobRecord, error: str, message: str) -> None:
        if error != "park-timeout" and record.attempts >= self.policy.max_attempts:
            self._quarantine(
                record, error,
                f"quarantined after {record.attempts} attempts: {message}",
            )
            return
        self.journal.append(
            "retry", id=record.id, attempt=record.attempts, error=error
        )
        record.state = "pending"
        if error == "park-timeout":
            # Not the job's fault: no backoff, no attempt burned — it
            # restarts from its last periodic snapshot right away.
            self._park_resumes.add(record.id)
            self.queue.requeue(record)
            self.log(f"{record.id} park grace expired; requeued")
            return
        backoff = self._backoffs.setdefault(
            record.id, Backoff(self.policy.backoff, clock=self.clock)
        )
        delay = backoff.fail()
        self.delayed[record.id] = _Delayed(record, backoff)
        self.log(
            f"{record.id} attempt {record.attempts} failed ({error}); "
            f"retry in {delay:.2f}s"
        )

    # ------------------------------------------------------------------
    # Watchdogs: timeout, wedged, park grace
    # ------------------------------------------------------------------
    def _check_watchdogs(self) -> None:
        now = self.clock()
        for jid in list(self.active):
            active = self.active[jid]
            if active.park_deadline is not None and now > active.park_deadline:
                self._lose(jid, "park-timeout",
                           "worker missed the park grace window")
            elif active.deadline is not None and now > active.deadline:
                self._lose(
                    jid, "timeout",
                    f"exceeded {self.policy.timeout_s}s wall budget",
                )
            elif self.policy.wedged_after_s is not None:
                age = self.heartbeat_age(active.handle.pid)
                if age is not None and age > self.policy.wedged_after_s:
                    self._lose(jid, "wedged", f"no heartbeat for {age:.1f}s")

    # ------------------------------------------------------------------
    # Backoff admission
    # ------------------------------------------------------------------
    def _admit_delayed(self) -> None:
        for jid in list(self.delayed):
            if self.delayed[jid].backoff.ready():
                delayed = self.delayed.pop(jid)
                self.queue.requeue(delayed.record)

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _maybe_preempt(self) -> None:
        """Ask one running batch job to park when a deadline job is stuck
        behind a full slot table."""
        if len(self.active) < self.policy.slots:
            return
        urgent = self.queue.peek_urgent()
        if urgent is None or urgent.job.deadline_s is None:
            return
        victim = self._pick_victim(urgent)
        if victim is None:
            return
        # Touch the park file; the worker's ParkDaemon sees it at its next
        # poll boundary, snapshots, and exits with a "parked" message.
        with open(victim.park_path, "w", encoding="utf-8"):
            pass
        victim.park_deadline = self.clock() + self.policy.park_grace_s
        self.log(
            f"preempting {victim.record.id} for {urgent.id} "
            f"(grace {self.policy.park_grace_s}s)"
        )

    def _pick_victim(self, urgent: JobRecord) -> Optional[_Active]:
        """The least-urgent parkable worker, or None."""
        candidates = [
            active
            for active in self.active.values()
            if active.park_path is not None
            and active.park_deadline is None
            and active.record.job.deadline_s is None
            and active.record.job.priority >= urgent.job.priority
        ]
        if not candidates:
            return None
        # Lowest urgency first; among equals, least sunk simulation time.
        return max(
            candidates,
            key=lambda active: (active.record.job.priority, active.started_at),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        held = []
        while len(self.active) < self.policy.slots:
            record = self.queue.pop_runnable()
            if record is None:
                break
            twin = self.queue.running_twin(record)
            if twin is not None and record.state == "pending":
                # Identical work is already in flight: coalesce behind it
                # instead of simulating twice.
                self.journal.append("dedup", id=record.id, of=twin.id)
                record.dedup_of = twin.id
                self.followers.setdefault(twin.id, []).append(record)
                self.log(f"{record.id} deduped onto {twin.id}")
                continue
            if twin is not None:
                # A parked record can never follow a twin (its snapshot is
                # its own); hold it until the twin resolves.
                held.append(record)
                continue
            self._start(record)
        for record in held:
            self.queue._push(record)

    def _start(self, record: JobRecord) -> None:
        snapshot_path = os.path.join(self.snapshots_dir, f"{record.id}.ckpt")
        park_path = f"{snapshot_path}.park" if record.job.preemptible else None
        checkpoint = dict(
            path=snapshot_path,
            interval=self.policy.checkpoint_interval,
            resume=True,
            park_path=park_path,
            park_poll=self.policy.park_poll,
        )
        if park_path is not None:
            # Never start into a stale park request.
            try:
                os.unlink(park_path)
            except OSError:
                pass
        handle = self.spawn(record, checkpoint)
        record.state = "running"
        if record.id in self._park_resumes:
            self._park_resumes.discard(record.id)
        else:
            record.attempts += 1
        resuming = bool(record.snapshot) or os.path.exists(snapshot_path)
        self.journal.append(
            "start", id=record.id, pid=handle.pid,
            attempt=record.attempts, resume=resuming,
        )
        now = self.clock()
        self.active[record.id] = _Active(
            record=record,
            handle=handle,
            started_at=now,
            deadline=(
                now + self.policy.timeout_s
                if self.policy.timeout_s is not None
                else None
            ),
            snapshot_path=snapshot_path,
            park_path=park_path,
        )
        self.log(
            f"{record.id} started (pid {handle.pid}, attempt {record.attempts}"
            + (", resume" if resuming else "") + ")"
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The service-level snapshot (wire `status` op; `repro top`)."""
        return {
            "counts": self.queue.counts(),
            "slots": self.policy.slots,
            "active": [
                {
                    "id": jid,
                    "pid": active.handle.pid,
                    "app": active.record.job.app,
                    "attempt": active.record.attempts,
                    "parking": active.park_deadline is not None,
                }
                for jid, active in sorted(self.active.items())
            ],
            "delayed": sorted(self.delayed),
            "jobs": [
                record.public()
                for _, record in sorted(self.queue.records.items())
            ],
        }
