"""Job model and priority queue for the simulation job service.

A :class:`Job` is one client-submitted (app × config × scale) experiment
plus its service metadata: tenant, priority, optional deadline, and
whether it may be preempted.  The :class:`JobQueue` holds every job the
server knows about, indexed by id and by *work key* — the sha256 identity
of the underlying experiment — and orders runnable jobs by (priority,
deadline, submission order).

Lifecycle state machine (every transition is journaled before it becomes
visible; see ``repro.serve.journal``)::

    submit ──► rejected                      (admission: overload / quota)
       │
       ▼            park                  ┌─────────┐
    pending ──► running ──► parked ──► pending (resume from snapshot)
       ▲            │
       │ retry      ├──► done             (result in the sha256 store)
       └────────────┤
                    └──► failed           (quarantined after N attempts,
                                           or a deterministic failure)

``done``/``failed``/``rejected`` are terminal; the kill-recovery
invariant is that every submitted job reaches exactly one of them, with
at most one simulation per distinct work key (duplicates dedupe through
the result store and the queue's key index).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

#: States a job can be in; TERMINAL states never change again.
STATES = ("pending", "running", "parked", "done", "failed", "rejected")
TERMINAL = ("done", "failed", "rejected")


@dataclass
class Job:
    """One submitted experiment plus service metadata (plain data,
    JSON-serializable via :meth:`as_dict` for the journal and the wire)."""

    app: str
    kind: str
    scale: str
    serial: bool = False
    app_overrides: Optional[dict] = None
    runtime_kwargs: Optional[dict] = None
    config_overrides: Optional[dict] = None
    tenant: str = "default"
    #: Lower is more urgent; ties break on deadline, then submit order.
    priority: int = 5
    #: Wall-clock SLO in seconds from submission (None = batch job).
    #: Deadline jobs may preempt running batch jobs to get a slot.
    deadline_s: Optional[float] = None
    #: Preemptible jobs may be parked via checkpoint to free their slot.
    preemptible: bool = True

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def work_key(self) -> str:
        """sha256 identity of the underlying experiment (dedupe key).

        Two jobs with the same work key are the same simulation — the
        queue coalesces them so only one ever runs, and the result store
        (which hashes a superset of these fields plus resolved params)
        satisfies any later rerun as a store hit.
        """
        from repro.harness.resultstore import hash_key

        return hash_key(
            {
                "app": self.app,
                "kind": self.kind,
                "scale": self.scale,
                "serial": bool(self.serial),
                "app_overrides": self.app_overrides or {},
                "runtime_kwargs": self.runtime_kwargs or {},
                "config_overrides": self.config_overrides or {},
            }
        )

    def grid_fields(self) -> dict:
        """GridPoint constructor kwargs for the worker process."""
        return dict(
            app=self.app,
            kind=self.kind,
            scale=self.scale,
            serial=self.serial,
            app_overrides=self.app_overrides,
            runtime_kwargs=self.runtime_kwargs,
            config_overrides=self.config_overrides,
        )


@dataclass
class JobRecord:
    """A job's full service-side state (the queue's table row)."""

    id: str
    job: Job
    state: str = "pending"
    submitted_at: float = field(default_factory=time.time)
    attempts: int = 0
    #: Terminal detail: "ok" | error kind | rejection reason.
    outcome: Optional[str] = None
    message: Optional[str] = None
    #: Result payload (export.result_to_dict form) once done.  In-memory
    #: only — recovered servers re-resolve results through the store.
    result: Optional[dict] = None
    #: Run-snapshot path once the job has been parked (resume source).
    snapshot: Optional[str] = None
    #: Leader job id when this job was deduped onto an identical one.
    dedup_of: Optional[str] = None
    parks: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def deadline_at(self) -> float:
        if self.job.deadline_s is None:
            return math.inf
        return self.submitted_at + self.job.deadline_s

    def sort_key(self, seq: int):
        return (self.job.priority, self.deadline_at(), seq)

    def public(self) -> dict:
        """The wire/status view of this record."""
        return {
            "id": self.id,
            "state": self.state,
            "app": self.job.app,
            "kind": self.job.kind,
            "scale": self.job.scale,
            "tenant": self.job.tenant,
            "priority": self.job.priority,
            "deadline_s": self.job.deadline_s,
            "preemptible": self.job.preemptible,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
            "parks": self.parks,
            "outcome": self.outcome,
            "message": self.message,
            "dedup_of": self.dedup_of,
        }


class JobQueue:
    """Priority queue + job table + work-key dedupe index.

    Pure bookkeeping: no I/O, no clocks beyond the submit timestamp the
    caller passes in.  The supervisor drives transitions; the journal
    records them; this class only keeps them consistent.
    """

    def __init__(self):
        self.records: Dict[str, JobRecord] = {}
        #: work key -> job ids sharing it (leader first).
        self.by_key: Dict[str, List[str]] = {}
        self._heap: List[tuple] = []
        self._seq = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def new_id(self) -> str:
        jid = f"j-{self._next_id:06d}"
        self._next_id += 1
        return jid

    def reserve_id(self, jid: str) -> None:
        """Keep ids monotonic across journal recovery."""
        try:
            n = int(jid.split("-", 1)[1])
        except (IndexError, ValueError):
            return
        self._next_id = max(self._next_id, n + 1)

    def add(self, record: JobRecord) -> None:
        if record.id in self.records:
            raise ValueError(f"duplicate job id {record.id}")
        self.records[record.id] = record
        self.by_key.setdefault(record.job.work_key(), []).append(record.id)
        if record.state == "pending":
            self._push(record)

    def _push(self, record: JobRecord) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (*record.sort_key(self._seq), record.id))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    #: States the heap may hand out: parked jobs re-enter scheduling from
    #: the heap too (they resume from their snapshot when dispatched).
    RUNNABLE = ("pending", "parked")

    def pop_runnable(self) -> Optional[JobRecord]:
        """Highest-priority runnable job, or None.  Lazy deletion: heap
        entries for jobs that moved on (retried, completed via dedupe)
        are skipped on pop."""
        while self._heap:
            *_sort, jid = heapq.heappop(self._heap)
            record = self.records.get(jid)
            if record is not None and record.state in self.RUNNABLE:
                return record
        return None

    def requeue(self, record: JobRecord) -> None:
        """Back to pending (retry, recovery)."""
        record.state = "pending"
        self._push(record)

    def repark(self, record: JobRecord) -> None:
        """Preempted: keep the parked state but stay schedulable."""
        record.state = "parked"
        self._push(record)

    def peek_urgent(self) -> Optional[JobRecord]:
        """The runnable job the supervisor would dispatch next, without
        removing it (preemption decisions look before they leap)."""
        while self._heap:
            *_sort, jid = self._heap[0]
            record = self.records.get(jid)
            if record is not None and record.state in self.RUNNABLE:
                return record
            heapq.heappop(self._heap)
        return None

    # ------------------------------------------------------------------
    # Dedupe
    # ------------------------------------------------------------------
    def twin_ids(self, record: JobRecord) -> List[str]:
        """Other non-terminal jobs with the same work key."""
        return [
            jid
            for jid in self.by_key.get(record.job.work_key(), [])
            if jid != record.id and not self.records[jid].terminal
        ]

    def running_twin(self, record: JobRecord) -> Optional[JobRecord]:
        """A running/parked job this record duplicates, if any."""
        for jid in self.by_key.get(record.job.work_key(), []):
            if jid == record.id:
                continue
            twin = self.records[jid]
            if twin.state in ("running", "parked"):
                return twin
        return None

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        for record in self.records.values():
            out[record.state] += 1
        return out

    def tenant_load(self, tenant: str) -> int:
        """Non-terminal jobs charged to a tenant (admission quota base)."""
        return sum(
            1
            for record in self.records.values()
            if record.job.tenant == tenant and not record.terminal
        )

    def pending_count(self) -> int:
        return sum(
            1 for record in self.records.values() if record.state == "pending"
        )

    def non_terminal(self) -> List[JobRecord]:
        return [r for r in self.records.values() if not r.terminal]
