"""Tests for the crash-tolerant job service (repro.serve).

Three layers, increasingly integrated:

* pure-logic units (queue ordering, admission policy, journal replay)
  with no processes and no clocks;
* the supervisor against a *fake* spawn function and an injected clock —
  every failure verdict (death, timeout, wedged, park, poison job)
  exercised in milliseconds;
* end-to-end runs on real forked grid workers, including the kill-recovery
  invariant: a server "crash" mid-run loses no job, re-runs at most what
  never completed, and parked jobs resume from their snapshots.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.harness import clear_cache, set_result_store
from repro.harness.retry import NO_BACKOFF, BackoffPolicy
from repro.serve import (
    Job,
    JobQueue,
    JobRecord,
    Journal,
    ServePolicy,
    Supervisor,
    admission_reason,
    recover,
    replay,
)


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    clear_cache()


def job(**overrides) -> Job:
    fields = dict(app="cilk5-mt", kind="bt-mesi", scale="tiny")
    fields.update(overrides)
    return Job(**fields)


# ----------------------------------------------------------------------
# Queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_order_with_deadline_tiebreak(self):
        queue = JobQueue()
        batch = JobRecord(id="j-1", job=job(priority=5), submitted_at=0.0)
        urgent = JobRecord(id="j-2", job=job(priority=1), submitted_at=1.0)
        deadline = JobRecord(
            id="j-3", job=job(priority=5, deadline_s=10.0), submitted_at=2.0
        )
        for record in (batch, urgent, deadline):
            queue.add(record)
        assert queue.pop_runnable().id == "j-2"  # lowest priority number
        assert queue.pop_runnable().id == "j-3"  # deadline beats batch
        assert queue.pop_runnable().id == "j-1"
        assert queue.pop_runnable() is None

    def test_work_key_identifies_the_experiment(self):
        assert job().work_key() == job().work_key()
        assert job().work_key() != job(scale="quick").work_key()
        assert job().work_key() != job(serial=True).work_key()
        # Service metadata is not part of the experiment's identity.
        assert (
            job(priority=1, tenant="a", deadline_s=5.0).work_key()
            == job(priority=9, tenant="b").work_key()
        )

    def test_pop_skips_records_that_moved_on(self):
        queue = JobQueue()
        record = JobRecord(id="j-1", job=job())
        queue.add(record)
        record.state = "done"  # moved on while queued
        assert queue.pop_runnable() is None

    def test_tenant_load_counts_non_terminal_only(self):
        queue = JobQueue()
        queue.add(JobRecord(id="j-1", job=job(tenant="t")))
        done = JobRecord(id="j-2", job=job(tenant="t"), state="done")
        queue.add(done)
        assert queue.tenant_load("t") == 1

    def test_ids_monotonic_across_recovery(self):
        queue = JobQueue()
        queue.reserve_id("j-000007")
        assert queue.new_id() == "j-000008"


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_overload_sheds_explicitly(self):
        policy = ServePolicy(max_pending=2)
        queue = JobQueue()
        for i in range(2):
            queue.add(JobRecord(id=f"j-{i}", job=job()))
        assert admission_reason(policy, queue, job()) == "overload"

    def test_tenant_quota(self):
        policy = ServePolicy(max_per_tenant=1, max_pending=10)
        queue = JobQueue()
        queue.add(JobRecord(id="j-1", job=job(tenant="greedy")))
        assert admission_reason(policy, queue, job(tenant="greedy")) == "quota"
        assert admission_reason(policy, queue, job(tenant="other")) is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ServePolicy(slots=0)
        with pytest.raises(ValueError):
            ServePolicy(max_attempts=0)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_replay_folds_full_lifecycle(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("submit", id="j-1", job=job().as_dict())
        journal.append("start", id="j-1", pid=999999, attempt=1)
        journal.append("park", id="j-1", snapshot="/s/j-1.ckpt", cycle=4000)
        journal.append("start", id="j-1", pid=999998, attempt=1, resume=True)
        journal.append("done", id="j-1", outcome="ok")
        journal.append("submit", id="j-2", job=job().as_dict())
        journal.append("reject", id="j-3", job=job().as_dict(), reason="quota")
        records, orphans, stats = replay(journal.path)
        assert records["j-1"].state == "done"
        assert records["j-1"].outcome == "ok"
        assert records["j-2"].state == "pending"
        assert records["j-3"].state == "rejected"
        assert records["j-3"].message == "quota"
        assert orphans == {}  # the done event superseded the start
        assert stats["malformed"] == 0 and not stats["torn_tail"]

    def test_replay_tracks_orphan_of_interrupted_start(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("submit", id="j-1", job=job().as_dict())
        journal.append("start", id="j-1", pid=424242, attempt=1)
        records, orphans, _ = replay(journal.path)
        assert records["j-1"].state == "running"
        assert orphans == {"j-1": 424242}

    def test_replay_tolerates_torn_tail(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("submit", id="j-1", job=job().as_dict())
        with open(journal.path, "a") as fh:
            fh.write('{"ev": "start", "id": "j-1", "p')  # killed mid-append
        records, orphans, stats = replay(journal.path)
        assert records["j-1"].state == "pending"  # torn start never took
        assert stats["torn_tail"] is True
        assert stats["malformed"] == 0

    def test_recover_requeues_and_kills_orphans(self, tmp_path):
        # A genuinely live "orphan worker" the dead server left behind.
        proc = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(120)"]
        )
        try:
            journal = Journal(tmp_path / "journal.jsonl")
            journal.append("submit", id="j-1", job=job().as_dict())
            journal.append("start", id="j-1", pid=proc.pid, attempt=1)
            journal.append("submit", id="j-2", job=job(scale="quick").as_dict())
            journal.append(
                "park", id="j-2", snapshot=str(tmp_path / "j-2.ckpt"), cycle=7
            )
            journal.append("submit", id="j-3", job=job(serial=True).as_dict())
            journal.append("done", id="j-3", outcome="ok")
            queue, report = recover(journal)
            assert report["killed"] == [proc.pid]
            proc.wait(timeout=10)  # SIGKILLed by recovery
            assert queue.records["j-1"].state == "pending"
            parked = queue.records["j-2"]
            assert parked.state == "pending"
            assert parked.snapshot == str(tmp_path / "j-2.ckpt")  # resume source
            assert queue.records["j-3"].state == "done"  # terminal stays
            # Recovery is itself journaled, and a second replay sees the
            # marker (no orphan double-kill on the next restart).
            _, orphans, _ = replay(journal.path)
            assert orphans == {}
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_recover_clears_stale_park_files(self, tmp_path):
        snap = tmp_path / "j-1.ckpt"
        park = tmp_path / "j-1.ckpt.park"
        park.write_text("")
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append("submit", id="j-1", job=job().as_dict())
        journal.append("park", id="j-1", snapshot=str(snap), cycle=3)
        recover(journal)
        assert not park.exists()


# ----------------------------------------------------------------------
# Supervisor (fake workers, fake clock)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeHandle:
    _next_pid = 50_000

    def __init__(self):
        FakeHandle._next_pid += 1
        self.pid = FakeHandle._next_pid
        self._alive = True
        self.killed = False
        self.messages = []

    def alive(self):
        return self._alive

    def poll_message(self):
        if self.messages:
            return self.messages.pop(0)
        return None

    def kill(self):
        self.killed = True
        self._alive = False

    def close(self):
        self._alive = False

    # Test helpers -----------------------------------------------------
    def finish_ok(self, result=None):
        self.messages.append(("ok", {"result": result or {"cycles": 1}}))
        self._alive = False

    def die_silently(self):
        self._alive = False


class FakeSpawner:
    def __init__(self):
        self.calls = []  # (record id, checkpoint dict, handle)

    def __call__(self, record, checkpoint):
        handle = FakeHandle()
        self.calls.append((record.id, checkpoint, handle))
        return handle

    def handle_for(self, jid):
        for rid, _ckpt, handle in reversed(self.calls):
            if rid == jid:
                return handle
        raise KeyError(jid)


def make_supervisor(tmp_path, **policy_overrides):
    policy_fields = dict(
        slots=2, max_attempts=3, backoff=NO_BACKOFF, wedged_after_s=None
    )
    policy_fields.update(policy_overrides)
    clock = FakeClock()
    spawner = FakeSpawner()
    supervisor = Supervisor(
        JobQueue(),
        Journal(tmp_path / "journal.jsonl"),
        ServePolicy(**policy_fields),
        str(tmp_path),
        spawn=spawner,
        clock=clock,
        heartbeat_age=lambda pid: None,
    )
    return supervisor, spawner, clock


class TestSupervisor:
    def test_dispatch_fills_slots_and_completes(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(tmp_path, slots=2)
        records = [supervisor.submit(job(app_overrides={"n": i})) for i in range(3)]
        supervisor.poll()
        assert len(supervisor.active) == 2  # third job waits for a slot
        spawner.handle_for(records[0].id).finish_ok()
        supervisor.poll()
        assert records[0].state == "done"
        assert records[0].outcome == "ok"
        assert records[2].id in supervisor.active  # backfilled
        for record in records[1:]:
            spawner.handle_for(record.id).finish_ok()
        supervisor.poll()
        assert supervisor.idle()

    def test_rejected_submission_is_terminal_and_journaled(self, tmp_path):
        supervisor, _, _ = make_supervisor(tmp_path, max_pending=1, slots=1)
        supervisor.submit(job())
        rejected = supervisor.submit(job(app_overrides={"n": 2}))
        assert rejected.state == "rejected"
        assert rejected.message == "overload"
        records, _, _ = replay(supervisor.journal.path)
        assert records[rejected.id].state == "rejected"

    def test_worker_death_retries_then_quarantines(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(
            tmp_path, slots=1, max_attempts=3
        )
        record = supervisor.submit(job())
        for attempt in range(1, 4):
            supervisor.poll()  # dispatch (NO_BACKOFF: instantly eligible)
            assert record.attempts == attempt
            spawner.handle_for(record.id).die_silently()
            supervisor.poll()  # reap the death
        assert record.state == "failed"
        assert "quarantined after 3 attempts" in record.message
        assert len(spawner.calls) == 3

    def test_backoff_delays_the_retry(self, tmp_path):
        supervisor, spawner, clock = make_supervisor(
            tmp_path, slots=1,
            backoff=BackoffPolicy(base_s=5.0, cap_s=5.0, multiplier=1.0),
        )
        record = supervisor.submit(job())
        supervisor.poll()
        spawner.handle_for(record.id).die_silently()
        supervisor.poll()  # reap; retry scheduled 5s out
        supervisor.poll()
        assert len(spawner.calls) == 1  # not yet eligible
        assert record.id in supervisor.delayed
        clock.advance(5.1)
        supervisor.poll()
        assert len(spawner.calls) == 2  # respawned after the backoff

    def test_deterministic_failure_never_retries(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(tmp_path, slots=1)
        record = supervisor.submit(job())
        supervisor.poll()
        spawner.handle_for(record.id).messages.append(
            ("deadlock", {"message": "all cores idle", "diagnostic": {}})
        )
        supervisor.poll()
        assert record.state == "failed"
        assert record.outcome == "deadlock"
        assert len(spawner.calls) == 1

    def test_timeout_kills_and_retries(self, tmp_path):
        supervisor, spawner, clock = make_supervisor(
            tmp_path, slots=1, timeout_s=30.0
        )
        record = supervisor.submit(job())
        supervisor.poll()
        handle = spawner.handle_for(record.id)
        clock.advance(31.0)
        supervisor.poll()  # kill + (NO_BACKOFF) immediate redispatch
        assert handle.killed
        assert len(spawner.calls) == 2
        assert record.attempts == 2
        events = [json.loads(line) for line in
                  open(supervisor.journal.path, encoding="utf-8")]
        retries = [e for e in events if e["ev"] == "retry"]
        assert retries and retries[0]["error"] == "timeout"

    def test_wedged_worker_detected_via_heartbeat_age(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(
            tmp_path, slots=1, wedged_after_s=10.0
        )
        supervisor.heartbeat_age = lambda pid: 60.0  # ancient heartbeat
        record = supervisor.submit(job())
        supervisor.poll()
        handle = spawner.handle_for(record.id)
        supervisor.poll()
        assert handle.killed
        events = [json.loads(line) for line in
                  open(supervisor.journal.path, encoding="utf-8")]
        retries = [e for e in events if e["ev"] == "retry"]
        assert retries and retries[0]["error"] == "wedged"

    def test_wedged_verdict_runs_on_the_injected_clock(
        self, tmp_path, monkeypatch
    ):
        """Regression: heartbeat ages used to be ``time.time() - mtime``
        while every other verdict ran on the injected clock — untestable
        under a fake clock, and one NTP step could false-kill a healthy
        worker.  With the default tracker the whole wedged path now runs
        on the supervisor's own clock against real snapshot files."""
        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        clock = FakeClock()
        spawner = FakeSpawner()
        supervisor = Supervisor(
            JobQueue(),
            Journal(tmp_path / "journal.jsonl"),
            ServePolicy(slots=1, max_attempts=3, backoff=NO_BACKOFF,
                        wedged_after_s=10.0),
            str(tmp_path),
            spawn=spawner,
            clock=clock,  # heartbeat_age not injected: default tracker
        )
        record = supervisor.submit(job())
        supervisor.poll()
        handle = spawner.handle_for(record.id)
        snapshot = hb_dir / f"{handle.pid}-1.json"
        # Snapshot written in the *wall* clock's past: an mtime-vs-wall
        # subtraction would see it as ancient and kill instantly.
        snapshot.write_text("{}")
        os.utime(snapshot, (time.time() - 3600, time.time() - 3600))
        supervisor.poll()
        assert not handle.killed  # first observation counts as fresh
        clock.advance(9.0)
        supervisor.poll()
        assert not handle.killed  # 9s < wedged_after_s on the fake clock
        # A fresh beat (mtime changes) resets the age even though the fake
        # clock keeps marching.
        os.utime(snapshot, (time.time() - 1800, time.time() - 1800))
        clock.advance(9.0)
        supervisor.poll()
        assert not handle.killed
        clock.advance(11.0)  # now 11s of fake time with no new beat
        supervisor.poll()
        assert handle.killed
        events = [json.loads(line) for line in
                  open(supervisor.journal.path, encoding="utf-8")]
        retries = [e for e in events if e["ev"] == "retry"]
        assert retries and retries[0]["error"] == "wedged"

    def test_heartbeat_tracker_forgets_reaped_pids(self, tmp_path, monkeypatch):
        from repro.serve.supervisor import HeartbeatAgeTracker

        hb_dir = tmp_path / "heartbeats"
        hb_dir.mkdir()
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        clock = FakeClock()
        tracker = HeartbeatAgeTracker(clock)
        snapshot = hb_dir / "123-1.json"
        snapshot.write_text("{}")
        assert tracker(123) == 0.0
        clock.advance(5.0)
        assert tracker(123) == 5.0
        tracker.forget(123)
        clock.advance(5.0)
        # Same mtime, but a recycled pid starts a fresh observation window.
        assert tracker(123) == 0.0
        snapshot.unlink()
        assert tracker(123) is None  # no snapshot -> no wedged verdict

    def test_dedup_coalesces_identical_jobs(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(tmp_path, slots=2)
        leader = supervisor.submit(job())
        follower = supervisor.submit(job())  # identical work key
        supervisor.poll()
        assert len(spawner.calls) == 1  # only the leader runs
        assert follower.dedup_of == leader.id
        spawner.handle_for(leader.id).finish_ok({"cycles": 42})
        supervisor.poll()
        assert leader.state == "done" and leader.outcome == "ok"
        assert follower.state == "done" and follower.outcome == "dedup"
        assert follower.result == {"cycles": 42}

    def test_follower_runs_itself_when_leader_quarantined(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(
            tmp_path, slots=2, max_attempts=1
        )
        leader = supervisor.submit(job())
        follower = supervisor.submit(job())
        supervisor.poll()
        assert follower.dedup_of == leader.id  # coalesced first
        spawner.handle_for(leader.id).die_silently()
        supervisor.poll()  # leader quarantined (max_attempts=1)
        assert leader.state == "failed"
        supervisor.poll()
        assert follower.id in supervisor.active  # promoted to run itself
        assert follower.dedup_of is None

    def test_preemption_parks_batch_for_deadline_job(self, tmp_path):
        supervisor, spawner, clock = make_supervisor(tmp_path, slots=1)
        batch = supervisor.submit(job(priority=5))
        supervisor.poll()
        assert batch.id in supervisor.active
        deadline = supervisor.submit(
            job(app_overrides={"n": 2}, deadline_s=30.0)
        )
        supervisor.poll()  # requests the park
        active = supervisor.active[batch.id]
        assert active.park_deadline is not None
        assert os.path.exists(active.park_path)
        # The worker's ParkDaemon sees the file, snapshots, and reports.
        snapshot = active.snapshot_path
        spawner.handle_for(batch.id).messages.append(
            ("parked", {"cycle": 4000, "snapshot": snapshot})
        )
        supervisor.poll()
        assert batch.state in ("parked", "running")  # may already redispatch
        assert batch.parks == 1 and batch.snapshot == snapshot
        assert deadline.id in supervisor.active  # the slot changed hands
        # Park request consumed: a resume won't immediately re-park.
        assert not os.path.exists(active.park_path)
        spawner.handle_for(deadline.id).finish_ok()
        supervisor.poll()
        assert deadline.state == "done"
        # The parked batch job is redispatched with resume semantics.
        assert batch.id in supervisor.active

    def test_park_grace_expiry_kills_without_burning_attempt(self, tmp_path):
        supervisor, spawner, clock = make_supervisor(
            tmp_path, slots=1, park_grace_s=2.0
        )
        batch = supervisor.submit(job())
        supervisor.poll()
        supervisor.submit(job(app_overrides={"n": 2}, deadline_s=5.0))
        supervisor.poll()  # park requested
        handle = spawner.handle_for(batch.id)
        clock.advance(2.5)  # grace expires without a park message
        supervisor.poll()
        assert handle.killed
        assert batch.attempts == 1  # park-timeout burns no attempt
        records, _, _ = replay(supervisor.journal.path)
        assert records[batch.id].state in ("pending", "running")

    def test_park_resume_does_not_burn_an_attempt(self, tmp_path):
        """Regression: every dispatch used to count as an attempt, so with
        max_attempts=2 one park plus one worker death quarantined the job
        although "parks do not count as attempts"."""
        supervisor, spawner, _ = make_supervisor(
            tmp_path, slots=1, max_attempts=2
        )
        batch = supervisor.submit(job())
        supervisor.poll()
        deadline = supervisor.submit(
            job(app_overrides={"n": 2}, deadline_s=30.0)
        )
        supervisor.poll()  # park requested
        snapshot = supervisor.active[batch.id].snapshot_path
        spawner.handle_for(batch.id).messages.append(
            ("parked", {"cycle": 4000, "snapshot": snapshot})
        )
        supervisor.poll()  # batch parks; the deadline job takes the slot
        spawner.handle_for(deadline.id).finish_ok()
        supervisor.poll()  # batch resumes from its snapshot
        assert batch.id in supervisor.active
        assert batch.attempts == 1
        spawner.handle_for(batch.id).die_silently()
        supervisor.poll()  # the first real failure is retried
        assert batch.state != "failed"
        assert batch.id in supervisor.active
        assert batch.attempts == 2

    def test_killed_and_lost_workers_get_a_serve_ledger_line(self, tmp_path):
        """Regression: a worker the supervisor killed or lost wrote no
        ledger line, so `repro report` undercounted service wall time."""
        from repro.obs.ledger import read_ledger, set_ledger

        set_ledger(tmp_path / "ledger.jsonl")
        try:
            supervisor, spawner, clock = make_supervisor(
                tmp_path, slots=1, timeout_s=30.0
            )
            record = supervisor.submit(job())
            supervisor.poll()
            clock.advance(31.0)
            supervisor.poll()  # timeout kill + immediate redispatch
            spawner.handle_for(record.id).die_silently()
            supervisor.poll()
        finally:
            set_ledger(None)
        lines = read_ledger(tmp_path / "ledger.jsonl")
        assert [
            (e["source"], e["outcome"], e["error"], e["attempt"]) for e in lines
        ] == [("serve", "failed", "timeout", 1), ("serve", "failed", "worker-died", 2)]
        assert lines[0]["wall_s"] == 31.0
        assert (lines[0]["app"], lines[0]["kind"], lines[0]["scale"]) == (
            "cilk5-mt", "bt-mesi", "tiny"
        )

    def test_non_preemptible_job_is_never_parked(self, tmp_path):
        supervisor, spawner, _ = make_supervisor(tmp_path, slots=1)
        pinned = supervisor.submit(job(preemptible=False))
        supervisor.poll()
        supervisor.submit(job(app_overrides={"n": 2}, deadline_s=5.0))
        supervisor.poll()
        active = supervisor.active[pinned.id]
        assert active.park_path is None
        assert active.park_deadline is None  # no park was requested

    def test_status_snapshot_shape(self, tmp_path):
        supervisor, _, _ = make_supervisor(tmp_path)
        supervisor.submit(job())
        supervisor.poll()
        status = supervisor.status()
        assert status["counts"]["running"] == 1
        assert status["slots"] == 2
        assert len(status["active"]) == 1
        assert status["jobs"][0]["state"] == "running"


# ----------------------------------------------------------------------
# End-to-end on real grid workers
# ----------------------------------------------------------------------
def drive(supervisor, until, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while not until():
        supervisor.poll()
        if time.monotonic() > deadline:
            pytest.fail("supervisor did not converge in time")
        time.sleep(0.02)


class TestEndToEnd:
    def test_job_runs_to_done_and_adopts_into_store(self, tmp_path):
        from repro.obs.ledger import set_ledger

        store = set_result_store(tmp_path / "results")
        set_ledger(tmp_path / "ledger.jsonl")
        try:
            supervisor = Supervisor(
                JobQueue(),
                Journal(tmp_path / "journal.jsonl"),
                ServePolicy(slots=2, backoff=NO_BACKOFF),
                str(tmp_path),
            )
            record = supervisor.submit(job())
            drive(supervisor, lambda: record.terminal)
        finally:
            set_ledger(None)
        assert record.state == "done", record.message
        assert record.result["cycles"] > 0
        assert len(store) == 1  # worker persisted the result
        lines = [json.loads(line)
                 for line in open(tmp_path / "ledger.jsonl", encoding="utf-8")]
        assert lines and all(e["source"] == "serve" for e in lines)

    def test_crash_recovery_loses_nothing_and_runs_once(self, tmp_path):
        """The kill-recovery invariant, in-process: a supervisor dies
        mid-run; a second one recovers the journal, finishes everything,
        and the duplicate pair costs one simulation."""
        store = set_result_store(tmp_path / "results")
        journal = Journal(tmp_path / "journal.jsonl")
        supervisor1 = Supervisor(
            JobQueue(), journal,
            ServePolicy(slots=2, backoff=NO_BACKOFF), str(tmp_path),
        )
        supervisor1.submit(job())                       # duplicate pair...
        supervisor1.submit(job())                       # ...same work key
        supervisor1.submit(job(app_overrides={"n": 32}))  # distinct
        deadline = time.monotonic() + 60.0
        while not supervisor1.active:
            supervisor1.poll()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # "SIGKILL": abandon the supervisor, killing its workers the way
        # a dead server's orphans would be killed by recovery.
        supervisor1.shutdown()

        queue, report = recover(journal)
        assert report["jobs"] == 3
        supervisor2 = Supervisor(
            queue, journal,
            ServePolicy(slots=2, backoff=NO_BACKOFF), str(tmp_path),
        )
        records = [queue.records[jid] for jid in sorted(queue.records)]
        drive(supervisor2, lambda: all(r.terminal for r in records))
        # Every job reached exactly one terminal state; nothing lost.
        assert [r.state for r in records] == ["done", "done", "done"]
        # Exactly one simulation per distinct work key: the pair shares
        # one stored result (via dedup or the store), the distinct job
        # has its own.
        assert len(store) == 2
        outcomes = sorted(r.outcome for r in records)
        assert outcomes in (["dedup", "ok", "ok"], ["ok", "ok", "ok"])

    def test_preempt_park_resume_end_to_end(self, tmp_path):
        """A real worker parks on request and the resumed run finishes
        with the same result a cold run produces."""
        from repro.harness import run_experiment

        reference = run_experiment(
            "cilk5-cs", "bt-hcc-dts-gwb", "tiny", use_cache=False
        )
        clear_cache()
        set_result_store(tmp_path / "results")
        supervisor = Supervisor(
            JobQueue(),
            Journal(tmp_path / "journal.jsonl"),
            ServePolicy(
                slots=1, backoff=NO_BACKOFF,
                checkpoint_interval=2000, park_poll=500, park_grace_s=60.0,
            ),
            str(tmp_path),
        )
        batch = supervisor.submit(job(app="cilk5-cs", kind="bt-hcc-dts-gwb"))
        deadline_job = supervisor.submit(
            job(app="cilk5-mt", deadline_s=120.0, priority=1)
        )
        drive(supervisor, lambda: batch.terminal and deadline_job.terminal)
        assert deadline_job.state == "done"
        assert batch.state == "done", batch.message
        # Byte-identical to the uninterrupted run (whether or not the
        # park raced the run's completion, the result must match).
        assert batch.result["cycles"] == reference.cycles
        assert batch.result["tasks"] == reference.tasks
        assert batch.result["spawns"] == reference.spawns
