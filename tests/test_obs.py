"""Tests for the observability subsystem (repro.obs).

Covers the metrics registry and exporters, heartbeat snapshots, the run
ledger (exactly one line per ``run_experiment`` outcome), the engine
layer sampler's attribution, the ``repro top`` / ``repro profile`` /
``repro report`` CLI surfaces, the grid progress ETA estimator, the
interval sampler's tail-flush invariant, and termlog's JSON mode.
"""

import json
import os

import pytest

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.engine.simulator import Simulator
from repro.engine.stats import StatGroup
from repro.harness import clear_cache, run_experiment, set_result_store
from repro.harness import termlog
from repro.machine import Machine
from repro.obs import (
    HeartbeatWriter,
    MetricsRegistry,
    RunLedger,
    host_fingerprint,
    machine_metrics,
    prometheus_lines,
    set_ledger,
    write_prometheus_textfile,
)
from repro.obs.ledger import read_ledger, read_ledger_with_errors, reset_ledger
from repro.trace.sampler import IntervalSampler


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    set_ledger(None)
    clear_cache()
    yield
    set_result_store(None)
    reset_ledger()
    clear_cache()


def tiny_machine(app_name="cilk5-cs", kind="bt-mesi", **params):
    app = make_app(app_name, **(params or dict(n=48, grain=16)))
    machine = Machine(make_config(kind, "tiny", seed=7))
    app.setup(machine)
    return app, machine


# ----------------------------------------------------------------------
# Metrics registry + exporters
# ----------------------------------------------------------------------
class TestMetrics:
    def test_registry_merges_sources_later_wins(self):
        stats = StatGroup("m")
        stats.add("x", 3)
        registry = (
            MetricsRegistry()
            .register(stats)
            .register(lambda: {"extra.y": 1.5, "m.x": 99}, prefix="")
            .register_gauge("g", lambda: 7)
        )
        snap = registry.collect()
        assert snap == {"m.x": 99, "extra.y": 1.5, "g": 7}

    def test_machine_metrics_engine_flag(self):
        _app, machine = tiny_machine()
        with_engine = machine_metrics(machine, engine=True).collect()
        without = machine_metrics(machine, engine=False).collect()
        assert "engine.events_executed" in with_engine
        assert "engine.events_fused" in with_engine
        assert not any(key.startswith("engine.") for key in without)

    def test_prometheus_lines_sanitized_sorted_labeled(self):
        text = prometheus_lines(
            {"mem.l1-hits": 4, "a": 1.5}, labels={"app": "cs"}
        )
        lines = text.strip().split("\n")
        assert lines == [
            'repro_a{app="cs"} 1.5',
            'repro_mem_l1_hits{app="cs"} 4',
        ]

    def test_prometheus_textfile_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus_textfile(str(path), {"top.runs": 2})
        assert path.read_text() == "repro_top_runs 2\n"
        # No temp litter left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_host_fingerprint_shape(self):
        fp = host_fingerprint()
        assert fp["python"] and fp["machine"] is not None
        assert "node" in fp and "cpu_count" in fp


# ----------------------------------------------------------------------
# Heartbeat
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_snapshot_file_lifecycle(self, tmp_path):
        app, machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        path = tmp_path / "beat.json"
        hb = HeartbeatWriter(
            machine, rt, str(path), interval=500, min_wall_s=0.0,
            meta={"app": "cilk5-cs"},
        )
        hb.start()
        snap = json.loads(path.read_text())
        assert snap["status"] == "running" and snap["cycle"] == 0
        cycles = rt.run(app.make_root())
        app.check()
        hb.finalize("done")
        snap = json.loads(path.read_text())
        assert snap["status"] == "done"
        assert snap["cycle"] == cycles
        assert snap["beats"] >= 2
        assert snap["meta"]["app"] == "cilk5-cs"
        assert snap["tasks"]["executed"] > 0
        assert len(snap["cores"]) == len(machine.cores)
        assert snap["events"]["events_total"] > 0
        # Atomic replace: no temp file survives.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beat.json"]

    def test_for_run_names_are_per_process_unique(self, tmp_path):
        _app, machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        a = HeartbeatWriter.for_run(machine, rt, str(tmp_path), {"app": "x"})
        b = HeartbeatWriter.for_run(machine, rt, str(tmp_path), {"app": "x"})
        assert a.path != b.path

    def test_rejects_bad_interval(self, tmp_path):
        _app, machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        with pytest.raises(ValueError):
            HeartbeatWriter(machine, rt, str(tmp_path / "b.json"), interval=0)

    def test_run_experiment_emits_heartbeat(self, tmp_path, monkeypatch):
        hb_dir = tmp_path / "hb"
        monkeypatch.setenv("REPRO_HEARTBEAT_DIR", str(hb_dir))
        run_experiment("cilk5-mt", "bt-mesi", "tiny", use_cache=False)
        files = list(hb_dir.glob("*.json"))
        assert len(files) == 1
        snap = json.loads(files[0].read_text())
        assert snap["status"] == "done"
        assert snap["meta"] == {
            "app": "cilk5-mt", "kind": "bt-mesi", "scale": "tiny",
            "serial": False,
        }


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_record_appends_one_wellformed_line(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(outcome="ok", app="a")
        ledger.record(outcome="failed", app="b", error="deadlock")
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["outcome"] for e in entries] == ["ok", "failed"]
        assert all(
            e["schema"] == 1 and e["pid"] and e["host"]["python"]
            for e in entries
        )
        assert ledger.lines_written == 2

    def test_malformed_lines_counted_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok")
        with open(path, "a") as fh:
            fh.write("{torn line\n[1,2]\n")
        entries, bad, torn = read_ledger_with_errors(path)
        assert len(entries) == 1 and bad == 2
        # Both damaged lines are newline-terminated: that is mid-file
        # corruption, not the crashed-writer torn-tail signature.
        assert torn is False

    def test_torn_final_line_is_recoverable_damage(self, tmp_path):
        """A trailing line cut mid-JSON (no newline) is classified as a
        torn tail — recoverable crashed-writer damage — not malformed."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record(outcome="ok", app="a")
        ledger.record(outcome="ok", app="b")
        whole = path.read_bytes()
        # Truncate mid-way through the final line, as SIGKILL during the
        # append would (O_APPEND writes are atomic, but the test models a
        # partially flushed page after a power cut).
        path.write_bytes(whole[: len(whole) - 17])
        entries, bad, torn = read_ledger_with_errors(path)
        assert [e["app"] for e in entries] == ["a"]
        assert bad == 0 and torn is True

    def test_torn_tail_reported_by_report(self, tmp_path):
        from repro.obs.report import report_from_file

        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok", app="a", kind="k", scale="s")
        with open(path, "a") as fh:
            fh.write('{"outcome": "ok", "app":')  # no newline
        summary = report_from_file(str(path))
        assert summary["torn_tail"] is True
        assert summary["runs"] == 1
        assert summary["malformed_lines"] == 0

    def test_one_line_per_outcome(self, tmp_path):
        """ok, memo-hit, store-hit, and failed each append exactly one line."""
        store = set_result_store(tmp_path / "results")
        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))

        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # cold: ok
        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # memo-hit
        clear_cache()
        run_experiment("cilk5-mt", "bt-mesi", "tiny")          # store-hit
        with pytest.raises(Exception):
            run_experiment(
                "kernel-deadlock", "bt-mesi", "tiny",
                watchdog=20_000, use_cache=False,
            )                                                   # failed

        entries = read_ledger(path)
        assert [e["outcome"] for e in entries] == [
            "ok", "memo-hit", "store-hit", "failed",
        ]
        ok, memo, hit, failed = entries
        assert ok["app"] == "cilk5-mt" and ok["cycles"] > 0
        assert ok["store_key"] == hit["store_key"]  # same SHA-256 digest
        assert ok["seed"] is not None
        assert ok["wall_s"] > 0 and memo["wall_s"] >= 0
        assert failed["error"] == "deadlock"
        assert failed["message"]
        assert all(e["source"] == "runner" for e in entries)
        assert store is not None  # store really was configured

    def test_store_adjacent_ledger_via_env(self, tmp_path, monkeypatch):
        set_result_store(tmp_path / "results")
        monkeypatch.setenv("REPRO_LEDGER", "1")
        reset_ledger()
        run_experiment("cilk5-mt", "bt-mesi", "tiny")
        entries = read_ledger(tmp_path / "results" / "ledger.jsonl")
        assert len(entries) == 1 and entries[0]["outcome"] == "ok"

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        reset_ledger()
        run_experiment("cilk5-mt", "bt-mesi", "tiny", use_cache=False)
        assert not list(tmp_path.iterdir())


# ----------------------------------------------------------------------
# Engine profiler (statistical layer sampler)
# ----------------------------------------------------------------------
class TestProfiler:
    def test_quick_profile_attributes_wall_time(self):
        from repro.obs.profile import LAYERS, format_profile, run_profile

        payload = run_profile(quick=True, repeats=5)
        assert payload["samples"] > 0
        assert sum(r["samples"] for r in payload["layers"]) == payload["samples"]
        assert sum(r["share"] for r in payload["layers"]) == pytest.approx(1.0)
        assert {r["layer"] for r in payload["layers"]} <= set(LAYERS)
        text = format_profile(payload)
        assert payload["layers"][0]["layer"] in text and "stderr" in text

    def test_stderr_is_binomial(self):
        from collections import Counter

        from repro.obs.profile import attribution

        payload = attribution(Counter({"mem.l1": 30, "engine.loop": 10}))
        rows = {r["layer"]: r for r in payload["layers"]}
        assert payload["samples"] == 40
        assert rows["mem.l1"]["share"] == 0.75
        assert rows["mem.l1"]["stderr"] == pytest.approx((0.75 * 0.25 / 40) ** 0.5)
        assert rows["engine.loop"]["stderr"] == pytest.approx((0.25 * 0.75 / 40) ** 0.5)

    def test_innermost_repro_frame_names_the_layer(self):
        from types import SimpleNamespace

        from repro.obs.profile import _ROOT, HOST, frame_layer

        def stack(*frames):
            """A fake frame chain, outermost (path, function) first."""
            frame = None
            for path, name in frames:
                code = SimpleNamespace(co_filename=path, co_name=name)
                frame = SimpleNamespace(f_code=code, f_back=frame)
            return frame

        core = _ROOT + "cores/core.py"
        assert frame_layer(stack((core, "_resume"))) == "core.trampoline"
        assert frame_layer(stack((core, "_resume"), (core, "_op_load"))) == "core.ops"
        assert frame_layer(stack((_ROOT + "engine/simulator.py", "run"))) == "engine.loop"
        assert frame_layer(stack(
            (core, "_op_load"), (_ROOT + "mem/l1/mesi.py", "load"), ("/lib/heapq.py", "f"),
        )) == "mem.l1"
        assert frame_layer(stack(("/lib/json/encoder.py", "encode"))) == HOST

    def test_previous_sigprof_state_restored(self):
        import signal

        from repro.obs.profile import LayerSampler

        def handler(signum, frame):
            pass

        old_handler = signal.signal(signal.SIGPROF, handler)
        old_timer = signal.setitimer(signal.ITIMER_PROF, 100.0, 100.0)
        try:
            with LayerSampler().armed():
                assert signal.getsignal(signal.SIGPROF) is not handler
            assert signal.getsignal(signal.SIGPROF) is handler
            assert signal.getitimer(signal.ITIMER_PROF)[1] == 100.0
            with pytest.raises(RuntimeError):
                with LayerSampler().armed():
                    raise RuntimeError("profiled run failed")
            assert signal.getsignal(signal.SIGPROF) is handler
            delay, interval = signal.getitimer(signal.ITIMER_PROF)
            # Not disarmed and not left at the sampler's interval.
            assert interval == 100.0 and delay > 1.0
        finally:
            signal.setitimer(signal.ITIMER_PROF, *old_timer)
            signal.signal(signal.SIGPROF, old_handler)


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
class TestTop:
    def _write_snap(self, directory, name, **overrides):
        # Default pid is our own (a live writer); dead-writer tests
        # override it with a reaped child's pid.
        snap = {
            "schema": 1, "pid": os.getpid(), "status": "running", "error": None,
            "meta": {"app": "cilk5-cs", "kind": "bt-mesi", "scale": "tiny"},
            "started_at": 0.0, "updated_at": 100.0, "wall_s": 100.0,
            "beats": 3, "cycle": 5000, "max_cycles": 10000,
            "events": {"events_total": 10, "events_fused": 5,
                       "fused_ratio": 0.5},
            "events_per_sec": 2e6, "cycles_per_sec": 1e6,
            "tasks": {"spawned": 4, "executed": 2, "outstanding": 2,
                      "steals": 1, "steal_attempts": 3},
            "cores": [
                {"id": 0, "big": True, "busy": 90, "idle": 10, "deque": 0},
                {"id": 1, "big": False, "busy": 10, "idle": 90, "deque": 2},
            ],
            "sanitizer": None, "watchdog": None,
        }
        snap.update(overrides)
        (directory / name).write_text(json.dumps(snap))
        return snap

    def test_read_snapshots_skips_foreign_files(self, tmp_path):
        from repro.obs.top import read_snapshots

        self._write_snap(tmp_path, "a.json")
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "other-schema.json").write_text('{"schema": 99}')
        (tmp_path / "notes.txt").write_text("ignored")
        snaps, skipped = read_snapshots(str(tmp_path))
        assert len(snaps) == 1 and skipped == 2

    def test_render_rows_and_staleness(self, tmp_path):
        from repro.obs.top import read_snapshots, render

        self._write_snap(tmp_path, "a.json")
        self._write_snap(
            tmp_path, "b.json", status="done", updated_at=200.0,
            meta={"app": "ligra-bfs", "kind": "bt-hcc-gwb", "scale": "quick"},
        )
        snaps, skipped = read_snapshots(str(tmp_path))
        frame = render(snaps, skipped, now=210.0)
        assert "2 run(s)" in frame and "done:1" in frame
        assert "ligra-bfs" in frame and "cilk5-cs" in frame
        # a.json last updated at t=100, rendered at t=210 → stale.
        assert "stale?" in frame
        # Core bar: core0 >=75% busy (#), core1 idle with queued work (!).
        assert "#!" in frame

    def test_stale_threshold_configurable(self, tmp_path):
        from repro.obs.top import read_snapshots, render

        self._write_snap(tmp_path, "a.json", updated_at=100.0)
        snaps, _ = read_snapshots(str(tmp_path))
        # 110s of silence: stale under the default 30s, fine under 500s.
        assert "stale?" in render(snaps, now=210.0)
        assert "stale?" not in render(snaps, now=210.0, stale_after=500.0)

    @staticmethod
    def _dead_pid():
        """A pid guaranteed dead: fork a child and reap it."""
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        return pid

    def test_dead_writer_labeled_dead_not_stale(self, tmp_path):
        from repro.obs.top import read_snapshots, render

        self._write_snap(tmp_path, "a.json", pid=self._dead_pid())
        snaps, _ = read_snapshots(str(tmp_path))
        frame = render(snaps, now=1e12)  # far beyond any stale threshold
        assert "dead" in frame and "stale?" not in frame

    def test_gc_dead_snapshots(self, tmp_path):
        from repro.obs.top import gc_dead_snapshots, read_snapshots

        self._write_snap(tmp_path, "live.json")
        self._write_snap(tmp_path, "orphan.json", pid=self._dead_pid())
        # A *finished* run's writer is expected to be gone: keep the file.
        self._write_snap(
            tmp_path, "finished.json", pid=self._dead_pid(), status="done"
        )
        removed = gc_dead_snapshots(str(tmp_path))
        assert removed == ["orphan.json"]
        names = {s["_file"] for s in read_snapshots(str(tmp_path))[0]}
        assert names == {"live.json", "finished.json"}

    def test_cli_top_clean_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        self._write_snap(tmp_path, "orphan.json", pid=self._dead_pid())
        self._write_snap(tmp_path, "live.json")
        assert main(["top", "--dir", str(tmp_path), "--once", "--clean"]) == 0
        out = capsys.readouterr().out
        assert "collected dead snapshot orphan.json" in out
        assert not (tmp_path / "orphan.json").exists()
        assert (tmp_path / "live.json").exists()

    def test_sweep_gauges(self, tmp_path):
        from repro.obs.top import read_snapshots, sweep_gauges

        self._write_snap(tmp_path, "a.json")
        self._write_snap(tmp_path, "b.json", status="done")
        gauges = sweep_gauges(read_snapshots(str(tmp_path))[0])
        assert gauges["top.runs"] == 2
        assert gauges["top.runs_running"] == 1
        assert gauges["top.runs_done"] == 1
        assert gauges["top.events_per_sec"] == 2e6

    def test_cli_top_once(self, tmp_path, capsys):
        from repro.__main__ import main

        self._write_snap(tmp_path, "a.json")
        assert main(["top", "--dir", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "cilk5-cs" in out

    def test_cli_top_without_dir_fails(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.delenv("REPRO_HEARTBEAT_DIR", raising=False)
        assert main(["top", "--once"]) == 2


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------
class TestReport:
    def test_aggregate_counts_and_failures(self):
        from repro.obs.report import aggregate

        entries = [
            {"outcome": "ok", "app": "a", "kind": "k", "scale": "s",
             "wall_s": 2.0, "host": {"node": "h1", "python": "3"}},
            {"outcome": "store-hit", "app": "a", "kind": "k", "scale": "s",
             "wall_s": 0.01, "host": {"node": "h1", "python": "3"}},
            {"outcome": "failed", "app": "b", "kind": "k", "scale": "s",
             "error": "deadlock", "message": "stuck",
             "host": {"node": "h2", "python": "3"}},
            {"outcome": "???", "app": "c", "kind": "k", "scale": "s"},
        ]
        summary = aggregate(entries, malformed=1)
        assert summary["runs"] == 4
        assert summary["totals"] == {
            "ok": 1, "store-hit": 1, "memo-hit": 0, "failed": 1,
            "parked": 0, "other": 1,
        }
        assert summary["simulated"] == 2 and summary["hits"] == 1
        assert summary["hosts"] == 3  # h1/h2 plus the host-less entry
        assert summary["malformed_lines"] == 1
        assert summary["failures"] == [{
            "app": "b", "kind": "k", "scale": "s", "error": "deadlock",
            "message": "stuck", "source": "runner", "ts": None,
        }]
        assert summary["wall_total_s"] == pytest.approx(2.01)

    def test_report_reproduces_grid_accounting_from_ledger_alone(
        self, tmp_path, capsys
    ):
        """Acceptance: a grid's hit/miss counts rebuild from the ledger."""
        from repro.harness.grid import GridPoint, run_grid
        from repro.obs.report import report_from_file

        set_result_store(tmp_path / "results")
        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))
        points = [
            GridPoint("cilk5-mt", "bt-mesi", "tiny"),
            GridPoint("kernel-spin", "serial-io", "tiny", serial=True),
        ]
        run_grid(points, jobs=1)
        clear_cache()
        run_grid(points, jobs=1)  # warm pass: all store hits

        summary = report_from_file(str(path))
        assert summary["runs"] == 4
        assert summary["totals"]["ok"] == 2
        assert summary["totals"]["store-hit"] == 2
        assert summary["totals"]["failed"] == 0
        assert len(summary["groups"]) == 2

        from repro.__main__ import main

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "runs: 4" in out and "store-hit:2" in out

    def test_cli_report_json_and_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(outcome="ok", app="a", kind="k", scale="s")
        assert main(["report", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 1
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2


# ----------------------------------------------------------------------
# Grid progress ETA
# ----------------------------------------------------------------------
class TestProgressEta:
    def make(self, total):
        from repro.harness.grid import _Progress

        clock = [0.0]
        meter = _Progress(total, enabled=False, clock=lambda: clock[0])
        return meter, clock

    def test_steady_rate(self):
        meter, clock = self.make(10)
        for i in range(4):
            clock[0] += 2.0
            meter.step("p", instant=False)
        # 4 done at 2s each → 6 remaining ≈ 12s.
        assert meter.last_eta == pytest.approx(12.0)

    def test_hits_do_not_crater_the_estimate(self):
        meter, clock = self.make(10)
        clock[0] = 2.0
        meter.step("p", instant=False)
        # A burst of instant store hits: done advances, rate evidence
        # doesn't, so the ETA still reflects the 2 s/point simulation cost.
        for _ in range(4):
            clock[0] += 0.001
            meter.step("p", instant=True)
        assert meter.hits == 4 and meter.done == 5
        assert meter.last_eta == pytest.approx(5 * 2.0, rel=0.05)

    def test_all_hits_fall_back_to_naive_rate(self):
        meter, clock = self.make(4)
        clock[0] = 0.1
        meter.step("p", instant=True)
        # One hit in 0.1s → 3 remaining ≈ 0.3s.
        assert meter.last_eta == pytest.approx(0.3)

    def test_window_tracks_rate_drift(self):
        from repro.harness.grid import _Progress

        meter, clock = self.make(2 * _Progress.WINDOW + 10)
        for _ in range(_Progress.WINDOW):   # fast early points
            clock[0] += 0.1
            meter.step("p")
        for _ in range(_Progress.WINDOW):   # slow late points
            clock[0] += 5.0
            meter.step("p")
        # Window holds only slow points: ETA reflects 5 s/point, not the mean.
        assert meter.last_eta == pytest.approx(10 * 5.0, rel=0.05)

    def test_done_and_zero_remaining(self):
        meter, clock = self.make(1)
        clock[0] = 1.0
        meter.step("p")
        assert meter.last_eta == 0.0


# ----------------------------------------------------------------------
# Interval sampler tail flush
# ----------------------------------------------------------------------
class TestSamplerFinalize:
    def telescope(self, samples):
        totals = {}
        for _cycle, delta in samples:
            for key, value in delta.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def test_deltas_telescope_to_end_totals(self):
        sim = Simulator()
        stats = StatGroup("m")
        for cycle in (5, 15, 25, 42):
            sim.schedule(cycle, lambda: stats.add("x", 2))
        sampler = IntervalSampler(sim, stats, interval=10)
        sampler.start()
        sim.run()
        sampler.finalize()
        assert self.telescope(sampler.samples) == dict(stats.snapshot())

    def test_same_cycle_tail_not_dropped(self):
        """Daemon ticks run before regular events at the same cycle, so a
        tick at the final cycle is stale; finalize must flush the residue
        without emitting a duplicate cycle."""
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(10, lambda: stats.add("x", 7))  # same cycle as the tick
        sink_stream = []
        sampler = IntervalSampler(sim, stats, interval=10)
        sampler.add_sink(lambda cycle, delta: sink_stream.append((cycle, delta)))
        sampler.start()
        assert sim.run() == 10
        sampler.finalize()
        assert sampler.samples == [(10, {"m.x": 7})]
        # The sink saw the stale tick then the residue — also telescoping.
        assert self.telescope(sink_stream) == {"m.x": 7}

    def test_finalize_without_ticks_records_closing_sample(self):
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(3, lambda: stats.add("x"))
        sampler = IntervalSampler(sim, stats, interval=100)
        sampler.start()
        sim.run()
        sampler.finalize()
        assert sampler.samples == [(3, {"m.x": 1})]

    def test_finalize_idempotent_when_tail_is_clean(self):
        sim = Simulator()
        stats = StatGroup("m")
        sim.schedule(4, lambda: stats.add("x"))
        sampler = IntervalSampler(sim, stats, interval=2)
        sampler.start()
        sim.run()
        sampler.finalize()
        before = list(sampler.samples)
        sampler.finalize()
        assert sampler.samples == before

    def test_run_fingerprint_matches_totals(self):
        """End-to-end: sampled machine-run deltas telescope to the final
        StatGroup snapshot (the regression the tail-drop bug broke)."""
        app, machine = tiny_machine()
        rt = WorkStealingRuntime(machine)
        sampler = IntervalSampler(machine.sim, machine.stats, interval=1000)
        baseline = dict(machine.stats.snapshot())
        sampler.start()
        rt.run(app.make_root())
        sampler.finalize()
        expected = {
            key: value - baseline.get(key, 0)
            for key, value in machine.stats.snapshot().items()
            if value != baseline.get(key, 0)
        }
        assert self.telescope(sampler.samples) == expected


# ----------------------------------------------------------------------
# Termlog JSON mode
# ----------------------------------------------------------------------
class TestTermlogJson:
    @pytest.fixture(autouse=True)
    def clean_state(self, monkeypatch):
        monkeypatch.setattr(termlog, "_status_active", False)
        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        monkeypatch.setenv("REPRO_VERBOSE", "1")

    def parse(self, err):
        return [json.loads(line) for line in err.strip().split("\n")]

    def test_log_alert_status_are_json_lines(self, capsys):
        termlog.log("plain line")
        termlog.alert("deadlock!")
        termlog.status("[1/2] working")
        records = self.parse(capsys.readouterr().err)
        assert [(r["kind"], r["msg"]) for r in records] == [
            ("log", "plain line"),
            ("alert", "deadlock!"),
            ("status", "[1/2] working"),
        ]
        assert all(
            set(r) == {"ts", "level", "kind", "msg"} and r["ts"] > 0
            for r in records
        )
        assert records[1]["level"] == 0  # alerts always emit

    def test_json_mode_respects_verbosity_for_log(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_VERBOSE", "0")
        termlog.log("hidden")
        termlog.alert("still shown")
        records = self.parse(capsys.readouterr().err)
        assert [r["kind"] for r in records] == ["alert"]

    def test_human_mode_is_the_default(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG_JSON", "0")
        termlog.log("human")
        assert capsys.readouterr().err == "human\n"
