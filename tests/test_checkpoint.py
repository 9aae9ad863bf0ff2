"""Determinism proofs for checkpoint/restore (repro.engine.checkpoint).

The central claim: a snapshot taken at an arbitrary cycle, restored into a
freshly built machine (same process or not), resumes to a final state
byte-identical to the uninterrupted run — cycle count, the full flattened
statistics tree, task/spawn counts, the memory digest over the app's own
allocations, and (for traced runs) the exported Perfetto JSON.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
    load_snapshot,
    save_snapshot,
)
from repro.harness import clear_cache, set_result_store, simulation_count
from repro.machine import Machine

APP = "cilk5-cs"
PARAMS = dict(n=96, grain=16)
SEED = 42

#: The protocol matrix of ISSUE 5: hardware MESI, the three software-centric
#: HCC protocols, and DTS (ULI steal delivery) on the paper's best protocol.
KINDS = ["bt-mesi", "bt-hcc-dnv", "bt-hcc-gwt", "bt-hcc-gwb", "bt-hcc-dts-gwb"]


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    clear_cache()


def build(kind, *, fusion=True, tracer=None):
    app = make_app(APP, **PARAMS)
    machine = Machine(make_config(kind, "tiny", seed=SEED), tracer=tracer)
    machine.sim.fusion_enabled = fusion
    machine.enable_checkpointing()
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    return app, machine, rt


def end_state(machine, rt, cycles):
    return {
        "cycles": cycles,
        "flatten": machine.stats.flatten(),
        "digest": machine.memory_digest(machine.address_space.regions()),
        "tasks": rt.stats.get("tasks_executed"),
        "spawns": rt.stats.get("spawns"),
    }


def reference(kind, *, fusion=True):
    app, machine, rt = build(kind, fusion=fusion)
    cycles = rt.run(app.make_root(serial=False))
    app.check()
    return end_state(machine, rt, cycles)


def run_with_daemon(kind, interval, *, fusion=True):
    snaps = []
    app, machine, rt = build(kind, fusion=fusion)
    daemon = CheckpointDaemon(
        machine, interval, lambda m: snaps.append(m.snapshot())
    )
    daemon.arm()
    cycles = rt.run(app.make_root(serial=False))
    daemon.cancel()
    app.check()
    return end_state(machine, rt, cycles), snaps


def restore_and_finish(kind, snap, *, fusion=True):
    app, machine, rt = build(kind, fusion=fusion)
    machine.restore(snap, app.make_root(serial=False))
    cycles = rt.resume_run()
    app.check()
    return end_state(machine, rt, cycles)


class TestRoundTrip:
    @pytest.mark.parametrize("fusion", (True, False), ids=("fused", "unfused"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_snapshot_resumes_identically(self, kind, fusion):
        ref = reference(kind, fusion=fusion)
        daemon_ref, snaps = run_with_daemon(kind, 2000, fusion=fusion)
        # Taking snapshots never perturbs the run itself.
        assert daemon_ref == ref
        assert snaps, "run too short: no snapshots taken"
        for snap in snaps:
            resumed = restore_and_finish(kind, snap, fusion=fusion)
            assert resumed == ref, f"divergence from snapshot@{snap['cycle']}"

    def test_snapshot_survives_pickle_round_trip(self, tmp_path):
        _, snaps = run_with_daemon("bt-mesi", 2000)
        path = str(tmp_path / "run.ckpt")
        save_snapshot(path, snaps[0])
        resumed = restore_and_finish("bt-mesi", load_snapshot(path))
        assert resumed == reference("bt-mesi")

    def test_uli_steal_in_flight_snapshots(self):
        """DTS steals live on the wire as heap events (uli_req/uli_resp
        descriptors); snapshots taken mid-flight must restore them."""
        ref = reference("bt-hcc-dts-gwb")
        _, snaps = run_with_daemon("bt-hcc-dts-gwb", 250)
        in_flight = [
            s for s in snaps
            if any(e[2] in ("uli_req", "uli_resp") for e in s["sim"]["queue"])
        ]
        assert in_flight, "no snapshot caught a ULI message in flight"
        for snap in in_flight:
            resumed = restore_and_finish("bt-hcc-dts-gwb", snap)
            assert resumed == ref, f"divergence from snapshot@{snap['cycle']}"

    def test_fresh_process_restore_is_byte_identical(self, tmp_path):
        """ISSUE acceptance: restore in a process that shares nothing with
        the snapshotting one (hash randomization, object ids, ...)."""
        ref = reference("bt-hcc-dts-gwb")
        _, snaps = run_with_daemon("bt-hcc-dts-gwb", 2000)
        path = str(tmp_path / "mid.ckpt")
        save_snapshot(path, snaps[len(snaps) // 2])
        script = (
            "import json, sys\n"
            "from repro.apps import make_app\n"
            "from repro.config import make_config\n"
            "from repro.core import WorkStealingRuntime\n"
            "from repro.engine.checkpoint import load_snapshot\n"
            "from repro.machine import Machine\n"
            f"app = make_app({APP!r}, **{PARAMS!r})\n"
            f"machine = Machine(make_config('bt-hcc-dts-gwb', 'tiny', seed={SEED}))\n"
            "machine.enable_checkpointing()\n"
            "app.setup(machine)\n"
            "rt = WorkStealingRuntime(machine)\n"
            "machine.restore(load_snapshot(sys.argv[1]), app.make_root(serial=False))\n"
            "cycles = rt.resume_run()\n"
            "app.check()\n"
            "print(json.dumps({'cycles': cycles,\n"
            "    'digest': machine.memory_digest(machine.address_space.regions()),\n"
            "    'tasks': rt.stats.get('tasks_executed'),\n"
            "    'spawns': rt.stats.get('spawns'),\n"
            "    'stats': sorted(machine.stats.flatten().items())}))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        remote = json.loads(out.stdout)
        assert remote["cycles"] == ref["cycles"]
        assert remote["digest"] == ref["digest"]
        assert remote["tasks"] == ref["tasks"]
        assert remote["spawns"] == ref["spawns"]
        assert remote["stats"] == [list(kv) for kv in sorted(ref["flatten"].items())]

    def test_traced_resume_exports_identical_perfetto(self):
        """The tracer's event log is part of the snapshot: a resumed traced
        run exports the same Perfetto JSON, byte for byte — including the
        checkpoint instant markers."""
        from repro.trace import Tracer, export_chrome_trace

        def traced_run(interval, resume_snap=None):
            snaps = []
            tracer = Tracer()
            app, machine, rt = build("bt-hcc-dts-gwb", tracer=tracer)
            daemon = CheckpointDaemon(
                machine, interval, lambda m: snaps.append(m.snapshot())
            )
            if resume_snap is not None:
                machine.restore(resume_snap, app.make_root(serial=False))
                daemon.arm()
                rt.resume_run()
            else:
                daemon.arm()
                rt.run(app.make_root(serial=False))
            daemon.cancel()
            app.check()
            return export_chrome_trace(tracer), snaps

        ref_text, snaps = traced_run(2000)
        assert snaps
        for snap in snaps:
            resumed_text, _ = traced_run(2000, resume_snap=snap)
            assert resumed_text.encode() == ref_text.encode(), (
                f"trace divergence from snapshot@{snap['cycle']}"
            )


class TestHarnessIntegration:
    def test_run_experiment_resume_matches_cold(self, tmp_path):
        from repro.harness import run_experiment

        path = str(tmp_path / "run.ckpt")
        cold = run_experiment(APP, "bt-hcc-dts-gwb", "tiny", use_cache=False)
        first = run_experiment(
            APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
            checkpoint={"path": path, "interval": 2000, "keep": True},
        )
        assert os.path.exists(path)
        assert first.extras["ckpt_snapshots"] >= 1
        resumed = run_experiment(
            APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
            checkpoint={"path": path, "interval": 2000, "resume": True},
        )
        assert "ckpt_resumed_from" in resumed.extras
        assert not os.path.exists(path)  # consumed on success
        for result in (first, resumed):
            a = dataclasses.asdict(cold)
            b = dataclasses.asdict(result)
            a.pop("extras"), b.pop("extras")
            assert a == b

    def test_warm_start_shares_init_across_configs(self, tmp_path):
        """The init signature deliberately excludes the config kind: one
        post-setup image fans out to every coherence protocol variant."""
        from repro.harness import run_experiment

        cold = run_experiment(APP, "bt-hcc-gwt", "tiny", use_cache=False)
        spec = {"init_dir": str(tmp_path / "init")}
        first = run_experiment(
            APP, "bt-mesi", "tiny", use_cache=False, checkpoint=spec
        )
        assert "ckpt_warm_start" not in first.extras  # it wrote the image
        warm = run_experiment(
            APP, "bt-hcc-gwt", "tiny", use_cache=False, checkpoint=spec
        )
        assert warm.extras.get("ckpt_warm_start") == 1.0
        a, b = dataclasses.asdict(cold), dataclasses.asdict(warm)
        a.pop("extras"), b.pop("extras")
        assert a == b

    def test_checkpointing_absent_from_cache_and_store_keys(self, tmp_path):
        """Checkpointing never perturbs outcomes, so a checkpointed run
        must share its memo/store slot with a plain one."""
        from repro.harness import run_experiment

        set_result_store(tmp_path / "results")
        run_experiment(APP, "bt-mesi", "tiny")
        sims = simulation_count()
        clear_cache()  # drop the memo; only the disk copy remains
        hit = run_experiment(
            APP, "bt-mesi", "tiny",
            checkpoint={"path": str(tmp_path / "never.ckpt"), "interval": 2000},
        )
        assert simulation_count() == sims  # store hit, no simulation
        assert hit.cycles > 0

    def test_grid_resume_picks_up_interrupted_point(self, tmp_path):
        """A killed sweep's leftover snapshot is found by the rerun: the
        point resumes mid-run instead of starting over."""
        from repro.harness import run_experiment
        from repro.harness.grid import (
            GridPoint,
            _point_checkpoint_spec,
            run_grid,
        )

        point = GridPoint(APP, "bt-hcc-dts-gwb", "tiny")
        cold = run_experiment(APP, "bt-hcc-dts-gwb", "tiny", use_cache=False)
        ckpt_dir = str(tmp_path / "ckpts")
        spec = _point_checkpoint_spec(
            point, ckpt_dir, 2000, resume=False, warm_init=False
        )
        # Simulate the "killed mid-sweep" state: a run that left its
        # snapshot behind (keep=True stands in for the kill).
        clear_cache()
        run_experiment(
            **dict(point.run_kwargs(), use_cache=False,
                   checkpoint=dict(spec, keep=True)),
        )
        assert os.path.exists(spec["path"])
        clear_cache()
        (resumed,) = run_grid(
            [point], jobs=1, checkpoint_dir=ckpt_dir,
            checkpoint_interval=2000, on_error="resume",
        )
        assert "ckpt_resumed_from" in resumed.extras
        a, b = dataclasses.asdict(cold), dataclasses.asdict(resumed)
        a.pop("extras"), b.pop("extras")
        assert a == b

    def test_grid_warm_init_fan_out(self, tmp_path):
        """ISSUE acceptance (scaled down): warm_init precomputes each app's
        init once and every configuration variant warm-starts from it,
        with results identical to the cold sweep."""
        from repro.harness.grid import expand_grid, run_grid

        points = expand_grid(
            (APP, "cilk5-mt"), ("bt-mesi", "bt-hcc-gwt"), ("tiny",)
        )
        cold = run_grid(points, jobs=1)
        clear_cache()
        warm = run_grid(
            points, jobs=1,
            checkpoint_dir=str(tmp_path / "ckpts"), warm_init=True,
        )
        init_dir = tmp_path / "ckpts" / "init"
        assert len(list(init_dir.glob("*.init"))) == 2  # one per app
        warm_started = [r for r in warm if "ckpt_warm_start" in r.extras]
        assert len(warm_started) == len(points)  # parent precomputed all
        for c, w in zip(cold, warm):
            a, b = dataclasses.asdict(c), dataclasses.asdict(w)
            a.pop("extras"), b.pop("extras")
            assert a == b


def park_run(kind, park_path, *, poll=2000, fusion=True):
    """Run until the ParkDaemon sees ``park_path``; return the snapshot
    it captured and the ParkedRun it raised."""
    captured = []
    app, machine, rt = build(kind, fusion=fusion)
    daemon = ParkDaemon(
        machine, poll, str(park_path), lambda m: captured.append(m.snapshot())
    )
    daemon.arm()
    with pytest.raises(ParkedRun) as excinfo:
        rt.run(app.make_root(serial=False))
    assert len(captured) == 1
    return captured[0], excinfo.value


class TestPreemption:
    """Satellite of ISSUE 9: park a run mid-flight, service other work,
    resume — the resumed run must be byte-identical to an uninterrupted
    one (same digest, stats, task/spawn counts)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_park_service_resume_is_byte_identical(self, kind, tmp_path):
        ref = reference(kind)
        park_path = tmp_path / "park-request"
        park_path.write_text("")  # supervisor touched the park file
        snap, parked = park_run(kind, park_path)
        assert parked.cycle == snap["cycle"]
        assert parked.cycle < ref["cycles"], "parked after the run ended"
        # The slot now services a different job (the preempting one).
        other = reference("bt-mesi" if kind != "bt-mesi" else "bt-hcc-gwb")
        assert other["cycles"] > 0
        # Resume the parked run: end state identical to never parking.
        resumed = restore_and_finish(kind, snap)
        assert resumed == ref

    def test_park_mid_steal_in_flight(self, tmp_path):
        """A park can land while a DTS steal is on the wire; the snapshot
        carries the in-flight ULI descriptors and resumes identically."""
        ref = reference("bt-hcc-dts-gwb")
        park_path = tmp_path / "park-request"
        park_path.write_text("")
        # A fine poll makes the park land early, while steals are active.
        snap, _ = park_run("bt-hcc-dts-gwb", park_path, poll=250)
        resumed = restore_and_finish("bt-hcc-dts-gwb", snap)
        assert resumed == ref

    def test_double_park_resume_chain(self, tmp_path):
        """Parked, resumed, parked again, resumed again — state survives
        arbitrarily many preemption cycles."""
        kind = "bt-hcc-dts-gwb"
        ref = reference(kind)
        park_path = tmp_path / "park-request"
        park_path.write_text("")
        snap1, parked1 = park_run(kind, park_path, poll=2000)
        # Resume with the park request still standing: a finer poll lands
        # the second park strictly after the first, before the run ends.
        captured = []
        app, machine, rt = build(kind)
        daemon = ParkDaemon(
            machine, 1000, str(park_path), lambda m: captured.append(m.snapshot())
        )
        machine.restore(snap1, app.make_root(serial=False))
        daemon.arm()
        with pytest.raises(ParkedRun) as excinfo:
            rt.resume_run()
        assert excinfo.value.cycle > parked1.cycle
        resumed = restore_and_finish(kind, captured[0])
        assert resumed == ref

    def test_no_park_file_means_no_park(self, tmp_path):
        """An armed ParkDaemon with no park request perturbs nothing."""
        ref = reference("bt-mesi")
        app, machine, rt = build("bt-mesi")
        daemon = ParkDaemon(
            machine, 2000, str(tmp_path / "never-created"), lambda m: None
        )
        daemon.arm()
        cycles = rt.run(app.make_root(serial=False))
        daemon.cancel()
        app.check()
        assert end_state(machine, rt, cycles) == ref

    def test_run_experiment_park_and_resume(self, tmp_path):
        """Harness integration: run_experiment raises ParkedRun, leaves
        the snapshot behind, and a resume finishes with the cold result."""
        from repro.harness import run_experiment

        cold = run_experiment(APP, "bt-hcc-dts-gwb", "tiny", use_cache=False)
        snap_path = str(tmp_path / "job.ckpt")
        park_path = f"{snap_path}.park"
        with open(park_path, "w"):
            pass
        with pytest.raises(ParkedRun) as excinfo:
            run_experiment(
                APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
                checkpoint={
                    "path": snap_path, "park_path": park_path,
                    "park_poll": 2000,
                },
            )
        assert excinfo.value.path == snap_path
        assert os.path.exists(snap_path)
        os.unlink(park_path)  # supervisor consumes the request
        resumed = run_experiment(
            APP, "bt-hcc-dts-gwb", "tiny", use_cache=False,
            checkpoint={"path": snap_path, "resume": True},
        )
        assert resumed.extras["ckpt_resumed_from"] == excinfo.value.cycle
        a, b = dataclasses.asdict(cold), dataclasses.asdict(resumed)
        a.pop("extras"), b.pop("extras")
        assert a == b

    def test_parked_run_records_ledger_outcome(self, tmp_path):
        from repro.harness import run_experiment
        from repro.obs.ledger import read_ledger, set_ledger

        ledger_path = tmp_path / "ledger.jsonl"
        set_ledger(str(ledger_path))
        try:
            snap_path = str(tmp_path / "job.ckpt")
            park_path = f"{snap_path}.park"
            with open(park_path, "w"):
                pass
            with pytest.raises(ParkedRun):
                run_experiment(
                    APP, "bt-mesi", "tiny", use_cache=False,
                    checkpoint={"path": snap_path, "park_path": park_path},
                )
        finally:
            set_ledger(None)
        entries = read_ledger(ledger_path)
        assert [e["outcome"] for e in entries] == ["parked"]
        assert entries[0]["cycles"] > 0  # the park cycle

    def test_park_without_snapshot_path_rejected(self):
        from repro.harness import run_experiment

        with pytest.raises(CheckpointError, match="park"):
            run_experiment(
                APP, "bt-mesi", "tiny", use_cache=False,
                checkpoint={"park_path": "x.park"},
            )


class TestGuards:
    def test_coerce_forms(self):
        assert CheckpointConfig.coerce(None) is None
        cfg = CheckpointConfig(path="x.ckpt")
        assert CheckpointConfig.coerce(cfg) is cfg
        assert CheckpointConfig.coerce("x.ckpt").path == "x.ckpt"
        assert CheckpointConfig.coerce({"interval": 5}).interval == 5
        with pytest.raises(TypeError):
            CheckpointConfig.coerce(42)

    def test_load_rejects_non_checkpoints(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_snapshot(str(path))

    def test_load_rejects_future_format_versions(self, tmp_path):
        import gzip
        import pickle

        from repro.engine.checkpoint import MAGIC

        path = tmp_path / "future.ckpt"
        snap = {"magic": MAGIC, "version": 999, "kind": "run"}
        path.write_bytes(gzip.compress(pickle.dumps(snap)))
        with pytest.raises(CheckpointError, match="version 999"):
            load_snapshot(str(path))

    def test_enable_checkpointing_must_precede_run(self):
        app = make_app(APP, **PARAMS)
        machine = Machine(make_config("bt-mesi", "tiny", seed=SEED))
        app.setup(machine)
        rt = WorkStealingRuntime(machine)
        rt.run(app.make_root(serial=False))
        with pytest.raises(RuntimeError, match="before the run starts"):
            machine.enable_checkpointing()

    def test_snapshot_requires_enabled_log(self):
        machine = Machine(make_config("bt-mesi", "tiny", seed=SEED))
        with pytest.raises(CheckpointError):
            machine.snapshot()

    def test_restore_requires_fresh_machine(self):
        _, snaps = run_with_daemon("bt-mesi", 2000)
        app, machine, rt = build("bt-mesi")
        rt.run(app.make_root(serial=False))  # machine now used
        with pytest.raises(CheckpointError):
            machine.restore(snaps[0], app.make_root(serial=False))

    def test_daemon_rejects_bad_interval(self):
        _, machine, _ = build("bt-mesi")
        with pytest.raises(ValueError):
            CheckpointDaemon(machine, 0, lambda m: None)

    def test_init_capture_rejects_consumed_rng(self):
        """An init phase that consumed the machine RNG is not
        configuration-invariant; warm-starting from it would be unsound."""
        app = make_app(APP, **PARAMS)
        machine = Machine(make_config("bt-mesi", "tiny", seed=SEED))
        app.setup(machine)
        machine.rng.next_u64()
        with pytest.raises(CheckpointError, match="consumed machine.rng"):
            capture_init_state(machine, app, "sig")

    def test_grid_checkpoint_argument_validation(self):
        from repro.harness.grid import run_grid

        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            run_grid([], on_error="resume")
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            run_grid([], warm_init=True)
