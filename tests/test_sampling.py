"""Tests for sampled simulation (repro.sampling).

Covers the controller phase machine, the functional fast-forward path's
architectural exactness, the estimator (work-instruction measure +
jackknife CIs), and — critically — the exact/sampled firewall: a sampled
estimate must never satisfy a cache or store probe for an exact result.
"""

import dataclasses

import pytest

from repro.harness import (
    clear_cache,
    memo_key,
    run_experiment,
    set_result_store,
    simulation_count,
)
from repro.harness.runner import _experiment_store_key
from repro.sampling import SamplingController, SamplingError, SamplingSpec
from repro.sampling.estimate import mean_ci, ratio_ci, t95

APP = "cilk5-cs"
KIND = "bt-hcc-dts-dnv"
#: Produces ~4 measurement windows on the tiny cilk5-cs run (~4.7k instr).
SPEC = "600:400:200"


@pytest.fixture(autouse=True)
def isolated_harness():
    set_result_store(None)
    clear_cache()
    yield
    set_result_store(None)
    clear_cache()


def _sampled(spec=SPEC, **kwargs):
    return run_experiment(
        APP, KIND, "tiny", use_cache=False, sampling=spec, **kwargs
    )


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestSpec:
    def test_parse_roundtrip(self):
        spec = SamplingSpec.parse("60000:20000:6000")
        assert (spec.interval, spec.warmup, spec.window) == (60000, 20000, 6000)
        assert spec.spec_str() == "60000:20000:6000"

    def test_quantum_suffix(self):
        spec = SamplingSpec.parse("60000:20000:6000:2048")
        assert spec.quantum == 2048
        assert spec.spec_str() == "60000:20000:6000:2048"

    def test_coerce_identity_and_errors(self):
        spec = SamplingSpec.parse(SPEC)
        assert SamplingSpec.coerce(spec) is spec
        for bad in ("", "10:20", "0:1:1", "-5:1:1", "a:b:c"):
            with pytest.raises(SamplingError):
                SamplingSpec.coerce(bad)


# ----------------------------------------------------------------------
# Sampled runs: determinism + architectural exactness
# ----------------------------------------------------------------------
class TestSampledRuns:
    def test_sampled_run_is_deterministic(self):
        a, b = _sampled(), _sampled()
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_architectural_state_is_exact(self):
        """Fast-forward must change timing, never outcomes: the sampled
        run executes the same program (app.check() passes inside
        run_experiment — check=True default) with the same task count
        and the same instruction count up to schedule-dependent spin."""
        exact = run_experiment(APP, KIND, "tiny", use_cache=False)
        sampled = _sampled()
        assert sampled.tasks == exact.tasks
        assert sampled.spawns == exact.spawns
        assert sampled.mode == "sampled"
        assert exact.mode == "exact"

    def test_estimates_replace_timing_fields(self):
        sampled = _sampled()
        s = sampled.sampling
        assert s["windows"] >= 2
        assert s["ff_periods"] >= 1
        assert 0.0 < s["coverage"] < 1.0
        assert s["measure"] in ("work", "instructions")
        ci = s["cycles_ci95_pct"]
        assert ci is None or ci >= 0.0

    def test_run_ending_inside_fastforward_is_coherent(self):
        """Regression: a run whose tail is fast-forwarded leaves stale
        L2 copies of FF-written lines until finalize purges them.  The
        interval here exceeds the whole program, so the tail after the
        single window is pure fast-forward — and app.check() (coherent
        host reads) still passes inside run_experiment."""
        result = _sampled(spec="1000000:400:200")
        assert result.sampling["ff_periods"] == 1

    def test_exact_fallback_when_no_window_closes(self):
        """A warmup longer than the program never closes a window; the
        run is then plain detailed simulation reported as such."""
        result = _sampled(spec="1000:1000000:1000")
        exact = run_experiment(APP, KIND, "tiny", use_cache=False)
        assert result.sampling.get("exact_fallback") is True
        assert result.cycles == exact.cycles

    def test_sampling_refuses_checkpointed_runs(self, tmp_path):
        with pytest.raises(SamplingError):
            _sampled(checkpoint={"path": str(tmp_path / "run.ckpt")})


# ----------------------------------------------------------------------
# The exact/sampled firewall
# ----------------------------------------------------------------------
class TestModeFirewall:
    def test_memo_keys_differ_by_mode_and_spec(self):
        exact = memo_key(APP, KIND, "tiny")
        a = memo_key(APP, KIND, "tiny", sampling=SamplingSpec.parse(SPEC))
        b = memo_key(APP, KIND, "tiny", sampling=SamplingSpec.parse("601:400:200"))
        assert len({exact, a, b}) == 3

    def test_store_keys_differ_by_mode_and_spec(self):
        def key(sampling=None):
            return _experiment_store_key(
                APP, KIND, "tiny", False, None, None, None, sampling=sampling
            )

        exact = key()
        sampled = key(SamplingSpec.parse(SPEC))
        assert exact["experiment"]["mode"]["mode"] == "exact"
        assert sampled["experiment"]["mode"]["mode"] == "sampled"
        assert sampled["experiment"]["mode"]["sampling"] is not None
        assert exact != sampled

    def test_sampled_result_never_satisfies_exact_probe(self, tmp_path):
        """End to end through memo cache and persistent store: exact and
        sampled runs of the same experiment each simulate."""
        set_result_store(tmp_path / "results")
        before = simulation_count()
        run_experiment(APP, KIND, "tiny", sampling=SPEC)
        assert simulation_count() == before + 1
        run_experiment(APP, KIND, "tiny")
        assert simulation_count() == before + 2  # exact probe missed
        # Warm reruns now hit their own mode's entry (memo and store).
        run_experiment(APP, KIND, "tiny", sampling=SPEC)
        run_experiment(APP, KIND, "tiny")
        assert simulation_count() == before + 2
        # A fresh process (cleared memo) still can't cross modes.
        clear_cache()
        run_experiment(APP, KIND, "tiny", sampling=SPEC)
        run_experiment(APP, KIND, "tiny")
        assert simulation_count() == before + 2  # both store hits

    def test_ledger_lines_carry_mode_and_spec(self, tmp_path):
        import json

        from repro.obs.ledger import set_ledger

        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))
        try:
            run_experiment(APP, KIND, "tiny", use_cache=False, sampling=SPEC)
            run_experiment(APP, KIND, "tiny", use_cache=False)
        finally:
            set_ledger(None)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["mode"] for e in lines] == ["sampled", "exact"]
        assert lines[0]["sampling"] == SPEC
        assert lines[1]["sampling"] is None


# ----------------------------------------------------------------------
# Warm-start init images are mode-independent (satellite: sampled runs
# may reuse an init image an exact run wrote, and vice versa)
# ----------------------------------------------------------------------
class TestWarmStartAcrossModes:
    def test_init_image_reused_across_modes(self, tmp_path):
        """The init phase runs before the first event — before sampling
        arms anything — so a sampled run warm-started from an image an
        exact run wrote is bit-identical to a cold sampled run."""
        cold = _sampled()
        spec = {"init_dir": str(tmp_path / "init")}
        writer = run_experiment(APP, KIND, "tiny", use_cache=False, checkpoint=spec)
        assert "ckpt_warm_start" not in writer.extras  # wrote the image
        warm = _sampled(checkpoint=spec)
        assert warm.extras.get("ckpt_warm_start") == 1.0
        a, b = dataclasses.asdict(cold), dataclasses.asdict(warm)
        a.pop("extras"), b.pop("extras")
        assert a == b

    def test_grid_point_carries_sampling(self):
        from repro.harness.grid import GridPoint, run_grid

        point = GridPoint(app=APP, kind=KIND, scale="tiny", sampling=SPEC)
        assert "sample=" in point.label()
        (result,) = run_grid([point], jobs=1)
        assert result.mode == "sampled"
        direct = _sampled()
        assert result.cycles == direct.cycles

    def test_grid_mixed_modes_stay_separate(self):
        from repro.harness.grid import GridPoint, run_grid

        points = [
            GridPoint(app=APP, kind=KIND, scale="tiny"),
            GridPoint(app=APP, kind=KIND, scale="tiny", sampling=SPEC),
        ]
        exact, sampled = run_grid(points, jobs=1)
        assert exact.mode == "exact"
        assert sampled.mode == "sampled"
        assert exact.cycles != sampled.cycles


# ----------------------------------------------------------------------
# Estimator statistics
# ----------------------------------------------------------------------
class TestEstimatorStats:
    def test_t95_interpolates_conservatively(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(10) == pytest.approx(2.228)
        assert t95(10**6) == pytest.approx(1.96)
        # Between table rows, use the smaller dof's (wider) quantile.
        assert t95(45) == t95(40)

    def test_mean_ci_basics(self):
        mean, half = mean_ci([5.0, 5.0, 5.0])
        assert mean == 5.0 and half == 0.0
        mean, half = mean_ci([1.0, 2.0, 3.0])
        assert mean == 2.0 and half > 0.0
        assert mean_ci([4.0]) == (4.0, None)

    def test_ratio_ci_constant_ratio_has_zero_width(self):
        ratio, half = ratio_ci([10.0, 20.0, 30.0], [1.0, 2.0, 3.0])
        assert ratio == pytest.approx(10.0)
        assert half == pytest.approx(0.0)

    def test_ratio_ci_degenerate_inputs(self):
        assert ratio_ci([1.0], [1.0])[1] is None
        # A leave-one-out denominator of zero makes replicates undefined.
        assert ratio_ci([1.0, 2.0], [0.0, 5.0])[1] is None

    def test_windows_record_work_instructions(self):
        sampled = _sampled()
        s = sampled.sampling
        assert s["work_instructions"] + s["spin_instructions"] <= (
            sampled.instructions
        )
        assert s["work_instructions"] > 0


# ----------------------------------------------------------------------
# Observability integration
# ----------------------------------------------------------------------
class TestObservability:
    def test_heartbeat_snapshot_includes_sampling(self, tmp_path):
        from repro.apps import make_app
        from repro.config import make_config
        from repro.core import WorkStealingRuntime
        from repro.harness.params import app_params
        from repro.machine import Machine
        from repro.obs.heartbeat import HeartbeatWriter

        app = make_app(APP, **app_params(APP, "tiny"))
        machine = Machine(make_config(KIND, "tiny"))
        app.setup(machine)
        runtime = WorkStealingRuntime(machine)
        controller = SamplingController(machine, SamplingSpec.parse(SPEC))
        controller.start()
        writer = HeartbeatWriter(machine, runtime, str(tmp_path / "hb.json"))
        writer.start()
        runtime.run(app.make_root(serial=False))
        controller.finalize()
        snap = writer.snapshot("done")
        assert snap["sampling"]["phase"] == "done"
        assert snap["sampling"]["spec"] == SPEC
        assert snap["sampling"]["windows"] >= 2
        # Exact runs report no sampling block at all.
        plain = Machine(make_config(KIND, "tiny"))
        assert (
            HeartbeatWriter(plain, runtime, str(tmp_path / "hb2.json"))
            .snapshot("running")["sampling"]
            is None
        )

    def test_report_accounts_modes_separately(self, tmp_path):
        import json

        from repro.obs.ledger import set_ledger
        from repro.obs.report import aggregate

        path = tmp_path / "ledger.jsonl"
        set_ledger(str(path))
        try:
            run_experiment(APP, KIND, "tiny", use_cache=False, sampling=SPEC)
            run_experiment(APP, KIND, "tiny", use_cache=False)
        finally:
            set_ledger(None)
        entries = [json.loads(l) for l in path.read_text().splitlines()]
        summary = aggregate(entries)
        assert set(summary["modes"]) == {"exact", "sampled"}
        assert summary["modes"]["sampled"]["runs"] == 1
        assert summary["modes"]["sampled"]["specs"] == [SPEC]
        group_modes = {g["mode"] for g in summary["groups"]}
        assert group_modes == {"exact", "sampled"}

    def test_controller_progress_fields(self):
        from repro.apps import make_app
        from repro.config import make_config
        from repro.core import WorkStealingRuntime
        from repro.harness.params import app_params
        from repro.machine import Machine

        app = make_app(APP, **app_params(APP, "tiny"))
        machine = Machine(make_config(KIND, "tiny"))
        app.setup(machine)
        runtime = WorkStealingRuntime(machine)
        controller = SamplingController(machine, SamplingSpec.parse(SPEC))
        assert machine.sampling is controller
        controller.start()
        runtime.run(app.make_root(serial=False))
        controller.finalize()
        progress = controller.progress()
        assert progress["phase"] == "done"
        assert progress["ff_instructions"] > 0
        assert progress["windows"] == len(controller.windows)


# ----------------------------------------------------------------------
# Differential validation harness
# ----------------------------------------------------------------------
class TestDifferential:
    def test_validate_entry_fields(self):
        from repro.sampling.differential import validate_entry

        entry = validate_entry(APP, KIND, "tiny", SamplingSpec.parse(SPEC))
        assert entry["tasks_identical"] is True
        assert entry["cycles_error"] >= 0.0
        assert entry["traffic_error"] >= 0.0
        assert entry["wall_exact_s"] > 0.0
        assert entry["sampling"]["windows"] >= 2

    def test_format_validation_mentions_every_app(self):
        from repro.sampling.differential import format_validation, validate_mix

        payload = validate_mix(mix=[(APP, KIND, "tiny")], spec=SPEC)
        text = format_validation(payload)
        assert APP in text
        assert "speedup" in text


# ----------------------------------------------------------------------
# Perf baseline comparison (repro perf --baseline)
# ----------------------------------------------------------------------
def _perf_payload(evps, mix_evps, speedup, sampled_speedup=None):
    payload = {
        "entries": [
            {
                "app": "kernel-spin",
                "kind": "serial-io",
                "scale": "tiny",
                "serial": True,
                "events_per_sec": evps,
            }
        ],
        "aggregate": {"events_per_sec": mix_evps, "speedup": speedup},
    }
    if sampled_speedup is not None:
        payload["sampled"] = {"aggregate": {"speedup": sampled_speedup}}
    return payload


class TestPerfBaseline:
    def test_within_tolerance_passes(self):
        from repro.harness.perf import compare_baseline

        base = _perf_payload(1000.0, 2000.0, 2.0, sampled_speedup=10.0)
        fresh = _perf_payload(900.0, 1900.0, 1.9, sampled_speedup=9.5)
        report = compare_baseline(fresh, base, tolerance=0.15)
        assert report["ok"] and not report["regressions"]
        # Every tracked metric produced a comparison row.
        labels = {row["label"] for row in report["comparisons"]}
        assert "mix events/s" in labels
        assert "sampled mix speedup" in labels

    def test_regression_flagged_and_formatted(self):
        from repro.harness.perf import compare_baseline, format_baseline_report

        base = _perf_payload(1000.0, 2000.0, 2.0)
        fresh = _perf_payload(700.0, 1950.0, 1.95)  # entry dropped 30%
        report = compare_baseline(fresh, base, tolerance=0.15)
        assert not report["ok"]
        assert [r["label"] for r in report["regressions"]] == [
            "kernel-spin/serial-io/tiny events/s"
        ]
        text = format_baseline_report(report)
        assert "REGRESSION" in text and "FAIL" in text

    def test_improvements_and_missing_entries_never_flagged(self):
        from repro.harness.perf import compare_baseline

        base = _perf_payload(1000.0, 2000.0, 2.0)
        fresh = _perf_payload(5000.0, 9000.0, 3.0)
        fresh["entries"].append(
            {
                "app": "new-entry",
                "kind": "serial-io",
                "scale": "tiny",
                "serial": False,
                "events_per_sec": 1.0,  # not in baseline: reported, not flagged
            }
        )
        report = compare_baseline(fresh, base, tolerance=0.0)
        assert report["ok"]

    def test_old_baseline_with_parallel_block_still_compares(self):
        """Older BENCH_wallclock.json files carry a ``parallel`` section;
        --baseline ignores it instead of failing on it."""
        from repro.harness.perf import compare_baseline

        base = _perf_payload(1000.0, 2000.0, 2.0)
        base["parallel"] = {
            "entries": [{"app": "cilk5-cs", "kind": "bt-hcc-dts-dnv",
                         "scale": "quick", "speedup": 0.91}],
            "aggregate": {"speedup": 0.91},
        }
        report = compare_baseline(_perf_payload(1000.0, 2000.0, 2.0), base)
        assert report["ok"]
        assert {row["label"] for row in report["comparisons"]} == {
            "kernel-spin/serial-io/tiny events/s",
            "mix events/s",
            "mix fusion speedup",
        }

    def test_bad_tolerance_rejected(self):
        from repro.harness.perf import compare_baseline

        with pytest.raises(ValueError):
            compare_baseline(_perf_payload(1, 1, 1), _perf_payload(1, 1, 1), -0.1)
