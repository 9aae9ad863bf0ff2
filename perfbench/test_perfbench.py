"""Self-tests of the repository benchmark, at tiny scale.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from layers import LayerTracer  # noqa: E402

INPUTS = bench.seeded_inputs(bench.DEFAULT_SEED)
TINY_OPS = [
    bench.Op("ligra-bfs", "bt-hcc-dts-dnv", "tiny"),
    bench.Op("cilk5-cs", "bt-hcc-gwb", "tiny"),
    bench.Op("ligra-cc", "serial-io", "tiny", serial=True),
    bench.Op("ligra-radii", "", "tiny", workspan=True),
]


@pytest.fixture(autouse=True)
def no_result_store():
    from repro.harness import runner

    saved = runner.get_result_store()
    runner.set_result_store(None)
    yield
    runner.set_result_store(saved)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    for workload in bench.WORKLOADS:
        assert bench.plan(workload)


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [
        (100, 90, 90.0, 10),  # p90 of 100: samples 91..100 lie beyond it
        (21, 11, 100.0 * 11 / 21, 10),
        (20, 10.5, 50.0, 10),  # the rule would fall below the median
        (5, 3, 50.0, 2),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile, beyond):
    samples = list(range(n, 0, -1))
    assert bench.tail(samples) == (value, pytest.approx(percentile), beyond)
    assert sum(s > value for s in samples) == beyond


def test_wrappers_leave_digests_unchanged():
    plain = bench.run_pass(TINY_OPS, INPUTS)
    tracer = LayerTracer()
    with tracer.installed():
        traced = bench.run_pass(TINY_OPS, INPUTS, tracer)
    assert plain.errors == traced.errors == []
    assert plain.digests == traced.digests
    assert bench.count_failures(TINY_OPS, [plain, traced]) == 0

    metrics = tracer.layer_metrics()
    assert metrics["noc.uli.calls"] > 0 and metrics["core.steals"] > 0
    assert metrics["mem.l1.calls"] > 0 and metrics["mem.l2.calls"] > 0
    assert metrics["analysis.workspan_s"] > 0 and metrics["apps.setup_s"] > 0
    assert tracer.run_sum_error() < 1e-9
    assert {s["sim"] for s in tracer.spans} == set(range(len(TINY_OPS)))


def test_wrappers_are_removed_after_a_traced_pass():
    from repro.engine.simulator import Simulator
    from repro.harness import runner

    before = (runner.Machine, runner.make_app, runner.WorkStealingRuntime,
              runner.estimate_energy, Simulator.schedule_at)
    with LayerTracer().installed():
        pass
    assert before == (runner.Machine, runner.make_app, runner.WorkStealingRuntime,
                      runner.estimate_energy, Simulator.schedule_at)


@pytest.mark.parametrize("traced", [False, True])
def test_deadlock_counts_as_failure_without_aborting(traced):
    ops = [
        bench.Op("kernel-deadlock", "bt-mesi", "tiny", watchdog=20_000),
        bench.Op("cilk5-nq", "bt-mesi", "tiny"),
    ]
    tracer = LayerTracer() if traced else None
    if traced:
        with tracer.installed():
            result = bench.run_pass(ops, INPUTS, tracer)
        assert len(tracer._stack) == 1
    else:
        result = bench.run_pass(ops, INPUTS)
    assert result.digests[0] is None and result.digests[1] is not None
    assert "DeadlockError" in result.errors[0]
    assert bench.count_failures(ops, [result]) == 1
    assert len(result.sim_times) == 1


def test_digest_mismatch_counts_as_failure():
    first = bench.PassResult(digests=["a", "b"])
    second = bench.PassResult(digests=["a", "c"])
    assert bench.count_failures(TINY_OPS[:2], [first, second]) == 1


def test_seed_changes_generated_inputs_only():
    assert bench.seeded_inputs(3) == bench.seeded_inputs(3)
    assert bench.seeded_inputs(3) != bench.seeded_inputs(4)
    assert bench.app_overrides("cilk5-cs", INPUTS) == {}
    assert bench.app_overrides("ligra-bfs", INPUTS) == {"seed": INPUTS["rmat_seed"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
