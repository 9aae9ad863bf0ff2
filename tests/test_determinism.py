"""Simulation determinism: identical configs produce bit-identical results.

Determinism is a first-class property of the simulator (the paper's gem5
runs are deterministic too): the event queue breaks ties FIFO, all
randomness flows from the config seed, and Python dict ordering never
influences timing.
"""

import pytest

from repro.apps import make_app
from repro.config import make_config
from repro.core import WorkStealingRuntime
from repro.machine import Machine


def full_fingerprint(kind, app_name, params, seed):
    app = make_app(app_name, **params)
    machine = Machine(make_config(kind, "tiny", seed=seed))
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    cycles = rt.run(app.make_root())
    app.check()
    return (
        cycles,
        machine.total_instructions(),
        rt.stats.get("steals"),
        tuple(sorted(machine.traffic.snapshot().items())),
        machine.l1_hit_rate(),
    )


@pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-gwb"))
@pytest.mark.parametrize(
    "app_name,params",
    [
        ("cilk5-cs", dict(n=96, grain=32)),
        ("ligra-bfs", dict(scale=5, grain=8)),
    ],
)
def test_identical_runs_are_bit_identical(kind, app_name, params):
    a = full_fingerprint(kind, app_name, params, seed=42)
    b = full_fingerprint(kind, app_name, params, seed=42)
    assert a == b


def test_seed_changes_schedule_but_not_results():
    cycles = set()
    for seed in (1, 2, 3, 4):
        fp = full_fingerprint("bt-hcc-dts-gwb", "cilk5-cs", dict(n=96, grain=16), seed)
        cycles.add(fp[0])
    # Different victim-selection streams give different timings...
    assert len(cycles) > 1
    # ...but every run passed check() inside full_fingerprint.


# ----------------------------------------------------------------------
# Observability instruments must be invisible to the simulation
# ----------------------------------------------------------------------
#: app×config pairs for the instrument-transparency matrix (>= 3 pairs).
OBS_MATRIX = [
    ("bt-mesi", "cilk5-cs", dict(n=96, grain=32)),
    ("bt-hcc-gwb", "ligra-bfs", dict(scale=5, grain=8)),
    ("bt-hcc-dts-gwb", "cilk5-cs", dict(n=96, grain=32)),
]


def observed_fingerprint(kind, app_name, params, seed, instrument=None):
    """Like :func:`full_fingerprint` but with a memory digest, and with an
    optional ``instrument(machine, runtime)`` hook called before the run
    (returning an optional ``finalize()`` callable for after it)."""
    app = make_app(app_name, **params)
    machine = Machine(make_config(kind, "tiny", seed=seed))
    app.setup(machine)
    rt = WorkStealingRuntime(machine)
    finalize = instrument(machine, rt) if instrument is not None else None
    cycles = rt.run(app.make_root())
    if finalize is not None:
        finalize()
    app.check()
    return (
        cycles,
        machine.total_instructions(),
        rt.stats.get("steals"),
        tuple(sorted(machine.traffic.snapshot().items())),
        machine.memory_digest(machine.address_space.regions()),
    )


@pytest.mark.parametrize("kind,app_name,params", OBS_MATRIX)
def test_heartbeat_runs_are_bit_identical_to_bare_runs(
    kind, app_name, params, tmp_path
):
    """A heartbeat-instrumented run (daemon-event telemetry writing JSON
    snapshots) is cycle- and memory-digest-identical to a bare run."""
    from repro.obs import HeartbeatWriter

    def instrument(machine, rt):
        hb = HeartbeatWriter(
            machine,
            rt,
            str(tmp_path / f"{kind}-{app_name}.json"),
            interval=500,  # aggressive cadence: many daemon ticks per run
            min_wall_s=0.0,  # write every beat, never throttle
        )
        hb.start()
        return lambda: hb.finalize("done")

    bare = observed_fingerprint(kind, app_name, params, seed=42)
    beating = observed_fingerprint(kind, app_name, params, seed=42, instrument=instrument)
    assert bare == beating
    # The instrument genuinely ran: the snapshot file exists and beat often.
    import json

    snap = json.loads((tmp_path / f"{kind}-{app_name}.json").read_text())
    assert snap["status"] == "done"
    assert snap["beats"] >= 2
    assert snap["cycle"] == bare[0]


@pytest.mark.parametrize("kind,app_name,params", OBS_MATRIX)
def test_profiled_runs_are_bit_identical_to_bare_runs(kind, app_name, params):
    """A run under the SIGPROF layer sampler is cycle- and digest-identical
    to a bare run."""
    import signal

    from repro.obs.profile import LayerSampler

    timers = []

    def instrument(machine, rt):
        return lambda: timers.append(signal.getitimer(signal.ITIMER_PROF))

    bare = observed_fingerprint(kind, app_name, params, seed=42)
    with LayerSampler().armed():
        profiled = observed_fingerprint(kind, app_name, params, seed=42, instrument=instrument)
    assert bare == profiled
    # These runs can finish inside one timer tick, so samples may be 0;
    # the sampler was still armed across the whole of runtime.run.
    assert timers[0][1] > 0


def test_workspan_analysis_deterministic():
    from repro.analysis import CilkviewAnalyzer

    reports = []
    for _ in range(2):
        app = make_app("ligra-tc", scale=4, grain=4)
        analyzer = CilkviewAnalyzer()
        app.setup(analyzer.machine)
        reports.append(analyzer.analyze(app.make_root()))
    assert reports[0].work == reports[1].work
    assert reports[0].span == reports[1].span
    assert reports[0].n_tasks == reports[1].n_tasks
