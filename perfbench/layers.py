"""Per-layer host-time tracing for the repository benchmark.

The program is measured from outside: :class:`LayerTracer` wraps the
public entry points of each layer while a traced pass runs and restores
them afterwards, so no file under ``src/`` knows it is being measured.

Two kinds of boundary are recorded:

* Coarse boundaries, a few per simulation (``harness``, ``machine.build``,
  ``apps.setup``, ``core.run``, ``apps.check``, ``analysis.workspan``,
  ``analysis.energy``), are kept as spans tagged with the simulation id.
* Hot boundaries, hundreds of thousands of calls per simulation (the
  per-instance L1, L2, DRAM, mesh and ULI methods, and the class-level
  ``Simulator.schedule_at`` whose class uses ``__slots__``), only add to
  in-memory call counts and self times.

Both share one stack, so a layer's self time is its span minus the spans
of the layers it called.  Everything timed inside ``core.run`` that no
wrapper claims (the core trampoline, the runtime and app generators, the
event-heap loop) is the self time of ``core.run`` itself, reported as
``cores.self_s``; the layer self times therefore sum to ``core.run``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer -> methods wrapped on each instance of that layer in a traced
#: Machine.  Every one of them is only reached from inside ``core.run``.
HOT_METHODS = {
    "mem.l1": (
        "load", "store", "amo", "invalidate_all", "flush_all",
        "snoop_invalidate", "snoop_recall", "snoop_peek_word",
    ),
    "mem.l2": (
        "fetch_shared", "fetch_exclusive", "upgrade", "writeback_line",
        "eviction_notice", "write_through_word", "amo_word", "read_word_bypass",
    ),
    "mem.dram": ("access",),
    "noc.mesh": ("core_position", "hops", "latency"),
    "noc.uli": ("send_latency",),
}

class LayerTracer:
    """Aggregates spans, call counts, self times and simulated counts.

    With ``hot=False`` only the ``core.run`` boundary is wrapped: the
    untraced passes of a traced benchmark run use it to time the
    simulation loop itself at a cost of two clock reads per simulation.
    """

    def __init__(self, hot: bool = True):
        self.hot = hot
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        #: Simulation id that new spans are tagged with.
        self.sim_id = None
        self._stack = [0.0]
        self._names = []
        self._machines = []
        self._runtimes = []

    # ------------------------------------------------------------------
    # Boundaries
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one coarse span and charge its self time to ``name``."""
        stack = self._stack
        parent = self._names[-1] if self._names else None
        self._names.append(name)
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            duration = end - start
            self.self_s[name] += duration - stack.pop()
            self.total_s[name] += duration
            stack[-1] += duration
            self.calls[name] += 1
            self._names.pop()
            self.spans.append(
                {"sim": self.sim_id, "name": name, "parent": parent,
                 "start": start, "end": end}
            )

    def _coarse(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _hot(self, fn, layer: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[layer] += 1

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        import repro.harness.runner as runner
        from repro.engine.simulator import Simulator

        names = ("WorkStealingRuntime",)
        if self.hot:
            names += ("Machine", "make_app", "estimate_energy")
        saved = {name: getattr(runner, name) for name in names}
        schedule_at = Simulator.schedule_at
        runner.WorkStealingRuntime = self._runtime_factory(saved["WorkStealingRuntime"])
        if self.hot:
            runner.Machine = self._machine_factory(saved["Machine"])
            runner.make_app = self._app_factory(saved["make_app"])
            runner.estimate_energy = self._coarse(saved["estimate_energy"], "analysis.energy")
            Simulator.schedule_at = self._hot(schedule_at, "engine.schedule_at")
        try:
            yield self
        finally:
            for name, value in saved.items():
                setattr(runner, name, value)
            Simulator.schedule_at = schedule_at

    def _machine_factory(self, machine_cls):
        def build(*args, **kwargs):
            with self.span("machine.build"):
                machine = machine_cls(*args, **kwargs)
            instances = {
                "mem.l1": machine.l1s,
                "mem.l2": [machine.l2],
                "mem.dram": machine.l2.dram,
                "noc.mesh": [machine.mesh],
                "noc.uli": [machine.uli_network],
            }
            for layer, objs in instances.items():
                for obj in objs:
                    for method in HOT_METHODS[layer]:
                        setattr(obj, method, self._hot(getattr(obj, method), layer))
            self._machines.append(machine)
            return machine

        return build

    def _app_factory(self, make_app):
        def make(name, **params):
            app = make_app(name, **params)
            app.setup = self._coarse(app.setup, "apps.setup")
            app.check = self._coarse(app.check, "apps.check")
            return app

        return make

    def _runtime_factory(self, runtime_cls):
        def make(machine, **kwargs):
            runtime = runtime_cls(machine, **kwargs)
            runtime.run = self._coarse(runtime.run, "core.run")
            self._runtimes.append(runtime)
            return runtime

        return make

    # ------------------------------------------------------------------
    # Simulated counts (read from the program's own StatGroups)
    # ------------------------------------------------------------------
    def harvest(self) -> None:
        """Add the counts of the machines built since the last harvest."""
        counts = self.counts
        for machine in self._machines:
            counts["engine.heap_events"] += machine.sim.events_executed
            counts["engine.fused_events"] += machine.sim.events_fused
            l1 = machine.aggregate_l1_stats()
            counts["l1.accesses"] += l1["loads"] + l1["stores"]
            counts["l1.hits"] += l1["load_hits"] + l1["store_hits"]
            l2 = machine.l2.stats
            counts["l2.accesses"] += l2.get("accesses")
            counts["l2.misses"] += l2.get("misses")
            counts["mem.l2.owner_recalls"] += l2.get("owner_recalls")
            counts["noc.traffic_bytes"] += machine.traffic.total_bytes()
            counts["noc.uli.messages"] += machine.stats.child("uli_network").get("messages")
        for runtime in self._runtimes:
            stats = runtime.stats
            counts["core.tasks"] += stats.get("tasks_executed")
            counts["core.steals"] += stats.get("steals")
            counts["core.steal_attempts"] += stats.get("steal_attempts")
            counts["core.uli_nacks"] += stats.get("steal_nacks")
        self._machines.clear()
        self._runtimes.clear()

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (unitless dict)."""
        c = self.counts
        heap, fused = c["engine.heap_events"], c["engine.fused_events"]
        out = {
            "harness.self_s": self.self_s["harness"],
            "machine.build_s": self.self_s["machine.build"],
            "apps.setup_s": self.self_s["apps.setup"],
            "apps.check_s": self.self_s["apps.check"],
            "analysis.workspan_s": self.self_s["analysis.workspan"],
            "analysis.energy_s": self.self_s["analysis.energy"],
            "engine.heap_events": heap,
            "engine.fused_events": fused,
            "engine.fused_ratio": _ratio(fused, heap + fused),
            "engine.schedule_at_s": self.self_s["engine.schedule_at"],
        }
        for layer in HOT_METHODS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["mem.l1.hit_rate"] = _ratio(c["l1.hits"], c["l1.accesses"])
        out["mem.l2.miss_ratio"] = _ratio(c["l2.misses"], c["l2.accesses"])
        for key in ("mem.l2.owner_recalls", "noc.traffic_bytes", "noc.uli.messages",
                    "core.tasks", "core.steals", "core.steal_attempts", "core.uli_nacks"):
            out[key] = c[key]
        out["core.run_s"] = self.total_s["core.run"]
        out["core.steal_success_ratio"] = _ratio(c["core.steals"], c["core.steal_attempts"])
        out["cores.self_s"] = self.self_s["core.run"]
        return out

    def run_sum_error(self) -> float:
        """|sum of the self times inside core.run - core.run| / core.run."""
        run_s = self.total_s["core.run"]
        layers = ("core.run", "engine.schedule_at") + tuple(HOT_METHODS)
        parts = sum(self.self_s[layer] for layer in layers)
        return abs(parts - run_s) / run_s if run_s else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0
