"""Additional coverage: traffic meter, runtime-on-mismatched-machine,
GPU-WT fences, stats aggregation, and app-specific odds and ends."""

import pytest

from repro.core import Task, WorkStealingRuntime
from repro.mem.traffic import CATEGORIES, TrafficMeter

from helpers import tiny_machine


class TestTrafficMeter:
    def test_record_and_totals(self):
        meter = TrafficMeter()
        meter.record("cpu_req", 8, 3)
        meter.record("cpu_req", 8, 1)
        meter.record("data_resp", 72, 3)
        assert meter.bytes["cpu_req"] == 16
        assert meter.byte_hops["cpu_req"] == 32
        assert meter.messages["data_resp"] == 1
        assert meter.total_bytes() == 88
        assert meter.total_byte_hops() == 32 + 216

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            TrafficMeter().record("warp_drive", 8, 1)

    def test_merged_with(self):
        a, b = TrafficMeter(), TrafficMeter()
        a.record("wb_req", 16, 2)
        b.record("wb_req", 16, 4)
        merged = a.merged_with(b)
        assert merged.bytes["wb_req"] == 32
        assert merged.byte_hops["wb_req"] == 96
        assert a.bytes["wb_req"] == 16  # originals untouched

    def test_snapshot_covers_all_categories(self):
        snap = TrafficMeter().snapshot()
        assert set(snap) == set(CATEGORIES)


class _CounterTask(Task):
    def __init__(self, addr, n):
        super().__init__()
        self.addr = addr
        self.n = n

    def execute(self, rt, ctx):
        if self.n == 0:
            yield ctx.amo_add(self.addr, 1)
            return
        yield from rt.fork_join(
            ctx, self, [_CounterTask(self.addr, self.n - 1) for _ in range(3)]
        )


class TestRuntimeVariantMachineMismatch:
    def test_hcc_runtime_on_mesi_machine_is_correct(self):
        """Coherence ops no-op on MESI; the HCC recipe must still work."""
        machine = tiny_machine("bt-mesi")
        rt = WorkStealingRuntime(machine, variant="hcc")
        addr = machine.address_space.alloc_words(1, "c")
        machine.host_write_word(addr, 0)
        rt.run(_CounterTask(addr, 3))
        assert machine.host_read_word(addr) == 27
        # MESI treats invalidate/flush as no-ops: no lines are dropped.
        assert machine.aggregate_l1_stats()["lines_invalidated"] == 0
        assert machine.aggregate_l1_stats()["lines_flushed"] == 0

    def test_hw_runtime_on_hcc_machine_misbehaves(self):
        """The hw runtime on an HCC machine is *not* correct.

        This is the paper's core point (Section III-C): without the
        Figure 3b coherence operations, deque head/tail reads go stale and
        tasks get duplicated or lost.  We run the experiment under a tight
        cycle budget and accept any of: a wrong counter (duplicated
        tasks), a deadlock (lost tasks), or — rarely — a lucky correct
        run.  What must never happen silently is exactly what the HCC
        runtime exists to prevent.
        """
        from repro.engine.simulator import SimulationError

        outcomes = []
        for seed in (1, 2, 3, 4):
            machine = tiny_machine("bt-hcc-gwb", seed=seed, max_cycles=300_000)
            rt = WorkStealingRuntime(machine, variant="hw")
            addr = machine.address_space.alloc_words(1, "c")
            machine.host_write_word(addr, 0)
            try:
                rt.run(_CounterTask(addr, 2))
                outcomes.append(machine.host_read_word(addr))
            except SimulationError:
                outcomes.append("hang")
        # At least one schedule exposes the incoherence.
        assert any(outcome != 9 for outcome in outcomes), outcomes


class TestGpuWtFencing:
    def test_amo_waits_for_write_buffer_drain(self):
        machine = tiny_machine("bt-hcc-gwt")
        l1 = machine.l1s[1]
        base = machine.address_space.alloc_words(16, "buf")
        # Fill the write buffer with write-throughs at cycle 0.
        for i in range(8):
            l1.store(base + i * 8, i, 0)
        _, latency = l1.amo("add", base + 127 * 8, 1, 0)
        # The AMO drained the buffer: its latency covers the outstanding
        # write-through round trips.
        assert latency > 20


class TestBreakdownConsistency:
    @pytest.mark.parametrize("kind", ("bt-mesi", "bt-hcc-dts-gwb"))
    def test_cycle_breakdown_sums_to_elapsed(self, kind):
        machine = tiny_machine(kind)
        rt = WorkStealingRuntime(machine)
        addr = machine.address_space.alloc_words(1, "c")
        machine.host_write_word(addr, 0)
        rt.run(_CounterTask(addr, 3))
        for core in machine.cores:
            total = sum(core.cycle_breakdown().values())
            # Cores halt at different times but can never exceed sim.now.
            assert total <= machine.sim.now


class TestAppExtras:
    def test_radii_estimated_radius_positive(self):
        from repro.analysis import CilkviewAnalyzer
        from repro.apps import make_app

        app = make_app("ligra-radii", scale=4, grain=4)
        analyzer = CilkviewAnalyzer()
        app.setup(analyzer.machine)
        analyzer.analyze(app.make_root())
        app.check()
        assert app.estimated_radius() >= 1

    def test_nq_rejects_unknown_board(self):
        from repro.apps import make_app

        with pytest.raises(ValueError):
            make_app("cilk5-nq", n=3)

    def test_lu_rejects_non_divisible_block(self):
        from repro.apps import make_app

        with pytest.raises(ValueError):
            make_app("cilk5-lu", n=10, grain=4)

    def test_mm_and_mt_reject_non_power_of_two(self):
        from repro.apps import make_app

        with pytest.raises(ValueError):
            make_app("cilk5-mm", n=12)
        with pytest.raises(ValueError):
            make_app("cilk5-mt", n=12)

    def test_graph_apps_have_pf_method(self):
        from repro.apps import PAPER_APPS, make_app

        for name in PAPER_APPS:
            app = make_app(name)
            if name.startswith("ligra"):
                assert app.pm == "pf"
