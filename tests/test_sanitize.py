"""Coherence-invariant sanitizer (repro.sanitize): clean runs stay silent,
planted bugs get caught."""

import pickle

import pytest

from repro.core import Task, WorkStealingRuntime
from repro.cores import ops
from repro.mem.address import WORD_BYTES, line_addr
from repro.sanitize import Sanitizer, SanitizerError

from helpers import ALL_BIGTINY, VARIANT_KINDS, tiny_machine


class FibTask(Task):
    ARG_WORDS = 2

    def __init__(self, n, out_addr):
        super().__init__()
        self.n = n
        self.out_addr = out_addr

    def execute(self, rt, ctx):
        if self.n < 2:
            yield ctx.store(self.out_addr, self.n)
            return
        scratch = rt.machine.address_space.alloc_words(2, "fib_scratch")
        children = [
            FibTask(self.n - 1, scratch),
            FibTask(self.n - 2, scratch + WORD_BYTES),
        ]
        yield from rt.fork_join(ctx, self, children)
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)


def _fib(kind, n=9, sanitize=True, **rt_kwargs):
    machine = tiny_machine(kind, sanitize=sanitize)
    rt = WorkStealingRuntime(machine, **rt_kwargs)
    out = machine.address_space.alloc_words(1, "out")
    cycles = rt.run(FibTask(n, out))
    return machine, rt, machine.host_read_word(out), cycles


# ----------------------------------------------------------------------
# Off switch and non-perturbation
# ----------------------------------------------------------------------

class TestOffSwitch:
    def test_off_by_default_and_unwrapped(self):
        machine = tiny_machine()
        assert machine.sanitizer is None
        # No instance-level wrappers: the L1 methods are the class's own.
        assert all("load" not in l1.__dict__ for l1 in machine.l1s)

    def test_on_wraps_every_l1(self):
        machine = tiny_machine(sanitize=True)
        assert machine.sanitizer is not None
        assert all("load" in l1.__dict__ for l1 in machine.l1s)

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_sanitizer_never_perturbs_timing(self, kind):
        """peek-only walks + pure observation: cycle counts must match."""
        _, _, clean_result, clean_cycles = _fib(kind, sanitize=False)
        machine, rt, result, cycles = _fib(kind, sanitize=True)
        assert (result, cycles) == (clean_result, clean_cycles)
        assert machine.sanitizer.finish(rt) == []


# ----------------------------------------------------------------------
# Clean runs are silent
# ----------------------------------------------------------------------

class TestCleanRuns:
    @pytest.mark.parametrize("kind", ALL_BIGTINY)
    def test_fib_is_violation_free(self, kind):
        machine, rt, result, _ = _fib(kind)
        assert result == 34
        assert machine.sanitizer.finish(rt) == []
        assert machine.sanitizer.stats.get("walks") > 0

    def test_flush_publish_is_clean_on_gwb(self):
        machine = tiny_machine("bt-hcc-gwb", sanitize=True)
        data = machine.address_space.alloc_words(1, "data")

        def publisher():
            yield ops.Store(data, 42)
            yield ops.FlushAll()

        def reader():
            yield ops.Idle(400)
            yield ops.InvAll()
            got = yield ops.Load(data)
            assert got == 42

        machine.cores[1].start(publisher())
        machine.cores[2].start(reader())
        machine.sim.run()
        assert machine.sanitizer.finish() == []


# ----------------------------------------------------------------------
# Positive controls: planted bugs must be flagged
# ----------------------------------------------------------------------

class TestPositiveControls:
    def test_unflushed_read_detected_on_gwb(self):
        """A reader racing an unflushed write-back store is the bug class."""
        machine = tiny_machine("bt-hcc-gwb", sanitize=True)
        data = machine.address_space.alloc_words(1, "data")

        def sloppy_publisher():
            yield ops.Store(data, 42)
            # No FlushAll: the dirty word never becomes globally visible.

        def reader():
            yield ops.Idle(400)
            yield ops.Load(data)

        machine.cores[1].start(sloppy_publisher())
        machine.cores[2].start(reader())
        machine.sim.run()
        kinds = [v["kind"] for v in machine.sanitizer.violations]
        assert "unflushed-read" in kinds
        with pytest.raises(SanitizerError):
            machine.sanitizer.finish()

    def test_write_through_needs_no_flush(self):
        """GPU-WT publishes at the store itself: same race, no violation."""
        machine = tiny_machine("bt-hcc-gwt", sanitize=True)
        data = machine.address_space.alloc_words(1, "data")

        def publisher():
            yield ops.Store(data, 42)

        def reader():
            yield ops.Idle(400)
            yield ops.Load(data)

        machine.cores[1].start(publisher())
        machine.cores[2].start(reader())
        machine.sim.run()
        assert machine.sanitizer.finish() == []

    def test_broken_dts_runtime_is_flagged(self):
        """The deliberately-broken runtime variant trips the race detector."""
        machine, rt, _, _ = _fib(
            "bt-hcc-dts-gwb", n=10, break_coherence="no-thief-flush"
        )
        assert rt.stats.get("steals") > 0
        violations = machine.sanitizer.finish(rt, strict=False)
        assert any(v["kind"] == "unflushed-read" for v in violations)

    def test_swmr_walk_catches_corrupted_directory(self):
        machine = tiny_machine("bt-mesi", sanitize=True)
        data = machine.address_space.alloc_words(1, "data")

        def writer():
            yield ops.Store(data, 7)

        machine.cores[0].start(writer())
        machine.sim.run()
        entry = machine.l2.directory_entry(line_addr(data))
        assert entry is not None and entry.owner == 0
        entry.owner = 2  # corrupt: nobody's L1 backs this claim
        n_new = machine.sanitizer.check_now()
        kinds = [v["kind"] for v in machine.sanitizer.violations]
        assert n_new >= 2
        assert "directory-owner-mismatch" in kinds  # core 0 owns, dir says 2
        assert "stale-directory-owner" in kinds     # dir says 2, L1 2 is empty


# ----------------------------------------------------------------------
# Conservation checks
# ----------------------------------------------------------------------

class TestConservation:
    def test_task_conservation_violation(self):
        machine, rt, _, _ = _fib("bt-mesi")
        rt.stats.add("spawns")  # fake a spawn that never executed
        violations = machine.sanitizer.finish(rt, strict=False)
        assert [v["kind"] for v in violations] == ["task-conservation"]

    def test_undrained_deque_violation(self):
        """A runtime whose deque pointers end unequal is reported."""
        machine = tiny_machine("bt-mesi", sanitize=True)
        words = machine.address_space.alloc_words(2, "stub_deque")
        machine.host_write_word(words, 3)               # head
        machine.host_write_word(words + WORD_BYTES, 5)  # tail: 2 tasks stranded

        class _StubDeque:
            head_addr = words
            tail_addr = words + WORD_BYTES

        class _StubRuntime:
            serial_elision = False
            done = True
            deques = [_StubDeque()]

            class stats:
                @staticmethod
                def get(key, default=0):
                    return {"spawns": 4, "tasks_executed": 5}[key]

        violations = machine.sanitizer.finish(_StubRuntime(), strict=False)
        assert [v["kind"] for v in violations] == ["deque-not-drained"]
        assert violations[0]["head"] == 3 and violations[0]["tail"] == 5

    def test_serial_elision_skips_conservation(self):
        machine, rt, result, _ = _fib("bt-mesi", serial_elision=True)
        assert result == 34
        assert machine.sanitizer.finish(rt) == []


# ----------------------------------------------------------------------
# SanitizerError plumbing
# ----------------------------------------------------------------------

class TestSanitizerError:
    def test_pickles_with_violations(self):
        err = SanitizerError("2 violations", [{"kind": "unflushed-read"}])
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, SanitizerError)
        assert back.violations == [{"kind": "unflushed-read"}]
        assert "2 violations" in str(back)

    def test_violation_records_are_json_able(self):
        import json

        machine = tiny_machine("bt-hcc-gwb", sanitize=True)
        data = machine.address_space.alloc_words(1, "data")

        def racer(core_id, delay):
            yield ops.Idle(delay)
            if core_id == 1:
                yield ops.Store(data, 1)
            else:
                yield ops.Load(data)

        machine.cores[1].start(racer(1, 0))
        machine.cores[2].start(racer(2, 300))
        machine.sim.run()
        violations = machine.sanitizer.finish(strict=False)
        assert violations
        json.dumps(violations)  # must not raise
