"""DeNovo, GPU-WT, and GPU-WB protocol unit tests.

These drive the L1 models directly and verify the defining behaviours of
each protocol from Table I — including the *incoherence* that software must
manage: stale reads really happen until ``cache_invalidate``, and GPU-WB
dirty data really is invisible until ``cache_flush``.
"""

from repro.mem.cacheline import REGISTERED, VALID

from helpers import tiny_machine


def fresh(kind):
    machine = tiny_machine(kind)
    addr = machine.address_space.alloc_words(8, "x")
    machine.host_write_word(addr, 100)
    return machine, addr


# ----------------------------------------------------------------------
# DeNovo
# ----------------------------------------------------------------------
class TestDeNovo:
    def test_store_registers_ownership(self):
        machine, addr = fresh("bt-hcc-dnv")
        l1 = machine.l1s[1]
        l1.store(addr, 7, 0)
        assert l1.resident(addr).state == REGISTERED
        entry = machine.l2.directory_entry(addr)
        assert entry.owner == 1

    def test_stale_read_until_invalidate(self):
        machine, addr = fresh("bt-hcc-dnv")
        reader, writer = machine.l1s[1], machine.l1s[2]
        value, _ = reader.load(addr, 0)
        assert value == 100
        writer.store(addr, 200, 1)
        stale, _ = reader.load(addr, 2)
        assert stale == 100  # reader-initiated protocol: still stale
        reader.invalidate_all(3)
        fresh_value, _ = reader.load(addr, 4)
        assert fresh_value == 200  # recall from the registered owner

    def test_invalidate_keeps_registered_lines(self):
        machine, addr = fresh("bt-hcc-dnv")
        l1 = machine.l1s[1]
        other = machine.address_space.alloc_words(8, "y")
        l1.store(addr, 1, 0)  # registered
        l1.load(other, 1)  # valid clean
        l1.invalidate_all(2)
        assert l1.resident(addr) is not None
        assert l1.resident(other) is None
        assert l1.stats.get("lines_invalidated") == 1

    def test_flush_is_noop(self):
        machine, addr = fresh("bt-hcc-dnv")
        machine.l1s[1].store(addr, 9, 0)
        assert machine.l1s[1].flush_all(1) == 0

    def test_amo_in_l1_after_registration(self):
        machine, addr = fresh("bt-hcc-dnv")
        old, _ = machine.l1s[1].amo("add", addr, 5, 0)
        assert old == 100
        old, _ = machine.l1s[2].amo("add", addr, 5, 1)
        assert old == 105  # ownership recalled, latest value seen

    def test_registered_eviction_releases_ownership(self):
        machine, addr = fresh("bt-hcc-dnv")
        l1 = machine.l1s[1]
        set_stride = 32 * 64
        base = machine.address_space.alloc(set_stride * 4, "evict")
        l1.store(base, 1, 0)
        l1.store(base + set_stride, 2, 1)
        l1.store(base + 2 * set_stride, 3, 2)
        assert machine.l2.peek_word(base) == 1
        assert machine.l2.directory_entry(base).owner is None


# ----------------------------------------------------------------------
# GPU-WT
# ----------------------------------------------------------------------
class TestGpuWt:
    def test_store_is_immediately_visible_at_l2(self):
        machine, addr = fresh("bt-hcc-gwt")
        machine.l1s[1].store(addr, 42, 0)
        assert machine.l2.peek_word(addr) == 42

    def test_store_miss_does_not_allocate(self):
        machine, addr = fresh("bt-hcc-gwt")
        l1 = machine.l1s[1]
        l1.store(addr, 42, 0)
        assert l1.resident(addr) is None  # no write allocate

    def test_store_hit_updates_local_copy(self):
        machine, addr = fresh("bt-hcc-gwt")
        l1 = machine.l1s[1]
        l1.load(addr, 0)
        l1.store(addr, 42, 1)
        value, latency = l1.load(addr, 2)
        assert value == 42 and latency == l1.hit_latency

    def test_invalidate_drops_everything(self):
        machine, addr = fresh("bt-hcc-gwt")
        l1 = machine.l1s[1]
        l1.load(addr, 0)
        l1.invalidate_all(1)
        assert l1.resident(addr) is None
        assert l1.stats.get("lines_invalidated") == 1

    def test_amo_executes_at_l2(self):
        machine, addr = fresh("bt-hcc-gwt")
        old, latency = machine.l1s[1].amo("add", addr, 1, 0)
        assert old == 100
        assert machine.l2.peek_word(addr) == 101
        assert latency > machine.l1s[1].hit_latency  # round trip to L2
        assert machine.l2.stats.get("amos") == 1

    def test_write_buffer_stalls_when_full(self):
        machine, addr = fresh("bt-hcc-gwt")
        l1 = machine.l1s[1]
        stalls_before = l1.stats.get("write_buffer_stall_cycles")
        for i in range(20):
            l1.store(addr + (i % 8) * 8, i, 0)  # all at cycle 0: buffer fills
        assert l1.stats.get("write_buffer_stall_cycles") > stalls_before

    def test_stale_read_until_invalidate(self):
        machine, addr = fresh("bt-hcc-gwt")
        reader, writer = machine.l1s[1], machine.l1s[2]
        reader.load(addr, 0)
        writer.store(addr, 55, 1)
        assert reader.load(addr, 2)[0] == 100
        reader.invalidate_all(3)
        assert reader.load(addr, 4)[0] == 55


# ----------------------------------------------------------------------
# GPU-WB
# ----------------------------------------------------------------------
class TestGpuWb:
    def test_dirty_data_invisible_until_flush(self):
        machine, addr = fresh("bt-hcc-gwb")
        writer, reader = machine.l1s[1], machine.l1s[2]
        writer.store(addr, 77, 0)
        assert machine.l2.peek_word(addr) == 100  # not yet written back
        assert reader.load(addr, 1)[0] == 100
        writer.flush_all(2)
        assert machine.l2.peek_word(addr) == 77
        reader.invalidate_all(3)
        assert reader.load(addr, 4)[0] == 77

    def test_write_allocate_without_fetch(self):
        machine, addr = fresh("bt-hcc-gwb")
        l1 = machine.l1s[1]
        latency = l1.store(addr, 1, 0)
        assert latency == l1.hit_latency  # no fetch round trip
        line = l1.resident(addr)
        assert line.word_valid(0) and not line.word_valid(1)

    def test_load_merges_fill_with_dirty_words(self):
        machine, addr = fresh("bt-hcc-gwb")
        machine.host_write_word(addr + 8, 300)
        l1 = machine.l1s[1]
        l1.store(addr, 1, 0)  # dirty word 0, word 1 invalid
        value, _ = l1.load(addr + 8, 1)  # fill merges
        assert value == 300
        assert l1.resident(addr).data[0] == 1  # our write survived the fill

    def test_invalidate_keeps_only_dirty_words(self):
        machine, addr = fresh("bt-hcc-gwb")
        l1 = machine.l1s[1]
        l1.load(addr, 0)  # full line valid clean
        l1.store(addr + 8, 5, 1)  # word 1 dirty
        l1.invalidate_all(2)
        line = l1.resident(addr)
        assert line is not None
        assert line.word_dirty(1) and line.word_valid(1)
        assert not line.word_valid(0)  # clean word invalidated

    def test_flush_counts_lines_and_clears_dirty(self):
        machine, addr = fresh("bt-hcc-gwb")
        l1 = machine.l1s[1]
        other = machine.address_space.alloc_words(8, "y")
        l1.store(addr, 1, 0)
        l1.store(other, 2, 1)
        l1.flush_all(2)
        assert l1.stats.get("lines_flushed") == 2
        assert l1.resident(addr).dirty_mask == 0

    def test_amo_flushes_local_dirty_word_first(self):
        machine, addr = fresh("bt-hcc-gwb")
        l1 = machine.l1s[1]
        l1.store(addr, 10, 0)  # dirty locally, L2 still has 100
        old, _ = l1.amo("add", addr, 1, 1)
        assert old == 10  # AMO saw our store, not the stale L2 copy
        assert machine.l2.peek_word(addr) == 11

    def test_dirty_eviction_writes_back_words(self):
        machine, addr = fresh("bt-hcc-gwb")
        l1 = machine.l1s[1]
        set_stride = 32 * 64
        base = machine.address_space.alloc(set_stride * 4, "evict")
        l1.store(base, 1, 0)
        l1.store(base + set_stride, 2, 1)
        l1.store(base + 2 * set_stride, 3, 2)
        assert machine.l2.peek_word(base) == 1

    def test_lock_release_requires_amo(self):
        machine, _ = fresh("bt-hcc-gwb")
        assert machine.l1s[1].LOCK_RELEASE_AMO is True
        mesi_machine, _ = fresh("bt-mesi")
        assert mesi_machine.l1s[1].LOCK_RELEASE_AMO is False


# ----------------------------------------------------------------------
# Whole-cache walks against the per-line reference
# ----------------------------------------------------------------------
def _reference_gwb_invalidate(l1, now):
    """GpuWbL1.invalidate_all as a walk over ``tags.lines()`` snapshots."""
    l1.stats.add("invalidate_ops")
    dropped = 0
    for line in l1.tags.lines():
        if line.dirty_mask == 0:
            l1.tags.remove(line.addr)
            dropped += 1
        elif line.valid_mask != line.dirty_mask:
            line.valid_mask = line.dirty_mask
            dropped += 1
    l1.stats.add("lines_invalidated", dropped)
    return l1.FLASH_OP_LATENCY


def _reference_gwb_flush(l1, now):
    """GpuWbL1.flush_all as a walk over ``tags.lines()`` snapshots."""
    l1.stats.add("flush_ops")
    flushed = 0
    worst_injection = 0
    for line in l1.tags.lines():
        if line.dirty_mask == 0:
            continue
        injection = l1.l2.writeback_line(
            l1.core_id, line.addr, line.data, line.dirty_mask,
            now, release_ownership=False,
        )
        worst_injection = max(worst_injection, injection)
        line.dirty_mask = 0
        flushed += 1
    l1.stats.add("lines_flushed", flushed)
    return l1.FLASH_OP_LATENCY + worst_injection + l1.FLUSH_PER_LINE_CYCLES * flushed


def _reference_dnv_invalidate(l1, now):
    """DeNovoL1.invalidate_all as a walk over ``tags.lines()`` snapshots."""
    l1.stats.add("invalidate_ops")
    dropped = 0
    for line in l1.tags.lines():
        if line.state == VALID:
            l1.tags.remove(line.addr)
            dropped += 1
    l1.stats.add("lines_invalidated", dropped)
    return l1.FLASH_OP_LATENCY


def _mixed_l1(kind):
    """Core 1's L1 holding 48 lines (two per set in half the sets) of mixed
    kinds: clean, written without a fetch, and fetched then partly written.
    Writebacks reaching the L2 are recorded in order."""
    machine = tiny_machine(kind)
    l1 = machine.l1s[1]
    base = machine.address_space.alloc(48 * 64, "walk")
    now = 0
    for i in range(48):
        addr = base + i * 64
        if i % 4 != 1:
            l1.load(addr, now)
            now += 1
        for word in range(i % 4 if i % 4 != 1 else 1):
            l1.store(addr + 8 * (word * 3 % 8), i * 10 + word, now)
            now += 1
    writebacks = []
    real = machine.l2.writeback_line

    def spy(core_id, address, words, mask, now, release_ownership):
        writebacks.append((core_id, address, list(words), mask, now))
        return real(core_id, address, words, mask, now, release_ownership)

    machine.l2.writeback_line = spy
    return machine, l1, writebacks


def _observe(machine, l1, writebacks):
    lines = [
        (ln.addr, ln.state, ln.valid_mask, ln.dirty_mask, list(ln.data))
        for ln in l1.tags.lines()
    ]
    counters = {k: l1.stats.get(k) for k in ("lines_invalidated", "lines_flushed")}
    return lines, counters, list(writebacks), machine.l2.traffic.snapshot()


class TestWholeCacheWalks:
    def test_gwb_invalidate_then_flush_match_reference(self):
        machine, l1, wbs = _mixed_l1("bt-hcc-gwb")
        ref_machine, ref_l1, ref_wbs = _mixed_l1("bt-hcc-gwb")
        before = _observe(machine, l1, wbs)
        assert before == _observe(ref_machine, ref_l1, ref_wbs)
        assert len({ln[3] == 0 for ln in before[0]}) == 2  # clean and dirty
        assert l1.invalidate_all(100) == _reference_gwb_invalidate(ref_l1, 100)
        after_inv = _observe(machine, l1, wbs)
        assert after_inv == _observe(ref_machine, ref_l1, ref_wbs)
        assert 0 < len(after_inv[0]) < len(before[0])
        assert l1.flush_all(200) == _reference_gwb_flush(ref_l1, 200)
        after_flush = _observe(machine, l1, wbs)
        assert after_flush == _observe(ref_machine, ref_l1, ref_wbs)
        assert after_flush[1]["lines_flushed"] == len(after_flush[2]) > 1
        assert after_flush[3]["wb_req"] > 0

    def test_gwb_flush_of_mixed_lines_matches_reference(self):
        machine, l1, wbs = _mixed_l1("bt-hcc-gwb")
        ref_machine, ref_l1, ref_wbs = _mixed_l1("bt-hcc-gwb")
        assert l1.flush_all(100) == _reference_gwb_flush(ref_l1, 100)
        assert _observe(machine, l1, wbs) == _observe(ref_machine, ref_l1, ref_wbs)
        assert wbs

    def test_dnv_invalidate_matches_reference(self):
        machine, l1, wbs = _mixed_l1("bt-hcc-dnv")
        ref_machine, ref_l1, ref_wbs = _mixed_l1("bt-hcc-dnv")
        states = {ln.state for ln in l1.tags.lines()}
        assert states == {VALID, REGISTERED}
        assert l1.invalidate_all(100) == _reference_dnv_invalidate(ref_l1, 100)
        after = _observe(machine, l1, wbs)
        assert after == _observe(ref_machine, ref_l1, ref_wbs)
        assert after[0] and after[1]["lines_invalidated"] > 0
