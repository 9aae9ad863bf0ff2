"""Shared banked L2 cache with an embedded heterogeneous directory.

This is the HCC integration point, modeled after Spandex [Alsop et al.,
ISCA'18] as the paper describes: the L2 accepts request types from all four
L1 protocols (MESI GetS/GetM/PutM, DeNovo registrations and ownership
write-backs, GPU write-throughs, word flushes, and AMOs performed at the
shared cache) and keeps per-line directory state:

* ``sharers`` — the set of MESI L1s holding the line (precise sharer list,
  writer-initiated invalidation on any write by anyone else);
* ``owner``   — the single L1 (MESI M/E or DeNovo Registered) holding the
  up-to-date dirty/exclusive copy, recalled on demand.

GPU-WT/GPU-WB L1s are never tracked: they self-invalidate (reader-initiated)
and propagate dirty data with write-throughs/flushes, which is exactly what
makes them cheap.

The L2 is inclusive of tracked (MESI/DeNovo-owned) lines: evicting such an
L2 line first recalls/invalidates the L1 copies.

Latency accounting: each operation computes its end-to-end latency
analytically — requester->bank mesh hops, bank queue delay (busy-until
model), L2 tag/data access, optional DRAM fetch through the bank's memory
controller, optional owner recall / sharer invalidation round trips, and the
response hops back.  Hop counts and per-message-size latencies come from
core x bank tables built once from the mesh (:meth:`Mesh.bank_hops`,
:meth:`Mesh.latency_table`).  Traffic is recorded per the paper's Figure 8
message categories.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.stats import StatGroup
from repro.mem.address import LINE_BYTES, WORDS_PER_LINE, line_addr, word_index
from repro.mem.amo import apply_amo
from repro.mem.backing import MainMemory
from repro.mem.cacheline import CacheLine, TagArray, VALID
from repro.mem.dram import DramController
from repro.mem.traffic import (
    AMO_BYTES,
    CTRL_BYTES,
    LINE_DATA_BYTES,
    WORD_DATA_BYTES,
    TrafficMeter,
)
from repro.noc.mesh import Mesh


class _Bank:
    """One L2 bank: a busy-until FIFO server plus its tag array."""

    def __init__(self, bank_id: int, size_bytes: int, assoc: int):
        self.bank_id = bank_id
        self.tags = TagArray(size_bytes, assoc)
        self.busy_until = 0

    def queue_delay(self, arrival: int, service_time: int) -> int:
        start = max(arrival, self.busy_until)
        self.busy_until = start + service_time
        return start - arrival


class SharedL2:
    """Shared, banked, directory-embedded L2 supporting HCC."""

    def __init__(
        self,
        mesh: Mesh,
        memory: MainMemory,
        traffic: TrafficMeter,
        stats: StatGroup,
        n_banks: int,
        bank_size_bytes: int,
        assoc: int = 8,
        tag_latency: int = 6,
        service_time: int = 2,
        dram_controllers: Optional[List[DramController]] = None,
    ):
        self.mesh = mesh
        self.memory = memory
        self.traffic = traffic
        self.stats = stats.child("l2")
        self.n_banks = n_banks
        self.tag_latency = tag_latency
        self.service_time = service_time
        self.banks = [_Bank(b, bank_size_bytes, assoc) for b in range(n_banks)]
        if dram_controllers is None:
            dram_controllers = [DramController(b, stats) for b in range(n_banks)]
        if len(dram_controllers) != n_banks:
            raise ValueError("need one DRAM controller per L2 bank")
        self.dram = dram_controllers
        self._l1s: Dict[int, "object"] = {}
        self._cnt = self.stats._counters
        # Route tables, [core_id][bank_id]: hop counts, the round trip of a
        # bank->core snoop (control message each way plus one cycle at the
        # L1), and the wire latency of each message size the L2 exchanges
        # (write-backs carry 0..8 data words).
        hops = mesh.bank_hops(n_banks)
        per_hop = mesh.config.router_latency + mesh.config.channel_latency
        self._hops = hops
        self._snoop_round_trip = [[2 * h * per_hop + 1 for h in row] for row in hops]
        sizes = {CTRL_BYTES, AMO_BYTES, WORD_DATA_BYTES, LINE_DATA_BYTES}
        sizes.update(CTRL_BYTES + 8 * words for words in range(WORDS_PER_LINE + 1))
        self._latency = {n: mesh.latency_table(hops, n) for n in sorted(sizes)}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_l1(self, core_id: int, l1) -> None:
        self._l1s[core_id] = l1

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Per-bank tag arrays (directory state travels inside the packed
        lines as ``sharers``/``owner``) and busy-until queue clocks."""
        return {
            "banks": [
                {"tags": bank.tags.export_state(), "busy_until": bank.busy_until}
                for bank in self.banks
            ],
        }

    def load_state(self, state: dict) -> None:
        for bank, bank_state in zip(self.banks, state["banks"]):
            bank.tags.load_state(bank_state["tags"])
            bank.busy_until = bank_state["busy_until"]

    def bank_of(self, address: int) -> int:
        return (line_addr(address) // LINE_BYTES) % self.n_banks

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _wire_latency(self, core_id: int, bank_id: int, n_bytes: int) -> int:
        """Mesh latency of one ``n_bytes`` message between a core and a
        bank (either direction), NoC fault jitter included."""
        latency = self._latency[n_bytes][core_id][bank_id]
        if self.mesh.fault_injector is not None:
            latency += self.mesh.fault_injector.noc_extra()
        return latency

    def _ensure_line(self, bank: _Bank, base: int, now: int) -> Tuple[CacheLine, int]:
        """Make ``base`` resident in ``bank``; return (entry, extra_latency)."""
        entry = bank.tags.lookup(base)
        if entry is not None:
            return entry, 0
        # L2 miss: fetch from DRAM through this bank's controller.
        self._cnt["misses"] += 1
        dram = self.dram[bank.bank_id % len(self.dram)]
        latency = dram.access(now, LINE_DATA_BYTES)
        self.traffic.record("dram_req", CTRL_BYTES, 1)
        self.traffic.record("dram_resp", LINE_DATA_BYTES, 1)
        entry = CacheLine(base, VALID, self.memory.read_line(base))
        victim = bank.tags.insert(entry)
        if victim is not None:
            latency += self._evict_l2_line(bank, victim, now + latency)
        return entry, latency

    def _evict_l2_line(self, bank: _Bank, victim: CacheLine, now: int) -> int:
        """Evict an L2 line: recall/invalidate L1 copies, write back dirty data."""
        latency = 0
        self._cnt["evictions"] += 1
        if victim.owner is not None:
            latency += self._recall_owner(bank, victim, now)
        if victim.sharers:
            latency += self._invalidate_sharers(bank, victim, now, except_core=None)
        if victim.dirty_mask:
            self.memory.write_words(victim.addr, victim.data, victim.dirty_mask)
            dram = self.dram[bank.bank_id % len(self.dram)]
            latency += dram.access(now + latency, LINE_DATA_BYTES)
            self.traffic.record("dram_req", LINE_DATA_BYTES, 1)
        # Clean victims are dropped: their words match DRAM by construction
        # (every L2 data mutation sets dirty_mask; repro.verify proves the
        # invariant), so writing them back would be untracked DRAM traffic.
        return latency

    def _recall_owner(self, bank: _Bank, entry: CacheLine, now: int) -> int:
        """Pull the up-to-date copy from the owning L1 and merge it."""
        owner = entry.owner
        if owner is None:
            return 0
        l1 = self._l1s[owner]
        words, mask, kept = l1.snoop_recall(entry.addr)
        if mask:
            for i in range(WORDS_PER_LINE):
                if mask & (1 << i):
                    entry.data[i] = words[i]
            entry.dirty_mask |= mask
        entry.owner = None
        if kept and l1.TRACKED:
            # MESI owner downgraded to S: it stays on the sharer list.
            entry.sharers.add(owner)
        hops = self._hops[owner][bank.bank_id]
        self.traffic.record("coh_req", CTRL_BYTES, hops)
        self.traffic.record("coh_resp", LINE_DATA_BYTES if mask else CTRL_BYTES, hops)
        self._cnt["owner_recalls"] += 1
        return self._snoop_round_trip[owner][bank.bank_id]

    def _invalidate_sharers(
        self, bank: _Bank, entry: CacheLine, now: int, except_core: Optional[int]
    ) -> int:
        """Writer-initiated invalidation of all MESI sharers (parallel)."""
        worst = 0
        bank_id = bank.bank_id
        for sharer in sorted(entry.sharers):
            if sharer == except_core:
                continue
            self._l1s[sharer].snoop_invalidate(entry.addr)
            hops = self._hops[sharer][bank_id]
            worst = max(worst, self._snoop_round_trip[sharer][bank_id])
            self.traffic.record("coh_req", CTRL_BYTES, hops)
            self.traffic.record("coh_resp", CTRL_BYTES, hops)
            self._cnt["sharer_invalidations"] += 1
        entry.sharers = {except_core} if except_core in entry.sharers else set()
        return worst

    def _request_overhead(
        self, core_id: int, bank: _Bank, now: int, req_bytes: int, req_cat: str
    ) -> int:
        """Requester->bank hops + queue + tag access; records request traffic."""
        bank_id = bank.bank_id
        req_latency = self._wire_latency(core_id, bank_id, req_bytes)
        self.traffic.record(req_cat, req_bytes, self._hops[core_id][bank_id])
        queue = bank.queue_delay(now + req_latency, self.service_time)
        self._cnt["accesses"] += 1
        return req_latency + queue + self.tag_latency

    def _response_latency(self, core_id: int, bank: _Bank, resp_bytes: int, resp_cat: str) -> int:
        bank_id = bank.bank_id
        self.traffic.record(resp_cat, resp_bytes, self._hops[core_id][bank_id])
        return self._wire_latency(core_id, bank_id, resp_bytes)

    # ------------------------------------------------------------------
    # Requests from L1 caches
    # ------------------------------------------------------------------
    def fetch_shared(
        self, core_id: int, address: int, now: int, track_sharer: bool
    ) -> Tuple[List[int], int, bool]:
        """Read a line (MESI GetS when ``track_sharer``; DeNovo/GPU load fill).

        Returns (line data copy, latency, exclusive) where ``exclusive`` is
        True when no other cache holds the line (MESI E-state grant).
        """
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        exclusive = False
        if track_sharer:
            others = entry.sharers - {core_id}
            if not others and entry.owner is None:
                # Grant E: the requester becomes the (clean) owner.
                entry.owner = core_id
                entry.sharers = set()
                exclusive = True
            else:
                if entry.owner == core_id:
                    entry.owner = None
                entry.sharers.add(core_id)
        latency += self._response_latency(core_id, bank, LINE_DATA_BYTES, "data_resp")
        return list(entry.data), latency, exclusive

    def fetch_exclusive(self, core_id: int, address: int, now: int) -> Tuple[List[int], int]:
        """Obtain an exclusive/owned copy (MESI GetM, DeNovo registration)."""
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        entry.owner = core_id
        entry.sharers = set()
        latency += self._response_latency(core_id, bank, LINE_DATA_BYTES, "data_resp")
        return list(entry.data), latency

    def upgrade(self, core_id: int, address: int, now: int) -> int:
        """MESI S->M upgrade: invalidate the other sharers, grant ownership."""
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "cpu_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        latency += self._invalidate_sharers(bank, entry, now + latency, except_core=core_id)
        entry.sharers.discard(core_id)
        entry.owner = core_id
        latency += self._response_latency(core_id, bank, CTRL_BYTES, "data_resp")
        return latency

    def writeback_line(
        self,
        core_id: int,
        address: int,
        words: List[int],
        mask: int,
        now: int,
        release_ownership: bool,
    ) -> int:
        """Accept dirty data from an L1 (eviction PutM, DeNovo flush, GPU-WB flush).

        Write-backs are posted (buffered) — the returned latency is the
        injection cost only, not a full round trip; the requester decides
        what to charge.
        """
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        hops = self._hops[core_id][bank.bank_id]
        n_words = bin(mask).count("1")
        n_bytes = CTRL_BYTES + n_words * 8
        self.traffic.record("wb_req", n_bytes, hops)
        bank.queue_delay(now, self.service_time)
        entry, _ = self._ensure_line(bank, base, now)
        # A write-back from one cache invalidates hardware-coherent copies
        # elsewhere (Spandex: foreign dirty data breaks SWMR for MESI L1s).
        if entry.owner is not None and entry.owner != core_id:
            self._recall_owner(bank, entry, now)
        self._invalidate_sharers(bank, entry, now, except_core=core_id)
        for i in range(WORDS_PER_LINE):
            if mask & (1 << i):
                entry.data[i] = words[i]
        entry.dirty_mask |= mask
        if release_ownership and entry.owner == core_id:
            entry.owner = None
        self._cnt["writebacks"] += 1
        return self._wire_latency(core_id, bank.bank_id, n_bytes)

    def eviction_notice(self, core_id: int, address: int) -> None:
        """Silent clean eviction from a tracked L1 (keeps directory precise)."""
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        entry = bank.tags.peek(base)
        if entry is None:
            return
        entry.sharers.discard(core_id)
        if entry.owner == core_id:
            entry.owner = None
        self.traffic.record("coh_resp", CTRL_BYTES, self._hops[core_id][bank.bank_id])

    def write_through_word(self, core_id: int, address: int, value: int, now: int) -> int:
        """GPU-WT store: update the shared cache directly (no L1 allocation)."""
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        self.traffic.record("wb_req", WORD_DATA_BYTES, self._hops[core_id][bank.bank_id])
        latency = self._wire_latency(core_id, bank.bank_id, WORD_DATA_BYTES)
        latency += bank.queue_delay(now + latency, self.service_time) + self.tag_latency
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        idx = word_index(address)
        entry.data[idx] = value
        entry.dirty_mask |= 1 << idx
        self._cnt["write_throughs"] += 1
        return latency

    def amo_word(self, core_id: int, address: int, op: str, operand, now: int) -> Tuple[int, int]:
        """AMO performed at the shared cache (GPU-WT / GPU-WB protocols)."""
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        latency = self._request_overhead(core_id, bank, now, AMO_BYTES, "sync_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        if entry.owner is not None and entry.owner != core_id:
            latency += self._recall_owner(bank, entry, now + latency)
        latency += self._invalidate_sharers(bank, entry, now + latency, except_core=None)
        idx = word_index(address)
        new, old = apply_amo(op, entry.data[idx], operand)
        entry.data[idx] = new
        entry.dirty_mask |= 1 << idx
        latency += self._response_latency(core_id, bank, AMO_BYTES, "sync_resp")
        self._cnt["amos"] += 1
        return old, latency

    def read_word_bypass(self, core_id: int, address: int, now: int) -> Tuple[int, int]:
        """Uncached word read at the L2 (ULI mailbox reads, monitor loads).

        A bypass read is a *read*: it must observe the owner's latest value
        but must not strip MESI/DeNovo ownership (mailbox polling would
        otherwise demote the owner on every read and churn the directory).
        The owner is snooped for the one word without any state change —
        even when the owner is the requesting core itself (its own dirty
        copy is the architectural value; the L2's may be stale).
        """
        base = line_addr(address)
        bank = self.banks[self.bank_of(base)]
        latency = self._request_overhead(core_id, bank, now, CTRL_BYTES, "sync_req")
        entry, miss_latency = self._ensure_line(bank, base, now + latency)
        latency += miss_latency
        idx = word_index(address)
        value = entry.data[idx]
        if entry.owner is not None:
            peeked, peek_latency = self._peek_owner_word(bank, entry, idx)
            latency += peek_latency
            if peeked is not None:
                value = peeked
        latency += self._response_latency(core_id, bank, WORD_DATA_BYTES, "sync_resp")
        return value, latency

    def _peek_owner_word(self, bank: _Bank, entry: CacheLine, idx: int) -> Tuple[Optional[int], int]:
        """Snoop one word from the owning L1 without demoting it.

        Returns (value or None, round-trip latency); None means the owner's
        copy of that word is clean, so the L2's own data is current.
        """
        owner = entry.owner
        l1 = self._l1s[owner]
        value = l1.snoop_peek_word(entry.addr, idx)
        hops = self._hops[owner][bank.bank_id]
        self.traffic.record("coh_req", CTRL_BYTES, hops)
        self.traffic.record(
            "coh_resp", WORD_DATA_BYTES if value is not None else CTRL_BYTES, hops
        )
        self._cnt["owner_peeks"] += 1
        return value, self._snoop_round_trip[owner][bank.bank_id]

    # ------------------------------------------------------------------
    # Introspection (tests / debugging)
    # ------------------------------------------------------------------
    def peek_word(self, address: int) -> int:
        """Current L2/DRAM value of a word, ignoring L1 copies (tests only)."""
        base = line_addr(address)
        entry = self.banks[self.bank_of(base)].tags.peek(base)
        if entry is not None:
            return entry.data[word_index(address)]
        return self.memory.read_word(address)

    def directory_entry(self, address: int) -> Optional[CacheLine]:
        base = line_addr(address)
        return self.banks[self.bank_of(base)].tags.peek(base)
