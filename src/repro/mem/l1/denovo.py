"""DeNovo (DeNovoSync variant) software-centric coherent L1.

Reader-initiated stale invalidation + ownership ("registration") dirty
propagation (Table I).  Reads of valid lines may return stale data unless
software has issued ``cache_invalidate``; writes and AMOs register the line
at the L2 directory and are then performed locally, so dirty data is
propagated on demand by ownership recall and ``cache_flush`` is a no-op.

Line states: V (valid, clean, possibly stale) and R (registered = owned,
may be dirty).  ``cache_invalidate`` drops V lines but keeps R lines — data
this core itself wrote cannot be stale (the DeNovo self-invalidation rule).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mem.address import LINE_MASK, WORD_INDEX_MASK, WORD_SHIFT, line_addr
from repro.mem.amo import apply_amo
from repro.mem.cacheline import CacheLine, REGISTERED, VALID
from repro.mem.l1.base import L1Cache


class DeNovoL1(L1Cache):
    PROTOCOL = "denovo"
    INVALIDATION = "reader"
    DIRTY_PROPAGATION = "owner-wb"
    WRITE_GRANULARITY = "word/line"
    TRACKED = False
    AMO_AT_L2 = False
    NEEDS_FLUSH = False
    NEEDS_INVALIDATE = True

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def load(self, addr: int, now: int) -> Tuple[int, int]:
        line = self.tags.lookup(addr & LINE_MASK)
        if line is not None:
            cnt = self._cnt
            cnt["loads"] += 1
            cnt["load_hits"] += 1
            return line.data[(addr >> WORD_SHIFT) & WORD_INDEX_MASK], self.hit_latency
        self._cnt["loads"] += 1
        data, latency, _excl = self.l2.fetch_shared(
            self.core_id, addr, now + self.hit_latency, track_sharer=False
        )
        self._insert(CacheLine(line_addr(addr), VALID, data), now)
        return data[self._word(addr)], self.hit_latency + latency

    def store(self, addr: int, value: int, now: int) -> int:
        base = addr & LINE_MASK
        line = self.tags.lookup(base)
        if line is not None and line.state == REGISTERED:
            cnt = self._cnt
            cnt["stores"] += 1
            cnt["store_hits"] += 1
            line.set_word((addr >> WORD_SHIFT) & WORD_INDEX_MASK, value, dirty=True)
            return self.hit_latency
        self._cnt["stores"] += 1
        latency = self._register(line, base, addr, now)
        line = self.tags.peek(base)
        line.set_word(self._word(addr), value, dirty=True)
        return self._buffered_store_latency(now, latency)

    def amo(self, op: str, addr: int, operand, now: int) -> Tuple[int, int]:
        """Registered RMW in the private cache (DeNovoSync-style).

        AMOs are fences: they drain the store buffer first.
        """
        self._cnt["amos"] += 1
        drain = self._drain_store_buffer(now)
        now += drain
        base = line_addr(addr)
        line = self.tags.lookup(base)
        if line is not None and line.state == REGISTERED:
            latency = self.hit_latency
        else:
            latency = self.hit_latency + self._register(line, base, addr, now)
            line = self.tags.peek(base)
        idx = self._word(addr)
        new, old = apply_amo(op, line.data[idx], operand)
        line.set_word(idx, new, dirty=True)
        return old, drain + latency

    def _register(self, line: Optional[CacheLine], base: int, addr: int, now: int) -> int:
        """Obtain registration (ownership) for a store/AMO miss.

        Registration always fetches the current data: DeNovoSync registers
        synchronization words whose latest value may live at the L2 or in
        another core's registered copy.
        """
        data, latency = self.l2.fetch_exclusive(self.core_id, addr, now)
        if line is not None:
            line.state = REGISTERED
            line.data = list(data)
            line.dirty_mask = 0
        else:
            self._insert(CacheLine(base, REGISTERED, data), now)
        return latency

    # ------------------------------------------------------------------
    # Software coherence operations
    # ------------------------------------------------------------------
    def invalidate_all(self, now: int) -> int:
        """Drop every valid-but-unowned line (reader-initiated invalidation)."""
        self.stats.add("invalidate_ops")
        dropped = 0
        for cache_set in self.tags.sets():
            clean = [addr for addr, line in cache_set.items() if line.state == VALID]
            for addr in clean:
                del cache_set[addr]
            dropped += len(clean)
        self.stats.add("lines_invalidated", dropped)
        self._trace_burst("invalidate", now, dropped, self.FLASH_OP_LATENCY)
        return self.FLASH_OP_LATENCY

    # flush_all inherited: no-op (ownership propagates dirty data).

    # ------------------------------------------------------------------
    # Snoops / eviction
    # ------------------------------------------------------------------
    def snoop_recall(self, base: int) -> Tuple[Optional[List[int]], int, bool]:
        line = self.tags.peek(line_addr(base))
        if line is None:
            return None, 0, False
        dirty = line.dirty_mask
        words = list(line.data) if dirty else None
        line.state = VALID  # lose registration, keep a clean copy
        line.dirty_mask = 0
        self.stats.add("recalls")
        return words, dirty, True

    def _evict_victim(self, victim: CacheLine, now: int) -> None:
        if victim.state == REGISTERED:
            self.l2.writeback_line(
                self.core_id, victim.addr, victim.data,
                victim.dirty_mask, now, release_ownership=True,
            )
        # V evictions are silent: DeNovo caches are untracked.
