"""Cache line and set-associative tag array models.

A single :class:`CacheLine` class serves every protocol: MESI uses the
``state`` field with M/E/S states; DeNovo uses V (valid) and R (registered,
i.e. owned); the GPU protocols use V with per-word ``valid_mask`` and
``dirty_mask``.  The shared L2 extends lines with directory state
(``sharers``/``owner``) — see ``repro.mem.l2``.

The tag array is true set-associative storage with LRU replacement; all
hit/miss/eviction behaviour in the simulator comes from these structures,
not from analytic hit-rate formulas.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.mem.address import LINE_BYTES, WORDS_PER_LINE

# Line states (shared across protocols; each protocol uses a subset).
INVALID = "I"
SHARED = "S"
EXCLUSIVE = "E"
MODIFIED = "M"
VALID = "V"  # software-centric protocols: clean, possibly stale
REGISTERED = "R"  # DeNovo: owned/dirty

FULL_MASK = (1 << WORDS_PER_LINE) - 1


class CacheLine:
    """One resident cache line: tag, state, data, and per-word masks."""

    __slots__ = ("addr", "state", "data", "valid_mask", "dirty_mask", "lru", "sharers", "owner")

    def __init__(self, addr: int, state: str, data: Optional[List[int]] = None):
        self.addr = addr
        self.state = state
        self.data: List[int] = data if data is not None else [0] * WORDS_PER_LINE
        self.valid_mask = FULL_MASK
        self.dirty_mask = 0
        self.lru = 0
        # Directory state; only used by L2 lines.
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None

    def word_valid(self, idx: int) -> bool:
        return bool(self.valid_mask & (1 << idx))

    def word_dirty(self, idx: int) -> bool:
        return bool(self.dirty_mask & (1 << idx))

    def set_word(self, idx: int, value: int, dirty: bool) -> None:
        self.data[idx] = value
        self.valid_mask |= 1 << idx
        if dirty:
            self.dirty_mask |= 1 << idx

    def dirty_word_count(self) -> int:
        return bin(self.dirty_mask).count("1")

    def pack(self) -> Tuple:
        """Plain-data form for ``repro.engine.checkpoint`` (no object refs)."""
        return (
            self.addr,
            self.state,
            list(self.data),
            self.valid_mask,
            self.dirty_mask,
            self.lru,
            sorted(self.sharers),
            self.owner,
        )

    @classmethod
    def unpack(cls, packed: Tuple) -> "CacheLine":
        addr, state, data, valid_mask, dirty_mask, lru, sharers, owner = packed
        line = cls(addr, state, list(data))
        line.valid_mask = valid_mask
        line.dirty_mask = dirty_mask
        line.lru = lru
        line.sharers = set(sharers)
        line.owner = owner
        return line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(0x{self.addr:x}, {self.state}, v={self.valid_mask:02x}, d={self.dirty_mask:02x})"


class TagArray:
    """Set-associative tag/data array with LRU replacement.

    For power-of-two geometries (every configuration the paper evaluates)
    set indexing is a shift+mask; the div/mod fallback only exists for
    exotic user-supplied sizes.  The LRU victim scan is a plain loop over
    the (tiny, assoc-bounded) set so the hot eviction path allocates
    nothing — no key lists, no comparison lambdas.
    """

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = LINE_BYTES):
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(
                f"cache size {size_bytes} not divisible by assoc*line ({assoc}*{line_bytes})"
            )
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.n_sets = size_bytes // (assoc * line_bytes)
        self._pow2 = (
            self.n_sets & (self.n_sets - 1) == 0
            and line_bytes & (line_bytes - 1) == 0
        )
        self._shift = line_bytes.bit_length() - 1
        self._mask = self.n_sets - 1
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.n_sets)]
        self._tick = 0

    def _set_index(self, line_addr: int) -> int:
        if self._pow2:
            return (line_addr >> self._shift) & self._mask
        return (line_addr // self.line_bytes) % self.n_sets

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        """Return the resident line, updating LRU; None on miss."""
        if self._pow2:
            cache_set = self._sets[(line_addr >> self._shift) & self._mask]
        else:
            cache_set = self._sets[self._set_index(line_addr)]
        line = cache_set.get(line_addr)
        if line is not None:
            self._tick += 1
            line.lru = self._tick
        return line

    def peek(self, line_addr: int) -> Optional[CacheLine]:
        """Lookup without disturbing LRU (for snoops/recalls)."""
        if self._pow2:
            return self._sets[(line_addr >> self._shift) & self._mask].get(line_addr)
        return self._sets[self._set_index(line_addr)].get(line_addr)

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Insert ``line``; return the evicted victim line, if any."""
        addr = line.addr
        if self._pow2:
            target = self._sets[(addr >> self._shift) & self._mask]
        else:
            target = self._sets[self._set_index(addr)]
        victim = None
        if len(target) >= self.assoc and addr not in target:
            victim_addr = -1
            victim_lru = -1
            for cand_addr, cand in target.items():
                if victim_lru < 0 or cand.lru < victim_lru:
                    victim_lru = cand.lru
                    victim_addr = cand_addr
            victim = target.pop(victim_addr)
        self._tick += 1
        line.lru = self._tick
        target[addr] = line
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        if self._pow2:
            return self._sets[(line_addr >> self._shift) & self._mask].pop(
                line_addr, None
            )
        return self._sets[self._set_index(line_addr)].pop(line_addr, None)

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over all resident lines (snapshot; safe to mutate array)."""
        for cache_set in self._sets:
            yield from list(cache_set.values())

    def sets(self) -> List[Dict[int, CacheLine]]:
        """The per-set ``{line address: line}`` dicts, in set order.

        For whole-cache walks (flash invalidate, flush) that visit every
        line without the per-set copy :meth:`lines` makes.  A set must not
        change size while it is being iterated: collect the addresses to
        drop, then delete them from the set after its loop.
        """
        return self._sets

    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def clear(self) -> List[CacheLine]:
        """Drop every line, returning them (for flash invalidation)."""
        dropped: List[CacheLine] = []
        for cache_set in self._sets:
            dropped.extend(cache_set.values())
            cache_set.clear()
        return dropped

    # ------------------------------------------------------------------
    # Checkpoint support (repro.engine.checkpoint)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Packed resident lines plus the LRU clock."""
        return {
            "lines": [line.pack() for line in self.lines()],
            "tick": self._tick,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output exactly (LRU order included).

        Lines are placed directly into their sets without touching the LRU
        clock, so replacement decisions after a restore are identical to
        the uninterrupted run's.
        """
        for cache_set in self._sets:
            cache_set.clear()
        for packed in state["lines"]:
            line = CacheLine.unpack(packed)
            self._sets[self._set_index(line.addr)][line.addr] = line
        self._tick = state["tick"]
