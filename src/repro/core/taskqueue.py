"""Per-thread task deques living in simulated shared memory.

Each worker thread owns one double-ended queue (Section II-C): the owner
pushes/pops task pointers LIFO at the tail; thieves steal FIFO from the
head.  Following the paper, mutual exclusion uses a per-deque spin lock
built from atomic read-modify-write operations — not a lock-free Chase-Lev
deque — because the coherence cost of the lock + the surrounding
invalidate/flush is precisely what Section III characterizes.

Every field (lock, head, tail, slots) is a word in simulated memory; all
accesses go through the issuing core's L1, so stale head/tail reads really
happen under the software-centric protocols unless the runtime invalidates
first.
"""

from __future__ import annotations

from repro.engine.simulator import SimulationError
from repro.mem.address import WORD_BYTES


class TaskDeque:
    """A lock-protected double-ended queue of task ids."""

    #: Spin-lock backoff bounds (cycles).
    BACKOFF_MIN = 8
    BACKOFF_MAX = 256

    def __init__(self, machine, owner_tid: int, capacity: int = 4096):
        self.owner_tid = owner_tid
        self.capacity = capacity
        base = machine.address_space.alloc_words(3 + capacity, f"deque_{owner_tid}")
        self.lock_addr = base
        self.head_addr = base + WORD_BYTES
        self.tail_addr = base + 2 * WORD_BYTES
        self._slots = base + 3 * WORD_BYTES

    def _slot_addr(self, index: int) -> int:
        return self._slots + (index % self.capacity) * WORD_BYTES

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def lock_acquire(self, ctx):
        """Test-and-set spin lock with bounded exponential backoff."""
        backoff = self.BACKOFF_MIN
        while True:
            old = yield ctx.cas(self.lock_addr, 0, 1)
            if old == 0:
                return
            yield ctx.idle(backoff + (ctx.rng.randint(0, backoff) if backoff else 0))
            backoff = min(backoff * 2, self.BACKOFF_MAX)

    def lock_release(self, ctx):
        """The op that releases the lock so the release is globally
        visible (one op: ``yield dq.lock_release(ctx)``).

        Ownership protocols (MESI, DeNovo) and write-through (GPU-WT)
        propagate a plain store; GPU-WB dirty data stays private until a
        flush, so the release must itself be an AMO at the shared cache.
        """
        if ctx.core.l1.LOCK_RELEASE_AMO:
            return ctx.amo("xchg", self.lock_addr, 0)
        return ctx.store(self.lock_addr, 0)

    # ------------------------------------------------------------------
    # Queue operations (caller must hold the lock / have ULI disabled)
    # ------------------------------------------------------------------
    def enqueue(self, ctx, task_id: int):
        """Push a task id at the tail (``enq`` in Figure 3)."""
        tail = yield ctx.load(self.tail_addr)
        head = yield ctx.load(self.head_addr)
        if tail - head >= self.capacity:
            raise SimulationError(
                f"task deque {self.owner_tid} overflow (capacity {self.capacity})"
            )
        yield ctx.store(self._slot_addr(tail), task_id)
        yield ctx.store(self.tail_addr, tail + 1)

    def dequeue_tail(self, ctx):
        """Pop LIFO from the tail (``deq``); returns 0 when empty."""
        tail = yield ctx.load(self.tail_addr)
        head = yield ctx.load(self.head_addr)
        if head >= tail:
            return 0
        tail -= 1
        task_id = yield ctx.load(self._slot_addr(tail))
        yield ctx.store(self.tail_addr, tail)
        return task_id

    def steal_head(self, ctx):
        """Pop FIFO from the head (``steal``); returns 0 when empty."""
        head = yield ctx.load(self.head_addr)
        tail = yield ctx.load(self.tail_addr)
        if head >= tail:
            return 0
        task_id = yield ctx.load(self._slot_addr(head))
        yield ctx.store(self.head_addr, head + 1)
        return task_id
