"""Tasks: the unit of dynamic parallelism (Section II-C of the paper).

A task is a Python object whose ``execute`` method is a simulated-thread
generator: it yields the ops that :class:`repro.cores.context.ThreadContext`
methods return (``v = yield ctx.load(addr)``) and calls runtime helpers
such as ``rt.fork_join`` with the same ``yield`` (a yielded generator is a
sub-call; see :func:`repro.cores.context.drive`).  Each task owns a small
*descriptor block* in simulated shared memory holding the fields the
runtime synchronizes on:

* ``rc``  (+0)  — the reference count of unfinished children, updated with
  AMOs (or plain stores under the DTS optimization);
* ``hsc`` (+8)  — the ``has_stolen_child`` flag added by Direct Task
  Stealing (Section IV-C);
* ``args`` (+16…) — ``ARG_WORDS`` words standing in for the task's captured
  arguments; the spawning thread stores them and the executing thread loads
  them, so descriptor transfer traffic is modeled even though argument
  *values* travel on the Python object for convenience.

Application data (arrays, graphs) lives entirely in simulated memory, so a
missing runtime flush/invalidate corrupts real results — the tests rely on
this to validate the Figure 3 protocols end-to-end.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mem.address import WORD_BYTES


class Task:
    """Base class for all tasks (paper Figure 2: ``class task``)."""

    #: Number of simulated argument words in the descriptor.
    ARG_WORDS = 2

    def __init__(self):
        self.parent: Optional["Task"] = None
        self.task_id: int = 0
        self.desc_addr: int = 0  # descriptor base address in simulated memory

    # ------------------------------------------------------------------
    # Descriptor field addresses
    # ------------------------------------------------------------------
    @property
    def rc_addr(self) -> int:
        return self.desc_addr

    @property
    def hsc_addr(self) -> int:
        return self.desc_addr + WORD_BYTES

    def arg_addr(self, index: int) -> int:
        return self.desc_addr + 2 * WORD_BYTES + index * WORD_BYTES

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def execute(self, rt, ctx):
        """Task body: a generator yielding architectural operations."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator if ever called

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.task_id})"


class FuncTask(Task):
    """Adapts a generator function ``fn(rt, ctx)`` into a task."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def execute(self, rt, ctx):
        yield self.fn(rt, ctx)
