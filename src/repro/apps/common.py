"""Shared application infrastructure.

* :class:`SimArray` — a typed array in simulated memory whose accessors
  return ops, used by every kernel so that all application data goes
  through the cache hierarchy.
* :class:`AppInstance` — the contract between applications and the
  experiment harness: allocate inputs, produce a root task (parallel or
  serial-elision), and check outputs against a pure-Python reference.
* A registry mapping the paper's application names (cilk5-cs, ligra-bfs, …)
  to factories.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.task import Task
from repro.cores import ops
from repro.machine import Machine
from repro.mem.address import WORD_BYTES


class SimArray:
    """A word array in simulated memory."""

    def __init__(self, machine: Machine, n: int, name: str):
        if n <= 0:
            raise ValueError(f"array {name!r} needs positive length, got {n}")
        self.machine = machine
        self.n = n
        self.base = machine.address_space.alloc_words(n, name)
        self.name = name

    def addr(self, i: int) -> int:
        return self.base + i * WORD_BYTES

    # Op accessors (simulated traffic): each returns the op for thread code
    # to yield, e.g. ``v = yield arr.load(ctx, i)``.
    def load(self, ctx, i: int) -> ops.Load:
        return ops.Load(self.base + i * WORD_BYTES)

    def store(self, ctx, i: int, value) -> ops.Store:
        return ops.Store(self.base + i * WORD_BYTES, value)

    def amo(self, ctx, op: str, i: int, operand) -> ops.Amo:
        return ops.Amo(op, self.base + i * WORD_BYTES, operand)

    def cas(self, ctx, i: int, expected, desired) -> ops.Amo:
        return ops.Amo("cas", self.base + i * WORD_BYTES, (expected, desired))

    # Host accessors (setup / checking only) --------------------------------
    def host_init(self, values) -> None:
        if len(values) != self.n:
            raise ValueError(f"{self.name}: expected {self.n} values, got {len(values)}")
        self.machine.host_write_array(self.base, values)

    def host_fill(self, value) -> None:
        self.machine.host_write_array(self.base, [value] * self.n)

    def host_read(self) -> List:
        return self.machine.host_read_array(self.base, self.n)


class AppInstance:
    """One configured application run (inputs sized, granularity chosen).

    Subclasses set ``name`` and ``pm`` ("ss" = recursive spawn-and-sync,
    "pf" = parallel_for, following Table III), implement :meth:`setup`,
    :meth:`make_root` and :meth:`check`.
    """

    name: str = "app"
    pm: str = "ss"

    def __init__(self):
        self.machine: Optional[Machine] = None

    # ------------------------------------------------------------------
    def setup(self, machine: Machine) -> None:
        """Allocate and host-initialize all inputs/outputs."""
        raise NotImplementedError

    def make_root(self, serial: bool = False) -> Task:
        """Build the root task; ``serial`` elides all parallelism."""
        raise NotImplementedError

    def check(self) -> None:
        """Raise AssertionError if the simulated output is wrong."""
        raise NotImplementedError


#: name -> factory(**params) for the paper's 13 kernels.
_REGISTRY: Dict[str, Callable[..., AppInstance]] = {}


def register_app(name: str):
    def deco(factory):
        _REGISTRY[name] = factory
        return factory

    return deco


def make_app(name: str, **params) -> AppInstance:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown app {name!r}; known: {sorted(_REGISTRY)}") from None
    return factory(**params)


def app_names() -> List[str]:
    return sorted(_REGISTRY)
