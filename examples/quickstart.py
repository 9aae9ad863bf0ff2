#!/usr/bin/env python
"""Quickstart: run a task-parallel program on a simulated big.TINY system.

This is the paper's Figure 2 example — recursive Fibonacci with
``fork_join`` (spawn + wait) — executed on a 16-core big.TINY machine with
GPU-WB heterogeneous cache coherence and Direct Task Stealing, then
compared against the serial elision on one in-order core.

Run:  python examples/quickstart.py
"""

from repro import Machine, Task, WorkStealingRuntime, make_config
from repro.mem.address import WORD_BYTES


class FibTask(Task):
    """Figure 2(a) of the paper: fib with explicit spawn/wait.

    Below ``CUTOFF`` the task computes serially — the granularity control
    every real task-parallel program applies (Section V-D): spawning a task
    per fib(1) leaf would drown the runtime in overhead.
    """

    ARG_WORDS = 2
    CUTOFF = 10

    def __init__(self, n: int, out_addr: int):
        super().__init__()
        self.n = n
        self.out_addr = out_addr

    def execute(self, rt, ctx):
        if self.n < self.CUTOFF:
            result, cost = self._serial_fib(self.n)
            yield ctx.work(cost)
            yield ctx.store(self.out_addr, result)
            return
        scratch = rt.machine.address_space.alloc_words(2, "fib_scratch")
        children = [
            FibTask(self.n - 1, scratch),
            FibTask(self.n - 2, scratch + WORD_BYTES),
        ]
        yield rt.fork_join(ctx, self, children)  # spawn both, wait
        x = yield ctx.load(scratch)
        y = yield ctx.load(scratch + WORD_BYTES)
        yield ctx.store(self.out_addr, x + y)

    @staticmethod
    def _serial_fib(n: int):
        """Returns (fib(n), instruction count of the naive recursion)."""
        if n < 2:
            return n, 2
        a, cost_a = FibTask._serial_fib(n - 1)
        b, cost_b = FibTask._serial_fib(n - 2)
        return a + b, cost_a + cost_b + 3


def run(kind: str, n: int, serial: bool = False) -> tuple:
    machine = Machine(make_config(kind, "quick"))
    runtime = WorkStealingRuntime(machine, serial_elision=serial)
    out = machine.address_space.alloc_words(1, "out")
    cycles = runtime.run(FibTask(n, out))
    return machine.host_read_word(out), cycles, runtime


def main() -> None:
    n = 21
    result, serial_cycles, _ = run("serial-io", n, serial=True)
    assert result == 10946
    print(f"serial elision on one in-order core: fib({n}) = {result} "
          f"in {serial_cycles} cycles")

    for kind in ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-gwb"):
        result, cycles, runtime = run(kind, n)
        assert result == 10946
        print(
            f"{kind:16s}: {cycles:>8d} cycles "
            f"(speedup {serial_cycles / cycles:5.2f}x, "
            f"variant={runtime.variant}, "
            f"tasks={runtime.stats.get('tasks_executed')}, "
            f"steals={runtime.stats.get('steals')})"
        )


if __name__ == "__main__":
    main()
