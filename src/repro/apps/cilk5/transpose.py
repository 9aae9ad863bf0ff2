"""cilk5-mt: recursive blocked matrix transpose (out of place).

B = A^T over an n x n integer matrix.  The recursion splits the output into
quadrants and forks the four sub-transposes; below the grain size a serial
double loop copies elements.  Matrix transpose is memory-bound with zero
write locality on the output, which is why it is the paper's worst case for
the reader-initiated invalidation protocols (Section VI-B).
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import Task
from repro.engine.rng import XorShift64


class _MtTask(Task):
    ARG_WORDS = 3

    def __init__(self, app: "CilkTranspose", row, col, size, grain):
        super().__init__()
        self.app = app
        self.row = row
        self.col = col
        self.size = size
        self.grain = grain

    def execute(self, rt, ctx):
        app, s = self.app, self.size
        if s <= self.grain:
            yield app.serial_transpose(ctx, self.row, self.col, s)
            return
        h = s // 2
        r, c, g = self.row, self.col, self.grain
        children = [
            _MtTask(app, r, c, h, g),
            _MtTask(app, r, c + h, h, g),
            _MtTask(app, r + h, c, h, g),
            _MtTask(app, r + h, c + h, h, g),
        ]
        yield rt.fork_join(ctx, self, children)


@register_app("cilk5-mt")
class CilkTranspose(AppInstance):
    name = "cilk5-mt"
    pm = "ss"

    def __init__(self, n: int = 32, grain: int = 8, seed: int = 17):
        super().__init__()
        if n & (n - 1):
            raise ValueError("matrix size must be a power of two")
        self.n = n
        self.grain = grain
        self.seed = seed
        self.a: SimArray = None
        self.b: SimArray = None
        self._input = None

    def setup(self, machine) -> None:
        self.machine = machine
        rng = XorShift64(self.seed)
        n = self.n
        self._input = [rng.randint(0, 1 << 16) for _ in range(n * n)]
        self.a = SimArray(machine, n * n, "mt_a")
        self.b = SimArray(machine, n * n, "mt_b")
        self.a.host_init(self._input)
        self.b.host_fill(0)

    def make_root(self, serial: bool = False):
        grain = self.n if serial else self.grain
        return _MtTask(self, 0, 0, self.n, grain)

    def check(self) -> None:
        n = self.n
        result = self.b.host_read()
        for i in range(n):
            for j in range(n):
                assert result[j * n + i] == self._input[i * n + j], (
                    "cilk5-mt: transpose mismatch"
                )

    # ------------------------------------------------------------------
    def serial_transpose(self, ctx, row: int, col: int, s: int):
        """B[col.., row..] = A[row.., col..]^T for an s x s tile."""
        n, a, b = self.n, self.a, self.b
        for i in range(row, row + s):
            for j in range(col, col + s):
                value = yield a.load(ctx, i * n + j)
                yield b.store(ctx, j * n + i, value)
