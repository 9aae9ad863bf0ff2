"""cilk5-lu: blocked LU decomposition (no pivoting).

Right-looking blocked LU over an n x n matrix of floats stored row-major in
simulated memory.  For each diagonal block: factor it serially, then solve
the row/column panels in parallel (fork-join), then apply the Schur
complement update to the trailing blocks in parallel.  The grain is the
block size.  The input is made diagonally dominant so no pivoting is
required, matching the cilk5 kernel.
"""

from __future__ import annotations

from repro.apps.common import AppInstance, SimArray, register_app
from repro.core.task import FuncTask, Task
from repro.engine.rng import XorShift64


class _LuRootTask(Task):
    ARG_WORDS = 1

    def __init__(self, app: "CilkLU", block_size: int):
        super().__init__()
        self.app = app
        self.block_size = block_size

    def execute(self, rt, ctx):
        app, b = self.app, self.block_size
        nb = app.n // b
        for k in range(nb):
            yield app.factor_block(ctx, k * b, b)
            panels = []
            for j in range(k + 1, nb):
                panels.append(self._panel_task(app, k, j, b, row=True))
                panels.append(self._panel_task(app, k, j, b, row=False))
            if panels:
                yield rt.fork_join(ctx, self, panels)
            updates = [
                FuncTask(self._schur(app, i * b, j * b, k * b, b))
                for i in range(k + 1, nb)
                for j in range(k + 1, nb)
            ]
            if updates:
                yield rt.fork_join(ctx, self, updates)

    @staticmethod
    def _panel_task(app, k, j, b, row):
        if row:
            return FuncTask(lambda rt, ctx, a=app: a.solve_row_panel(ctx, k * b, j * b, b))
        return FuncTask(lambda rt, ctx, a=app: a.solve_col_panel(ctx, j * b, k * b, b))

    @staticmethod
    def _schur(app, bi, bj, bk, b):
        return lambda rt, ctx: app.schur_update(ctx, bi, bj, bk, b)


@register_app("cilk5-lu")
class CilkLU(AppInstance):
    name = "cilk5-lu"
    pm = "ss"

    def __init__(self, n: int = 16, grain: int = 4, seed: int = 11):
        super().__init__()
        if n % grain != 0:
            raise ValueError("matrix size must be a multiple of the block size")
        self.n = n
        self.grain = grain
        self.seed = seed
        self.a: SimArray = None
        self._input = None

    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        self.machine = machine
        rng = XorShift64(self.seed)
        n = self.n
        values = [rng.random() for _ in range(n * n)]
        # Diagonal dominance avoids tiny pivots (the cilk5 input is similar).
        for i in range(n):
            values[i * n + i] += n
        self._input = values
        self.a = SimArray(machine, n * n, "lu_a")
        self.a.host_init(values)

    def make_root(self, serial: bool = False) -> Task:
        self._last_block = self.n if serial else self.grain
        return _LuRootTask(self, self._last_block)

    def check(self) -> None:
        result = self.a.host_read()
        expected = self._reference(getattr(self, "_last_block", self.grain))
        for got, want in zip(result, expected):
            assert abs(got - want) < 1e-9, "cilk5-lu: factorization mismatch"

    def _reference(self, block: int):
        """Pure-Python blocked LU with the identical update order."""
        n = self.n
        a = list(self._input)

        def idx(i, j):
            return i * n + j

        nb = n // block
        for kb in range(nb):
            base = kb * block
            # factor diagonal block
            for k in range(base, base + block):
                for i in range(k + 1, base + block):
                    a[idx(i, k)] /= a[idx(k, k)]
                    for j in range(k + 1, base + block):
                        a[idx(i, j)] -= a[idx(i, k)] * a[idx(k, j)]
            for jb in range(kb + 1, nb):
                col = jb * block
                for k in range(base, base + block):
                    for i in range(k + 1, base + block):
                        for j in range(col, col + block):
                            a[idx(i, j)] -= a[idx(i, k)] * a[idx(k, j)]
            for ib in range(kb + 1, nb):
                row = ib * block
                for k in range(base, base + block):
                    for i in range(row, row + block):
                        a[idx(i, k)] /= a[idx(k, k)]
                        for j in range(k + 1, base + block):
                            a[idx(i, j)] -= a[idx(i, k)] * a[idx(k, j)]
            for ib in range(kb + 1, nb):
                for jb2 in range(kb + 1, nb):
                    for i in range(ib * block, ib * block + block):
                        for k in range(base, base + block):
                            lik = a[idx(i, k)]
                            for j in range(jb2 * block, jb2 * block + block):
                                a[idx(i, j)] -= lik * a[idx(k, j)]
        return a

    # ------------------------------------------------------------------
    # Simulated kernels
    # ------------------------------------------------------------------
    def _idx(self, i: int, j: int) -> int:
        return i * self.n + j

    def factor_block(self, ctx, base: int, b: int):
        """Serial LU of the diagonal block at (base, base)."""
        end = min(base + b, self.n)
        a = self.a
        for k in range(base, end):
            akk = yield a.load(ctx, self._idx(k, k))
            for i in range(k + 1, end):
                aik = yield a.load(ctx, self._idx(i, k))
                lik = aik / akk
                yield ctx.work(2)
                yield a.store(ctx, self._idx(i, k), lik)
                for j in range(k + 1, end):
                    akj = yield a.load(ctx, self._idx(k, j))
                    aij = yield a.load(ctx, self._idx(i, j))
                    yield ctx.work(2)
                    yield a.store(ctx, self._idx(i, j), aij - lik * akj)

    def solve_row_panel(self, ctx, base: int, col: int, b: int):
        """U panel: apply L(base block) to columns [col, col+b)."""
        a = self.a
        for k in range(base, base + b):
            for i in range(k + 1, base + b):
                lik = yield a.load(ctx, self._idx(i, k))
                for j in range(col, col + b):
                    akj = yield a.load(ctx, self._idx(k, j))
                    aij = yield a.load(ctx, self._idx(i, j))
                    yield ctx.work(2)
                    yield a.store(ctx, self._idx(i, j), aij - lik * akj)

    def solve_col_panel(self, ctx, row: int, base: int, b: int):
        """L panel: apply U(base block) to rows [row, row+b)."""
        a = self.a
        for k in range(base, base + b):
            akk = yield a.load(ctx, self._idx(k, k))
            for i in range(row, row + b):
                aik = yield a.load(ctx, self._idx(i, k))
                lik = aik / akk
                yield ctx.work(2)
                yield a.store(ctx, self._idx(i, k), lik)
                for j in range(k + 1, base + b):
                    akj = yield a.load(ctx, self._idx(k, j))
                    aij = yield a.load(ctx, self._idx(i, j))
                    yield ctx.work(2)
                    yield a.store(ctx, self._idx(i, j), aij - lik * akj)

    def schur_update(self, ctx, bi: int, bj: int, bk: int, b: int):
        """Trailing update: A[bi][bj] -= A[bi][bk] * A[bk][bj]."""
        a = self.a
        for i in range(bi, bi + b):
            for k in range(bk, bk + b):
                lik = yield a.load(ctx, self._idx(i, k))
                for j in range(bj, bj + b):
                    akj = yield a.load(ctx, self._idx(k, j))
                    aij = yield a.load(ctx, self._idx(i, j))
                    yield ctx.work(2)
                    yield a.store(ctx, self._idx(i, j), aij - lik * akj)
