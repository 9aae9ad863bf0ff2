"""Property-based tests on application substrates and kernels.

These run under the functional Cilkview executor (no timing) so hypothesis
can afford many examples, plus targeted properties of the graph generator.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import CilkviewAnalyzer
from repro.apps import make_app
from repro.apps.cilk5.nqueens import NQ_SOLUTIONS, CilkNQueens
from repro.apps.ligra.graph import HostGraph, rmat, rmat_graph
from repro.engine.rng import XorShift64


def run_functionally(app):
    analyzer = CilkviewAnalyzer()
    app.setup(analyzer.machine)
    report = analyzer.analyze(app.make_root())
    app.check()
    return report


# ----------------------------------------------------------------------
# cilksort
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(4, 400), st.integers(2, 64), st.integers(0, 2**32))
def test_cilksort_sorts_any_input(n, grain, seed):
    app = make_app("cilk5-cs", n=n, grain=grain, seed=seed)
    run_functionally(app)  # check() asserts sortedness vs the input


@settings(max_examples=10, deadline=None)
@given(st.integers(8, 200))
def test_cilksort_work_scales_superlinearly(n):
    small = run_functionally(make_app("cilk5-cs", n=n, grain=4))
    big = run_functionally(make_app("cilk5-cs", n=2 * n, grain=4))
    assert big.work > small.work


# ----------------------------------------------------------------------
# N-queens
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(st.sampled_from(sorted(NQ_SOLUTIONS)[:4]), st.integers(0, 3))
def test_nqueens_counts_known_solutions(n, cutoff):
    app = make_app("cilk5-nq", n=n, cutoff=min(cutoff, n))
    run_functionally(app)


def test_nqueens_legal_matches_bruteforce():
    legal = CilkNQueens.legal
    for placed in ([0], [0, 2], [1, 3, 0]):
        row = len(placed)
        for col in range(6):
            expected = all(
                c != col and abs(c - col) != row - r for r, c in enumerate(placed)
            )
            assert legal(placed, row, col) == expected


# ----------------------------------------------------------------------
# LU / matmul / transpose
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 4), (16, 8)]), st.integers(0, 2**16))
def test_lu_factors_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-lu", n=n, grain=grain, seed=seed))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 4), (16, 8)]), st.integers(0, 2**16))
def test_matmul_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-mm", n=n, grain=grain, seed=seed))


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(8, 4), (16, 8), (32, 8)]), st.integers(0, 2**16))
def test_transpose_random_matrices(shape, seed):
    n, grain = shape
    run_functionally(make_app("cilk5-mt", n=n, grain=grain, seed=seed))


# ----------------------------------------------------------------------
# R-MAT generator and CSR graph
# ----------------------------------------------------------------------
@given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_rmat_edges_in_range(scale, degree, seed):
    n = 1 << scale
    for u, v in rmat(scale, degree, seed):
        assert 0 <= u < n and 0 <= v < n


@given(st.integers(2, 8), st.integers(0, 2**32))
def test_rmat_deterministic(scale, seed):
    assert rmat(scale, 4, seed) == rmat(scale, 4, seed)


def _rmat_reference(scale, avg_degree, seed, a=0.57, b=0.19, c=0.19):
    """The float-threshold R-MAT loop that ``rmat`` must reproduce."""
    n = 1 << scale
    rng = XorShift64(seed)
    edges = []
    for _ in range(n * avg_degree):
        u = v = 0
        half = n >> 1
        while half:
            r = rng.random()
            if r < a:
                pass
            elif r < a + b:
                v += half
            elif r < a + b + c:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        edges.append((u, v))
    return edges


def test_rmat_matches_float_reference():
    for seed in (0, 1, 42, 2**63 + 12345):
        for degree in (1, 8):
            for scale in range(12):
                assert rmat(scale, degree, seed) == _rmat_reference(
                    scale, degree, seed
                ), (scale, degree, seed)
    # Other quadrant splits, including an exactly representable one.
    for a, b, c in ((0.25, 0.25, 0.25), (0.45, 0.15, 0.15), (0.5, 0.0, 0.5)):
        assert rmat(9, 4, 7, a, b, c) == _rmat_reference(9, 4, 7, a, b, c)


@given(st.integers(2, 7), st.integers(1, 6), st.integers(0, 2**32))
def test_host_graph_invariants(scale, degree, seed):
    g = rmat_graph(scale, degree, seed, symmetric=True)
    # CSR consistency.
    assert g.offsets[0] == 0 and g.offsets[-1] == g.m
    assert len(g.edge_targets) == g.m
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert nbrs == sorted(nbrs)  # sorted adjacency
        assert len(set(nbrs)) == len(nbrs)  # deduplicated
        assert v not in nbrs  # no self loops
        for u in nbrs:  # symmetric
            assert v in g.neighbors(u)


def test_host_graph_weights_deterministic_positive():
    g1 = rmat_graph(5, 4, seed=9, weighted=True)
    g2 = rmat_graph(5, 4, seed=9, weighted=True)
    assert g1.weights == g2.weights
    assert all(w >= 1 for w in g1.weights)


def test_host_graph_directed_mode():
    edges = [(0, 1), (1, 2)]
    g = HostGraph(3, edges, symmetric=False)
    assert g.neighbors(0) == [1]
    assert g.neighbors(1) == [2]
    assert g.neighbors(2) == []


# ----------------------------------------------------------------------
# Ligra kernels under random graphs (functional execution + check)
# ----------------------------------------------------------------------
@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["ligra-bfs", "ligra-bfsbv", "ligra-cc", "ligra-tc"]),
    st.integers(3, 6),
    st.integers(0, 2**32),
)
def test_graph_kernels_on_random_graphs(name, scale, seed):
    app = make_app(name, scale=scale, grain=4, seed=seed)
    run_functionally(app)


@settings(max_examples=6, deadline=None)
@given(
    st.sampled_from(["ligra-bc", "ligra-bf", "ligra-mis", "ligra-radii"]),
    st.integers(3, 5),
    st.integers(0, 2**32),
)
def test_remaining_graph_kernels_on_random_graphs(name, scale, seed):
    app = make_app(name, scale=scale, grain=4, seed=seed)
    run_functionally(app)
