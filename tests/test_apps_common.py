"""Tests for the shared application infrastructure (SimArray, registry,
SimGraph accessors, kernel helper generators)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import app_names, make_app
from repro.apps.common import SimArray
from repro.apps.ligra.graph import SimGraph, rmat_graph
from repro.cores import ops

from helpers import run_thread, tiny_machine


def drive(machine, core_id, gen):
    result = {}

    def wrapper():
        result["value"] = yield from gen
        if False:
            yield

    run_thread(machine, core_id, wrapper())
    return result.get("value")


class TestSimArray:
    def test_host_roundtrip(self, machine):
        arr = SimArray(machine, 5, "a")
        arr.host_init([1, 2, 3, 4, 5])
        assert arr.host_read() == [1, 2, 3, 4, 5]

    def test_host_init_wrong_length_rejected(self, machine):
        arr = SimArray(machine, 3, "a")
        with pytest.raises(ValueError):
            arr.host_init([1, 2])

    def test_zero_length_rejected(self, machine):
        with pytest.raises(ValueError):
            SimArray(machine, 0, "a")

    def test_simulated_load_store(self, machine):
        arr = SimArray(machine, 4, "a")
        arr.host_fill(7)
        ctxs = machine.make_contexts()

        def body(ctx):
            value = yield arr.load(ctx, 2)
            yield arr.store(ctx, 3, value + 1)
            return value

        assert drive(machine, 1, body(ctxs[1])) == 7
        assert machine.host_read_word(arr.addr(3)) == 8

    def test_amo_and_cas(self, machine):
        arr = SimArray(machine, 2, "a")
        arr.host_init([10, 0])
        ctxs = machine.make_contexts()

        def body(ctx):
            old = yield arr.amo(ctx, "add", 0, 5)
            cas_old = yield arr.cas(ctx, 1, 0, 99)
            return old, cas_old

        assert drive(machine, 1, body(ctxs[1])) == (10, 0)
        assert arr.host_read() == [15, 99]

    def test_arrays_are_disjoint(self, machine):
        a = SimArray(machine, 8, "a")
        b = SimArray(machine, 8, "b")
        spans = sorted([(a.base, a.addr(8)), (b.base, b.addr(8))])
        assert spans[0][1] <= spans[1][0]


class TestRegistry:
    def test_all_thirteen_apps_registered(self):
        from repro.apps import PAPER_APPS

        assert set(PAPER_APPS) <= set(app_names())
        assert len(PAPER_APPS) == 13

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            make_app("nope")

    def test_factory_kwargs_forwarded(self):
        app = make_app("cilk5-cs", n=64, grain=8, seed=3)
        assert app.n == 64 and app.grain == 8 and app.seed == 3

    def test_suffix_resolution(self):
        from repro.apps import resolve_app

        assert resolve_app("cs") == "cilk5-cs"
        assert resolve_app("cilksort") == "cilk5-cs"
        assert resolve_app("ligra-cc") == "ligra-cc"

    def test_ambiguous_suffix_lists_candidates(self, monkeypatch):
        """Regression: a suffix matching several apps used to fall through
        to the generic "unknown application" error, hiding the real
        problem (the user named real apps, just not uniquely)."""
        from repro.apps import common, resolve_app

        monkeypatch.setitem(common._REGISTRY, "other5-cs", lambda **kw: None)
        with pytest.raises(ValueError, match="ambiguous") as exc_info:
            resolve_app("cs")
        message = str(exc_info.value)
        assert "cilk5-cs" in message and "other5-cs" in message
        assert "unknown application" not in message

    def test_unknown_name_still_rejected(self):
        from repro.apps import resolve_app

        with pytest.raises(ValueError, match="unknown application"):
            resolve_app("definitely-not-an-app")


class TestSimGraph:
    def test_csr_accessors(self, machine):
        graph = rmat_graph(4, 4, seed=5, weighted=True)
        sim_graph = SimGraph(machine, graph, "g")
        ctxs = machine.make_contexts()

        def body(ctx):
            out = []
            for v in range(graph.n):
                start, end = yield from sim_graph.edge_range(ctx, v)
                nbrs = []
                for e in range(start, end):
                    target = yield sim_graph.edge_target(ctx, e)
                    weight = yield from sim_graph.edge_weight(ctx, e)
                    assert weight >= 1
                    nbrs.append(target)
                out.append(nbrs)
            return out

        adjacency = drive(machine, 1, body(ctxs[1]))
        assert adjacency == graph.adj

    def test_unweighted_graph_weight_is_one(self, machine):
        graph = rmat_graph(3, 2, seed=5, weighted=False)
        sim_graph = SimGraph(machine, graph, "g")
        ctxs = machine.make_contexts()

        def body(ctx):
            weight = yield from sim_graph.edge_weight(ctx, 0)
            return weight

        assert drive(machine, 1, body(ctxs[1])) == 1


class TestCilksortHelpers:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=40), st.integers(0, 1000))
    def test_lower_bound_matches_bisect(self, values, key):
        import bisect

        values.sort()
        machine = tiny_machine()
        app = make_app("cilk5-cs", n=len(values), grain=4)
        app.setup(machine)
        app.data.host_init(values)
        ctxs = machine.make_contexts()

        def body(ctx):
            index = yield from app.lower_bound(ctx, app.data, 0, len(values), key)
            return index

        assert drive(machine, 1, body(ctxs[1])) == bisect.bisect_left(values, key)

    def test_serial_merge_merges(self):
        machine = tiny_machine()
        left, right = [1, 4, 9], [2, 3, 10]
        app = make_app("cilk5-cs", n=6, grain=4)
        app.setup(machine)
        app.data.host_init(left + right)
        ctxs = machine.make_contexts()

        def body(ctx):
            yield from app.serial_merge(ctx, app.data, app.temp, 0, 3, 3, 6, 0)

        drive(machine, 1, body(ctxs[1]))
        assert app.temp.host_read() == sorted(left + right)
