"""Experiment harness tests (tiny scale so they stay fast)."""

import pytest

from repro.harness import (
    app_params,
    clear_cache,
    dts_overhead,
    fig4_granularity,
    fig5_speedup,
    fig6_hitrate,
    fig7_breakdown,
    fig8_traffic,
    format_dts_overhead,
    format_fig4,
    format_series,
    format_stacked,
    format_table1,
    format_table3,
    format_table4,
    geomean,
    run_experiment,
    run_serial_baseline,
    table1_taxonomy,
    table3,
    table4,
    workspan,
)
from repro.cores.core import TIME_CATEGORIES
from repro.harness.params import init_signature
from repro.mem.traffic import CATEGORIES

APPS2 = ("cilk5-mt", "ligra-bfs")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunner:
    def test_run_experiment_result_fields(self):
        res = run_experiment("cilk5-mt", "bt-hcc-gwb", "tiny")
        assert res.cycles > 0
        assert res.instructions > 0
        assert res.tasks > 0
        assert 0.0 <= res.l1_hit_rate_tiny <= 1.0
        assert set(res.traffic_bytes) == set(CATEGORIES)
        assert set(res.tiny_breakdown) == set(TIME_CATEGORIES)
        assert res.energy.total_pj > 0

    def test_cache_returns_same_object(self):
        a = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        b = run_experiment("cilk5-mt", "bt-mesi", "tiny")
        assert a is b

    def test_serial_baseline_runs_one_core(self):
        res = run_serial_baseline("cilk5-mt", "tiny")
        assert res.kind == "serial-io"
        assert res.steals == 0

    def test_workspan_cached_and_sane(self):
        ws = workspan("cilk5-mt", "tiny")
        assert ws.work > ws.span > 0
        assert workspan("cilk5-mt", "tiny") is ws

    def test_app_params_overrides(self):
        params = app_params("cilk5-mt", "tiny", grain=2)
        assert params["grain"] == 2

    def test_scale_named_app_parameter_can_be_overridden(self):
        # Every Ligra app names its R-MAT size ``scale``, the same name as
        # the harness's input-size argument.
        default = app_params("ligra-bfs", "tiny")
        bigger = default["scale"] + 2
        assert app_params("ligra-bfs", "tiny", scale=bigger) == {**default, "scale": bigger}
        assert init_signature("ligra-bfs", "tiny", scale=bigger) != init_signature(
            "ligra-bfs", "tiny"
        )
        base = run_experiment("ligra-bfs", "bt-mesi", "tiny")
        res = run_experiment(
            "ligra-bfs", "bt-mesi", "tiny", app_overrides={"scale": bigger}
        )
        assert res.tasks > base.tasks and res.instructions > base.instructions
        assert workspan("ligra-bfs", "tiny", scale=bigger).work > workspan(
            "ligra-bfs", "tiny"
        ).work


class TestTables:
    def test_table1_covers_four_protocols(self):
        rows = table1_taxonomy()
        assert [r["protocol"] for r in rows] == ["mesi", "denovo", "gpu-wt", "gpu-wb"]
        mesi = rows[0]
        assert mesi["invalidation"] == "writer" and not mesi["needs_flush"]
        gwb = rows[3]
        assert gwb["needs_flush"] and gwb["amo_at_l2"]
        assert "MESI" in format_table1(rows).upper()

    def test_table3_rows_and_geomean(self):
        rows = table3("tiny", apps=APPS2)
        assert len(rows) == len(APPS2) + 1
        assert rows[-1]["app"] == "geomean"
        for row in rows[:-1]:
            assert row["speedup_o3x1"] > 0
            assert row["rel_bt-hcc-gwb"] > 0
        text = format_table3(rows)
        assert "cilk5-mt" in text and "geomean" in text

    def test_table3_geomean_row_leaves_count_cells_blank(self):
        """The summary row's DInst/Work/Span are placeholders (0), not
        means: the formatter prints blank cells, never a column of 0s."""
        cells = {"pm": "", "para": 2.0, "ipt": 10.0}
        cells.update({f"speedup_{k}": 1.5 for k in ("o3x1", "o3x4", "o3x8", "bt-mesi")})
        cells.update({
            f"rel_bt-hcc-{p}": 1.1
            for p in ("dnv", "gwt", "gwb", "dts-dnv", "dts-gwt", "dts-gwb")
        })
        app_row = dict(cells, app="cilk5-mt", dinst=123456, work=7890, span=321)
        mean_row = dict(cells, app="geomean", dinst=0, work=0, span=0)
        lines = format_table3([app_row, mean_row]).splitlines()
        header, app_line, mean_line = lines[1], lines[3], lines[4]
        assert "123456" in app_line and "7890" in app_line and "321" in app_line
        # Everything between the name/PM columns and Para is blank.
        blank = mean_line[header.index("DInst") - 5:header.index("Para") - 1]
        assert blank.strip() == ""
        assert " 0 " not in mean_line
        assert len(mean_line) == len(app_line)

    def test_table4_percentages(self):
        rows = table4("tiny", apps=("cilk5-mt",))
        row = rows[0]
        assert "invdec_dnv" in row and "flsdec_gwb" in row
        assert row["invdec_gwb"] <= 100.0
        assert "cilk5-mt" in format_table4(rows)

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0


class TestFigures:
    def test_fig4_sweep(self):
        rows = fig4_granularity("tiny", grains=(8, 32))
        assert [r["grain"] for r in rows] == [8, 32]
        assert all(r["parallelism"] > 0 for r in rows)
        assert "Figure 4" in format_fig4(rows)

    def test_fig5_and_fig6_shapes(self):
        speed = fig5_speedup("tiny", apps=APPS2)
        hit = fig6_hitrate("tiny", apps=APPS2)
        for app in APPS2:
            assert speed[app]["bt-mesi"] == pytest.approx(1.0)
            assert 0.0 <= hit[app]["bt-hcc-gwb"] <= 1.0
        assert "MESI" in format_series("Figure 5", speed)

    def test_fig7_normalized_to_mesi(self):
        data = fig7_breakdown("tiny", apps=("cilk5-mt",))
        mesi_stack = data["cilk5-mt"]["bt-mesi"]
        assert sum(mesi_stack.values()) == pytest.approx(1.0)
        text = format_stacked("Figure 7", data, TIME_CATEGORIES)
        assert "cilk5-mt" in text

    def test_fig8_traffic_normalized(self):
        data = fig8_traffic("tiny", apps=("cilk5-mt",))
        mesi_stack = data["cilk5-mt"]["bt-mesi"]
        assert sum(mesi_stack.values()) == pytest.approx(1.0)

    def test_dts_overhead_report(self):
        rows = dts_overhead("tiny", apps=("cilk5-mt",))
        row = rows[0]
        assert 0.0 <= row["uli_utilization_pct"] <= 100.0
        assert row["uli_avg_latency"] >= 0.0
        assert "ULI" in format_dts_overhead(rows)
