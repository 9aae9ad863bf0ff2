"""Regenerators for the paper's tables (I, III, IV, V)."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.apps import PAPER_APPS, make_app
from repro.config.system import BIGTINY_KINDS, DTS_KINDS, HCC_KINDS
from repro.harness.grid import GridPoint, run_grid
from repro.harness.params import TABLE5_APPS, app_params
from repro.harness.runner import run_experiment, run_serial_baseline, workspan
from repro.mem.l1 import PROTOCOLS

#: Protocol key -> (hcc kind, dts kind) pairs used by Table IV.
_PROTO_PAIRS = {
    "dnv": ("bt-hcc-dnv", "bt-hcc-dts-dnv"),
    "gwt": ("bt-hcc-gwt", "bt-hcc-dts-gwt"),
    "gwb": ("bt-hcc-gwb", "bt-hcc-dts-gwb"),
}


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Table I — protocol taxonomy
# ----------------------------------------------------------------------
def table1_taxonomy() -> List[dict]:
    """Classification of the four coherence protocols (paper Table I)."""
    rows = []
    for key in ("mesi", "denovo", "gpu-wt", "gpu-wb"):
        proto = PROTOCOLS[key]
        rows.append(
            {
                "protocol": key,
                "invalidation": proto.INVALIDATION,
                "dirty_propagation": proto.DIRTY_PROPAGATION,
                "write_granularity": proto.WRITE_GRANULARITY,
                "amo_at_l2": proto.AMO_AT_L2,
                "needs_flush": proto.NEEDS_FLUSH,
                "needs_invalidate": proto.NEEDS_INVALIDATE,
            }
        )
    return rows


def format_table1(rows: List[dict]) -> str:
    header = (
        f"{'Protocol':10s} {'Invalidation':14s} {'Dirty Prop.':12s} "
        f"{'Granularity':12s} {'AMO@L2':7s} {'flush?':7s} {'inv?':5s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['protocol']:10s} {r['invalidation']:14s} {r['dirty_propagation']:12s} "
            f"{r['write_granularity']:12s} {str(r['amo_at_l2']):7s} "
            f"{str(r['needs_flush']):7s} {str(r['needs_invalidate']):5s}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table III — the main results table
# ----------------------------------------------------------------------
def table3(
    scale: str, apps: Sequence[str] = PAPER_APPS, jobs: Optional[int] = None
) -> List[dict]:
    """Per-app: workspan stats, O3xN speedups, HCC speedups vs bt-mesi."""
    kinds = ("o3x1", "o3x4", "o3x8", "bt-mesi") + tuple(HCC_KINDS) + tuple(DTS_KINDS)
    points = [GridPoint(app, "serial-io", scale, serial=True) for app in apps]
    points += [GridPoint(app, kind, scale) for app in apps for kind in kinds]
    run_grid(points, jobs=jobs)  # seeds the memo cache the loops below hit
    rows = []
    for app_name in apps:
        serial = run_serial_baseline(app_name, scale)
        ws = workspan(app_name, scale)
        mesi = run_experiment(app_name, "bt-mesi", scale)
        row = {
            "app": app_name,
            "pm": make_app(app_name, **app_params(app_name, scale)).pm,
            "dinst": mesi.instructions,
            "work": ws.work,
            "span": ws.span,
            "para": ws.parallelism,
            "ipt": ws.instructions_per_task,
            "serial_cycles": serial.cycles,
        }
        for kind in ("o3x1", "o3x4", "o3x8", "bt-mesi"):
            res = run_experiment(app_name, kind, scale)
            row[f"speedup_{kind}"] = serial.cycles / res.cycles
        for kind in HCC_KINDS + DTS_KINDS:
            res = run_experiment(app_name, kind, scale)
            row[f"rel_{kind}"] = mesi.cycles / res.cycles
        rows.append(row)
    summary = {"app": "geomean", "pm": "", "dinst": 0, "work": 0, "span": 0}
    summary["para"] = geomean(r["para"] for r in rows)
    summary["ipt"] = geomean(r["ipt"] for r in rows)
    summary["serial_cycles"] = 0
    for kind in ("o3x1", "o3x4", "o3x8", "bt-mesi"):
        summary[f"speedup_{kind}"] = geomean(r[f"speedup_{kind}"] for r in rows)
    for kind in HCC_KINDS + DTS_KINDS:
        summary[f"rel_{kind}"] = geomean(r[f"rel_{kind}"] for r in rows)
    rows.append(summary)
    return rows


def format_table3(rows: List[dict]) -> str:
    header = (
        f"{'Name':12s} {'PM':3s} {'DInst':>9s} {'Work':>9s} {'Span':>7s} "
        f"{'Para':>7s} {'IPT':>8s} | {'O3x1':>6s} {'O3x4':>6s} {'O3x8':>6s} "
        f"{'bT/MESI':>8s} | {'dnv':>5s} {'gwt':>5s} {'gwb':>5s} | "
        f"{'D-dnv':>5s} {'D-gwt':>5s} {'D-gwb':>5s}"
    )
    lines = [
        "Table III: speedups over serial-IO (left) and vs big.TINY/MESI (right)",
        header,
        "-" * len(header),
    ]
    for r in rows:
        if r["app"] == "geomean":
            # Instruction counts, work and span have no cross-app mean.
            counts = f"{'':>9s} {'':>9s} {'':>7s}"
        else:
            counts = f"{r['dinst']:>9d} {r['work']:>9d} {r['span']:>7d}"
        lines.append(
            f"{r['app']:12s} {r['pm']:3s} {counts} "
            f"{r['para']:>7.2f} {r['ipt']:>8.1f} | "
            f"{r['speedup_o3x1']:>6.2f} {r['speedup_o3x4']:>6.2f} "
            f"{r['speedup_o3x8']:>6.2f} {r['speedup_bt-mesi']:>8.2f} | "
            f"{r['rel_bt-hcc-dnv']:>5.2f} {r['rel_bt-hcc-gwt']:>5.2f} "
            f"{r['rel_bt-hcc-gwb']:>5.2f} | {r['rel_bt-hcc-dts-dnv']:>5.2f} "
            f"{r['rel_bt-hcc-dts-gwt']:>5.2f} {r['rel_bt-hcc-dts-gwb']:>5.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table IV — invalidation / flush reduction, hit-rate increase with DTS
# ----------------------------------------------------------------------
def table4(
    scale: str, apps: Sequence[str] = PAPER_APPS, jobs: Optional[int] = None
) -> List[dict]:
    pair_kinds = [k for pair in _PROTO_PAIRS.values() for k in pair]
    run_grid(
        [GridPoint(app, kind, scale) for app in apps for kind in pair_kinds],
        jobs=jobs,
    )
    rows = []
    for app_name in apps:
        row = {"app": app_name}
        for proto, (hcc_kind, dts_kind) in _PROTO_PAIRS.items():
            hcc = run_experiment(app_name, hcc_kind, scale)
            dts = run_experiment(app_name, dts_kind, scale)
            inv_dec = _pct_decrease(hcc.lines_invalidated, dts.lines_invalidated)
            row[f"invdec_{proto}"] = inv_dec
            row[f"hitinc_{proto}"] = 100.0 * (dts.l1_hit_rate_tiny - hcc.l1_hit_rate_tiny)
            if proto == "gwb":
                row["flsdec_gwb"] = _pct_decrease(hcc.lines_flushed, dts.lines_flushed)
        rows.append(row)
    return rows


def _pct_decrease(before: int, after: int) -> float:
    if before <= 0:
        return 0.0
    return 100.0 * (before - after) / before


def format_table4(rows: List[dict]) -> str:
    header = (
        f"{'App':12s} | {'InvDec dnv':>10s} {'InvDec gwt':>10s} {'InvDec gwb':>10s} | "
        f"{'FlsDec gwb':>10s} | {'HitInc dnv':>10s} {'HitInc gwt':>10s} {'HitInc gwb':>10s}"
    )
    lines = [
        "Table IV: DTS vs non-DTS HCC (invalidation/flush decrease %, hit-rate increase pp)",
        header,
        "-" * len(header),
    ]
    for r in rows:
        lines.append(
            f"{r['app']:12s} | {r['invdec_dnv']:>10.2f} {r['invdec_gwt']:>10.2f} "
            f"{r['invdec_gwb']:>10.2f} | {r['flsdec_gwb']:>10.2f} | "
            f"{r['hitinc_dnv']:>10.2f} {r['hitinc_gwt']:>10.2f} {r['hitinc_gwb']:>10.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table V — larger-scale (256-core) system
# ----------------------------------------------------------------------
def table5(
    scale: str = "large",
    apps: Sequence[str] = TABLE5_APPS,
    jobs: Optional[int] = None,
) -> List[dict]:
    points = [GridPoint(app, "serial-io", scale, serial=True) for app in apps]
    points += [
        GridPoint(app, kind, scale)
        for app in apps
        for kind in ("bt-mesi", "bt-hcc-gwb", "bt-hcc-dts-gwb")
    ]
    run_grid(points, jobs=jobs)
    rows = []
    for app_name in apps:
        serial = run_serial_baseline(app_name, scale)
        mesi = run_experiment(app_name, "bt-mesi", scale)
        gwb = run_experiment(app_name, "bt-hcc-gwb", scale)
        dts = run_experiment(app_name, "bt-hcc-dts-gwb", scale)
        rows.append(
            {
                "app": app_name,
                "dinst": mesi.instructions,
                "mesi_vs_serial": serial.cycles / mesi.cycles,
                "gwb_vs_mesi": mesi.cycles / gwb.cycles,
                "dts_gwb_vs_mesi": mesi.cycles / dts.cycles,
            }
        )
    return rows


def format_table5(rows: List[dict]) -> str:
    header = (
        f"{'App':12s} {'DInst':>10s} {'bT/MESI vs serial':>18s} "
        f"{'HCC-gwb vs MESI':>16s} {'HCC-DTS-gwb vs MESI':>20s}"
    )
    lines = ["Table V: larger-scale big.TINY system", header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['app']:12s} {r['dinst']:>10d} {r['mesi_vs_serial']:>18.2f} "
            f"{r['gwb_vs_mesi']:>16.2f} {r['dts_gwb_vs_mesi']:>20.2f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Headline claims (abstract / Section I)
# ----------------------------------------------------------------------
def headline_claims(scale: str, apps: Sequence[str] = PAPER_APPS) -> Dict[str, float]:
    """The paper's three headline numbers.

    * big.TINY/MESI speedup over a single big core (paper: ~7x);
    * big.TINY/MESI speedup over area-equivalent O3x8 (paper: ~1.4x);
    * best HCC+DTS vs big.TINY/MESI (paper: +21%).
    """
    rows = table3(scale, apps)
    summary = rows[-1]
    mesi_over_o3x1 = summary["speedup_bt-mesi"] / summary["speedup_o3x1"]
    mesi_over_o3x8 = summary["speedup_bt-mesi"] / summary["speedup_o3x8"]
    best_dts = max(summary[f"rel_{kind}"] for kind in DTS_KINDS)
    # The conclusion's vision claim: HCC-DTS-gwb vs O3x4 (paper: up to 2-3x).
    dts_gwb_abs = summary["rel_bt-hcc-dts-gwb"] * summary["speedup_bt-mesi"]
    return {
        "bigtiny_mesi_vs_one_big_core": mesi_over_o3x1,
        "bigtiny_mesi_vs_o3x8": mesi_over_o3x8,
        "best_hcc_dts_vs_bigtiny_mesi": best_dts,
        "hcc_dts_gwb_vs_o3x4": dts_gwb_abs / summary["speedup_o3x4"],
    }
