"""``repro report`` — aggregate a run ledger into per-sweep summaries.

The ledger (``repro.obs.ledger``) records one line per ``run_experiment``;
this module folds those lines into the accounting a sweep owner actually
asks for: how many points ran hot vs. from the store, what failed and how,
where the wall time went, and whether several hosts contributed.  The
summary is computed from the ledger alone — the acceptance check is that
a grid's hit/miss/failure counts reproduce from this file without
consulting the result store.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.ledger import read_ledger_with_errors

#: Outcomes in display order; anything else lands in "other".  "parked"
#: attempts (preempted runs, repro.serve) are accounted but not simulated:
#: the eventual resumed attempt contributes the "ok".
OUTCOMES = ("ok", "store-hit", "memo-hit", "failed", "parked")


def _group_key(entry: dict) -> Tuple[str, str, str]:
    return (
        str(entry.get("app", "?")),
        str(entry.get("kind", "?")),
        str(entry.get("scale", "?")),
    )


def aggregate(entries: List[dict], malformed: int = 0) -> dict:
    """Fold ledger entries into the report payload."""
    totals = {outcome: 0 for outcome in OUTCOMES}
    totals["other"] = 0
    wall = {outcome: 0.0 for outcome in OUTCOMES}
    wall["other"] = 0.0
    groups: Dict[Tuple[str, str, str], dict] = {}
    failures: List[dict] = []
    hosts = set()
    for entry in entries:
        outcome = entry.get("outcome", "other")
        bucket = outcome if outcome in totals else "other"
        totals[bucket] += 1
        wall_s = float(entry.get("wall_s") or 0.0)
        wall[bucket] += wall_s
        host = entry.get("host") or {}
        hosts.add((host.get("node"), host.get("python")))
        group = groups.setdefault(
            _group_key(entry),
            {outcome: 0 for outcome in OUTCOMES} | {"other": 0, "wall_s": 0.0},
        )
        group[bucket] += 1
        group["wall_s"] += wall_s
        if bucket == "failed":
            failures.append(
                {
                    "app": entry.get("app"),
                    "kind": entry.get("kind"),
                    "scale": entry.get("scale"),
                    "error": entry.get("error"),
                    "message": entry.get("message"),
                    "source": entry.get("source", "runner"),
                    "ts": entry.get("ts"),
                }
            )
    runs = len(entries)
    simulated = totals["ok"] + totals["failed"]
    return {
        "runs": runs,
        "totals": totals,
        "simulated": simulated,
        "hits": totals["store-hit"] + totals["memo-hit"],
        "wall_s": wall,
        "wall_total_s": sum(wall.values()),
        "groups": [
            {
                "app": key[0],
                "kind": key[1],
                "scale": key[2],
                **counts,
            }
            for key, counts in sorted(groups.items())
        ],
        "failures": failures,
        "hosts": len(hosts),
        "malformed_lines": malformed,
    }


def report_from_file(path: str) -> dict:
    entries, malformed, torn_tail = read_ledger_with_errors(path)
    summary = aggregate(entries, malformed)
    summary["ledger"] = str(path)
    summary["torn_tail"] = torn_tail
    return summary


def format_summary(summary: dict) -> str:
    """Human-readable report for the CLI."""
    totals = summary["totals"]
    wall = summary["wall_s"]
    lines = [
        f"ledger: {summary.get('ledger', '-')}",
        f"runs: {summary['runs']}  "
        f"ok:{totals['ok']}  store-hit:{totals['store-hit']}  "
        f"memo-hit:{totals['memo-hit']}  failed:{totals['failed']}"
        + (f"  parked:{totals['parked']}" if totals.get("parked") else "")
        + (f"  other:{totals['other']}" if totals["other"] else ""),
        f"wall: {summary['wall_total_s']:.2f}s total  "
        f"(simulated {wall['ok'] + wall['failed']:.2f}s, "
        f"hits {wall['store-hit'] + wall['memo-hit']:.2f}s)",
        f"hosts: {summary['hosts']}"
        + (
            f"  [{summary['malformed_lines']} malformed line(s) skipped]"
            if summary["malformed_lines"]
            else ""
        )
        + (
            "  [torn final line (crashed writer) skipped]"
            if summary.get("torn_tail")
            else ""
        ),
        "",
        f"{'app':<14} {'config':<16} {'scale':<6} {'ok':>4} "
        f"{'store':>5} {'memo':>5} {'fail':>4} {'wall_s':>8}",
    ]
    for group in summary["groups"]:
        lines.append(
            f"{group['app']:<14} {group['kind']:<16} {group['scale']:<6} "
            f"{group['ok']:>4} {group['store-hit']:>5} {group['memo-hit']:>5} "
            f"{group['failed']:>4} {group['wall_s']:>8.2f}"
        )
    if summary["failures"]:
        lines.append("")
        lines.append("failures:")
        for failure in summary["failures"]:
            lines.append(
                f"  {failure['app']}/{failure['kind']}/{failure['scale']}: "
                f"{failure['error']} ({failure.get('source', 'runner')})"
                + (f" — {failure['message']}" if failure.get("message") else "")
            )
    return "\n".join(lines)


def run_report(
    ledger_path: Optional[str] = None, as_json: bool = False
) -> int:
    """The ``repro report`` entry point; returns a process exit code."""
    if ledger_path is None:
        from repro.harness.runner import get_result_store

        store = get_result_store()
        if store is None:
            print(
                "repro report: no ledger given and no result store configured "
                "(pass a ledger path or set REPRO_RESULTS_DIR)"
            )
            return 2
        ledger_path = str(store.root / "ledger.jsonl")
    try:
        summary = report_from_file(ledger_path)
    except OSError as exc:
        print(f"repro report: cannot read ledger: {exc}")
        return 2
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0
