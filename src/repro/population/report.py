"""Fleet report renderers: text tables, canonical JSON, and HTML.

Everything renders from :attr:`FleetReport.aggregate` — the streamed
snapshot — so the renderers are pure functions of the aggregate and
inherit its determinism: for a fixed cache state, the same seed renders
the same bytes at any worker count.

Quantiles are bucket upper bounds clamped to the tier's observed
``[min, max]`` (:meth:`FleetReport.quantile`), so a reported quantile
never lies outside the values the sessions produced.  The HTML
document reuses :func:`repro.obs.report.html_page`, so fleet reports
look and ship like run reports.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import render_table
from repro.obs.report import escape, html_page
from repro.population.aggregate import ALL_TIER, WORKLOAD_METRICS
from repro.population.fleet import FleetReport

#: Quantiles every per-tier row reports.
QUANTILES = (0.5, 0.9, 0.99)

_TIER_HEADERS = ["tier", "n", "mean", "stdev", "min", "max",
                 "p50<=", "p90<=", "p99<="]


def _tier_order(report: FleetReport, entries: Dict[str, dict]) -> List[str]:
    """``all`` first, then configured tier order, then any leftovers."""
    order = [ALL_TIER] + [tier.name for tier in report.config.tiers]
    ordered = [name for name in order if name in entries]
    ordered += [name for name in sorted(entries) if name not in ordered]
    return ordered


def _metric_rows(report: FleetReport, workload: str,
                 metric: str) -> List[List[str]]:
    entries = report.series(workload, metric)
    rows: List[List[str]] = []
    for tier in _tier_order(report, entries):
        entry = entries[tier]
        n = entry["n"]
        if n == 0:
            rows.append([tier, "0", "n/a", "n/a", "n/a", "n/a",
                         "n/a", "n/a", "n/a"])
            continue
        quantiles = [f"{report.quantile(workload, metric, q, tier):.3f}"
                     for q in QUANTILES]
        rows.append([
            tier, str(n), f"{entry['mean']:.3f}", f"{entry['stdev']:.3f}",
            f"{entry['min']:.3f}", f"{entry['max']:.3f}", *quantiles,
        ])
    return rows


def _mix_line(counts: Dict[str, int], order: List[str]) -> str:
    ordered = [name for name in order if name in counts]
    ordered += [name for name in sorted(counts) if name not in ordered]
    return " ".join(f"{name}={counts[name]}" for name in ordered)


def _workload_order(report: FleetReport) -> List[str]:
    return [workload for workload, _ in report.config.workload_mix]


def render_text(report: FleetReport) -> str:
    """Plain-text fleet report (the ``population`` command's stdout)."""
    aggregate = report.aggregate
    mix = aggregate.get("mix", {})
    failures = report.failures
    lines: List[str] = ["population fleet report",
                        "======================="]
    headline = (f"experiment {report.experiment} · {report.sessions} "
                f"sessions ({report.completed} ok, "
                f"{sum(failures.values())} failed)")
    if report.quarantined:
        headline += f" · {report.quarantined} quarantined"
    lines.append(headline)
    lines.append("tiers: " + _mix_line(
        mix.get("tiers", {}), [t.name for t in report.config.tiers]))
    lines.append("workloads: " + _mix_line(
        mix.get("workloads", {}), _workload_order(report)))
    lines.append("networks: " + _mix_line(
        mix.get("networks", {}), [n.name for n in report.config.networks]))
    if failures:
        lines.append("failure taxonomy: " + ", ".join(
            f"{status}={failures[status]}" for status in sorted(failures)))
    else:
        lines.append("failure taxonomy: clean (no failed sessions)")
    for workload in _workload_order(report):
        for metric in WORKLOAD_METRICS.get(workload, ()):
            rows = _metric_rows(report, workload, metric)
            if not rows:
                continue
            lines.append("")
            lines.append(f"{workload} · {metric}")
            lines.append(render_table(_TIER_HEADERS, rows))
    return "\n".join(lines) + "\n"


def render_html(report: FleetReport) -> str:
    """Self-contained HTML fleet report (``--html`` artifact)."""
    aggregate = report.aggregate
    mix = aggregate.get("mix", {})
    failures = report.failures
    failed = sum(failures.values())
    parts: List[str] = [
        f"<p><span class=\"ok\">{report.completed} ok</span>, "
        f"<span class=\"{'bad' if failed else 'ok'}\">{failed} failed</span>"
        f" of {report.sessions} sessions "
        f"<span class=\"meta\">(experiment "
        f"<code>{escape(report.experiment)}</code>"
        + (f", {report.quarantined} quarantined" if report.quarantined
           else "")
        + ")</span></p>",
        "<p class=\"meta\">tiers: " + escape(_mix_line(
            mix.get("tiers", {}),
            [t.name for t in report.config.tiers]))
        + " · workloads: " + escape(_mix_line(
            mix.get("workloads", {}), _workload_order(report)))
        + " · networks: " + escape(_mix_line(
            mix.get("networks", {}),
            [n.name for n in report.config.networks])) + "</p>",
    ]
    if failures:
        parts.append("<p>failure taxonomy: " + ", ".join(
            f"<code>{escape(status)}</code>={failures[status]}"
            for status in sorted(failures)) + "</p>")
    for workload in _workload_order(report):
        for metric in WORKLOAD_METRICS.get(workload, ()):
            rows = _metric_rows(report, workload, metric)
            if not rows:
                continue
            parts.append(f"<h2>{escape(workload)} · {escape(metric)}</h2>")
            parts.append("<table><tr>" + "".join(
                f"<th>{escape(h)}</th>" for h in _TIER_HEADERS) + "</tr>")
            for row in rows:
                parts.append("<tr>" + "".join(
                    f"<td>{escape(cell)}</td>" for cell in row) + "</tr>")
            parts.append("</table>")
    return html_page("repro population fleet report", parts)


__all__ = ["QUANTILES", "render_html", "render_text"]
