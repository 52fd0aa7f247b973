"""Plain-text rendering of figure data and suite summaries.

The original figures are scatter plots and CDFs; terminals get tables.
:func:`render_table` produces an aligned ASCII table, and
:func:`render_scatter` a crude monospace scatter for eyeballing shapes
(e.g. "all points below the y=x line" in Fig. 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunResult

__all__ = [
    "PAIRED_MEASURES",
    "WRITE_MEASURES",
    "FAULT_MEASURES",
    "ATTRIBUTION_COLUMNS",
    "paired_measure_rows",
    "write_measure_rows",
    "fault_measure_rows",
    "attribution_rows",
    "attribution_summary",
    "render_table",
    "render_scatter",
    "format_cell",
]

#: The measures a paired (no-prefetch vs prefetch) comparison reports,
#: in display order: (row label, RunResult attribute).  Cache hit/miss
#: counters and demand-read latency percentiles live here — not in
#: :data:`FAULT_MEASURES` — so every report path (live runs, trace
#: replays, degraded-mode comparisons) renders them consistently.
PAIRED_MEASURES: Tuple[Tuple[str, str], ...] = (
    ("total time (ms)", "total_time"),
    ("avg block read time (ms)", "avg_read_time"),
    ("demand read p50 (ms)", "read_p50"),
    ("demand read p99 (ms)", "read_p99"),
    ("total cache accesses", "total_accesses"),
    ("hit ratio", "hit_ratio"),
    ("miss ratio", "miss_ratio"),
    ("ready-hit fraction", "ready_hit_fraction"),
    ("unready-hit fraction", "unready_hit_fraction"),
    ("avg hit-wait, all hits (ms)", "avg_hit_wait_all"),
    ("avg hit-wait, unready only (ms)", "avg_hit_wait"),
    ("disk response (ms)", "disk_response_mean"),
    ("sync wait mean (ms)", "sync_wait_mean"),
    ("overrun mean (ms)", "overrun_mean"),
    ("blocks prefetched", "blocks_prefetched"),
    ("blocks demand fetched", "blocks_demand_fetched"),
    ("prefetch action mean (ms)", "prefetch_action_mean"),
    ("prefetched-unused evictions", "prefetch_unused_evicted"),
    ("prefetched-unused at run end", "prefetch_unused_at_end"),
    ("unused-prefetch rate", "unused_prefetch_rate"),
)


#: Write-path measures appended to paired comparisons when either run
#: performed writes: (row label, RunResult attribute).  Kept out of the
#: base list so read-only reports — the paper's six patterns — stay
#: byte-identical to their pre-write-path form.
WRITE_MEASURES: Tuple[Tuple[str, str], ...] = (
    ("total writes", "total_writes"),
    ("avg block write time (ms)", "write_avg"),
    ("write p50 (ms)", "write_p50"),
    ("write p99 (ms)", "write_p99"),
    ("dirty peak (buffers)", "dirty_peak"),
    ("flushes", "flush_count"),
    ("flush failures", "flush_failures"),
    ("throttle stalls", "throttle_stall_count"),
    ("throttle stall time (ms)", "throttle_stall_time"),
)


#: Resilience/fault measures appended to comparisons when a run carried
#: a fault plan: (row label, RunResult attribute).
FAULT_MEASURES: Tuple[Tuple[str, str], ...] = (
    ("disk errors", "disk_errors"),
    ("retries", "disk_retries"),
    ("timeouts", "disk_timeouts"),
    ("breaker opens", "breaker_opens"),
    ("fail-slow detections", "failslow_detections"),
    ("prefetch write-offs", "prefetch_write_offs"),
    ("time degraded (ms)", "time_degraded"),
)


#: Column headings of the per-node bottleneck-attribution table
#: (``rapid-transit obs attribute``, ``run --obs``).
ATTRIBUTION_COLUMNS: Tuple[str, ...] = (
    "node",
    "wall (ms)",
    "compute (ms)",
    "demand stall (ms)",
    "sync wait (ms)",
    "daemon theft (ms)",
    "dominant",
)


def paired_measure_rows(
    base: "RunResult", prefetch: "RunResult"
) -> List[Tuple[str, object, object]]:
    """Rows for a paired-comparison table: (measure, no-prefetch, prefetch).

    Shared by ``rapid-transit run`` and ``rapid-transit trace replay`` so
    live and trace-driven comparisons read identically.  On read-write
    runs the :data:`WRITE_MEASURES` rows are appended; read-only reports
    are unchanged.
    """
    measures = list(PAIRED_MEASURES)
    if base.total_writes or prefetch.total_writes:
        measures.extend(WRITE_MEASURES)
    return [
        (label, getattr(base, attr), getattr(prefetch, attr))
        for label, attr in measures
    ]


def write_measure_rows(
    base: "RunResult", prefetch: "RunResult"
) -> List[Tuple[str, object, object]]:
    """Just the write-path rows (for callers composing their own table)."""
    return [
        (label, getattr(base, attr), getattr(prefetch, attr))
        for label, attr in WRITE_MEASURES
    ]


def fault_measure_rows(
    base: "RunResult", prefetch: "RunResult"
) -> List[Tuple[str, object, object]]:
    """Fault/resilience rows for a paired table (faulted runs only)."""
    return [
        (label, getattr(base, attr), getattr(prefetch, attr))
        for label, attr in FAULT_MEASURES
    ]


def attribution_rows(result: "RunResult") -> List[Tuple]:
    """Per-node bottleneck rows (plus an ``all`` totals row) for
    :data:`ATTRIBUTION_COLUMNS`, from ``result.node_attribution``."""
    from ..obs.attribution import COMPONENTS, dominant_component

    rows: List[Tuple] = []
    totals = {name: 0.0 for name in ("wall",) + COMPONENTS}
    for entry in result.node_attribution:
        rows.append(
            (
                int(entry["node"]),
                entry["wall"],
                entry["compute"],
                entry["demand_stall"],
                entry["sync_wait"],
                entry["daemon_theft"],
                dominant_component(entry).replace("_", " "),
            )
        )
        for name in totals:
            totals[name] += entry[name]
    if rows:
        rows.append(
            (
                "all",
                totals["wall"],
                totals["compute"],
                totals["demand_stall"],
                totals["sync_wait"],
                totals["daemon_theft"],
                dominant_component(totals).replace("_", " "),
            )
        )
    return rows


def attribution_summary(result: "RunResult") -> str:
    """One line naming the dominant cost across nodes, e.g.
    ``dominant cost: demand stall (3/4 nodes), sync wait (1/4 nodes)``."""
    from ..obs.attribution import COMPONENTS, dominant_component

    entries = result.node_attribution
    if not entries:
        return "dominant cost: (no attribution data)"
    counts = {name: 0 for name in COMPONENTS}
    for entry in entries:
        counts[dominant_component(entry)] += 1
    parts = [
        f"{name.replace('_', ' ')} ({count}/{len(entries)} nodes)"
        for name, count in counts.items()
        if count
    ]
    return "dominant cost: " + ", ".join(parts)


def format_cell(value) -> str:
    """Human formatting: floats to 2 decimals, rest via str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    columns: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
) -> str:
    """Aligned ASCII table."""
    str_rows = [[format_cell(c) for c in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} != column count {len(columns)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(columns)))
    out.append(line(["-" * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return "\n".join(out)


def render_scatter(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 20,
    xlabel: str = "x",
    ylabel: str = "y",
    diagonal: bool = False,
    title: Optional[str] = None,
) -> str:
    """Monospace scatter plot.

    ``diagonal=True`` overlays the y=x reference line (the paper's Figs. 3,
    7, 8, 9 all plot prefetch-vs-no-prefetch against y=x).
    """
    if not points:
        return "(no points)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = min(min(xs), min(ys), 0.0)
    hi = max(max(xs), max(ys))
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, max(0, int((x - lo) / span * (width - 1))))

    def to_row(y: float) -> int:
        return min(
            height - 1, max(0, height - 1 - int((y - lo) / span * (height - 1)))
        )

    if diagonal:
        for c in range(width):
            x = lo + span * c / (width - 1)
            grid[to_row(x)][c] = "."
    for x, y in points:
        grid[to_row(y)][to_col(x)] = "*"

    out = []
    if title:
        out.append(title)
    out.append(f"{ylabel} (vertical) vs {xlabel} (horizontal); range "
               f"[{lo:.1f}, {hi:.1f}]" + ("; '.' = y=x" if diagonal else ""))
    out.extend("|" + "".join(row) for row in grid)
    out.append("+" + "-" * width)
    return "\n".join(out)
