"""Exporters for observed runs: Perfetto JSON, CSV, and ASCII lanes.

``to_perfetto`` emits the Chrome/Perfetto *trace event* format — a JSON
object with a ``traceEvents`` list — using complete (``"X"``) events for
spans, metadata (``"M"``) events to name one thread track per node, disk,
and daemon, and counter (``"C"``) events for the sampled timelines.
Open the file at https://ui.perfetto.dev or ``chrome://tracing``.

Timestamps: the simulation clock is milliseconds; the trace event format
wants microseconds, so every ``ts``/``dur`` is scaled by 1000 and
``displayTimeUnit`` is ``"ms"``.

``validate_perfetto`` is the schema check CI runs against every exported
trace; it returns a list of human-readable violations (empty = valid).
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Optional, Tuple

from .spans import Span, SpanLog
from .timeline import TimelineRegistry
from .recorder import ObsData

__all__ = [
    "render_ascii",
    "spans_to_csv",
    "timelines_to_csv",
    "to_perfetto",
    "validate_perfetto",
]

#: Perfetto process ids, one per track family.
_TRACK_PIDS = {
    "node": 1, "disk": 2, "daemon": 3, "fault": 5, "writeback": 6,
}
_COUNTER_PID = 4
_PROCESS_NAMES = ((1, "nodes"), (2, "disks"), (3, "daemons"),
                  (_COUNTER_PID, "timelines"), (5, "faults"),
                  (6, "writeback"))

_MS_TO_US = 1000.0


def _meta(pid: int, tid: int, which: str, name: str) -> Dict[str, Any]:
    return {
        "name": which,
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _span_event(span: Span) -> Dict[str, Any]:
    kind, track_id = span.track
    return {
        "name": span.name,
        "cat": span.cat,
        "ph": "X",
        "ts": span.start * _MS_TO_US,
        "dur": span.duration * _MS_TO_US,
        "pid": _TRACK_PIDS[kind],
        "tid": track_id,
        "args": dict(span.args),
    }


def to_perfetto(data: ObsData) -> Dict[str, Any]:
    """The observed run as a Chrome/Perfetto trace-event JSON object."""
    events: List[Dict[str, Any]] = []
    for pid, name in _PROCESS_NAMES:
        events.append(_meta(pid, 0, "process_name", name))
    for node_id in range(data.n_nodes):
        events.append(
            _meta(_TRACK_PIDS["node"], node_id, "thread_name",
                  f"node {node_id}")
        )
    for disk_id in range(data.n_disks):
        events.append(
            _meta(_TRACK_PIDS["disk"], disk_id, "thread_name",
                  f"disk {disk_id}")
        )
    for node_id in data.daemon_nodes:
        events.append(
            _meta(_TRACK_PIDS["daemon"], node_id, "thread_name",
                  f"daemon {node_id}")
        )
    for disk_id in data.fault_disks:
        events.append(
            _meta(_TRACK_PIDS["fault"], disk_id, "thread_name",
                  f"fault disk {disk_id}")
        )
    for node_id in data.flusher_nodes:
        events.append(
            _meta(_TRACK_PIDS["writeback"], node_id, "thread_name",
                  f"flusher {node_id}")
        )
    events.append(_meta(_COUNTER_PID, 0, "thread_name", "timelines"))

    for span in data.spans.spans:
        events.append(_span_event(span))

    for series in data.timelines.series:
        for t, value in series.samples:
            events.append(
                {
                    "name": series.name,
                    "ph": "C",
                    "ts": t * _MS_TO_US,
                    "pid": _COUNTER_PID,
                    "args": {series.kind: value},
                }
            )

    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {
            "label": data.label,
            "total_time_ms": data.total_time,
            "obs_digest": data.digest,
        },
    }


def validate_perfetto(payload: Any) -> List[str]:
    """Schema-check a trace-event JSON object; returns violations."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level: expected a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents: expected a list"]
    named_threads = set()
    span_threads: List[Tuple[int, int]] = []
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: expected an object")
            continue
        ph = event.get("ph")
        name = event.get("name")
        if ph not in ("X", "M", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing event name")
        if not isinstance(event.get("pid"), int):
            errors.append(f"{where}: pid must be an integer")
            continue
        if ph == "M":
            args = event.get("args")
            if name not in ("process_name", "thread_name"):
                errors.append(f"{where}: bad metadata name {name!r}")
            elif not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                errors.append(f"{where}: metadata needs args.name")
            elif name == "thread_name":
                named_threads.add((event["pid"], event.get("tid")))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: dur must be a non-negative number"
                )
            if not isinstance(event.get("tid"), int):
                errors.append(f"{where}: tid must be an integer")
            else:
                span_threads.append((event["pid"], event["tid"]))
        if ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                errors.append(f"{where}: counter args must be numeric")
    for pid, tid in sorted(set(span_threads)):
        if (pid, tid) not in named_threads:
            errors.append(
                f"span track pid={pid} tid={tid} has no thread_name "
                "metadata"
            )
    return errors


# -- CSV ---------------------------------------------------------------------


def timelines_to_csv(timelines: TimelineRegistry) -> str:
    """Sampled series pivoted into one CSV: time column + one per series.

    One row per sample the registry took, at its time.  A series
    registered after sampling began holds the last ``len(series)``
    samples, so its earlier cells stay blank.  Each series' samples are
    built once, before the row loop.
    """
    times = timelines.times
    all_series = timelines.series
    columns = [
        (len(times) - len(series), series.samples) for series in all_series
    ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time_ms"] + [series.name for series in all_series])
    for row, t in enumerate(times):
        cells: List[Any] = [
            samples[row - first][1] if row >= first else ""
            for first, samples in columns
        ]
        writer.writerow([t] + cells)
    return out.getvalue()


def spans_to_csv(spans: SpanLog) -> str:
    """Every span as one CSV row, in recording order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["track_kind", "track_id", "cat", "name", "start_ms", "end_ms",
         "duration_ms"]
    )
    for span in spans.spans:
        kind, track_id = span.track
        writer.writerow(
            [kind, track_id, span.cat, span.name, span.start, span.end,
             span.duration]
        )
    return out.getvalue()


# -- ASCII -------------------------------------------------------------------

#: Category → (lane character, paint priority); higher priority wins a
#: column when spans overlap within one bucket.
_LANE_STYLES: Tuple[Tuple[str, str, int], ...] = (
    ("overrun", "o", 6),
    ("disk:service", "X", 5),
    ("daemon:action", "p", 5),
    ("fault:breaker", "B", 5),
    ("fault:failslow", "F", 4),
    ("wait:sync", "s", 4),
    ("wait:self_io", "d", 3),
    ("wait:remote_io", "d", 3),
    ("disk:queue", "q", 3),
    ("writeback:action", "f", 5),
    ("writeback:stall", "T", 4),
    ("fault:", "!", 2),
    ("read:", "r", 2),
    ("write:", "w", 2),
)

_LEGEND = (
    "legend: r=read  w=write  d=demand-I/O wait  s=sync wait  o=overrun  "
    "X=disk service  q=disk queue  p=daemon action  f=flusher action  "
    "T=throttle stall  B=breaker open  F=fail-slow  !=fault event  "
    ".=cpu/idle"
)


def _style(cat: str) -> Tuple[str, int]:
    for prefix, char, priority in _LANE_STYLES:
        if cat.startswith(prefix):
            return char, priority
    return "#", 1


def render_ascii(
    data: ObsData,
    width: int = 64,
    kinds: Optional[Tuple[str, ...]] = None,
) -> str:
    """Terminal timeline: one lane of ``width`` columns per track."""
    if width < 8:
        raise ValueError(f"width {width} too narrow")
    total = max(data.total_time, 1e-9)
    lanes: List[str] = []
    for track in data.spans.tracks():
        kind, track_id = track
        if kinds is not None and kind not in kinds:
            continue
        chars = ["."] * width
        priorities = [0] * width
        for span in data.spans.by_track(track):
            char, priority = _style(span.cat)
            first = min(width - 1, max(0, int(span.start / total * width)))
            last = min(width - 1, max(first, int(span.end / total * width)))
            for col in range(first, last + 1):
                if priority > priorities[col]:
                    chars[col] = char
                    priorities[col] = priority
        lanes.append(f"{kind:>6} {track_id:<3} |{''.join(chars)}|")
    header = (
        f"{data.label}: {data.total_time:.1f} ms across {width} columns "
        f"(~{total / width:.1f} ms each)"
    )
    return "\n".join([header, _LEGEND] + lanes)
