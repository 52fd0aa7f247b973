"""Access-trace recording.

"The exact access pattern is recorded for off-line analysis of prefetching
strategies" (Section IV-C).  Every block access produces a
:class:`TraceRecord` (:meth:`Trace.tap` subscribes a trace to a run's
``fs.read`` / ``fs.write`` probe points); the :class:`Trace` container
supports saving/loading as JSON lines and feeds
:mod:`repro.experiments.analysis` (what-if hit ratios, optimal-replacement
bounds, global-sequentiality measurement).

Saved files are version-stamped: the first line is a JSON header
``{"format": "rapid-transit-trace", "kind": "access", "version": 1}``.
Headerless files (the pre-versioning layout) still load.  The richer
*replayable* trace format lives in :mod:`repro.traces.format` and shares
the ``rapid-transit-trace`` envelope with ``"kind": "replay"``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = [
    "TRACE_FORMAT_NAME",
    "Trace",
    "TraceFormatError",
    "TraceRecord",
    "parse_header",
    "parse_record",
]

#: Envelope name shared by every trace file this project writes.
TRACE_FORMAT_NAME = "rapid-transit-trace"

#: Version of the access-trace record layout below.  Version 2 added the
#: write-side outcomes ("write-ready" / "write-unready" / "write-miss");
#: version-1 files (read-only vocabulary) still load.
ACCESS_TRACE_VERSION = 2


class TraceFormatError(ValueError):
    """A trace file or record does not match the documented format."""


def parse_header(line: str, *, kind: str, max_version: int) -> Optional[int]:
    """Parse a candidate header line; return its version.

    Returns ``None`` when the line is not a header at all (legacy files
    whose first line is a record).  Raises :class:`TraceFormatError` for a
    header of the wrong kind or an unsupported version.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(data, dict) or data.get("format") != TRACE_FORMAT_NAME:
        return None
    found_kind = data.get("kind")
    if found_kind != kind:
        raise TraceFormatError(
            f"trace file holds a {found_kind!r} trace, expected {kind!r}"
        )
    version = data.get("version")
    if not isinstance(version, int) or not 1 <= version <= max_version:
        raise TraceFormatError(
            f"unsupported {kind} trace version {version!r} "
            f"(this build reads versions 1..{max_version})"
        )
    return version


#: JSON value types accepted for each record-field annotation.  A JSON
#: ``true`` is never a number, though Python's ``bool`` is an ``int``.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def parse_record(
    cls: Any, line: str, *, kind: str, required: Iterable[str]
) -> Any:
    """Parse one JSON-lines record into the frozen dataclass ``cls``,
    whose fields are annotated ``int``, ``float`` or ``str``.

    Raises :class:`TraceFormatError` naming the problem: invalid JSON, a
    non-object, an unknown or missing field, or a field whose JSON type
    does not match its annotation.  ``kind`` ("trace" / "replay") names
    the record in those messages.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON in {kind} record: {exc}")
    if not isinstance(data, dict):
        raise TraceFormatError(
            f"{kind} record must be a JSON object, got {type(data).__name__}"
        )
    annotations = {f.name: str(f.type) for f in fields(cls)}
    unknown = sorted(set(data) - set(annotations))
    if unknown:
        raise TraceFormatError(
            f"unknown {kind} record field(s) {unknown}; "
            f"known fields: {sorted(annotations)}"
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise TraceFormatError(
            f"{kind} record missing required field(s) {missing}"
        )
    for name, value in data.items():
        expected = annotations[name]
        if isinstance(value, bool) or not isinstance(
            value, _JSON_TYPES[expected]
        ):
            raise TraceFormatError(
                f"{kind} record field {name!r} must be {expected}, "
                f"got {value!r}"
            )
    return cls(**data)


@dataclass(frozen=True)
class TraceRecord:
    """One block access as seen by the cache."""

    time: float
    node: int
    block: int
    #: Reads: "ready" | "unready" | "miss".  Writes (version 2):
    #: "write-ready" | "write-unready" | "write-miss".
    outcome: str
    #: Block read latency experienced by the requester (ms).
    latency: float
    #: Reference-string index that produced the access (-1 if unknown).
    ref_index: int = -1

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        record = parse_record(
            cls,
            line,
            kind="trace",
            required=("time", "node", "block", "outcome", "latency"),
        )
        if record.outcome not in Trace.VALID_OUTCOMES:
            raise TraceFormatError(
                f"trace record outcome {record.outcome!r} is not one of "
                f"{sorted(Trace.VALID_OUTCOMES)}"
            )
        return record


class Trace:
    """An append-only sequence of :class:`TraceRecord`."""

    VALID_OUTCOMES = frozenset(
        {
            "ready",
            "unready",
            "miss",
            "write-ready",
            "write-unready",
            "write-miss",
        }
    )

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self.records: List[TraceRecord] = list(records or [])
        #: The run being recorded (set by :meth:`tap`).
        self._env: Optional["Environment"] = None

    def append(self, record: TraceRecord) -> None:
        if record.outcome not in self.VALID_OUTCOMES:
            raise ValueError(f"invalid outcome {record.outcome!r}")
        self.records.append(record)

    # -- recording ---------------------------------------------------------------

    def tap(self, env: "Environment") -> None:
        """Append every demand read and write of ``env``'s run as it
        completes (the ``fs.read`` / ``fs.write`` probe points)."""
        self._env = env
        env.subscribe("fs.read", self._on_read)
        env.subscribe("fs.write", self._on_write)

    def _on_read(
        self, node: int, block: int, outcome: str, latency: float, ref: int
    ) -> None:
        now = self._env.now if self._env is not None else -1.0
        self.append(TraceRecord(now, node, block, outcome, latency, ref))

    def _on_write(
        self, node: int, block: int, outcome: str, latency: float, ref: int
    ) -> None:
        self._on_read(node, block, f"write-{outcome}", latency, ref)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> TraceRecord:
        return self.records[idx]

    # -- persistence -----------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write as JSON lines under a version-stamped header."""
        path = Path(path)
        header = {
            "format": TRACE_FORMAT_NAME,
            "kind": "access",
            "version": ACCESS_TRACE_VERSION,
        }
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":")))
            fh.write("\n")
            for record in self.records:
                fh.write(record.to_json())
                fh.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a saved trace, tolerating blank/trailing lines.

        Files written before version stamping (no header line) are
        accepted; format violations raise :class:`TraceFormatError` with
        the offending line number.
        """
        path = Path(path)
        records = []
        first_content_line = True
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if first_content_line:
                        first_content_line = False
                        if (
                            parse_header(
                                line,
                                kind="access",
                                max_version=ACCESS_TRACE_VERSION,
                            )
                            is not None
                        ):
                            continue
                    records.append(TraceRecord.from_json(line))
                except TraceFormatError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}")
        return cls(records)

    # -- simple views ------------------------------------------------------------

    def blocks(self) -> List[int]:
        """Block numbers in access order (the merged global string)."""
        return [r.block for r in self.records]

    def by_node(self, node: int) -> "Trace":
        return Trace(r for r in self.records if r.node == node)

    def time_sorted(self) -> "Trace":
        return Trace(sorted(self.records, key=lambda r: (r.time, r.node)))

    def outcome_counts(self) -> dict:
        """Counts per outcome.  The read outcomes are always present;
        write outcomes appear only when the trace contains writes."""
        counts: dict = {"ready": 0, "unready": 0, "miss": 0}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts
