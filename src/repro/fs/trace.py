"""The trace format: one versioned JSON-lines file per recorded workload.

"The exact access pattern is recorded for off-line analysis of prefetching
strategies" (Section IV-C).  A *replay trace* describes one workload as
the simulator drives it: per-node timelines of block accesses (reads and,
since version 2, writes), the compute gap that follows each access,
portion structure for the prefetch policies, and the synchronization
visits each access triggered.  Read latencies, hit waits, disk queueing
and barrier waits are not needed to replay: they re-emerge from the
simulation when the trace is driven through the full stack
(:mod:`repro.traces.replay`).  A recorded trace also keeps what the
recording run observed of each access (time, outcome, latency, reference
index), which :mod:`repro.experiments.analysis` reads offline.

File layout (JSON lines)::

    {"format":"rapid-transit-trace","kind":"replay","version":2,"meta":{…}}
    {"node":0,"block":17,"compute":28.4,"portion":0,"sync_joins":0,…}
    …

The header's ``meta`` object is a :class:`TraceMeta`, whose fields are
checked against their annotations (:mod:`repro.typecheck`).  Records
carry the replay fields (``node``, ``block``, ``compute``, ``portion``,
``sync_joins``, and since version 2 ``op`` — ``"r"`` or ``"w"``) plus
optional provenance from the recording run (``time``, ``outcome``,
``latency``, ``ref_index``).  A line that is not UTF-8 or not JSON, an
unknown, missing or mistyped field, a bad header and a structural
violation each raise :class:`TraceFormatError` naming the file, so
format drift never passes silently.  Version-1 files (read-only
vocabulary, no ``op`` field) still load; a file *claiming* version 1
while holding write records is rejected — writes are a version-2
concept.

Per-node replay order is the order of a node's records within the file.

The module imports nothing from :mod:`repro` at load time but the type
checker, so the runner imports it eagerly: ``RunResult.trace`` is a
:class:`ReplayTrace`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..typecheck import check_field_types

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workload.patterns import AccessPattern

__all__ = [
    "REPLAY_TRACE_KIND",
    "REPLAY_TRACE_VERSION",
    "TRACE_FORMAT_NAME",
    "ReplayRecord",
    "ReplayTrace",
    "TraceFormatError",
    "TraceMeta",
    "parse_header",
]

#: Envelope name of every trace file this project writes.
TRACE_FORMAT_NAME = "rapid-transit-trace"
REPLAY_TRACE_KIND = "replay"
#: Version 2 added the per-record ``op`` field ("r" | "w").  Version-1
#: files still load (every record is a read).
REPLAY_TRACE_VERSION = 2

#: Legal values of :attr:`ReplayRecord.op`.
_OPS = ("r", "w")

#: Trace provenance classes.
_SOURCES = ("recorded", "synthetic", "imported")

#: JSON value types accepted for each record-field annotation.  A JSON
#: ``true`` is never a number, though Python's ``bool`` is an ``int``.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


class TraceFormatError(ValueError):
    """A trace file or record does not match the documented format."""


def parse_header(line: str) -> Tuple[int, Any]:
    """Parse a header line; return its version and its ``meta`` value.

    Raises :class:`TraceFormatError` for a line that is not a header, a
    header of another kind (such as the retired ``"access"`` traces), or
    an unsupported version.
    """
    try:
        data = json.loads(line)
    except (ValueError, RecursionError):
        data = None
    if not isinstance(data, dict) or data.get("format") != TRACE_FORMAT_NAME:
        raise TraceFormatError(
            f"not a replay trace (missing '{TRACE_FORMAT_NAME}' header line)"
        )
    found_kind = data.get("kind")
    if found_kind != REPLAY_TRACE_KIND:
        raise TraceFormatError(
            f"trace file holds a {found_kind!r} trace, "
            f"expected {REPLAY_TRACE_KIND!r}"
        )
    version = data.get("version")
    if (
        isinstance(version, bool)
        or not isinstance(version, int)
        or not 1 <= version <= REPLAY_TRACE_VERSION
    ):
        raise TraceFormatError(
            f"unsupported replay trace version {version!r} "
            f"(this build reads versions 1..{REPLAY_TRACE_VERSION})"
        )
    return version, data.get("meta")


@dataclass(frozen=True)
class TraceMeta:
    """Header metadata: everything replay needs beyond the records."""

    #: Human-readable workload name ("gw", "bursty", an import label, …).
    workload: str
    n_nodes: int
    file_blocks: int
    #: "recorded" | "synthetic" | "imported".
    source: str = "recorded"
    #: Seed of the producing run/generator (provenance; replay re-seeds).
    seed: Optional[int] = None
    #: May prefetch policies run ahead across portion boundaries?
    crosses_portions: bool = False
    #: Sync style of the producing run (provenance only: the joins
    #: themselves are recorded per read).
    sync_style: str = "none"
    #: Mean compute gap of the producing run, ms (provenance only).
    compute_mean: float = 0.0
    #: Free-form provenance (e.g. importer node-id mapping).
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        try:
            check_field_types(self)
        except TypeError as exc:
            raise TraceFormatError(f"trace meta field {exc}") from None
        if self.n_nodes <= 0:
            raise TraceFormatError(
                f"n_nodes must be positive, got {self.n_nodes}"
            )
        if self.file_blocks <= 0:
            raise TraceFormatError(
                f"file_blocks must be positive, got {self.file_blocks}"
            )
        if self.source not in _SOURCES:
            raise TraceFormatError(
                f"unknown trace source {self.source!r}; pick from {_SOURCES}"
            )
        if not math.isfinite(self.compute_mean):
            raise TraceFormatError(
                f"compute_mean must be finite, got {self.compute_mean}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Any) -> "TraceMeta":
        if not isinstance(data, dict):
            raise TraceFormatError(
                f"trace meta must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TraceFormatError(
                f"unknown trace meta field(s) {unknown}; "
                f"known fields: {sorted(known)}"
            )
        missing = sorted({"workload", "n_nodes", "file_blocks"} - set(data))
        if missing:
            raise TraceFormatError(
                f"trace meta missing required field(s) {missing}"
            )
        return cls(**data)


@dataclass(frozen=True)
class ReplayRecord:
    """One replayable access: what to touch, then how long to compute."""

    node: int
    block: int
    #: Compute gap after this access completes, ms (CPU held).
    compute: float = 0.0
    #: Portion id; non-decreasing along each node's timeline.
    portion: int = 0
    #: Barrier visits owed after this access's compute gap.
    sync_joins: int = 0
    #: "r" (demand read) or "w" (whole-block overwrite).  Version-1
    #: records carry no ``op`` and default to "r".
    op: str = "r"

    # Provenance from the recording run (not used by replay).
    #: Completion time observed when recording (-1 if not recorded).
    time: float = -1.0
    #: "ready" | "unready" | "miss" | "" (unknown).
    outcome: str = ""
    #: Observed access latency, ms (-1 if not recorded).
    latency: float = -1.0
    #: Index in the originating pattern's reference string (-1 if n/a).
    ref_index: int = -1

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "ReplayRecord":
        """Parse one record line.

        Raises :class:`TraceFormatError` naming the problem: invalid
        JSON, a non-object, an unknown or missing field, or a field whose
        JSON type does not match its annotation.
        """
        try:
            data = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Not JSON, an integer too long to convert, or nested too
            # deeply to parse.
            raise TraceFormatError(
                f"invalid JSON in replay record: {exc}"
            ) from None
        if not isinstance(data, dict):
            raise TraceFormatError(
                "replay record must be a JSON object, "
                f"got {type(data).__name__}"
            )
        annotations = {f.name: str(f.type) for f in fields(cls)}
        unknown = sorted(set(data) - set(annotations))
        if unknown:
            raise TraceFormatError(
                f"unknown replay record field(s) {unknown}; "
                f"known fields: {sorted(annotations)}"
            )
        missing = sorted({"node", "block"} - set(data))
        if missing:
            raise TraceFormatError(
                f"replay record missing required field(s) {missing}"
            )
        for name, value in data.items():
            expected = annotations[name]
            if isinstance(value, bool) or not isinstance(
                value, _JSON_TYPES[expected]
            ):
                raise TraceFormatError(
                    f"replay record field {name!r} must be {expected}, "
                    f"got {value!r}"
                )
        return cls(**data)


class ReplayTrace:
    """A replay trace: header metadata plus the record stream."""

    def __init__(
        self,
        meta: TraceMeta,
        records: Optional[Iterable[ReplayRecord]] = None,
    ) -> None:
        self.meta = meta
        self.records: List[ReplayRecord] = list(records or [])

    def append(self, record: ReplayRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ReplayRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> ReplayRecord:
        return self.records[idx]

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants replay depends on.

        Raises :class:`TraceFormatError` on the first violation: node id
        out of range, block outside the file, a non-finite compute gap,
        time or latency, a negative compute gap or join count, an unknown
        op, or a node timeline whose portion ids decrease.
        """
        meta = self.meta
        last_portion: Dict[int, int] = {}
        for i, rec in enumerate(self.records):
            where = f"record {i}"
            if rec.op not in _OPS:
                raise TraceFormatError(
                    f"{where}: unknown op {rec.op!r}; pick from {_OPS}"
                )
            if not 0 <= rec.node < meta.n_nodes:
                raise TraceFormatError(
                    f"{where}: node {rec.node} outside 0..{meta.n_nodes - 1}"
                )
            if not 0 <= rec.block < meta.file_blocks:
                raise TraceFormatError(
                    f"{where}: block {rec.block} outside "
                    f"0..{meta.file_blocks - 1}"
                )
            for name in ("compute", "time", "latency"):
                value = getattr(rec, name)
                if not math.isfinite(value):
                    raise TraceFormatError(
                        f"{where}: {name} {value} is not finite"
                    )
            if rec.compute < 0:
                raise TraceFormatError(
                    f"{where}: negative compute gap {rec.compute}"
                )
            if rec.sync_joins < 0:
                raise TraceFormatError(
                    f"{where}: negative sync_joins {rec.sync_joins}"
                )
            prev = last_portion.get(rec.node)
            if prev is not None and rec.portion < prev:
                raise TraceFormatError(
                    f"{where}: node {rec.node} portion id decreases "
                    f"({prev} -> {rec.portion})"
                )
            last_portion[rec.node] = rec.portion
        if not self.records:
            raise TraceFormatError("trace holds no records")

    # -- persistence ------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        header = {
            "format": TRACE_FORMAT_NAME,
            "kind": REPLAY_TRACE_KIND,
            "version": REPLAY_TRACE_VERSION,
            "meta": self.meta.to_dict(),
        }
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, separators=(",", ":")))
            fh.write("\n")
            for record in self.records:
                fh.write(record.to_json())
                fh.write("\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReplayTrace":
        """Load and validate a replay trace.

        Blank and trailing lines are tolerated.  Every format violation
        raises :class:`TraceFormatError` naming the file, and the line
        where there is one.
        """
        path = Path(path)
        meta: Optional[TraceMeta] = None
        version = REPLAY_TRACE_VERSION
        records: List[ReplayRecord] = []
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    if meta is None:
                        version, meta_data = parse_header(line)
                        meta = TraceMeta.from_dict(meta_data)
                        continue
                    record = ReplayRecord.from_json(line)
                    if record.op == "w" and version < 2:
                        raise TraceFormatError(
                            f"write record in a version-{version} replay "
                            f"trace; writes (op=\"w\") need version 2 — "
                            f"fix the header or re-export"
                        )
                except UnicodeDecodeError as exc:
                    raise TraceFormatError(
                        f"{path}:{lineno}: not UTF-8 text "
                        f"({exc.reason} at byte {exc.start})"
                    ) from None
                except TraceFormatError as exc:
                    raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
                records.append(record)
        if meta is None:
            raise TraceFormatError(f"{path}: empty trace file (no header)")
        trace = cls(meta, records)
        try:
            trace.validate()
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        return trace

    # -- replay views -----------------------------------------------------------

    def timelines(self) -> List[List[ReplayRecord]]:
        """Per-node replay timelines, in file order (index = node id)."""
        out: List[List[ReplayRecord]] = [[] for _ in range(self.meta.n_nodes)]
        for rec in self.records:
            out[rec.node].append(rec)
        return out

    def to_pattern(self) -> "AccessPattern":
        """The trace as a local-scope :class:`AccessPattern`.

        Each node's timeline becomes its private reference string, which
        lets the whole prefetch-policy stack (oracle, OBL, portion,
        global-seq) run unmodified over a replayed workload.  Write
        records become ``ops`` entries; a trace with no writes yields
        ``ops=None`` so read-only replays stay on the read-only path.
        Each record's compute gap and barrier visits become ``computes``
        and ``joins`` entries, which the application loop and the
        ``"replay"`` sync style replay.
        """
        # The workload layer sits above fs/: import it on use.
        from ..workload.patterns import AccessPattern

        strings = []
        portions = []
        ops = []
        computes = []
        joins = []
        any_writes = False
        for timeline in self.timelines():
            strings.append(
                np.array([r.block for r in timeline], dtype=np.int64)
            )
            portions.append(
                np.array([r.portion for r in timeline], dtype=np.int64)
            )
            node_ops = np.array(
                [1 if r.op == "w" else 0 for r in timeline], dtype=np.int64
            )
            ops.append(node_ops)
            if len(node_ops) and node_ops.any():
                any_writes = True
            computes.append([r.compute for r in timeline])
            joins.append([r.sync_joins for r in timeline])
        return AccessPattern(
            name=f"trace:{self.meta.workload}",
            scope="local",
            file_blocks=self.meta.file_blocks,
            strings=strings,
            portions=portions,
            crosses_portions=self.meta.crosses_portions,
            ops=ops if any_writes else None,
            computes=computes,
            joins=joins,
        )

    # -- summaries --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Descriptive statistics for ``rapid-transit trace stats``."""
        timelines = self.timelines()
        blocks = [r.block for r in self.records]
        computes = [r.compute for r in self.records]
        n = len(self.records)
        successor = 0
        for timeline in timelines:
            for prev, nxt in zip(timeline, timeline[1:]):
                if nxt.block == prev.block + 1:
                    successor += 1
        denom = sum(max(0, len(t) - 1) for t in timelines)
        counts: Dict[int, int] = {}
        for b in blocks:
            counts[b] = counts.get(b, 0) + 1
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        return {
            "workload": self.meta.workload,
            "source": self.meta.source,
            "n_records": n,
            "n_writes": sum(1 for r in self.records if r.op == "w"),
            "n_nodes": self.meta.n_nodes,
            "file_blocks": self.meta.file_blocks,
            "distinct_blocks": len(counts),
            "reads_per_node": [len(t) for t in timelines],
            "compute_total": sum(computes),
            "compute_mean": sum(computes) / n if n else 0.0,
            "sync_joins": sum(r.sync_joins for r in self.records),
            "sequentiality": successor / denom if denom else 0.0,
            "hot_blocks": top,
        }
