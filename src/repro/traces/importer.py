"""Import simple external block-trace CSV files as replay traces.

The accepted shape is the least common denominator of published block
traces: one row per read with a timestamp, an opaque node/process id, and
a block number.  Header row required; columns beyond the recognized set
are rejected (same stance as the JSONL loaders — silent tolerance hides
typos).

Required columns: ``time``, ``node``, ``block``.
Optional columns: ``compute`` (per-read think time; when absent, derived
from per-node inter-arrival gaps) and ``portion`` (when absent, derived
by sequential-run detection).

Normalizations applied, all recorded in ``meta.extra`` so an import is
auditable:

* rows are stably sorted by timestamp (out-of-order rows are common in
  merged multi-node logs; ties keep file order);
* arbitrary node ids (strings, sparse ints) are remapped to the dense
  ``0..n_nodes-1`` the simulator expects, in order of first appearance;
* ``file_blocks`` is inferred as ``max(block) + 1`` unless given.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..fs.trace import (
    ReplayRecord,
    ReplayTrace,
    TraceFormatError,
    TraceMeta,
)

__all__ = ["import_csv_trace"]

_REQUIRED_COLUMNS = ("time", "node", "block")
_OPTIONAL_COLUMNS = ("compute", "portion")


def _parse_float(path: Path, lineno: int, column: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: column {column!r}: {raw!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise TraceFormatError(
            f"{path}:{lineno}: column {column!r}: {raw!r} is not finite"
        )
    return value


def _parse_int(path: Path, lineno: int, column: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: column {column!r}: {raw!r} is not an integer"
        ) from None


def _derive_portions(blocks: List[int]) -> List[int]:
    """Sequential-run detection: consecutive successors share a portion."""
    portions: List[int] = []
    portion = 0
    for i, block in enumerate(blocks):
        if i and block != blocks[i - 1] + 1:
            portion += 1
        portions.append(portion)
    return portions


def import_csv_trace(
    path: Union[str, Path],
    *,
    workload: str = "imported",
    file_blocks: Optional[int] = None,
    compute_mean: Optional[float] = None,
) -> ReplayTrace:
    """Read ``path`` (block-trace CSV) into a :class:`ReplayTrace`.

    ``file_blocks`` overrides the inferred file size (must cover every
    block referenced); ``compute_mean`` overrides the derived mean (used
    only as metadata / replay-config default, never to scale gaps).
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(f"{path}: empty file (no header)") from None
    columns = [c.strip().lower() for c in header]
    unknown = sorted(
        c for c in columns
        if c not in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS
    )
    if unknown:
        raise TraceFormatError(
            f"{path}: unknown column(s) {unknown}; accepted columns: "
            f"{sorted(_REQUIRED_COLUMNS + _OPTIONAL_COLUMNS)}"
        )
    missing = sorted(set(_REQUIRED_COLUMNS) - set(columns))
    if missing:
        raise TraceFormatError(
            f"{path}: missing required column(s) {missing}"
        )
    if len(set(columns)) != len(columns):
        raise TraceFormatError(f"{path}: duplicate columns in header")
    col = {name: i for i, name in enumerate(columns)}

    # (time, node-key, block, compute?, portion?)
    rows: List[Tuple[float, str, int, Optional[float], Optional[int]]] = []
    for row in reader:
        # The line the record ends on: a quoted field may span lines.
        lineno = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(columns):
            raise TraceFormatError(
                f"{path}:{lineno}: expected {len(columns)} fields, "
                f"got {len(row)}"
            )
        time = _parse_float(path, lineno, "time", row[col["time"]])
        node_key = row[col["node"]].strip()
        if not node_key:
            raise TraceFormatError(f"{path}:{lineno}: empty node id")
        block = _parse_int(path, lineno, "block", row[col["block"]])
        if block < 0:
            raise TraceFormatError(
                f"{path}:{lineno}: negative block {block}"
            )
        compute = (
            _parse_float(path, lineno, "compute", row[col["compute"]])
            if "compute" in col
            else None
        )
        if compute is not None and compute < 0:
            raise TraceFormatError(
                f"{path}:{lineno}: negative compute {compute}"
            )
        portion = (
            _parse_int(path, lineno, "portion", row[col["portion"]])
            if "portion" in col
            else None
        )
        rows.append((time, node_key, block, compute, portion))

    if not rows:
        raise TraceFormatError(f"{path}: no data rows")

    out_of_order = any(
        rows[i][0] < rows[i - 1][0] for i in range(1, len(rows))
    )
    rows.sort(key=lambda r: r[0])  # stable: ties keep file order

    # Dense node ids in order of first appearance after sorting.
    node_map: Dict[str, int] = {}
    for _, node_key, *_ in rows:
        if node_key not in node_map:
            node_map[node_key] = len(node_map)

    # Per-node streams, in sorted-time order.
    per_node: Dict[int, List[Tuple[float, int, Optional[float], Optional[int]]]]
    per_node = {i: [] for i in node_map.values()}
    for time, node_key, block, compute, portion in rows:
        per_node[node_map[node_key]].append((time, block, compute, portion))

    has_compute = "compute" in col
    has_portion = "portion" in col
    records: List[ReplayRecord] = []
    derived_gaps: List[float] = []
    for node_id in sorted(per_node):
        stream = per_node[node_id]
        blocks = [block for _, block, _, _ in stream]
        portions = (
            [p if p is not None else 0 for _, _, _, p in stream]
            if has_portion
            else _derive_portions(blocks)
        )
        for i, (time, block, compute, _) in enumerate(stream):
            if compute is None:
                # Inter-arrival gap to the *next* read on this node is the
                # think time that follows this one; last read thinks 0.
                gap = (
                    max(0.0, stream[i + 1][0] - time)
                    if i + 1 < len(stream)
                    else 0.0
                )
                compute = gap
                derived_gaps.append(gap)
            records.append(
                ReplayRecord(
                    node=node_id,
                    block=block,
                    compute=compute,
                    portion=portions[i],
                    time=time,
                )
            )

    # ReplayTrace.timelines() uses file order per node; emit node-major,
    # time-ordered, which the loop above already produced.
    max_block = max(r.block for r in records)
    if file_blocks is None:
        file_blocks = max_block + 1
    elif max_block >= file_blocks:
        raise TraceFormatError(
            f"{path}: block {max_block} outside declared file of "
            f"{file_blocks} blocks"
        )

    if compute_mean is None:
        computes = [r.compute for r in records]
        compute_mean = sum(computes) / len(computes)

    meta = TraceMeta(
        workload=workload,
        n_nodes=len(node_map),
        file_blocks=file_blocks,
        source="imported",
        crosses_portions=False,
        sync_style="none",
        compute_mean=compute_mean,
        extra={
            "csv": path.name,
            "node_map": {k: v for k, v in node_map.items()},
            "rows": len(records),
            "sorted": out_of_order,
            "compute_derived": not has_compute,
            "portions_derived": not has_portion,
        },
    )
    trace = ReplayTrace(meta, records)
    trace.validate()
    return trace
