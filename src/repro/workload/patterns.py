"""Parallel file access patterns (the taxonomy of Fig. 2).

Six representative patterns (Section IV-B):

========  ======  =========================================================
name      scope   description
========  ======  =========================================================
``lfp``   local   fixed-length, fixed-stride sequential portions per
                  process, at different places in the file for each
``lrp``   local   random-length, random-gap sequential portions per process
``lw``    local   every process reads the *same* region start-to-end
                  (fully overlapped; strong interprocess temporal locality)
``gfp``   global  processes cooperate on globally sequential fixed portions
``grp``   global  processes cooperate on globally sequential random portions
``gw``    global  processes cooperate to read the whole file exactly once
========  ======  =========================================================

Random patterns and the disjoint-irregular local pattern are excluded, as
in the paper.  A pattern is *data*: per-scope reference strings (block
numbers) plus a parallel array of portion ids, so prefetch policies can
honour portion boundaries.  Portion ids are non-decreasing along a string.

Read-write extension (docs/writes.md — the 1989 testbed was read-only):
a pattern may carry a parallel ``ops`` array (0 = read, 1 = whole-block
write).  Three read-write patterns join the matrix:

========== ====== ========================================================
``lfp-rw`` local  read-modify-write over lfp geometry: every block of a
                  node's portions is read, then immediately overwritten
``gw-rw``  global whole-file sweep where every second block's read is
                  followed by a write of that block
``wstream``local  pure write stream: each node overwrites its own private
                  contiguous slice (no reads — drives dirty accumulation
                  and the dirty-ratio throttle)
========== ====== ========================================================

Paper geometry gaps (documented in DESIGN.md §5): the paper does not give
portion lengths/strides; defaults here are ``portion_length=10``,
``portion_stride=21`` for fixed portions and Uniform(4, 16) lengths with
Uniform(0, 20) gaps for random portions.  The default stride is chosen
coprime with the default disk count (20) — a stride that is a multiple of
the disk count aligns every portion onto the same disks and turns the
experiment into a disk-contention pathology instead of a prefetching one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..sim.rng import RandomStreams

__all__ = [
    "PATTERN_NAMES",
    "RW_PATTERN_NAMES",
    "ALL_PATTERN_NAMES",
    "AccessPattern",
    "make_pattern",
    "make_hybrid",
]


PATTERN_NAMES = ("lfp", "lrp", "lw", "gfp", "grp", "gw")

#: Read-write extension patterns (never part of the paper matrix).
RW_PATTERN_NAMES = ("lfp-rw", "gw-rw", "wstream")

#: Everything :func:`make_pattern` accepts.
ALL_PATTERN_NAMES = PATTERN_NAMES + RW_PATTERN_NAMES

#: Patterns whose prefetch policy may run ahead across portion boundaries
#: (regular geometry is predictable; random geometry is not).
_CROSSES_PORTIONS = {
    "lfp": True,
    "lrp": False,
    "lw": True,
    "gfp": True,
    "grp": False,
    "gw": True,
    "lfp-rw": True,
    "gw-rw": True,
    "wstream": True,
}


@dataclass(frozen=True)
class AccessPattern:
    """A fully materialized access pattern for one run."""

    name: str
    #: "local": one string per node, consumed privately.
    #: "global": a single string, consumed cooperatively (self-scheduled).
    scope: str
    file_blocks: int
    #: Reference strings of block numbers (len n_nodes if local, else 1).
    strings: List[np.ndarray]
    #: Portion id per reference, parallel to ``strings``; non-decreasing.
    portions: List[np.ndarray]
    #: May prefetching run ahead into subsequent portions?
    crosses_portions: bool
    #: Per-string override of :attr:`crosses_portions` (hybrid patterns
    #: mix regular and irregular constituents); ``None`` = uniform.
    crosses_by_string: Optional[List[bool]] = None
    #: Operation per reference (0 = read, 1 = whole-block write),
    #: parallel to ``strings``.  ``None`` = all reads (the paper's
    #: read-only patterns — and the proof-of-preservation hinge: the
    #: runner arms the write path only when :attr:`has_writes`).
    ops: Optional[List[np.ndarray]] = None
    #: Recorded compute gap (ms) per reference, parallel to ``strings``
    #: (a trace's; :meth:`~repro.fs.trace.ReplayTrace.to_pattern`).
    #: ``None`` = the application draws Exp(``compute_mean``) instead.
    computes: Optional[List[List[float]]] = None
    #: Recorded barrier visits following each reference, parallel to
    #: ``strings`` (a trace's): the ``"replay"`` sync style's schedule.
    joins: Optional[List[List[int]]] = None

    def __post_init__(self) -> None:
        if self.scope not in ("local", "global"):
            raise ValueError(f"scope {self.scope!r} invalid")
        if len(self.strings) != len(self.portions):
            raise ValueError("strings/portions length mismatch")
        if (
            self.crosses_by_string is not None
            and len(self.crosses_by_string) != len(self.strings)
        ):
            raise ValueError("crosses_by_string length mismatch")
        for s, p in zip(self.strings, self.portions):
            if len(s) != len(p):
                raise ValueError("string and portion arrays differ in length")
            if len(s) and (s.min() < 0 or s.max() >= self.file_blocks):
                raise ValueError("block number out of file range")
            if len(p) > 1 and np.any(np.diff(p) < 0):
                raise ValueError("portion ids must be non-decreasing")
        if self.ops is not None:
            if len(self.ops) != len(self.strings):
                raise ValueError("strings/ops length mismatch")
            for s, o in zip(self.strings, self.ops):
                if len(s) != len(o):
                    raise ValueError("string and op arrays differ in length")
                if len(o) and not np.isin(o, (0, 1)).all():
                    raise ValueError("ops must be 0 (read) or 1 (write)")
        for field_name in ("computes", "joins"):
            per_ref = getattr(self, field_name)
            if per_ref is None:
                continue
            if len(per_ref) != len(self.strings):
                raise ValueError(f"strings/{field_name} length mismatch")
            for s, values in zip(self.strings, per_ref):
                if len(s) != len(values):
                    raise ValueError(
                        f"string and {field_name} lists differ in length"
                    )

    @property
    def total_reads(self) -> int:
        return sum(len(s) for s in self.strings)

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    def string_for(self, node_id: int) -> np.ndarray:
        """The reference string node ``node_id`` participates in."""
        return self.strings[node_id if self.scope == "local" else 0]

    def portions_for(self, node_id: int) -> np.ndarray:
        return self.portions[node_id if self.scope == "local" else 0]

    def crosses_for(self, node_id: int) -> bool:
        """May ``node_id``'s prefetching cross portion boundaries?"""
        if self.crosses_by_string is None:
            return self.crosses_portions
        return self.crosses_by_string[
            node_id if self.scope == "local" else 0
        ]

    def ops_for(self, node_id: int) -> Optional[np.ndarray]:
        """Op array for the string ``node_id`` consumes (None = all reads)."""
        if self.ops is None:
            return None
        return self.ops[node_id if self.scope == "local" else 0]

    def computes_for(self, node_id: int) -> Optional[List[float]]:
        """Recorded compute gaps for the string ``node_id`` consumes
        (None = drawn)."""
        if self.computes is None:
            return None
        return self.computes[node_id if self.scope == "local" else 0]

    def joins_for(self, node_id: int) -> Optional[List[int]]:
        """Recorded barrier visits for the string ``node_id`` consumes
        (None = no recorded schedule)."""
        if self.joins is None:
            return None
        return self.joins[node_id if self.scope == "local" else 0]

    @property
    def has_writes(self) -> bool:
        """Does any reference write?  Gates all write-path wiring: a
        pattern without writes runs the exact pre-write code paths."""
        return self.ops is not None and any(
            len(o) and o.any() for o in self.ops
        )

    @property
    def total_writes(self) -> int:
        if self.ops is None:
            return 0
        return int(sum(int(o.sum()) for o in self.ops))


def _fixed_portion_string(
    n_reads: int,
    base: int,
    portion_length: int,
    portion_stride: int,
    file_blocks: int,
) -> tuple:
    """Regular portions: length L starting at base, base+S, base+2S, …"""
    blocks = np.empty(n_reads, dtype=np.int64)
    portions = np.empty(n_reads, dtype=np.int64)
    pos = 0
    portion = 0
    while pos < n_reads:
        start = (base + portion * portion_stride) % file_blocks
        run = min(portion_length, n_reads - pos)
        for j in range(run):
            blocks[pos] = (start + j) % file_blocks
            portions[pos] = portion
            pos += 1
        portion += 1
    return blocks, portions


def _random_portion_string(
    n_reads: int,
    file_blocks: int,
    rng: RandomStreams,
    stream: str,
    min_len: int = 4,
    max_len: int = 16,
    max_gap: int = 20,
) -> tuple:
    """Irregular portions: random lengths and gaps, wrapping in the file."""
    blocks = np.empty(n_reads, dtype=np.int64)
    portions = np.empty(n_reads, dtype=np.int64)
    pos = 0
    portion = 0
    cursor = rng.uniform_int(f"{stream}/start", 0, file_blocks - 1)
    while pos < n_reads:
        length = rng.uniform_int(f"{stream}/len", min_len, max_len)
        run = min(length, n_reads - pos)
        for j in range(run):
            blocks[pos] = (cursor + j) % file_blocks
            portions[pos] = portion
            pos += 1
        gap = rng.uniform_int(f"{stream}/gap", 0, max_gap)
        cursor = (cursor + run + gap) % file_blocks
        portion += 1
    return blocks, portions


def make_pattern(
    name: str,
    n_nodes: int,
    file_blocks: int = 2000,
    total_reads: Optional[int] = None,
    rng: Optional[RandomStreams] = None,
    portion_length: int = 10,
    portion_stride: int = 21,
) -> AccessPattern:
    """Materialize one of the six patterns.

    Parameters
    ----------
    name:
        One of :data:`PATTERN_NAMES`.
    n_nodes:
        Cooperating processes (paper: 20).
    file_blocks:
        File size in blocks (paper: 2000).
    total_reads:
        Total block reads across all processes.  Default 2000 (the paper's
        standard setting: local patterns read ``total/n`` each; ``lw``
        means every process reads the same ``total/n``-block region).  The
        Section V-E lead experiments pass 40000 for local patterns.
    rng:
        Random streams (required for ``lrp``/``grp``).
    """
    if name not in ALL_PATTERN_NAMES:
        raise ValueError(
            f"unknown pattern {name!r}; pick from {ALL_PATTERN_NAMES}"
        )
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if file_blocks <= 0:
        raise ValueError("file_blocks must be positive")
    total = total_reads if total_reads is not None else 2000
    if total <= 0:
        raise ValueError("total_reads must be positive")
    if name in ("lrp", "grp") and rng is None:
        raise ValueError(f"pattern {name!r} requires an rng")

    if name in RW_PATTERN_NAMES:
        return _make_rw_pattern(
            name, n_nodes, file_blocks, total, portion_length, portion_stride
        )

    crosses = _CROSSES_PORTIONS[name]
    scope = "local" if name in ("lfp", "lrp", "lw") else "global"

    if scope == "local":
        per_node = total // n_nodes
        if per_node <= 0:
            raise ValueError(
                f"total_reads {total} too small for {n_nodes} nodes"
            )
        strings, portions = [], []
        for node in range(n_nodes):
            if name == "lfp":
                # Spread bases over the file AND stagger them across disks
                # (a shared base residue would align all nodes' portions on
                # the same disk subset).
                base = (node * file_blocks) // n_nodes + node
                b, p = _fixed_portion_string(
                    per_node, base, portion_length, portion_stride, file_blocks
                )
            elif name == "lrp":
                if rng is None:
                    raise ValueError("pattern 'lrp' requires an rng")
                b, p = _random_portion_string(
                    per_node, file_blocks, rng, stream=f"lrp/node{node}"
                )
            else:  # lw: everyone reads the same region start-to-end
                region = min(per_node, file_blocks)
                b = np.arange(region, dtype=np.int64)
                p = np.zeros(region, dtype=np.int64)
            strings.append(b)
            portions.append(p)
        return AccessPattern(
            name=name,
            scope=scope,
            file_blocks=file_blocks,
            strings=strings,
            portions=portions,
            crosses_portions=crosses,
        )

    # Global patterns: one shared string.
    if name == "gfp":
        b, p = _fixed_portion_string(
            total, 0, portion_length, portion_stride, file_blocks
        )
    elif name == "grp":
        if rng is None:
            raise ValueError("pattern 'grp' requires an rng")
        b, p = _random_portion_string(
            total, file_blocks, rng, stream="grp/global"
        )
    else:  # gw: the whole file, in order, exactly once
        reads = min(total, file_blocks)
        b = np.arange(reads, dtype=np.int64)
        p = np.zeros(reads, dtype=np.int64)
    return AccessPattern(
        name=name,
        scope=scope,
        file_blocks=file_blocks,
        strings=[b],
        portions=[p],
        crosses_portions=crosses,
    )


def _make_rw_pattern(
    name: str,
    n_nodes: int,
    file_blocks: int,
    total: int,
    portion_length: int,
    portion_stride: int,
) -> AccessPattern:
    """Materialize one of the read-write extension patterns.  ``total``
    budgets *references* (reads + writes), matching the read-only
    patterns' interpretation of ``total_reads``."""
    if name == "gw-rw":
        # Whole-file sweep; every second block's read is followed by a
        # write of the same block (a 2:1 read:write mix with the gw
        # geometry, so prefetching still has a sequential stream).
        sweep = min(max(total * 2 // 3, 1), file_blocks)
        blocks_list: List[int] = []
        ops_list: List[int] = []
        for i in range(sweep):
            blocks_list.append(i)
            ops_list.append(0)
            if i % 2 == 0:
                blocks_list.append(i)
                ops_list.append(1)
        b = np.array(blocks_list, dtype=np.int64)
        o = np.array(ops_list, dtype=np.int64)
        p = np.zeros(len(b), dtype=np.int64)
        return AccessPattern(
            name=name,
            scope="global",
            file_blocks=file_blocks,
            strings=[b],
            portions=[p],
            crosses_portions=_CROSSES_PORTIONS[name],
            ops=[o],
        )

    per_node = total // n_nodes
    if per_node <= 0:
        raise ValueError(f"total_reads {total} too small for {n_nodes} nodes")
    strings, portions, ops = [], [], []
    for node in range(n_nodes):
        if name == "lfp-rw":
            # Read-modify-write over lfp geometry: each block of the
            # node's portions is read, then immediately overwritten.
            base_refs = max(per_node // 2, 1)
            base = (node * file_blocks) // n_nodes + node
            b0, p0 = _fixed_portion_string(
                base_refs, base, portion_length, portion_stride, file_blocks
            )
            b = np.repeat(b0, 2)
            p = np.repeat(p0, 2)
            o = np.tile(np.array([0, 1], dtype=np.int64), base_refs)
        else:  # wstream: pure writes over a private contiguous slice
            start = (node * file_blocks) // n_nodes
            b = ((start + np.arange(per_node)) % file_blocks).astype(np.int64)
            p = np.zeros(per_node, dtype=np.int64)
            o = np.ones(per_node, dtype=np.int64)
        strings.append(b)
        portions.append(p)
        ops.append(o)
    return AccessPattern(
        name=name,
        scope="local",
        file_blocks=file_blocks,
        strings=strings,
        portions=portions,
        crosses_portions=_CROSSES_PORTIONS[name],
        ops=ops,
    )


def make_hybrid(
    assignment: "dict[str, Sequence[int]]",
    n_nodes: int,
    file_blocks: int = 2000,
    reads_per_node: int = 100,
    rng: Optional[RandomStreams] = None,
    portion_length: int = 10,
    portion_stride: int = 21,
) -> AccessPattern:
    """A hybrid pattern: different node subsets run different styles.

    The paper notes such combinations are possible ("it is possible that
    some subset of processors is generating one access pattern while
    another subset is using a different pattern", Section IV-B) but
    excludes them from its mix; we support them as an extension.

    ``assignment`` maps a constituent style to the node ids running it.
    Constituents are the *local* styles — ``lfp``, ``lrp``, ``lw`` — plus
    ``seq``: a private contiguous region per node (each node sequentially
    reads its own ``reads_per_node``-block slice; the local analogue of a
    partitioned gw).  Every node must be assigned exactly once.

    Returns a local-scope :class:`AccessPattern` whose per-string
    portion-crossing flags follow each constituent (``lrp`` nodes do not
    prefetch across portions; the rest do).
    """
    covered = sorted(n for nodes in assignment.values() for n in nodes)
    if covered != list(range(n_nodes)):
        raise ValueError(
            f"assignment must cover each of {n_nodes} nodes exactly once; "
            f"got {covered}"
        )
    known = {"lfp", "lrp", "lw", "seq"}
    unknown = set(assignment) - known
    if unknown:
        raise ValueError(f"unknown constituent styles {sorted(unknown)}")
    if "lrp" in assignment and rng is None:
        raise ValueError("lrp constituent requires an rng")

    strings: List[Optional[np.ndarray]] = [None] * n_nodes
    portions: List[Optional[np.ndarray]] = [None] * n_nodes
    crosses: List[bool] = [True] * n_nodes

    for style, nodes in assignment.items():
        for node in nodes:
            if style == "lfp":
                base = (node * file_blocks) // n_nodes + node
                b, p = _fixed_portion_string(
                    reads_per_node, base, portion_length, portion_stride,
                    file_blocks,
                )
            elif style == "lrp":
                if rng is None:
                    raise ValueError("hybrid style 'lrp' requires an rng")
                b, p = _random_portion_string(
                    reads_per_node, file_blocks, rng,
                    stream=f"hybrid/lrp/node{node}",
                )
                crosses[node] = False
            elif style == "lw":
                region = min(reads_per_node, file_blocks)
                b = np.arange(region, dtype=np.int64)
                p = np.zeros(region, dtype=np.int64)
            else:  # seq: a private contiguous slice
                start = (node * reads_per_node) % file_blocks
                b = (start + np.arange(reads_per_node)) % file_blocks
                b = b.astype(np.int64)
                p = np.zeros(reads_per_node, dtype=np.int64)
            strings[node] = b
            portions[node] = p

    return AccessPattern(
        name="hybrid(" + "+".join(sorted(assignment)) + ")",
        scope="local",
        file_blocks=file_blocks,
        strings=[s for s in strings if s is not None],
        portions=[p for p in portions if p is not None],
        crosses_portions=True,
        crosses_by_string=crosses,
    )
