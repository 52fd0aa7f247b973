"""Offline analysis of recorded traces.

"The exact access pattern is recorded for off-line analysis of prefetching
strategies" (Section IV-C).  These tools answer what-if questions against a
:class:`~repro.fs.trace.ReplayTrace` (what ``trace record``, ``trace
synth`` and ``trace import`` write) without re-running the simulator:

* :func:`lru_hit_ratio` — hit ratio of a pure LRU cache of a given size on
  the merged reference string (caching alone, no prefetching — the paper's
  observation that sequential patterns get ~zero from caching alone);
* :func:`opt_hit_ratio` — Belady's optimal replacement bound;
* :func:`sequentiality` — how sequential the merged string looks from the
  global perspective (what an on-the-fly global detector could exploit);
* :func:`run_lengths` — per-node sequential run lengths (what a local
  portion learner could exploit);
* :func:`reuse_distances` — stack distances, the classical locality
  profile;
* :func:`outcome_counts` — the recording run's access outcomes.

Every measure reads the accesses in one order.  When every record
carries a recorded completion time (recorded and imported traces), that
is ``(time, node)`` order, the merged string the machine produced.
Otherwise (synthetic traces, ``time == -1``) it is file order, which a
generator writes node by node, so the "merged" string is the nodes'
timelines one after another.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List

from ..fs.trace import ReplayRecord, ReplayTrace

__all__ = [
    "PatternClassification",
    "classify_pattern",
    "lru_hit_ratio",
    "opt_hit_ratio",
    "outcome_counts",
    "sequentiality",
    "run_lengths",
    "reuse_distances",
]


def _in_order(trace: ReplayTrace) -> List[ReplayRecord]:
    """The records in analysis order: ``(time, node)`` when every record
    has a recorded time, else file order."""
    records = trace.records
    if all(r.time >= 0.0 for r in records):
        return sorted(records, key=lambda r: (r.time, r.node))
    return list(records)


def _merged_blocks(trace: ReplayTrace) -> List[int]:
    return [r.block for r in _in_order(trace)]


def _blocks_by_node(trace: ReplayTrace) -> Dict[int, List[int]]:
    """Each node's blocks in analysis order, nodes ascending."""
    out: Dict[int, List[int]] = {}
    for r in _in_order(trace):
        out.setdefault(r.node, []).append(r.block)
    return {node: out[node] for node in sorted(out)}


def outcome_counts(trace: ReplayTrace) -> Dict[str, int]:
    """Accesses per recorded outcome, in file order.  The read outcomes
    are always present; a write counts as ``write-<outcome>`` and an
    access with no recorded outcome as ``unrecorded``."""
    counts: Dict[str, int] = {"ready": 0, "unready": 0, "miss": 0}
    for r in trace.records:
        outcome = r.outcome or "unrecorded"
        key = f"write-{outcome}" if r.op == "w" else outcome
        counts[key] = counts.get(key, 0) + 1
    return counts


def lru_hit_ratio(trace: ReplayTrace, cache_blocks: int) -> float:
    """Hit ratio of demand-only LRU caching of ``cache_blocks`` blocks
    over the trace's merged (time-ordered) reference string."""
    if cache_blocks <= 0:
        raise ValueError("cache_blocks must be positive")
    refs = _merged_blocks(trace)
    if not refs:
        return 0.0
    cache: OrderedDict = OrderedDict()
    hits = 0
    for block in refs:
        if block in cache:
            hits += 1
            cache.move_to_end(block)
        else:
            if len(cache) >= cache_blocks:
                cache.popitem(last=False)
            cache[block] = True
    return hits / len(refs)


def opt_hit_ratio(trace: ReplayTrace, cache_blocks: int) -> float:
    """Belady's OPT (furthest-future-use eviction) demand hit ratio."""
    if cache_blocks <= 0:
        raise ValueError("cache_blocks must be positive")
    refs = _merged_blocks(trace)
    if not refs:
        return 0.0

    # Precompute next-use indices.
    INF = len(refs) + 1
    next_use = [INF] * len(refs)
    last_seen: Dict[int, int] = {}
    for i in range(len(refs) - 1, -1, -1):
        block = refs[i]
        next_use[i] = last_seen.get(block, INF)
        last_seen[block] = i

    cache: Dict[int, int] = {}  # block -> its next use index
    hits = 0
    for i, block in enumerate(refs):
        if block in cache:
            hits += 1
            cache[block] = next_use[i]
            continue
        if len(cache) >= cache_blocks:
            # Evict the block used furthest in the future.
            victim = max(cache, key=lambda b: cache[b])
            # Don't bother inserting a block that is itself never reused
            # before the victim.
            if next_use[i] > cache[victim]:
                continue
            del cache[victim]
        cache[block] = next_use[i]
    return hits / len(refs)


def sequentiality(trace: ReplayTrace) -> Dict[str, float]:
    """Global-perspective sequentiality of the merged reference string.

    Returns:

    * ``successor_fraction`` — fraction of accesses whose block is within
      +1 of some block among the previous ``window`` accesses (loose
      "roughly sequential" measure; the paper notes global patterns are
      only *roughly* sequential because of interleaving variation);
    * ``monotone_fraction`` — fraction of accesses that do not move the
      global high-water mark backwards by more than the window.
    """
    refs = _merged_blocks(trace)
    if len(refs) < 2:
        return {"successor_fraction": 1.0, "monotone_fraction": 1.0}
    window = 32
    successor = 0
    monotone = 0
    high = refs[0]
    # maxlen-bounded deque: appends evict the oldest entry in O(1),
    # replacing the old append-then-pop(0) shift.
    recent: Deque[int] = deque([refs[0]], maxlen=window)
    for block in refs[1:]:
        if any(block == r + 1 or block == r for r in recent):
            successor += 1
        if block >= high - window:
            monotone += 1
        high = max(high, block)
        recent.append(block)
    n = len(refs) - 1
    return {
        "successor_fraction": successor / n,
        "monotone_fraction": monotone / n,
    }


def run_lengths(trace: ReplayTrace) -> Dict[int, List[int]]:
    """Sequential run lengths per node (a run = consecutive +1 blocks)."""
    out: Dict[int, List[int]] = {}
    for node, blocks in _blocks_by_node(trace).items():
        runs: List[int] = []
        current = 1
        for prev, cur in zip(blocks, blocks[1:]):
            if cur == prev + 1:
                current += 1
            else:
                runs.append(current)
                current = 1
        if blocks:
            runs.append(current)
        out[node] = runs
    return out


def reuse_distances(trace: ReplayTrace) -> List[int]:
    """LRU stack distances of the merged string (-1 = first reference).

    The paper's cache of 20 demand blocks can only exploit reuse at
    distances < 20; this profile shows why caching alone is useless for
    disjoint sequential patterns (all distances are -1) but good for lw.
    """
    refs = _merged_blocks(trace)
    # The LRU stack mutates at its left end on every reference;
    # deque.appendleft is O(1) where list.insert(0, ...) shifts the
    # whole stack.  index() stays O(depth), which the measure needs
    # anyway.
    stack: Deque[int] = deque()
    out: List[int] = []
    for block in refs:
        try:
            depth = stack.index(block)
        except ValueError:
            out.append(-1)
            stack.appendleft(block)
            continue
        out.append(depth)
        del stack[depth]
        stack.appendleft(block)
    return out


# ---------------------------------------------------------------------------
# Access-pattern classification (the Fig. 2 taxonomy, inferred from traces)
# ---------------------------------------------------------------------------


from dataclasses import dataclass


@dataclass(frozen=True)
class PatternClassification:
    """Where a trace falls in the paper's Fig. 2 taxonomy."""

    #: "local", "global", or "random".
    scope: str
    #: Do different nodes' block sets overlap substantially?
    overlapped: bool
    #: Are sequential portions regular (fixed length) or irregular?
    regular_portions: bool
    #: Best-guess pattern name ("lw", "lfp", "lrp", "gw", "gfp", "grp",
    #: "random").
    name: str
    #: Supporting measurements.
    local_sequentiality: float
    global_sequentiality: float
    overlap_fraction: float
    portion_length_cv: float


def _geometric_intervals(blocks: "set[int]") -> List[tuple]:
    """Maximal runs of consecutive block numbers in a set."""
    if not blocks:
        return []
    ordered = sorted(blocks)
    intervals = []
    start = prev = ordered[0]
    for b in ordered[1:]:
        if b == prev + 1:
            prev = b
            continue
        intervals.append((start, prev))
        start = prev = b
    intervals.append((start, prev))
    return intervals


def _per_node_sequentiality(trace: ReplayTrace) -> float:
    """Mean fraction of each node's accesses that continue a run."""
    fractions = []
    for blocks in _blocks_by_node(trace).values():
        if len(blocks) < 2:
            continue
        seq = sum(1 for a, b in zip(blocks, blocks[1:]) if b == a + 1)
        fractions.append(seq / (len(blocks) - 1))
    return sum(fractions) / len(fractions) if fractions else 0.0


def classify_pattern(trace: ReplayTrace) -> PatternClassification:
    """Place a recorded trace in the paper's Fig. 2 taxonomy.

    Heuristics (thresholds chosen to separate the paper's six patterns
    cleanly; see the tests):

    * *scope*: local if each node's own access stream is mostly
      sequential; else global if the merged stream is; else random.
    * *overlapped*: a substantial fraction of blocks is touched by more
      than one node.
    * *regular portions*: the coefficient of variation of geometric
      portion lengths is small.  Whole-file patterns (one giant portion)
      count as regular.
    """
    records = trace.records
    if not records:
        raise ValueError("cannot classify an empty trace")

    local_seq = _per_node_sequentiality(trace)
    global_seq = sequentiality(trace)["successor_fraction"]

    # Overlap: fraction of distinct blocks accessed by more than one node.
    by_block: Dict[int, set] = {}
    for r in records:
        by_block.setdefault(r.block, set()).add(r.node)
    overlap_fraction = sum(
        1 for nodes in by_block.values() if len(nodes) > 1
    ) / len(by_block)
    overlapped = overlap_fraction > 0.5

    # Portion geometry from the relevant block sets.
    if local_seq >= 0.75:
        scope = "local"
        interval_lengths: List[int] = []
        whole = True
        for node_blocks in _blocks_by_node(trace).values():
            intervals = _geometric_intervals(set(node_blocks))
            interval_lengths.extend(hi - lo + 1 for lo, hi in intervals)
            if len(intervals) > 1:
                whole = False
    elif global_seq >= 0.75:
        scope = "global"
        blocks = {r.block for r in records}
        intervals = _geometric_intervals(blocks)
        interval_lengths = [hi - lo + 1 for lo, hi in intervals]
        whole = len(intervals) == 1
    else:
        scope = "random"
        interval_lengths = []
        whole = False

    if interval_lengths and len(interval_lengths) > 1:
        mean_len = sum(interval_lengths) / len(interval_lengths)
        var = sum((x - mean_len) ** 2 for x in interval_lengths) / len(
            interval_lengths
        )
        cv = (var**0.5) / mean_len if mean_len else 0.0
    else:
        cv = 0.0
    regular = whole or cv < 0.25

    if scope == "random":
        name = "random"
    elif scope == "local":
        if whole and overlapped:
            name = "lw"
        elif regular:
            name = "lfp"
        else:
            name = "lrp"
    else:
        if whole:
            name = "gw"
        elif regular:
            name = "gfp"
        else:
            name = "grp"

    return PatternClassification(
        scope=scope,
        overlapped=overlapped,
        regular_portions=regular,
        name=name,
        local_sequentiality=local_seq,
        global_sequentiality=global_seq,
        overlap_fraction=overlap_fraction,
        portion_length_cv=cv,
    )
