"""Synthetic trace generators beyond the paper's six patterns.

The paper's workload mix (Fig. 2) is all steady-state: every process runs
one access style at one intensity for the whole run.  These generators
produce :class:`~repro.fs.trace.ReplayTrace` workloads that break
that assumption — the shapes real parallel programs (and adversaries)
actually exhibit:

``bursty``
    I/O bursts separated by long think times: sequential runs read nearly
    back-to-back, then the process computes for a multiple of the paper's
    per-block compute mean.  Stresses the idle-time detector and the
    prefetched-unused budget (deep prefetching into a burst pays off only
    if the budget survives the think gap).
``phased``
    Regime switching: all nodes move together through alternating phases
    of sequential scanning (predictable, prefetchable) and uniform random
    access (unpredictable).  Tests how fast a policy's benefit collapses
    and recovers at phase boundaries.
``skewed``
    Zipf-like hot-block skew shared by every node: a few blocks absorb
    most accesses.  Interprocess temporal locality does the caching work;
    sequential lookahead is nearly worthless.
``mixed``
    A static partition of the machine: one third sequential scanners, one
    third bursty, one third skewed — the multi-workload analogue of the
    paper's hybrid-pattern remark (Section IV-B).

Any generator turns read-write with ``write_fraction``: that fraction of
each node's accesses (Bernoulli, dedicated stream) becomes whole-block
writes, exercising the writeback subsystem (:mod:`repro.fs.writeback`)
under irregular timing the six paper patterns never produce.

Every draw flows through named :class:`~repro.sim.rng.RandomStreams`
streams, so a generator's output is a pure function of its parameters and
seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..sim.rng import RandomStreams
from ..fs.trace import ReplayRecord, ReplayTrace, TraceMeta

__all__ = ["GENERATOR_NAMES", "make_synthetic_trace"]

GENERATOR_NAMES = ("bursty", "phased", "skewed", "mixed")


def _finish_node(
    records: List[ReplayRecord],
    node: int,
    blocks: List[int],
    portions: List[int],
    computes: List[float],
    sync_every: int,
    ops: Optional[List[int]] = None,
) -> None:
    """Assemble one node's timeline, adding per-proc-style sync visits."""
    reads = 0
    for idx, (block, portion, compute) in enumerate(
        zip(blocks, portions, computes)
    ):
        reads += 1
        joins = 1 if sync_every > 0 and reads % sync_every == 0 else 0
        records.append(
            ReplayRecord(
                node=node,
                block=block,
                compute=compute,
                portion=portion,
                sync_joins=joins,
                op="w" if ops is not None and ops[idx] else "r",
            )
        )


def _bursty_node(
    node: int,
    n_nodes: int,
    file_blocks: int,
    reads: int,
    rng: RandomStreams,
    compute_mean: float,
    burst_min: int,
    burst_max: int,
    think_factor: float,
) -> tuple:
    """Sequential bursts from a wandering cursor, think gap between."""
    stream = f"traces/bursty/node{node}"
    blocks: List[int] = []
    portions: List[int] = []
    computes: List[float] = []
    cursor = (node * file_blocks) // n_nodes
    portion = 0
    while len(blocks) < reads:
        burst = rng.uniform_int(f"{stream}/len", burst_min, burst_max)
        burst = min(burst, reads - len(blocks))
        for j in range(burst):
            blocks.append((cursor + j) % file_blocks)
            portions.append(portion)
            # Within a burst: near back-to-back issue.
            computes.append(
                rng.exponential(f"{stream}/intra", compute_mean * 0.1)
            )
        # The burst's last read absorbs the think time.
        computes[-1] = rng.exponential(
            f"{stream}/think", compute_mean * think_factor
        )
        cursor = rng.uniform_int(f"{stream}/jump", 0, file_blocks - 1)
        portion += 1
    return blocks, portions, computes


def _phased_node(
    node: int,
    n_nodes: int,
    file_blocks: int,
    reads: int,
    rng: RandomStreams,
    compute_mean: float,
    phase_length: int,
) -> tuple:
    """Alternate sequential-scan and uniform-random regimes."""
    stream = f"traces/phased/node{node}"
    blocks: List[int] = []
    portions: List[int] = []
    computes: List[float] = []
    base = (node * file_blocks) // n_nodes
    portion = 0
    for idx in range(reads):
        phase = idx // phase_length
        at_boundary = idx % phase_length == 0
        if phase % 2 == 0:
            # Sequential regime: one portion per phase.
            if at_boundary and idx:
                portion += 1
            blocks.append((base + idx) % file_blocks)
        else:
            # Random regime: no discernible portions — every read its own.
            portion += 1
            blocks.append(
                rng.uniform_int(f"{stream}/rand", 0, file_blocks - 1)
            )
        portions.append(portion)
        computes.append(rng.exponential(f"{stream}/compute", compute_mean))
    return blocks, portions, computes


def _zipf_cdf(file_blocks: int, alpha: float) -> np.ndarray:
    """Cumulative Zipf(alpha) weights over block ranks 1..file_blocks."""
    weights = 1.0 / np.power(
        np.arange(1, file_blocks + 1, dtype=np.float64), alpha
    )
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _skewed_node(
    node: int,
    file_blocks: int,
    reads: int,
    rng: RandomStreams,
    compute_mean: float,
    cdf: np.ndarray,
) -> tuple:
    """Hot-block skew: rank r drawn Zipf-like, mapped to a fixed block."""
    stream = f"traces/skewed/node{node}"
    blocks: List[int] = []
    portions: List[int] = []
    computes: List[float] = []
    for idx in range(reads):
        u = rng.uniform(f"{stream}/rank", 0.0, 1.0)
        rank = int(np.searchsorted(cdf, u, side="right"))
        # Spread ranks over the file so the hot set is not one dense run
        # (rank r lives at block (r * stride) % file_blocks).
        block = (rank * 37) % file_blocks
        blocks.append(block)
        portions.append(idx)  # irregular: every read its own portion
        computes.append(rng.exponential(f"{stream}/compute", compute_mean))
    return blocks, portions, computes


def _seq_node(
    node: int, file_blocks: int, reads: int, rng: RandomStreams,
    compute_mean: float,
) -> tuple:
    """A private contiguous scan (the hybrid 'seq' constituent)."""
    stream = f"traces/seq/node{node}"
    start = (node * reads) % file_blocks
    blocks = [(start + j) % file_blocks for j in range(reads)]
    portions = [0] * reads
    computes = [
        rng.exponential(f"{stream}/compute", compute_mean)
        for _ in range(reads)
    ]
    return blocks, portions, computes


def make_synthetic_trace(
    kind: str,
    n_nodes: int,
    file_blocks: int = 2000,
    reads_per_node: int = 100,
    seed: int = 1,
    *,
    compute_mean: float = 30.0,
    sync_every: int = 0,
    burst_min: int = 4,
    burst_max: int = 12,
    think_factor: float = 8.0,
    phase_length: int = 20,
    zipf_alpha: float = 1.1,
    write_fraction: float = 0.0,
) -> ReplayTrace:
    """Generate one synthetic replay trace.

    Parameters mirror the paper's sizing defaults (20 nodes, 2000-block
    file, ~100 reads per process, 30 ms compute).  ``sync_every`` adds a
    per-proc-style barrier visit after every that-many reads per node
    (0 = no synchronization).  ``write_fraction`` converts that fraction
    of each node's accesses (Bernoulli per access, own RNG stream) into
    whole-block writes; 0 draws nothing and reproduces the read-only
    traces bit for bit.
    """
    if kind not in GENERATOR_NAMES:
        raise ValueError(
            f"unknown generator {kind!r}; pick from {GENERATOR_NAMES}"
        )
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if file_blocks <= 0:
        raise ValueError("file_blocks must be positive")
    if reads_per_node <= 0:
        raise ValueError("reads_per_node must be positive")
    if sync_every < 0:
        raise ValueError("sync_every must be non-negative")
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError("write_fraction must be in [0, 1]")

    rng = RandomStreams(seed)
    params: Dict[str, object] = {
        "reads_per_node": reads_per_node,
        "sync_every": sync_every,
    }
    if write_fraction > 0.0:
        params["write_fraction"] = write_fraction
    #: Sequential-ish generators let policies run ahead; skew/random do not.
    crosses = kind in ("bursty", "phased")
    records: List[ReplayRecord] = []
    # Cheap enough to build unconditionally; only skewed/mixed draw on it.
    cdf = _zipf_cdf(file_blocks, zipf_alpha)

    for node in range(n_nodes):
        if kind == "bursty":
            blocks, portions, computes = _bursty_node(
                node, n_nodes, file_blocks, reads_per_node, rng,
                compute_mean, burst_min, burst_max, think_factor,
            )
            params.update(
                burst_min=burst_min, burst_max=burst_max,
                think_factor=think_factor,
            )
        elif kind == "phased":
            blocks, portions, computes = _phased_node(
                node, n_nodes, file_blocks, reads_per_node, rng,
                compute_mean, phase_length,
            )
            params.update(phase_length=phase_length)
        elif kind == "skewed":
            blocks, portions, computes = _skewed_node(
                node, file_blocks, reads_per_node, rng, compute_mean, cdf
            )
            params.update(zipf_alpha=zipf_alpha)
        else:  # mixed: thirds of the machine run different styles
            style = ("seq", "bursty", "skewed")[(3 * node) // n_nodes]
            if style == "seq":
                blocks, portions, computes = _seq_node(
                    node, file_blocks, reads_per_node, rng, compute_mean
                )
            elif style == "bursty":
                blocks, portions, computes = _bursty_node(
                    node, n_nodes, file_blocks, reads_per_node, rng,
                    compute_mean, burst_min, burst_max, think_factor,
                )
            else:
                blocks, portions, computes = _skewed_node(
                    node, file_blocks, reads_per_node, rng, compute_mean,
                    cdf,
                )
            params.update(zipf_alpha=zipf_alpha)
        ops: Optional[List[int]] = None
        if write_fraction > 0.0:
            # Own stream, drawn only when asked: write_fraction=0 makes
            # zero draws and reproduces the read-only trace exactly.
            ops = [
                int(
                    rng.uniform(f"traces/writes/node{node}", 0.0, 1.0)
                    < write_fraction
                )
                for _ in blocks
            ]
        _finish_node(
            records, node, blocks, portions, computes, sync_every, ops
        )

    meta = TraceMeta(
        workload=kind,
        n_nodes=n_nodes,
        file_blocks=file_blocks,
        source="synthetic",
        seed=seed,
        crosses_portions=crosses,
        sync_style="per-proc" if sync_every else "none",
        compute_mean=compute_mean,
        extra={"generator": kind, "params": params},
    )
    trace = ReplayTrace(meta, records)
    trace.validate()
    return trace
