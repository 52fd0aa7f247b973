#!/usr/bin/env python
"""Writing your own prefetch policy.

Scenario: your application reads every k-th block of a matrix file (a
strided column scan).  None of the built-in predictors target constant
strides, so we implement a tiny stride-detecting policy against the
public ``PrefetchPolicy`` contract and wire the whole testbed together by
hand — environment, machine, file, cache, daemons, applications — which
doubles as a tour of the library's composition points.

Run:  python examples/custom_policy.py
"""

from typing import Optional, Tuple

import numpy as np

from repro.fs import BlockCache, CacheConfig, File, FileServer
from repro.machine import Machine, MachineConfig
from repro.metrics import RunMetrics, render_table
from repro.prefetch import PrefetchPolicy, prefetch_daemon
from repro.sim import Environment, RandomStreams
from repro.workload import ProgressTracker, application, make_sync
from repro.workload.patterns import AccessPattern


class StridePolicy(PrefetchPolicy):
    """Detects a constant per-node stride and prefetches along it."""

    name = "stride"

    def __init__(self, file_blocks: int, max_ahead: int = 3) -> None:
        super().__init__()
        self.file_blocks = file_blocks
        self.max_ahead = max_ahead
        self._history: dict = {}     # node -> last two blocks
        self._claimed: set = set()
        self._reserved: set = set()

    def observe(self, node_id: int, block: int) -> None:
        prev = self._history.get(node_id, ())
        self._history[node_id] = (prev[-1], block) if prev else (block,)

    def _stride(self, node_id: int) -> Optional[int]:
        hist = self._history.get(node_id, ())
        if len(hist) < 2:
            return None
        stride = hist[1] - hist[0]
        return stride if stride > 0 else None

    def peek(self, node_id: int) -> Optional[Tuple[int, int]]:
        stride = self._stride(node_id)
        if stride is None:
            return None
        last = self._history[node_id][-1]
        for k in range(1, self.max_ahead + 1):
            candidate = last + k * stride
            if candidate >= self.file_blocks:
                return None
            if (
                candidate not in self._claimed
                and candidate not in self._reserved
                and not self._in_cache(candidate)
            ):
                self._reserved.add(candidate)
                return -1, candidate
        return None

    def commit(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)
        self._claimed.add(block)

    def mark_covered(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)
        self._claimed.add(block)

    def abort(self, node_id: int, ref_index: int, block: int) -> None:
        self._reserved.discard(block)

    def exhausted(self, node_id: int) -> bool:
        return False


def strided_pattern(n_nodes: int, file_blocks: int, stride: int,
                    reads_per_node: int) -> AccessPattern:
    """Each node scans one 'column': blocks node, node+stride, ..."""
    strings, portions = [], []
    for node in range(n_nodes):
        blocks = (node + stride * np.arange(reads_per_node)) % file_blocks
        strings.append(blocks.astype(np.int64))
        portions.append(np.zeros(reads_per_node, dtype=np.int64))
    return AccessPattern(
        name="strided",
        scope="local",
        file_blocks=file_blocks,
        strings=strings,
        portions=portions,
        crosses_portions=True,
    )


def run_with_policy(policy: Optional[PrefetchPolicy], seed: int = 1):
    """Assemble the testbed by hand and run the strided workload."""
    n_nodes = 8
    env = Environment()
    rng = RandomStreams(seed)
    machine = Machine(env, MachineConfig(n_nodes=n_nodes, n_disks=n_nodes))
    file = File.interleaved("matrix", 1600, n_nodes)
    pattern = strided_pattern(
        n_nodes, file_blocks=1600, stride=n_nodes, reads_per_node=150
    )
    tracker = ProgressTracker(pattern, n_nodes)
    metrics = RunMetrics(env, n_nodes)
    cache = BlockCache(env, machine, file, CacheConfig())
    server = FileServer(cache)
    sync = make_sync("per-proc", env, n_nodes, pattern)

    if policy is not None:
        policy.bind(cache)
        for node in machine.nodes:
            prefetch_daemon(node, cache, policy)

    apps = [
        env.process(
            application(node, server, tracker, sync, pattern, rng, 20.0)
        )
        for node in machine.nodes
    ]
    metrics.begin_run()
    env.run(until=env.all_of(apps))
    metrics.end_run()
    return metrics


def main() -> None:
    baseline = run_with_policy(None)
    stride = run_with_policy(StridePolicy(1600))

    rows = [
        ("total time (ms)", baseline.total_time, stride.total_time),
        ("avg read time (ms)", baseline.avg_read_time,
         stride.avg_read_time),
        ("hit ratio", baseline.hit_ratio, stride.hit_ratio),
        ("blocks prefetched", baseline.blocks_prefetched,
         stride.blocks_prefetched),
    ]
    print(render_table(
        ["measure", "no prefetch", "stride policy"],
        rows,
        title="Strided column scan (8 nodes, stride 8, 1600-block file)",
    ))
    improvement = 100.0 * (
        baseline.total_time - stride.total_time
    ) / baseline.total_time
    print(f"\nCustom stride policy saved {improvement:.0f}% — a pattern no")
    print("sequential read-ahead would catch (block i+1 is never wanted).")


if __name__ == "__main__":
    main()
