"""Scale sweeps: kernel throughput from 100 to 1000 nodes.

The paper's machine is 20 nodes; this module asks what happens to the
*simulator* (not the simulated machine) as the model grows 50x past
that.  One sweep runs the same workload cell at a ladder of machine
sizes and reports, per scale:

* raw kernel figures — events simulated, wall seconds, events/sec;
* bottleneck attribution — the mean per-node wall-time split from
  :mod:`repro.obs.attribution` and its dominant component, so a sweep
  shows *why* scaling bends (e.g. sync_wait growing superlinearly)
  rather than just that it does.

Workloads are sized proportionally (``reads_per_node`` held constant),
so events grow linearly with nodes and events/sec is comparable across
scales.  Wall-clock is read by design; simlint suppressions mark every
site.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Sequence

from ..experiments.config import ExperimentConfig
from ..obs.attribution import COMPONENTS, dominant_component

__all__ = [
    "DEFAULT_SCALES",
    "run_scale_sweep",
]

#: The default ladder: 5x to 50x the paper's 20-node machine.
DEFAULT_SCALES = (100, 250, 500, 1000)


def _mean_attribution(
    node_attribution: List[Dict[str, float]],
) -> Dict[str, float]:
    """Mean per-node wall-time split, in COMPONENTS order."""
    n = len(node_attribution)
    if n == 0:
        return {name: 0.0 for name in COMPONENTS}
    return {
        name: sum(entry[name] for entry in node_attribution) / n
        for name in COMPONENTS
    }


def run_scale_sweep(
    scales: Sequence[int] = DEFAULT_SCALES,
    seed: int = 1,
    reads_per_node: int = 20,
    pattern: str = "gw",
    sync_style: str = "none",
) -> Dict[str, Any]:
    """Run the sweep and return a JSON-able report.

    Each scale ``n`` simulates an ``n``-node, ``n``-disk machine reading
    ``n * reads_per_node`` blocks under ``pattern``.  The report's
    ``entries`` list one dict per scale, in ascending order.
    """
    from ..experiments.runner import run_experiment

    entries: List[Dict[str, Any]] = []
    for n in sorted(scales):
        total = n * reads_per_node
        config = ExperimentConfig(
            pattern=pattern,
            sync_style=sync_style,
            n_nodes=n,
            n_disks=n,
            file_blocks=total,
            total_reads=total,
            seed=seed,
        )
        start = time.perf_counter()  # simlint: allow-wallclock
        result = run_experiment(config)
        wall = time.perf_counter() - start  # simlint: allow-wallclock
        wall = max(wall, 1e-9)
        attribution = _mean_attribution(result.node_attribution)
        entries.append(
            {
                "n_nodes": n,
                "n_disks": n,
                "total_reads": total,
                "n_events": result.n_events,
                "wall_s": wall,
                "events_per_s": result.n_events / wall,
                "sim_time_ms": result.total_time,
                "attribution_mean_ms": attribution,
                "bottleneck": dominant_component(attribution),
            }
        )
    return {
        "pattern": pattern,
        "sync_style": sync_style,
        "seed": seed,
        "reads_per_node": reads_per_node,
        "entries": entries,
    }

