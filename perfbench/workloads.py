"""The benchmark's four workloads, each a fixed list of simulations.

A workload's simulation list is a pure function of ``(name, seed,
sizing)``.  Cell ``k`` of a run with seed ``s`` simulates with seed
``1000 * s + k``, and the sides of a paired comparison (oracle vs none,
healthy vs faulted, obs on vs off) share their cell's seed.  Drawing each
cell's seed apart, rather than giving every cell ``s``, keeps one unlucky
stream from moving the whole mix, so the work per run varies less from
seed to seed.  Why each workload exists is recorded in ``BENCHMARK.json``
and in this directory's README.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import materialize_pattern
from repro.experiments.suite import config_for_spec
from repro.faults.plan import (
    FailSlow,
    FaultPlan,
    ResiliencePolicy,
    TransientErrors,
)
from repro.sim.rng import RandomStreams
from repro.workload.suite import standard_suite


@dataclass(frozen=True)
class Sizing:
    """Machine and file size of one benchmark configuration."""

    #: Nodes (and disks) of the paper-mix, adaptive and rw-faults cells.
    nodes: int
    #: File blocks and total accesses of the paper-mix and adaptive cells.
    reads: int
    #: File blocks and total accesses of the rw-faults cells.
    rw_reads: int
    #: Nodes (and disks) of the obs-scale machine.
    scale_nodes: int
    #: Reads per node on the obs-scale machine.
    scale_reads_per_node: int
    #: Fail-slow window on disk 0 of the faulted rw cells, simulated ms.
    slow_start: float
    slow_end: float


#: The timed sizing.  The fail-slow window sits inside every rw cell's
#: healthy run (about 640-900 sim ms at this size).
FULL = Sizing(
    nodes=8,
    reads=160,
    rw_reads=480,
    scale_nodes=200,
    scale_reads_per_node=20,
    slow_start=400.0,
    slow_end=1300.0,
)

#: Toy sizing for the benchmark's own tests.
TOY = Sizing(
    nodes=4,
    reads=40,
    rw_reads=40,
    scale_nodes=12,
    scale_reads_per_node=5,
    slow_start=40.0,
    slow_end=160.0,
)


@dataclass(frozen=True)
class Sim:
    """One simulation of a workload's list."""

    label: str
    config: ExperimentConfig
    #: Reads plus writes the configured access pattern holds.
    accesses: int
    #: Attach an ``ObsRecorder`` to this simulation.
    obs: bool = False
    #: Index in the list of the obs-off twin whose results must match.
    twin: Optional[int] = None


def _sim(label: str, config: ExperimentConfig, **extra) -> Sim:
    pattern = materialize_pattern(config, RandomStreams(config.seed))
    return Sim(label, config, pattern.total_reads, **extra)


def _cell_seed(seed: int, cell: int) -> int:
    return 1000 * seed + cell


def _small(sizing: Sizing, seed: int, **overrides) -> dict:
    fields = dict(
        n_nodes=sizing.nodes,
        n_disks=sizing.nodes,
        file_blocks=sizing.reads,
        total_reads=sizing.reads,
        seed=seed,
        record_trace=False,
    )
    fields.update(overrides)
    return fields


#: Reads per processor between two "total" barriers: the paper's k=200
#: on 20 nodes.  ``ExperimentConfig`` keeps k=200 whatever the machine,
#: which the benchmark's small cells never reach; scaling k with the node
#: count keeps the paper's ratio, so the barrier fires twice per cell.
TOTAL_K_PER_NODE = 10


def paper_suite(seed: int, sizing: Sizing) -> List[Sim]:
    """The paper's 46-cell mix, each cell oracle vs no-prefetch."""
    sims = []
    for cell, spec in enumerate(standard_suite()):
        for prefetch in (True, False):
            config = config_for_spec(
                spec,
                **_small(
                    sizing,
                    _cell_seed(seed, cell),
                    prefetch=prefetch,
                    total_k=TOTAL_K_PER_NODE * sizing.nodes,
                ),
            )
            side = "oracle" if prefetch else "none"
            sims.append(_sim(f"{spec.label}/{side}", config))
    return sims


def adaptive(seed: int, sizing: Sizing) -> List[Sim]:
    """The adaptive policy on the sync-none and per-proc cells."""
    specs = [
        spec
        for spec in standard_suite()
        if spec.sync_style in ("none", "per-proc")
    ]
    return [
        _sim(
            f"{spec.label}/adaptive",
            config_for_spec(
                spec,
                **_small(sizing, _cell_seed(seed, cell), policy="adaptive"),
            ),
        )
        for cell, spec in enumerate(specs)
    ]


def fault_plan(sizing: Sizing) -> FaultPlan:
    """x6 fail-slow on disk 0, 5% transient errors everywhere, and a
    resilience policy generous enough that no request exhausts it."""
    slow = FailSlow(
        disk=0, factor=6.0, start=sizing.slow_start, end=sizing.slow_end
    )
    transient = tuple(
        TransientErrors(disk=d, probability=0.05)
        for d in range(sizing.nodes)
    )
    return FaultPlan(
        faults=(slow,) + transient,
        resilience=ResiliencePolicy(
            timeout=250.0,
            max_retries=40,
            backoff_base=10.0,
            backoff_max=120.0,
        ),
        name="bench-rw-faults",
    )


def rw_faults(seed: int, sizing: Sizing) -> List[Sim]:
    """The read-write patterns under three policies, healthy and faulted."""
    plan = fault_plan(sizing)
    cells = [
        (pattern, policy)
        for pattern in ("lfp-rw", "gw-rw", "wstream")
        for policy in ("oracle", "adaptive", "none")
    ]
    sims = []
    for cell, (pattern, policy) in enumerate(cells):
        for faults in (None, plan):
            config = ExperimentConfig(
                pattern=pattern,
                policy="oracle" if policy == "none" else policy,
                faults=faults,
                **_small(
                    sizing,
                    _cell_seed(seed, cell),
                    prefetch=policy != "none",
                    file_blocks=sizing.rw_reads,
                    total_reads=sizing.rw_reads,
                ),
            )
            health = "healthy" if faults is None else "faulted"
            sims.append(_sim(f"{pattern}/{policy}/{health}", config))
    return sims


def obs_scale(seed: int, sizing: Sizing) -> List[Sim]:
    """A large machine, each cell run without and then with obs."""
    total = sizing.scale_nodes * sizing.scale_reads_per_node
    sims: List[Sim] = []
    for cell, pattern in enumerate(("gw", "lfp", "lw")):
        for prefetch in (True, False):
            config = ExperimentConfig(
                pattern=pattern,
                sync_style="none",
                prefetch=prefetch,
                n_nodes=sizing.scale_nodes,
                n_disks=sizing.scale_nodes,
                file_blocks=total,
                total_reads=total,
                seed=_cell_seed(seed, cell),
                record_trace=False,
            )
            side = "oracle" if prefetch else "none"
            label = f"{pattern}/{side}"
            off = _sim(f"{label}/obs-off", config)
            on = dataclasses.replace(
                off, label=f"{label}/obs-on", obs=True, twin=len(sims)
            )
            sims += [off, on]
    return sims


WORKLOADS: Dict[str, Callable[[int, Sizing], List[Sim]]] = {
    "paper-suite": paper_suite,
    "adaptive": adaptive,
    "rw-faults": rw_faults,
    "obs-scale": obs_scale,
}


def build(name: str, seed: int, sizing: Sizing = FULL) -> List[Sim]:
    """The simulation list of workload ``name`` for ``seed``."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return factory(seed, sizing)
