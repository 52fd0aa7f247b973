"""Machine assembly: nodes, disks, and the shared memory system.

:class:`MachineConfig` captures the architecture parameters of an
experiment (the paper's testbed: 20 nodes, one disk per node, fixed 30 ms
disks, optimized NUMA layout); :class:`Machine` instantiates the live
simulation objects against an :class:`~repro.sim.core.Environment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from .costs import CostModel
from .disk import (
    Disk,
    DiskModel,
    FixedDiskModel,
    JitteredDiskModel,
    SeekDiskModel,
)
from .memory import MemorySystem
from .node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.core import Environment

__all__ = ["MachineConfig", "Machine"]


@dataclass(frozen=True)
class MachineConfig:
    """Architecture parameters for one simulated machine."""

    #: Number of processor nodes (paper: 20), one user process each.
    n_nodes: int = 20

    #: Number of disks (paper: 20, one per node).  May differ from
    #: ``n_nodes`` for the scalability extension experiments.
    n_disks: int = 20

    #: Latency constants.
    costs: CostModel = field(default_factory=CostModel)

    #: Use the paper's optimized NUMA layout (replicated structures,
    #: local pointer caches).  ``False`` models the naive first
    #: implementation of Section V-D.
    replicated_structures: bool = True

    #: Disk model name: "fixed" (the paper's), "jittered" (±30% service
    #: time, sensitivity extension), or "seek" (positional extension).
    disk_model: str = "fixed"

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {self.n_nodes}")
        if self.n_disks <= 0:
            raise ValueError(f"n_disks must be positive, got {self.n_disks}")
        if self.disk_model not in ("fixed", "jittered", "seek"):
            raise ValueError(f"unknown disk_model {self.disk_model!r}")

    def make_disk_model(self, disk_id: int = 0) -> DiskModel:
        """Instantiate the configured disk model (fresh state per disk)."""
        if self.disk_model == "fixed":
            return FixedDiskModel(self.costs.disk_access_time)
        if self.disk_model == "jittered":
            return JitteredDiskModel(
                self.costs.disk_access_time, seed=disk_id
            )
        return SeekDiskModel()


class Machine:
    """Live simulated machine: the hardware substrate of one run."""

    def __init__(self, env: "Environment", config: MachineConfig) -> None:
        self.env = env
        self.config = config
        self.costs = config.costs
        self.memory = MemorySystem(
            env, config.costs, replicated_structures=config.replicated_structures
        )
        self.disks: List[Disk] = [
            Disk(env, disk_id=i, model=config.make_disk_model(i))
            for i in range(config.n_disks)
        ]
        self.nodes: List[Node] = [
            Node(
                env,
                node_id=i,
                costs=config.costs,
                disk=self.disks[i % config.n_disks],
            )
            for i in range(config.n_nodes)
        ]

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def n_disks(self) -> int:
        return self.config.n_disks

    def disk_for_block(self, disk_index: int) -> Disk:
        """Disk by index (file layouts map blocks to disk indices)."""
        return self.disks[disk_index]

    def aggregate_disk_response(self) -> float:
        """Mean disk response time across all disks (ms); 0 if no I/O."""
        total = 0.0
        count = 0
        for disk in self.disks:
            total += disk.response_times.total
            count += disk.response_times.count
        return total / count if count else 0.0

    def aggregate_disk_utilization(self) -> float:
        """Mean utilization across disks."""
        if not self.disks:
            return 0.0
        return sum(d.utilization() for d in self.disks) / len(self.disks)

    def total_blocks_served(self) -> int:
        return sum(d.blocks_served for d in self.disks)
