"""Experiment configuration.

One :class:`ExperimentConfig` describes a single run: the machine, the
file, the workload cell (pattern x sync style x intensity), and the
prefetching setup.  Defaults are the paper's fixed parameters (Section
IV-D).  Everything is a plain value so configs hash/compare cleanly and
can be swept.

Every field is checked once, at construction: its type against its
annotation (:func:`~repro.typecheck.check_field_types`), then its
value — partly by building the
:class:`~repro.machine.machine.MachineConfig`,
:class:`~repro.fs.cache.CacheConfig` and
:class:`~repro.fs.writeback.WritebackConfig` the run will use, so a bad
field fails before the config is hashed into a run-cache key or shipped
to a worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Optional

from ..faults.plan import FaultPlan
from ..fs.cache import CacheConfig
from ..fs.writeback import WritebackConfig
from ..machine.costs import CostModel
from ..machine.machine import MachineConfig
from ..typecheck import check_field_types
from ..workload.patterns import ALL_PATTERN_NAMES
from ..workload.synchronization import SYNC_STYLES

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experimental run."""

    # Workload cell.  ``pattern`` is one of the paper's six names, or
    # ``"trace:<workload>"`` for a trace-driven run (built by
    # :func:`repro.traces.replay.replay_config`; such a config only labels
    # the run: :func:`~repro.experiments.runner.run_experiment` needs the
    # trace's ``pattern=`` passed alongside it).
    pattern: str = "gw"
    #: One of SYNC_STYLES, or "replay" when the barrier-visit schedule
    #: comes from the recorded visits the run's pattern carries (a
    #: trace's) instead of a coordinator rule.
    sync_style: str = "none"
    #: Mean per-block compute time, ms (0 = I/O bound).
    compute_mean: float = 30.0

    # Prefetching.
    prefetch: bool = True
    #: Policy when prefetching: any name registered with the policy
    #: factory — "oracle" (the paper), an on-the-fly predictor ("obl",
    #: "portion", "global-seq", "global-portion"), the feedback-driven
    #: "adaptive", or "null".
    policy: str = "oracle"
    #: Minimum prefetch lead in references (Section V-E).
    lead: int = 0
    #: Minimum-prefetch-time throttle, ms (Section V-D).
    min_prefetch_time: float = 0.0

    # Adaptive-policy knobs (used only when ``policy == "adaptive"``;
    # see docs/adaptive.md for the full reference).
    adaptive_min_distance: int = 1
    adaptive_initial_distance: int = 2
    adaptive_max_distance: int = 12

    # Machine (paper defaults).
    n_nodes: int = 20
    n_disks: int = 20
    costs: CostModel = field(default_factory=CostModel)
    replicated_structures: bool = True
    disk_model: str = "fixed"

    # File and workload sizing (paper defaults).
    #: Block-to-disk layout: "round-robin" (the paper's interleave),
    #: "striped" (coarse stripes of ``stripe_width``), or "hashed".
    layout: str = "round-robin"
    stripe_width: int = 8
    file_blocks: int = 2000
    #: Total reads across all processes; None = 2000 (the paper's
    #: standard).  The Section V-E lead experiments use 40000 for local
    #: patterns.
    total_reads: Optional[int] = None

    #: Fixed-portion geometry (lfp/gfp); the paper gives no values —
    #: see DESIGN.md §5 for the defaults' rationale.
    portion_length: int = 10
    portion_stride: int = 21

    # Cache sizing (paper defaults).
    demand_buffers_per_node: int = 1
    prefetch_buffers_per_node: int = 3
    prefetch_unused_limit: Optional[int] = None
    replacement: str = "ru-set"

    # Synchronization parameters (paper defaults).
    per_proc_k: int = 10
    total_k: int = 200

    # Write path (meaningful only for read-write patterns; read-only
    # runs never arm the writeback machinery — see docs/writes.md).
    #: "write-back" (flusher daemon + dirty-ratio throttle) or
    #: "write-through" (every write flushed synchronously).
    write_mode: str = "write-back"
    #: Foreground throttle threshold as a fraction of cache buffers
    #: (Linux ``vm.dirty_ratio``).
    dirty_ratio: float = 0.5
    #: Background flusher threshold (Linux ``vm.dirty_background_ratio``).
    dirty_background_ratio: float = 0.25

    # Fault injection (None = healthy machine).  A plan both schedules
    # the faults and carries the resilience policy used to survive them.
    faults: Optional[FaultPlan] = None

    # Reproducibility / diagnostics.
    seed: int = 1
    #: Record the run's replay trace into ``RunResult.trace``
    #: (:mod:`repro.traces.recorder`; passive, so the run is unchanged).
    record_trace: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        # The run's machine, cache and write-path configs: building them
        # here runs their own checks now; the runner reuses the objects.
        for built in ("machine_config", "cache_config", "writeback_config"):
            getattr(self, built)
        if (
            self.pattern not in ALL_PATTERN_NAMES
            and not self.pattern.startswith("trace:")
        ):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.sync_style not in SYNC_STYLES + ("replay",):
            raise ValueError(f"unknown sync style {self.sync_style!r}")
        from ..prefetch.factory import policy_choices

        if self.policy not in policy_choices():
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"known: {list(policy_choices())}"
            )
        if not (
            1
            <= self.adaptive_min_distance
            <= self.adaptive_initial_distance
            <= self.adaptive_max_distance
        ):
            raise ValueError(
                "need 1 <= adaptive_min_distance <= "
                "adaptive_initial_distance <= adaptive_max_distance"
            )
        for name in ("file_blocks", "total_reads", "per_proc_k", "total_k"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.compute_mean < 0:
            raise ValueError("compute_mean must be non-negative")
        if self.lead < 0:
            raise ValueError("lead must be non-negative")
        if self.min_prefetch_time < 0:
            raise ValueError("min_prefetch_time must be non-negative")
        if self.pattern == "lw" and self.sync_style == "portion":
            raise ValueError(
                "lw is not combined with portion sync (paper footnote 3)"
            )
        if self.layout not in ("round-robin", "striped", "hashed"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.stripe_width <= 0:
            raise ValueError("stripe_width must be positive")
        if self.portion_length <= 0:
            raise ValueError("portion_length must be positive")
        if self.portion_stride <= 0:
            raise ValueError("portion_stride must be positive")
        if self.faults is not None:
            self.faults.validate_for(self.n_disks)

    @cached_property
    def machine_config(self) -> MachineConfig:
        """The simulated machine's architecture parameters."""
        return MachineConfig(
            n_nodes=self.n_nodes,
            n_disks=self.n_disks,
            costs=self.costs,
            replicated_structures=self.replicated_structures,
            disk_model=self.disk_model,
        )

    @cached_property
    def cache_config(self) -> CacheConfig:
        """The block cache's sizing and replacement policy."""
        return CacheConfig(
            demand_buffers_per_node=self.demand_buffers_per_node,
            prefetch_buffers_per_node=self.prefetch_buffers_per_node,
            prefetch_unused_limit=self.prefetch_unused_limit,
            replacement=self.replacement,
        )

    @cached_property
    def writeback_config(self) -> WritebackConfig:
        """The write mode and dirty thresholds (armed only on runs whose
        pattern writes)."""
        return WritebackConfig(
            write_mode=self.write_mode,
            dirty_ratio=self.dirty_ratio,
            dirty_background_ratio=self.dirty_background_ratio,
        )

    @property
    def effective_total_reads(self) -> int:
        return self.total_reads if self.total_reads is not None else 2000

    @property
    def intensity(self) -> str:
        return "io-bound" if self.compute_mean == 0.0 else "balanced"

    @property
    def label(self) -> str:
        pf = (
            f"prefetch({self.policy}"
            + (f",lead={self.lead}" if self.lead else "")
            + (
                f",min_t={self.min_prefetch_time}"
                if self.min_prefetch_time
                else ""
            )
            + ")"
            if self.prefetch
            else "no-prefetch"
        )
        fault_tag = (
            f"/faults:{self.faults.digest}" if self.faults is not None else ""
        )
        return (
            f"{self.pattern}/{self.sync_style}/{self.intensity}/{pf}"
            f"/seed{self.seed}{fault_tag}"
        )

    def with_overrides(self, **kwargs: Any) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def paired_baseline(self) -> "ExperimentConfig":
        """The matching no-prefetch run (same seed: paired comparison)."""
        return self.with_overrides(prefetch=False)
