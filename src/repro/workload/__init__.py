"""Synthetic parallel workloads: access patterns, synchronization styles,
the application process, and the paper's experiment mix."""

from .application import application
from .patterns import (
    ALL_PATTERN_NAMES,
    PATTERN_NAMES,
    RW_PATTERN_NAMES,
    AccessPattern,
    make_hybrid,
    make_pattern,
)
from .progress import ProgressTracker
from .suite import WorkloadSpec, balanced_compute_mean, standard_suite
from .synchronization import (
    SYNC_STYLES,
    DynamicBarrier,
    NoSync,
    PerProcessCountSync,
    PortionSync,
    ReplaySync,
    SyncCoordinator,
    TotalCountSync,
    make_sync,
)

__all__ = [
    "PATTERN_NAMES",
    "RW_PATTERN_NAMES",
    "ALL_PATTERN_NAMES",
    "AccessPattern",
    "make_pattern",
    "make_hybrid",
    "ProgressTracker",
    "SYNC_STYLES",
    "DynamicBarrier",
    "SyncCoordinator",
    "NoSync",
    "PerProcessCountSync",
    "TotalCountSync",
    "PortionSync",
    "ReplaySync",
    "make_sync",
    "application",
    "WorkloadSpec",
    "standard_suite",
    "balanced_compute_mean",
]
