"""Prefetching: policies, the idle-time daemon, and lead control.

* :mod:`~repro.prefetch.policy` — the peek/commit policy contract;
* :mod:`~repro.prefetch.oracle` — the paper's reference-string oracle for
  all six access patterns (with the Section V-E minimum prefetch lead);
* :mod:`~repro.prefetch.daemon` — the per-node idle daemon (prefetcher and
  writeback flusher) with overrun semantics and the Section V-D
  minimum-prefetch-time throttle;
* :mod:`~repro.prefetch.predictors` — on-the-fly predictors (OBL, portion
  detection, global sequential detection): the paper's future work;
* :mod:`~repro.prefetch.adaptive` — history-only classification with a
  feedback-controlled readahead distance (see docs/adaptive.md);
* :mod:`~repro.prefetch.factory` — the config-aware policy registry
  every driver (run, trace replay, tournament) builds policies through.
"""

from .adaptive import AdaptiveConfig, AdaptivePolicy
from .daemon import IdleDaemon, prefetch_daemon, writeback_daemon
from .factory import build_policy, policy_choices, register_policy_builder
from .lead import earliest_candidate_index, effective_lead
from .oracle import OraclePolicy
from .policy import NullPolicy, PrefetchPolicy
from .predictors import (
    GlobalPortionPolicy,
    GlobalSequentialPolicy,
    OBLPolicy,
    PortionPolicy,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptivePolicy",
    "build_policy",
    "policy_choices",
    "register_policy_builder",
    "PrefetchPolicy",
    "NullPolicy",
    "OraclePolicy",
    "OBLPolicy",
    "PortionPolicy",
    "GlobalSequentialPolicy",
    "GlobalPortionPolicy",
    "IdleDaemon",
    "prefetch_daemon",
    "writeback_daemon",
    "effective_lead",
    "earliest_candidate_index",
]
