"""Trace-driven workload engine: record → synthesize/import → replay.

The lifecycle this package implements:

* **record** (:func:`record_run`) — run any experiment while passively
  capturing each node's timeline (block order, compute gaps, barrier
  visits) as a portable :class:`ReplayTrace`;
* **synthesize** (:func:`make_synthetic_trace`) — generate workloads
  beyond the paper's six patterns (bursty, phased, skewed, mixed) from
  the blessed deterministic streams;
* **import** (:func:`import_csv_trace`) — adapt simple external
  block-trace CSVs to the same format;
* **replay** (:func:`run_replay` and friends) — drive the full simulator
  from a trace: the workload comes from the file, the system behaviour
  (caching, prefetching, disk queueing, barrier waits) re-emerges live.
  A replay is an ordinary run of the trace's pattern
  (:meth:`ReplayTrace.to_pattern`) through
  :func:`~repro.experiments.runner.run_experiment`.

The format itself lives in :mod:`repro.fs.trace`, a leaf module the
runner imports eagerly.  See ``docs/traces.md`` for the format
specification and CLI examples.
"""

from ..fs.trace import (
    REPLAY_TRACE_KIND,
    REPLAY_TRACE_VERSION,
    ReplayRecord,
    ReplayTrace,
    TraceMeta,
)
from .importer import import_csv_trace
from .recorder import ReplayRecorder, record_run
from .replay import replay_config, replay_pair, run_replay
from .synth import GENERATOR_NAMES, make_synthetic_trace

__all__ = [
    "GENERATOR_NAMES",
    "REPLAY_TRACE_KIND",
    "REPLAY_TRACE_VERSION",
    "ReplayRecord",
    "ReplayRecorder",
    "ReplayTrace",
    "TraceMeta",
    "import_csv_trace",
    "make_synthetic_trace",
    "record_run",
    "replay_config",
    "replay_pair",
    "run_replay",
]
