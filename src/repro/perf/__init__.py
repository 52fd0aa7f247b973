"""Performance layer: parallel execution and run caching.

The simulations behind the paper's figures are embarrassingly parallel —
every :class:`~repro.experiments.config.ExperimentConfig` is a pure
function of its fields — so this package exploits exactly that purity:

* :mod:`repro.perf.digest` — content-addressed identities: a canonical
  digest per configuration plus a fingerprint of the simulator source;
* :mod:`repro.perf.serialize` — the slim wire form of a
  :class:`~repro.experiments.runner.RunResult` (every measure, no raw
  handles) and digests over result batches;
* :mod:`repro.perf.cache` — an on-disk memo of completed runs keyed by
  (config digest, fault-plan digest, code fingerprint);
* :mod:`repro.perf.executor` — the fan-out engine: deduplicate, consult
  the cache, run the rest (in-process or across a process pool), merge
  deterministically;
* :mod:`repro.perf.scale` — the 100 to 1000-node sweep of the
  simulator's own throughput (``benchmarks/test_ext_scalability.py``).

The simulator's benchmark is ``perfbench/`` at the repository root.

Everything defaults off: ``jobs=1`` and no cache reproduce the seed
behaviour bit-for-bit (proven by the digest-equality tests in
``tests/perf/``).  See ``docs/perf.md``.
"""

from __future__ import annotations

from .cache import RunCache, default_cache_dir, open_cache
from .digest import canonical_json, code_fingerprint, config_digest, run_key
from .executor import ExecutionStats, execute_audits, execute_pairs, execute_runs
from .scale import DEFAULT_SCALES, run_scale_sweep
from .serialize import (
    result_from_dict,
    result_to_dict,
    results_digest,
    suite_digest,
)

__all__ = [
    "DEFAULT_SCALES",
    "ExecutionStats",
    "RunCache",
    "canonical_json",
    "code_fingerprint",
    "config_digest",
    "default_cache_dir",
    "execute_audits",
    "execute_pairs",
    "execute_runs",
    "open_cache",
    "result_from_dict",
    "result_to_dict",
    "results_digest",
    "run_key",
    "run_scale_sweep",
    "suite_digest",
]
