"""The slim wire form of a :class:`~repro.experiments.runner.RunResult`.

Worker processes and the run cache both need results that survive a
round-trip through JSON.  A ``RunResult`` carries every scalar measure
plus three raw handles (``metrics``, ``trace``, ``fault_events``) that
hold live simulation objects; the wire form keeps the measures and drops
the handles — a *slim* result, identical in every reported number.

``results_digest``/``suite_digest`` hash batches of slim results; equal
digests mean two executions produced bit-identical measures, which is how
the tests prove parallel == sequential and cache-warm == cache-cold.
"""

from __future__ import annotations

from dataclasses import fields
from hashlib import blake2b
from typing import Any, Dict, List

from ..experiments.config import ExperimentConfig
from ..experiments.runner import RunResult
from ..typecheck import check_field_values
from .digest import canonical_json

__all__ = [
    "result_from_dict",
    "result_to_dict",
    "results_digest",
    "suite_digest",
]

#: RunResult fields excluded from the wire form: the config travels
#: separately (it is the cache key), the rest are raw object handles.
_RAW_FIELDS = frozenset({"config", "metrics", "trace", "fault_events"})

#: Dict fields whose integer keys JSON stringifies.
_INT_KEY_FIELDS = ("errors_by_disk", "retries_by_disk", "timeouts_by_disk")


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Every measure of ``result`` as JSON-serializable data."""
    out: Dict[str, Any] = {}
    for f in fields(RunResult):
        if f.name in _RAW_FIELDS:
            continue
        out[f.name] = getattr(result, f.name)
    return out


def result_from_dict(
    config: ExperimentConfig, data: Dict[str, Any]
) -> RunResult:
    """Rebuild a slim :class:`RunResult` from its wire form.

    Restores what JSON mangles first: integer dict keys (a key that is
    not an integer raises ``ValueError``) and the per-kind idle triples
    (lists back to tuples).  Then checks every field against its
    ``RunResult`` annotation, items included (a ``TypeError`` naming the
    field).  The run cache reads either error as a miss.  The raw
    handles come back ``None``.
    """
    payload = dict(data)
    for name in _INT_KEY_FIELDS:
        if isinstance(payload.get(name), dict):
            payload[name] = {
                int(k): v for k, v in payload[name].items()
            }
    if isinstance(payload.get("idle_by_kind"), dict):
        payload["idle_by_kind"] = {
            kind: tuple(entry) if isinstance(entry, list) else entry
            for kind, entry in payload["idle_by_kind"].items()
        }
    check_field_values(RunResult, payload)
    return RunResult(
        config=config,
        metrics=None,  # type: ignore[arg-type]
        trace=None,
        fault_events=None,
        **payload,
    )


def results_digest(results: List[RunResult]) -> str:
    """Hex digest over the slim forms of ``results``, in order."""
    payload = canonical_json([result_to_dict(r) for r in results])
    return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def suite_digest(suite: Any) -> str:
    """Digest of a :class:`~repro.experiments.suite.SuiteResults`.

    Flattens every pair as (prefetch, baseline) in suite order; two
    equal digests mean the suites reported identical numbers for every
    cell.
    """
    flat: List[RunResult] = []
    for pair in suite.pairs:
        flat.append(pair.prefetch)
        flat.append(pair.baseline)
    return results_digest(flat)
