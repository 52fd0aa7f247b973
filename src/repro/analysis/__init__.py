"""Determinism guardrails: static analysis, runtime auditing, invariants.

Four pillars:

* :mod:`repro.analysis.simlint` — the per-file AST rules enforcing the
  determinism contract (blessed RNG paths, no wall-clock, no unordered
  iteration in sim-critical code, no ``-O``-erasable asserts).  Run as
  ``python -m repro.analysis.simlint src/``.
* :mod:`repro.analysis.flow` — the whole-program half of simlint v2: a
  module-import + call graph over the tree, interprocedural RNG /
  wall-clock taint propagation, and static hook-purity proofs for
  observer callables.  Driven by :mod:`repro.analysis.lint`
  (``repro lint``), which adds SARIF/JSON emitters
  (:mod:`repro.analysis.reporting`), a fail-only-on-new findings
  baseline (:mod:`repro.analysis.baseline`), and an incremental
  content-addressed result cache (:mod:`repro.analysis.lintcache`).
* :mod:`repro.analysis.audit` — a runtime auditor: event-trace hashing on
  every event ``Environment.run`` pops (``run_twice_and_diff`` proves
  seed-stability), a simultaneous-event race detector, and periodic
  invariant sweeps.
* :mod:`repro.analysis.invariants` — :class:`InvariantViolation` and
  :func:`invariant`, the promoted invariant layer that survives
  ``python -O``.

``audit`` pulls in the experiment runner (which imports ``fs``/``machine``
— themselves clients of :func:`invariant`), so it is exposed lazily to
keep this package importable from anywhere in the tree.
"""

from __future__ import annotations

from typing import Any

from .invariants import InvariantViolation, invariant

__all__ = [
    "InvariantViolation",
    "invariant",
    "AuditReport",
    "Auditor",
    "DeterminismReport",
    "run_twice_and_diff",
    "run_with_audit",
    "LintResult",
    "run_lint",
]

_AUDIT_EXPORTS = frozenset(
    {
        "AuditReport",
        "Auditor",
        "DeterminismReport",
        "run_twice_and_diff",
        "run_with_audit",
    }
)

_LINT_EXPORTS = frozenset({"LintResult", "run_lint"})


def __getattr__(name: str) -> Any:
    if name in _AUDIT_EXPORTS:
        from . import audit

        return getattr(audit, name)
    if name in _LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
