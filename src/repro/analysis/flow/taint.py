"""Interprocedural taint: RNG and wall-clock sources reaching sim code.

Seeding
-------
A function is **directly tainted** when its body (or its definition-time
defaults / decorators) reads an entropy or clock source from the
catalogues in :mod:`repro.analysis.flow.summary` — including reads the
per-file rules suppressed (``# simlint: allow-wallclock``) or skipped
(``# simlint: skip-file``): the suppression blesses *that line*, not the
callers that consume the value.

Propagation
-----------
Taint flows from callee to caller over the resolved call graph and the
module-import graph, to a fixed point.  The blessed modules
(``sim/rng.py`` and ``machine/disk.py``, for RNG only) neither seed nor
forward taint of that category; no module is blessed for wall-clock.

Reporting — the frontier rule
-----------------------------
One finding per root cause: a call edge ``F → G`` is reported when ``F``
lives in a sim-critical module and ``G``'s taint is not already visible
to the per-file rules (``G`` holds only suppressed/skipped sources, or
sits outside the sim-critical tree) and ``G`` would not itself carry a
flow finding.  Downstream callers of a flagged frontier function stay
quiet — fixing the frontier fixes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..rules.base import SIM_CRITICAL_PARTS, Diagnostic
from .program import Program
from .summary import DirectSource, FlowSummary

__all__ = ["TAINT_CATEGORIES", "TaintState", "propagate", "taint_diagnostics"]

TAINT_CATEGORIES = ("rng", "wallclock")

#: Per-category blessed module suffixes: functions there neither seed
#: nor forward taint of that category.
_BLESSED: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "rng": (("sim", "rng.py"), ("machine", "disk.py")),
    "wallclock": (),
}


@dataclass
class TaintState:
    """Taint verdict for one ``(function, category)`` pair."""

    qname: str
    category: str
    #: The direct source, when the function itself reads one.
    direct: Optional[DirectSource]
    #: The tainted callee this function inherits through, otherwise.
    via: Optional[str]
    #: Call line of the inheriting edge (for chain rendering).
    via_line: int = 0


def _is_blessed(summary: FlowSummary, category: str) -> bool:
    return any(
        summary.matches(*suffix) for suffix in _BLESSED[category]
    )


def _sim_critical(summary: FlowSummary) -> bool:
    return any(
        part in SIM_CRITICAL_PARTS for part in summary.parts[:-1]
    )


def propagate(program: Program) -> Dict[str, Dict[str, TaintState]]:
    """Fixed-point taint propagation; ``{qname: {category: state}}``."""
    taint: Dict[str, Dict[str, TaintState]] = {}

    # Seed with direct sources.
    worklist: List[str] = []
    for info in program.iter_functions():
        summary = program.summary_of(info.qname)
        for source in info.sources:
            if _is_blessed(summary, source.category):
                continue
            per_func = taint.setdefault(info.qname, {})
            if source.category not in per_func:
                per_func[source.category] = TaintState(
                    qname=info.qname,
                    category=source.category,
                    direct=source,
                    via=None,
                )
                worklist.append(info.qname)

    # Propagate callee → caller to a fixed point.
    while worklist:
        qname = worklist.pop()
        categories = dict(taint.get(qname, {}))
        for edge in program.callers_of(qname):
            caller = edge.caller
            caller_summary = program.summary_of(caller)
            caller_taint = taint.setdefault(caller, {})
            for category in categories:
                if category in caller_taint:
                    continue
                if _is_blessed(caller_summary, category):
                    continue
                caller_taint[category] = TaintState(
                    qname=caller,
                    category=category,
                    direct=None,
                    via=qname,
                    via_line=edge.line,
                )
                worklist.append(caller)
    return taint


def render_chain(
    program: Program,
    taint: Dict[str, Dict[str, TaintState]],
    qname: str,
    category: str,
) -> str:
    """``g -> h -> time.time`` — the taint chain from ``qname`` down."""
    parts: List[str] = []
    seen = set()
    current: Optional[str] = qname
    while current is not None and current not in seen:
        seen.add(current)
        parts.append(program.display(current))
        state = taint.get(current, {}).get(category)
        if state is None:
            break
        if state.direct is not None:
            parts.append(state.direct.desc)
            break
        current = state.via
    return " -> ".join(parts)


def _covered_by_v1(
    program: Program,
    qname: str,
    state: TaintState,
) -> bool:
    """Would the per-file rules already report this function's taint?"""
    if state.direct is None:
        return False
    summary = program.summary_of(qname)
    if summary.skip_file or summary.is_test:
        return False
    return not state.direct.suppressed


def _frontier_bearing(
    program: Program,
    taint: Dict[str, Dict[str, TaintState]],
    qname: str,
    category: str,
) -> bool:
    """Does ``qname`` itself carry a reportable flow finding for this
    category (so callers should stay quiet)?"""
    summary = program.summary_of(qname)
    if not _sim_critical(summary) or summary.skip_file or summary.is_test:
        return False
    for edge in program.callees_of(qname):
        callee_state = taint.get(edge.callee, {}).get(category)
        if callee_state is None:
            continue
        if _is_blessed(program.summary_of(edge.callee), category):
            continue
        if not _covered_by_v1(program, edge.callee, callee_state):
            return True
    return False


def taint_diagnostics(program: Program) -> List[Diagnostic]:
    """Frontier findings: taint entering sim-critical functions."""
    taint = propagate(program)
    findings: List[Diagnostic] = []
    for info in program.iter_functions():
        summary = program.summary_of(info.qname)
        if (
            not _sim_critical(summary)
            or summary.skip_file
            or summary.is_test
        ):
            continue
        reported: set[Tuple[int, str, str]] = set()
        for edge in program.callees_of(info.qname):
            callee = edge.callee
            for category in TAINT_CATEGORIES:
                state = taint.get(callee, {}).get(category)
                if state is None:
                    continue
                if _is_blessed(summary, category) or _is_blessed(
                    program.summary_of(callee), category
                ):
                    continue
                if _covered_by_v1(program, callee, state):
                    continue
                if _frontier_bearing(program, taint, callee, category):
                    continue
                if summary.suppressed("flow-taint", edge.line):
                    continue
                key = (edge.line, callee, category)
                if key in reported:
                    continue
                reported.add(key)
                chain = render_chain(program, taint, callee, category)
                noun = {
                    "rng": "unseeded randomness",
                    "wallclock": "host wall-clock state",
                }[category]
                findings.append(
                    Diagnostic(
                        path=Path(summary.path),
                        line=edge.line,
                        col=0,
                        rule="flow-taint",
                        message=(
                            f"{program.display(info.qname)} calls "
                            f"{program.display(callee)}, which carries "
                            f"{noun} ({category} taint chain: {chain}) "
                            "into sim-critical code"
                        ),
                    )
                )
    return findings
