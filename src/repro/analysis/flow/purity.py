"""Hook-purity checker: observer callables must be passive.

The observability tests prove *at runtime* that attaching the recorder
does not perturb a run (obs-on/off event hashes bit-identical).  This
pass is the static counterpart, generalized to every observer surface: a
hook registered on the simulation (``Environment.add_step_observer(fn)``
or ``Environment.subscribe(point, fn)``) must only *read* simulation
state and write its own bookkeeping.

For each registration site the checker resolves the registered callable
(a function, a ``self.method``, or a callable instance attribute whose
class is statically known), then walks its resolved call closure looking
for effects:

* **scheduling** — any call whose final attribute is ``schedule``,
  ``process``, ``timeout``, ``succeed``, ``fail``, or ``cancel``: these
  insert, complete, or retract events and change the schedule;
* **foreign mutation** — an assignment to an attribute of one of the
  function's own parameters (``event.x = ...`` where ``event`` came in
  from the kernel), or a mutating container method called through a
  parameter root (``disk.queue.append(...)``).  Writes rooted at
  ``self`` are the hook's own state and stay legal.

The proof is over the *resolvable* closure: a call that cannot be traced
to an in-tree definition contributes no effects (and no false alarm).  A
registration whose target cannot be resolved at all (a lambda, a value
out of a dict, …) is reported as unprovable — name the hook as a plain
function or method to make it checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..rules.base import Diagnostic
from .program import Program
from .summary import FlowSummary

__all__ = ["EFFECT_CALLS", "MUTATOR_METHODS", "purity_diagnostics"]

#: Final attribute components whose call changes the event schedule.
EFFECT_CALLS = frozenset(
    {"schedule", "process", "timeout", "succeed", "fail", "cancel"}
)

#: Container methods that mutate their receiver.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popleft",
        "remove",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
    }
)


@dataclass(frozen=True)
class _Effect:
    """One impurity found in the closure of a hook."""

    qname: str  # function containing the effect
    line: int
    desc: str


def _resolve_hook_target(
    program: Program, summary: FlowSummary, enclosing: str, target: str
) -> Optional[str]:
    """Resolve a registration's value expression to a function qname."""
    if target.startswith("<"):
        return None
    return program.resolve_call(enclosing, target)


def _function_effects(program: Program, qname: str) -> List[_Effect]:
    info = program.functions.get(qname)
    if info is None:
        return []
    effects: List[_Effect] = []
    own_params = {p for p in info.params if p not in ("self", "cls")}
    for call in info.calls:
        final = call.name.rsplit(".", 1)[-1]
        if "." in call.name and final in EFFECT_CALLS:
            effects.append(
                _Effect(
                    qname=qname,
                    line=call.line,
                    desc=f"calls .{final}() — event-schedule mutation",
                )
            )
    for mutation in info.mutations:
        if mutation.root not in own_params:
            continue
        if mutation.desc.startswith(".") and (
            mutation.desc[1:].split("(")[0] not in MUTATOR_METHODS
        ):
            continue
        effects.append(
            _Effect(
                qname=qname,
                line=mutation.line,
                desc=(
                    f"mutates parameter {mutation.root!r} "
                    f"({mutation.desc}) — kernel/resource state"
                ),
            )
        )
    return effects


def _closure_effects(
    program: Program, entry: str
) -> Tuple[List[_Effect], List[str]]:
    """DFS the resolved call closure of ``entry``; return the effects
    found and the call path to the first offending function."""
    visited: Set[str] = set()
    path: Dict[str, Optional[str]] = {entry: None}
    stack: List[str] = [entry]
    while stack:
        qname = stack.pop()
        if qname in visited:
            continue
        visited.add(qname)
        effects = _function_effects(program, qname)
        if effects:
            chain: List[str] = []
            cursor: Optional[str] = qname
            while cursor is not None:
                chain.append(cursor)
                cursor = path.get(cursor)
            chain.reverse()
            return effects, chain
        for edge in program.callees_of(qname):
            if edge.callee not in visited:
                path.setdefault(edge.callee, qname)
                stack.append(edge.callee)
    return [], []


def purity_diagnostics(program: Program) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    for summary in program.modules.values():
        if summary.skip_file or summary.is_test:
            continue
        for hook in summary.hooks:
            if summary.suppressed("flow-purity", hook.line):
                continue
            target = _resolve_hook_target(
                program, summary, hook.enclosing, hook.target
            )
            if target is None:
                if hook.target.startswith("<"):
                    findings.append(
                        Diagnostic(
                            path=Path(summary.path),
                            line=hook.line,
                            col=0,
                            rule="flow-purity",
                            message=(
                                f"observer registered on {hook.kind} is "
                                "not a named function — purity cannot be "
                                "proven statically; register a function "
                                "or method instead"
                            ),
                        )
                    )
                # An unresolvable *name* (external callable) stays
                # quiet: resolution is under-approximate by design.
                continue
            effects, chain = _closure_effects(program, target)
            if not effects:
                continue
            effect = effects[0]
            via = " -> ".join(program.display(q) for q in chain)
            findings.append(
                Diagnostic(
                    path=Path(summary.path),
                    line=hook.line,
                    col=0,
                    rule="flow-purity",
                    message=(
                        f"observer {program.display(target)} registered "
                        f"on {hook.kind} is impure: {effect.desc} at "
                        f"{program.display(effect.qname)} "
                        f"(line {effect.line}; via {via}) — observers "
                        "must not perturb the schedule (see the "
                        "obs-on/off hash proof)"
                    ),
                )
            )
    return findings
