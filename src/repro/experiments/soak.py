"""Seeded chaos-soak harness: randomized-but-blessed fault plans plus a
run-level invariant sweep (``rapid-transit soak``).

The chaos tournament races policies under hand-written fault plans; the
soak goes the other way around: it *generates* fault plans from the seed
— every draw flows through named :class:`~repro.sim.rng.RandomStreams`
streams (``soak/plan<N>/...``), so the same seed always produces the
same plans ("randomized but blessed") — and asserts a fixed set of
run-level invariants on every cell:

* ``completed`` — the run drained its event queue, every application
  finished, and the runner's post-run invariant sweep passed (the
  practical "no hang / no leaked request" witness: a stuck fetch or a
  leaked buffer either deadlocks the drain or trips the sweep);
* ``no_lost_request`` — every demand read issued by the workload was
  served exactly once (``total_accesses`` equals the configured read
  count: nothing dropped, nothing double-served);
* ``no_failed_read`` — no retry exhaustion: the resilience policy
  outlasted every outage window, so no application ever saw a
  :class:`~repro.faults.errors.ReadFailedError`;
* ``breaker_closes`` — every circuit breaker that opened during the run
  ended the run closed again (the half-open probe re-ramp recovered
  once the outage window passed).  Only asserted for prefetching
  entrants: the no-prefetch baseline never sends the half-open probe
  that closes a breaker, so the invariant is vacuous there;
* ``deterministic`` — :func:`~repro.analysis.audit.run_twice_and_diff`
  produced bit-identical event-trace digests *and* identical
  fault-event digests (the injected schedule, every retry, every
  breaker transition replayed exactly).

Generated plans deliberately overlap two to three faults of at least
two distinct kinds inside the early portion of the run, and carry a
survivable resilience policy (timeout + a retry budget that outlasts
the longest possible outage window), so an invariant failure points at
the resilience machinery — not at an unsurvivable plan.

:meth:`SoakReport.digest` hashes every cell's plan digest, trace
digest, fault digest, invariant verdicts, and degraded-mode measures,
so a CI soak can gate on bit-identical reruns exactly like the
tournament smoke does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, get_type_hints

from ..faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    HotSpot,
    ResiliencePolicy,
    TransientErrors,
)
from ..metrics.report import render_table
from ..sim.rng import RandomStreams
from ..workload.patterns import PATTERN_NAMES
from ..workload.synchronization import SYNC_STYLES
from .config import ExperimentConfig
from .runner import RunResult

__all__ = [
    "SOAK_INVARIANTS",
    "SOAK_MEASURES",
    "SoakSpec",
    "SoakCell",
    "SoakReport",
    "generate_plan",
    "run_soak",
]

#: The invariant names every soak cell reports, in display order.
SOAK_INVARIANTS: Tuple[str, ...] = (
    "completed",
    "no_lost_request",
    "no_failed_read",
    "breaker_closes",
    "deterministic",
)

#: The degraded-mode measures every soak cell reports, in display order:
#: (table heading, RunResult attribute).  The attribute also names the
#: CSV column and the digest key.
SOAK_MEASURES: Tuple[Tuple[str, str], ...] = (
    ("total (ms)", "total_time"),
    ("errors", "disk_errors"),
    ("retries", "disk_retries"),
    ("timeouts", "disk_timeouts"),
    ("opens", "breaker_opens"),
    ("fail-slow", "failslow_detections"),
    ("write-offs", "prefetch_write_offs"),
    ("degraded (ms)", "time_degraded"),
)

#: Fault kinds the plan generator draws from.
_FAULT_KINDS: Tuple[str, ...] = (
    "fail-stop",
    "fail-slow",
    "transient",
    "hot-spot",
)

#: Fault windows are placed inside [_WINDOW_LO, _WINDOW_HI + _LEN_HI) ms
#: — the early portion of a soak-sized run — so post-recovery traffic
#: has room to close breakers before the run ends.
_WINDOW_LO = 100.0
_WINDOW_HI = 600.0
_LEN_LO = 200.0
_LEN_HI = 500.0

#: The survivable resilience policy every generated plan carries: the
#: timeout lets readers hedge off a dead disk, and the retry budget
#: (40 x (240 ms timeout + <=120 ms backoff)) outlasts any generated
#: outage window by an order of magnitude.
_SOAK_RESILIENCE = ResiliencePolicy(
    timeout=240.0,
    max_retries=40,
    backoff_base=10.0,
    backoff_max=120.0,
)


@dataclass(frozen=True)
class SoakSpec:
    """What to soak: the cell, the entrant, and how many plans to draw.

    ``base`` supplies machine sizing and compute intensity; its own
    pattern/sync/policy/faults fields are ignored.  The default machine
    is the chaos experiments' downscaled 8x8 box, so a 5-plan soak
    (each plan run twice for the determinism diff) stays interactive.
    """

    n_plans: int = 5
    seed: int = 1
    pattern: str = "lw"
    sync_style: str = "none"
    policy: str = "adaptive"
    base: ExperimentConfig = field(
        default_factory=lambda: ExperimentConfig(
            n_nodes=8,
            n_disks=8,
            file_blocks=640,
            total_reads=640,
        )
    )

    def __post_init__(self) -> None:
        from ..prefetch.factory import policy_choices

        if self.n_plans < 1:
            raise ValueError("soak needs at least one fault plan")
        if self.pattern not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.sync_style not in SYNC_STYLES:
            raise ValueError(f"unknown sync style {self.sync_style!r}")
        if self.pattern == "lw" and self.sync_style == "portion":
            raise ValueError("lw is not combined with portion sync")
        if self.policy != "none" and self.policy not in policy_choices():
            raise ValueError(f"unknown policy {self.policy!r}")

    @property
    def prefetching(self) -> bool:
        return self.policy != "none"

    def plans(self) -> List[FaultPlan]:
        """The blessed plan set: ``n_plans`` plans drawn from the seed."""
        streams = RandomStreams(self.seed)
        return [
            generate_plan(streams, i, self.base.n_disks)
            for i in range(self.n_plans)
        ]

    def config_for(self, plan: FaultPlan) -> ExperimentConfig:
        if not self.prefetching:
            return self.base.with_overrides(
                pattern=self.pattern,
                sync_style=self.sync_style,
                prefetch=False,
                faults=plan,
            )
        return self.base.with_overrides(
            pattern=self.pattern,
            sync_style=self.sync_style,
            prefetch=True,
            policy=self.policy,
            faults=plan,
        )


def generate_plan(
    streams: RandomStreams, index: int, n_disks: int
) -> FaultPlan:
    """Draw one randomized-but-blessed fault plan.

    Two or three faults with at least two *distinct* kinds, windows
    drawn so overlap is the common case, every parameter from the
    ``soak/plan<index>/...`` streams.  Values are rounded so the plan's
    JSON form (and hence its content digest) is stable and readable.
    """
    name = f"soak/plan{index}"
    n_faults = streams.uniform_int(f"{name}/count", 2, 3)
    # First two kinds are forced distinct (draw the second from the
    # remaining three); any third fault draws freely.
    kinds = [streams.uniform_int(f"{name}/kind", 0, 3)]
    second = streams.uniform_int(f"{name}/kind", 0, 2)
    if second >= kinds[0]:
        second += 1
    kinds.append(second)
    for _ in range(n_faults - 2):
        kinds.append(streams.uniform_int(f"{name}/kind", 0, 3))

    specs = []
    for kind_index in kinds:
        disk = streams.uniform_int(f"{name}/disk", 0, n_disks - 1)
        start = round(
            streams.uniform(f"{name}/window", _WINDOW_LO, _WINDOW_HI), 3
        )
        end = round(
            start + streams.uniform(f"{name}/window", _LEN_LO, _LEN_HI), 3
        )
        kind = _FAULT_KINDS[kind_index]
        if kind == "fail-stop":
            specs.append(FailStop(disk=disk, at=start, recover=end))
        elif kind == "fail-slow":
            factor = round(
                streams.uniform(f"{name}/severity", 2.0, 6.0), 3
            )
            specs.append(
                FailSlow(disk=disk, factor=factor, start=start, end=end)
            )
        elif kind == "transient":
            probability = round(
                streams.uniform(f"{name}/severity", 0.2, 0.5), 3
            )
            specs.append(
                TransientErrors(
                    disk=disk, probability=probability, start=start, end=end
                )
            )
        else:
            alpha = round(
                streams.uniform(f"{name}/severity", 0.5, 1.5), 3
            )
            specs.append(
                HotSpot(disk=disk, alpha=alpha, start=start, end=end)
            )
    return FaultPlan(
        faults=tuple(specs),
        resilience=_SOAK_RESILIENCE,
        name=f"soak-{index}",
    )


@dataclass
class SoakCell:
    """One generated plan's audited double-run and its verdicts."""

    index: int
    plan: FaultPlan
    invariants: Dict[str, bool]
    #: Degraded-mode measures of the first run (all zero on a crash).
    measures: Dict[str, float] = field(default_factory=dict)
    trace_digest: str = ""
    fault_digest: str = ""
    #: Exception text when the run crashed outright ("" otherwise).
    error: str = ""

    @property
    def passed(self) -> bool:
        return all(self.invariants.values())

    def failed_invariants(self) -> List[str]:
        return [k for k in SOAK_INVARIANTS if not self.invariants[k]]

    def measure_values(self) -> List[Any]:
        """The :data:`SOAK_MEASURES` values in order; a crashed cell has
        none, and reads each as the zero of its RunResult type."""
        types = get_type_hints(RunResult)
        return [
            self.measures.get(attr, types[attr]())
            for _, attr in SOAK_MEASURES
        ]


@dataclass
class SoakReport:
    """Every cell of a finished soak."""

    spec: SoakSpec
    cells: List[SoakCell]

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def failures(self) -> List[Tuple[int, str]]:
        """(plan index, invariant) for every failed verdict."""
        return [
            (cell.index, name)
            for cell in self.cells
            for name in cell.failed_invariants()
        ]

    def render(self) -> str:
        rows = [
            (
                cell.index,
                cell.plan.digest,
                ",".join(s.kind for s in cell.plan.faults),
                *cell.measure_values(),
                "ok"
                if cell.passed
                else "FAIL:" + "+".join(cell.failed_invariants()),
            )
            for cell in self.cells
        ]
        return render_table(
            (
                "plan",
                "digest",
                "faults",
                *(heading for heading, _ in SOAK_MEASURES),
                "invariants",
            ),
            rows,
            title=(
                f"chaos soak: {len(self.cells)} plans x "
                f"{self.spec.pattern}/{self.spec.sync_style}/"
                f"{self.spec.policy} (seed {self.spec.seed})"
            ),
        )

    def to_csv(self) -> str:
        columns = (
            "plan",
            "plan_digest",
            "faults",
            *SOAK_INVARIANTS,
            *(attr for _, attr in SOAK_MEASURES),
            "trace_digest",
            "fault_digest",
        )
        lines = [",".join(columns)] + [
            ",".join(
                str(v)
                for v in (
                    cell.index,
                    cell.plan.digest,
                    ";".join(s.kind for s in cell.plan.faults),
                    *(int(cell.invariants[n]) for n in SOAK_INVARIANTS),
                    *cell.measure_values(),
                    cell.trace_digest,
                    cell.fault_digest,
                )
            )
            for cell in self.cells
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hex digest over every cell's verdicts and measures, in order.

        Equal digests mean two soak executions generated the same plans
        and observed bit-identical degraded-mode behaviour — the CI
        soak's determinism gate.
        """
        from hashlib import blake2b

        from ..perf.digest import canonical_json

        payload = canonical_json(
            [
                {
                    "index": cell.index,
                    "plan": cell.plan.digest,
                    "invariants": cell.invariants,
                    "measures": cell.measures,
                    "trace": cell.trace_digest,
                    "faults": cell.fault_digest,
                    "error": cell.error,
                }
                for cell in self.cells
            ]
        )
        return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _breakers_all_closed(result) -> bool:
    """Did every breaker that opened end the run closed?

    Read off the ordered fault-event log: breaker transitions are
    recorded as ``old->new`` details, so the last transition per disk
    tells the final state.
    """
    if result.fault_events is None:
        return True
    final: Dict[int, str] = {}
    for event in result.fault_events.events:
        if event.kind == "breaker":
            final[event.disk] = event.detail
    return all(detail.endswith("->closed") for detail in final.values())


def run_soak(
    spec: SoakSpec,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Generate the blessed plans and audit every cell twice.

    Runs stay in-process (no executor, no cache): the invariant sweep
    reads the raw fault-event log off the result, and every cell is a
    :func:`~repro.analysis.audit.run_twice_and_diff` pair anyway.
    """
    from ..analysis.audit import run_twice_and_diff

    plans = spec.plans()
    cells: List[SoakCell] = []
    for index, plan in enumerate(plans):
        if progress is not None:
            kinds = ",".join(s.kind for s in plan.faults)
            progress(
                f"soak plan {index + 1}/{len(plans)} "
                f"({plan.digest}: {kinds}) x2 runs"
            )
        config = spec.config_for(plan)
        try:
            report = run_twice_and_diff(config)
        except Exception as exc:  # noqa: BLE001 - the verdict IS the point
            cells.append(
                SoakCell(
                    index=index,
                    plan=plan,
                    invariants={name: False for name in SOAK_INVARIANTS},
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        result = report.first.result
        counts = (
            result.fault_events.counts()
            if result.fault_events is not None
            else {}
        )
        invariants = {
            "completed": result.total_time > 0.0,
            "no_lost_request": result.total_accesses
            == config.effective_total_reads,
            "no_failed_read": counts.get("exhausted", 0) == 0,
            # Vacuous for the no-prefetch baseline: it never issues the
            # half-open probe that closes a breaker.
            "breaker_closes": (
                _breakers_all_closed(result)
                if spec.prefetching
                else True
            ),
            "deterministic": report.identical
            and result.fault_digest == report.second.result.fault_digest,
        }
        cells.append(
            SoakCell(
                index=index,
                plan=plan,
                invariants=invariants,
                measures={
                    attr: getattr(result, attr) for _, attr in SOAK_MEASURES
                },
                trace_digest=report.first.trace_digest,
                fault_digest=result.fault_digest,
            )
        )
    return SoakReport(spec=spec, cells=cells)
