"""The policy tournament: race prefetch policies over identical workloads.

Boukhobza & Timsit validate trace-driven disk simulation by racing
policies over identical recorded workloads (arXiv:1005.5241); this driver
does the same for prefetch policies.  Every (pattern, sync) cell of the
paper's matrix is run once per entrant — same seed, same machine, same
workload geometry — so within a cell the *only* difference is the policy.
The special entrant ``"none"`` is the no-prefetch baseline; every other
name resolves through the shared policy factory
(:mod:`repro.prefetch.factory`), so oracles, on-the-fly predictors, and
the adaptive policy race under one flag.

``patterns`` accepts the read-write cells too (``lfp-rw``, ``gw-rw``,
``wstream``): in those cells every entrant races with the writeback
subsystem armed, so the league table shows how each policy's readahead
coexists with flusher competition and dirty-ratio throttling.

The matrix has a third axis: **fault plans**.  ``fault_plans`` defaults
to a single healthy machine, but a chaos tournament lists several
:class:`~repro.faults.plan.FaultPlan`\\ s (``None`` = healthy) and every
(pattern, sync) cell is raced once per plan — same seed, same machine,
same workload, same injected fault schedule, so within a faulted cell
the only difference is still the policy.  Faulted rows carry the
degraded-mode measures (error/retry/timeout counts, time-in-degraded,
read p99) plus a **resilience score**: the entrant's healthy elapsed
time divided by its faulted elapsed time, computed whenever the same
matrix also ran the healthy plan (1.0 = the faults cost nothing).

All runs are batched through the perf executor
(:func:`repro.perf.executor.execute_runs`): ``--jobs`` fans them out to
worker processes and the content-addressed run cache memoizes repeats.
:meth:`TournamentResult.digest` hashes every cell's reported numbers, so
two executions of the same tournament must produce equal digests — the
CI smoke's determinism gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..faults.plan import FaultPlan
from ..metrics.report import render_table
from ..workload.patterns import ALL_PATTERN_NAMES, PATTERN_NAMES
from ..workload.synchronization import SYNC_STYLES
from .config import ExperimentConfig
from .runner import RunResult

__all__ = [
    "NO_PREFETCH",
    "MEASURES",
    "CSV_COLUMNS",
    "LEAGUE_COLUMNS",
    "TournamentSpec",
    "TournamentCell",
    "TournamentResult",
    "plan_name",
    "run_tournament",
]

#: The baseline entrant: a paired run with prefetching disabled.
NO_PREFETCH = "none"

#: Reads one measure of a cell: (tournament, cell) -> value.
Getter = Callable[["TournamentResult", "TournamentCell"], Any]


def _cell(attr: str) -> Getter:
    get = attrgetter(attr)
    return lambda tournament, cell: get(cell)


def _run(attr: str) -> Getter:
    get = attrgetter(attr)
    return lambda tournament, cell: get(cell.result)


def _distance(end: str) -> Getter:
    return lambda tournament, cell: (
        cell.result.adaptive_distance_summary.get(end)
    )


#: Everything a tournament reports per cell, each measure once:
#: (CSV column, digest key, getter).  :meth:`TournamentResult.to_csv`
#: writes the measures with a column, in this order;
#: :meth:`TournamentResult.digest` hashes the ones with a key.
MEASURES: Tuple[Tuple[Optional[str], Optional[str], Getter], ...] = (
    ("pattern", "pattern", _cell("pattern")),
    ("sync", "sync", _cell("sync_style")),
    ("faults", "plan", _cell("plan")),
    ("policy", "policy", _cell("policy")),
    ("winner", "winner", _cell("winner")),
    ("total_time", "total_time", _run("total_time")),
    ("read_p50", "read_p50", _run("read_p50")),
    ("read_p99", "read_p99", _run("read_p99")),
    ("hit_ratio", "hit_ratio", _run("hit_ratio")),
    ("blocks_prefetched", "blocks_prefetched", _run("blocks_prefetched")),
    ("unused_evicted", "unused_evicted", _run("prefetch_unused_evicted")),
    ("unused_at_end", "unused_at_end", _run("prefetch_unused_at_end")),
    ("unused_rate", None, _run("unused_prefetch_rate")),
    ("distance_initial", None, _distance("initial")),
    ("distance_final", None, _distance("final")),
    (None, "trajectory", _run("adaptive_distance_trajectory")),
    ("disk_errors", "disk_errors", _run("disk_errors")),
    ("retries", "retries", _run("disk_retries")),
    ("timeouts", "timeouts", _run("disk_timeouts")),
    ("breaker_opens", "breaker_opens", _run("breaker_opens")),
    ("failslow_detections", "failslow", _run("failslow_detections")),
    ("prefetch_write_offs", "write_offs", _run("prefetch_write_offs")),
    ("time_degraded", "time_degraded", _run("time_degraded")),
    (None, "fault_digest", _run("fault_digest")),
    (
        "resilience_score",
        None,
        lambda tournament, cell: tournament.resilience_score(cell),
    ),
)

#: CSV columns of :meth:`TournamentResult.to_csv`.
CSV_COLUMNS: Tuple[str, ...] = tuple(
    column for column, _, _ in MEASURES if column is not None
)

#: Column headings of the league table (:meth:`TournamentResult.render`):
#: one row per (pattern, sync, faults, policy) cell, winners marked in
#: the last column.  ``e/r/t`` packs the degraded-mode error/retry/timeout
#: counts; ``resilience`` is the healthy-to-faulted elapsed-time ratio of
#: the same entrant (1.0 = the faults cost nothing, smaller = slower
#: under chaos; "-" for healthy cells and for matrices without a healthy
#: counterpart).
LEAGUE_COLUMNS: Tuple[str, ...] = (
    "pattern",
    "sync",
    "faults",
    "policy",
    "total time (ms)",
    "read p50 (ms)",
    "read p99 (ms)",
    "hit ratio",
    "unused rate",
    "distance",
    "e/r/t",
    "degraded (ms)",
    "resilience",
    "win",
)


def _csv_value(value: Any) -> str:
    """One CSV field: a bool as 1/0, a missing value as empty."""
    if value is None:
        return ""
    return str(int(value) if isinstance(value, bool) else value)


def plan_name(plan: Optional[FaultPlan]) -> str:
    """Stable display name of a fault-plan axis entry: "none" for the
    healthy machine, else the plan's content digest (identical plans get
    identical names across machines and sessions)."""
    return "none" if plan is None else plan.digest


@dataclass(frozen=True)
class TournamentSpec:
    """What to race: the cell matrix, the entrants, and the base config.

    ``base`` supplies everything except pattern/sync/policy/faults
    (machine size, seed, compute intensity, ...); its own pattern and
    sync fields are ignored.  A fault plan on ``base`` is lifted into
    ``fault_plans`` when that axis is left at its healthy default, so
    ``--faults`` keeps meaning "run the whole matrix under this plan".
    """

    patterns: Tuple[str, ...] = PATTERN_NAMES
    sync_styles: Tuple[str, ...] = ("none",)
    policies: Tuple[str, ...] = (NO_PREFETCH, "oracle", "adaptive")
    #: The chaos axis: each entry is a FaultPlan or None (healthy).
    fault_plans: Tuple[Optional[FaultPlan], ...] = (None,)
    base: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self) -> None:
        from ..prefetch.factory import policy_choices

        if not self.patterns:
            raise ValueError("tournament needs at least one pattern")
        if not self.sync_styles:
            raise ValueError("tournament needs at least one sync style")
        if len(self.policies) < 2:
            raise ValueError("tournament needs at least two entrants")
        for pattern in self.patterns:
            if pattern not in ALL_PATTERN_NAMES:
                raise ValueError(f"unknown pattern {pattern!r}")
        for sync in self.sync_styles:
            if sync not in SYNC_STYLES:
                raise ValueError(f"unknown sync style {sync!r}")
        known = policy_choices() + (NO_PREFETCH,)
        for policy in self.policies:
            if policy not in known:
                raise ValueError(
                    f"unknown entrant {policy!r}; known: {sorted(known)}"
                )
        if len(set(self.policies)) != len(self.policies):
            raise ValueError("duplicate entrants")
        if not self.fault_plans:
            raise ValueError("tournament needs at least one fault plan")
        names = [plan_name(plan) for plan in self.fault_plans]
        if len(set(names)) != len(names):
            raise ValueError("duplicate fault plans")
        if self.base.faults is not None and self.fault_plans == (None,):
            object.__setattr__(self, "fault_plans", (self.base.faults,))

    def cells(self) -> Iterator[Tuple[str, str, Optional[FaultPlan]]]:
        """Every valid (pattern, sync, fault plan) cell, in matrix order
        (lw/portion is skipped: the paper's footnote 3 combination does
        not exist)."""
        for pattern in self.patterns:
            for sync in self.sync_styles:
                if pattern == "lw" and sync == "portion":
                    continue
                for plan in self.fault_plans:
                    yield pattern, sync, plan

    def config_for(
        self,
        pattern: str,
        sync_style: str,
        policy: str,
        plan: Optional[FaultPlan] = None,
    ) -> ExperimentConfig:
        """The run config of one entrant in one cell."""
        if policy == NO_PREFETCH:
            return self.base.with_overrides(
                pattern=pattern,
                sync_style=sync_style,
                prefetch=False,
                faults=plan,
            )
        return self.base.with_overrides(
            pattern=pattern,
            sync_style=sync_style,
            prefetch=True,
            policy=policy,
            faults=plan,
        )


@dataclass
class TournamentCell:
    """One entrant's run in one cell."""

    pattern: str
    sync_style: str
    policy: str
    result: RunResult
    winner: bool = False
    #: Fault-plan axis entry ("none" = healthy; else the plan digest).
    plan: str = "none"


@dataclass
class TournamentResult:
    """Every cell of a finished tournament, with winners marked."""

    spec: TournamentSpec
    cells: List[TournamentCell]

    def groups(
        self,
    ) -> "Dict[Tuple[str, str, str], List[TournamentCell]]":
        """Cells grouped by (pattern, sync, plan), in matrix order."""
        out: Dict[Tuple[str, str, str], List[TournamentCell]] = {}
        for cell in self.cells:
            out.setdefault(
                (cell.pattern, cell.sync_style, cell.plan), []
            ).append(cell)
        return out

    def winners(self) -> Dict[Tuple[str, str, str], str]:
        """(pattern, sync, plan) -> winning policy (lowest total time;
        ties go to the earlier entrant in spec order)."""
        return {
            key: min(group, key=lambda c: c.result.total_time).policy
            for key, group in self.groups().items()
        }

    def resilience_score(self, cell: TournamentCell) -> Optional[float]:
        """Healthy elapsed time / this faulted cell's elapsed time, for
        the same (pattern, sync, policy) — 1.0 means the faults cost the
        entrant nothing, smaller means slower under chaos.  ``None`` for
        healthy cells and when the matrix has no healthy plan."""
        if cell.plan == "none":
            return None
        for other in self.cells:
            if (
                other.plan == "none"
                and other.pattern == cell.pattern
                and other.sync_style == cell.sync_style
                and other.policy == cell.policy
            ):
                if cell.result.total_time <= 0.0:
                    return None
                return other.result.total_time / cell.result.total_time
        return None

    def standings(self) -> List[Tuple[str, int]]:
        """(policy, cells won), best first, in entrant order on ties."""
        wins = {policy: 0 for policy in self.spec.policies}
        for winner in self.winners().values():
            wins[winner] += 1
        order = {p: i for i, p in enumerate(self.spec.policies)}
        return sorted(
            wins.items(), key=lambda item: (-item[1], order[item[0]])
        )

    def beats_baseline(self, policy: str) -> Tuple[int, int]:
        """(cells where ``policy`` beat the no-prefetch baseline, cells
        compared) — the ISSUE's adaptive-vs-none acceptance measure."""
        won = total = 0
        for group in self.groups().values():
            by_policy = {c.policy: c for c in group}
            if policy not in by_policy or NO_PREFETCH not in by_policy:
                continue
            total += 1
            if (
                by_policy[policy].result.total_time
                < by_policy[NO_PREFETCH].result.total_time
            ):
                won += 1
        return won, total

    def league_row(self, cell: TournamentCell) -> Tuple:
        """One league-table row for :data:`LEAGUE_COLUMNS`."""
        result = cell.result
        summary = result.adaptive_distance_summary
        if summary:
            distance = f"{summary['initial']:.0f}->{summary['final']:.1f}"
        else:
            distance = "-"
        healthy = cell.plan == "none"
        score = self.resilience_score(cell)
        return (
            cell.pattern,
            cell.sync_style,
            cell.plan,
            cell.policy,
            result.total_time,
            result.read_p50,
            result.read_p99,
            result.hit_ratio,
            result.unused_prefetch_rate,
            distance,
            "-" if healthy else (
                f"{result.disk_errors}/{result.disk_retries}"
                f"/{result.disk_timeouts}"
            ),
            "-" if healthy else result.time_degraded,
            "-" if score is None else score,
            "*" if cell.winner else "",
        )

    def render(self) -> str:
        """The ASCII league table."""
        n_cells = len(self.groups())
        return render_table(
            LEAGUE_COLUMNS,
            [self.league_row(cell) for cell in self.cells],
            title=(
                f"policy tournament: {n_cells} cells x "
                f"{len(self.spec.policies)} entrants "
                f"(seed {self.spec.base.seed})"
            ),
        )

    def to_csv(self) -> str:
        """The league table as CSV (:data:`CSV_COLUMNS`)."""
        getters = [get for column, _, get in MEASURES if column is not None]
        lines = [",".join(CSV_COLUMNS)] + [
            ",".join(_csv_value(get(self, cell)) for get in getters)
            for cell in self.cells
        ]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hex digest over every cell's reported numbers, in order.

        Equal digests mean two tournament executions produced
        bit-identical league tables — the CI smoke reruns the tournament
        and compares (the run cache makes the second pass cheap).
        """
        from hashlib import blake2b

        from ..perf.digest import canonical_json

        payload = canonical_json(
            [
                {
                    key: get(self, cell)
                    for _, key, get in MEASURES
                    if key is not None
                }
                for cell in self.cells
            ]
        )
        return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def run_tournament(
    spec: TournamentSpec,
    *,
    jobs: int = 1,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
) -> TournamentResult:
    """Race every entrant across every cell and mark the winners."""
    from ..perf.executor import execute_runs

    matrix = list(spec.cells())
    configs = [
        spec.config_for(pattern, sync, policy, plan)
        for pattern, sync, plan in matrix
        for policy in spec.policies
    ]
    if progress is not None:
        progress(
            f"tournament: {len(matrix)} cells x {len(spec.policies)} "
            f"entrants = {len(configs)} runs (jobs={jobs})"
        )
    results = execute_runs(configs, jobs=jobs, cache=cache)

    cells: List[TournamentCell] = []
    index = 0
    for pattern, sync, plan in matrix:
        for policy in spec.policies:
            cells.append(
                TournamentCell(
                    pattern=pattern,
                    sync_style=sync,
                    policy=policy,
                    result=results[index],
                    plan=plan_name(plan),
                )
            )
            index += 1
    tournament = TournamentResult(spec=spec, cells=cells)
    winners = tournament.winners()
    for cell in cells:
        cell.winner = (
            winners[(cell.pattern, cell.sync_style, cell.plan)]
            == cell.policy
        )
    return tournament
