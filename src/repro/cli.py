"""Command-line interface: ``rapid-transit`` / ``python -m repro``.

Subcommands:

* ``run``     — run one experiment cell (pattern/sync/intensity) paired
  with its no-prefetch baseline and print the comparison;
* ``suite``   — run the full paper mix and print the summary table;
* ``figure``  — regenerate one paper figure (fig1, fig3..fig16, vd,
  vf-buffers, vf-patterns, the ext-* extensions, and the abl-* ablations)
  and print its table and shape checks (``--scatter`` adds the y=x view);
* ``sweep``   — sweep any ExperimentConfig parameter with paired runs;
* ``report``  — regenerate *every* figure into a markdown report;
* ``analyze`` — offline analysis of a trace file (what ``trace record``,
  ``trace synth`` and ``trace import`` write): what-if hit ratios,
  sequentiality, and Fig. 2 taxonomy classification;
* ``audit``   — determinism audit: run one configuration twice (prefetch
  on and off), compare event-trace hashes, and report same-instant
  resource collisions and invariant sweeps (see docs/analysis.md);
* ``faults``  — fault-injection plans (see docs/faults.md):
  ``faults make`` composes a plan from ``--fail-stop``/``--fail-slow``/
  ``--transient``/``--hot-spot`` specs plus resilience knobs and writes
  it as JSON; ``faults show`` pretty-prints a saved plan and its digest.
  ``run``, ``audit``, ``trace record``, and ``trace replay`` all accept
  ``--faults plan.json`` to execute under that plan;
* ``trace``   — the trace lifecycle (see docs/traces.md):
  ``trace record`` captures a replayable trace from a live run,
  ``trace synth`` generates non-paper workloads (bursty, phased, skewed,
  mixed), ``trace import`` adapts external block-trace CSVs,
  ``trace replay`` drives a trace through the full simulator as a paired
  prefetch on/off comparison (``--audit`` replays twice and diffs event
  hashes), and ``trace stats`` summarizes a trace file;
* ``obs``     — the observability layer (see docs/obs.md):
  ``obs export`` runs one cell under the span tracer and writes a
  Chrome/Perfetto trace-event JSON (``--format csv`` writes metric
  timelines + spans as CSV instead), ``obs timeline`` renders the span
  timeline as ASCII lanes, and ``obs attribute`` decomposes each node's
  wall time into compute / demand-I/O stall / sync wait / daemon theft
  for a paired comparison;
* ``lint``    — simlint v2 (see docs/analysis.md): the per-file
  determinism rules plus whole-program taint and hook-purity analysis,
  with SARIF/JSON output, a findings baseline (fail only on new), an
  incremental per-file result cache, and ``--jobs`` parallelism.

``run --audit`` additionally runs the paired comparison under the runtime
auditor: event-trace hashing, the simultaneous-event race detector, and
periodic cache/disk invariant sweeps.  ``run --obs`` appends the per-node
bottleneck-attribution tables; ``audit --obs`` carries the observability
recorder through both audited runs, proving tracing is schedule-neutral.

``run``, ``suite``, ``figure``, ``tournament`` and ``obs attribute``
accept ``--jobs N`` (fan independent simulations out to N worker
processes), ``--cache-dir DIR`` and ``--no-cache`` (memoize completed
runs on disk); ``audit --jobs`` parallelizes the two audited cells.
Defaults keep everything sequential and uncached.  See docs/perf.md.

The ten verbs that simulate (``run``, ``audit``, ``tournament``,
``soak``, ``sweep``, ``trace record``/``replay`` and the three ``obs``
verbs) take their :class:`ExperimentConfig` fields from one flag table
(:func:`add_config_flags`, :func:`config_from_args`): a flag names the
same field, with ExperimentConfig's default, everywhere; verbs differ
only in which fields they take and in their sizing and sync defaults.

Exit status: 0 on success, 1 when a check the command ran failed (an
audit, a figure's or soak's checks, ``--check-digest``, ``--validate``),
and 2 for a usage or input error, reported as one ``error:`` line that
names the field or file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .analysis.lint import add_lint_arguments, run_cli as lint_cli
from .experiments import ExperimentConfig, run_lead_sweep, run_pair, run_suite
from .experiments.figures import FigureData
from .experiments.report_gen import (
    CHAOS_FIGURES,
    FIGURE_IDS,
    LEAD_FIGURES,
    STANDALONE_FIGURES,
    SUITE_FIGURES,
)
from .faults.plan import (
    FailSlow,
    FailStop,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    HotSpot,
    ResiliencePolicy,
    TransientErrors,
)
from .fs.writeback import WRITE_MODES
from .metrics.report import (
    ATTRIBUTION_COLUMNS,
    attribution_rows,
    attribution_summary,
    fault_measure_rows,
    paired_measure_rows,
    render_table,
)
from .prefetch.factory import policy_choices
from .workload.patterns import ALL_PATTERN_NAMES, PATTERN_NAMES
from .workload.synchronization import SYNC_STYLES

__all__ = ["main", "add_config_flags", "config_from_args", "FIGURE_IDS"]

T = TypeVar("T")


class _InputError(Exception):
    """A value the user gave is unusable: :func:`main` prints it as one
    ``error:`` line and exits 2."""


def _checked(build: Callable[..., T], **kwargs: Any) -> T:
    """``build(**kwargs)``, with a ValueError (the config and spec checks
    name the field they reject) turned into an input error."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise _InputError(exc) from None


def _read(load: Callable[[str], T], path: str) -> T:
    """``load(path)`` for a verb that reads a file without building a
    config: a missing or malformed file is an input error naming it."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        text = str(exc)
        raise _InputError(text if path in text else f"{path}: {text}") from None


def _plan_arg(path: str) -> FaultPlan:
    """argparse ``type`` of ``--faults``: load the plan when the flags are
    parsed, so a missing or malformed file is a usage error naming it."""
    try:
        return FaultPlan.load(path)
    except (OSError, FaultPlanError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _plan_axis_arg(entry: str) -> Optional[FaultPlan]:
    """argparse ``type`` of a ``--fault-plans`` entry: ``none`` is the
    healthy machine, anything else a plan file."""
    return None if entry == "none" else _plan_arg(entry)


def _config_flags() -> Dict[str, Tuple[str, Dict[str, Any]]]:
    """The ExperimentConfig fields a verb can take as flags: field ->
    (flag, argparse options).  Built per parser, so a policy registered
    after import is a ``--policy`` choice too."""
    return {
        "pattern": ("--pattern", dict(
            choices=ALL_PATTERN_NAMES,
            help="access pattern: the paper's six read-only names or a "
            "read-write cell (lfp-rw, gw-rw, wstream)",
        )),
        "sync_style": ("--sync", dict(choices=SYNC_STYLES)),
        "compute_mean": ("--compute", dict(
            type=float, help="mean per-block compute time (ms)",
        )),
        "seed": ("--seed", dict(type=int)),
        "policy": ("--policy", dict(choices=list(policy_choices()))),
        "lead": ("--lead", dict(
            type=int, help="minimum prefetch lead in references",
        )),
        "prefetch": ("--no-prefetch", dict(
            action="store_false",
            help="run the no-prefetch baseline instead",
        )),
        "n_nodes": ("--nodes", dict(type=int)),
        "n_disks": ("--disks", dict(type=int)),
        "file_blocks": ("--file-blocks", dict(type=int)),
        "total_reads": ("--reads", dict(
            type=int, help="total reads across all processes "
            "(default %(default)s; None is the paper's 2000)",
        )),
        "faults": ("--faults", dict(
            type=_plan_arg, metavar="PLAN.json",
            help="fault plan to inject (see 'faults make')",
        )),
        "write_mode": ("--write-mode", dict(
            choices=WRITE_MODES,
            help="write-back (flusher daemon + dirty-ratio throttle) or "
            "write-through (every write flushed synchronously); ignored "
            "on read-only patterns",
        )),
        "dirty_ratio": ("--dirty-ratio", dict(
            type=float, metavar="R",
            help="foreground throttle threshold as a fraction of cache "
            "buffers (Linux vm.dirty_ratio; default 0.5)",
        )),
        "dirty_background_ratio": ("--dirty-background-ratio", dict(
            type=float, metavar="R",
            help="background flusher threshold (Linux "
            "vm.dirty_background_ratio; default 0.25)",
        )),
    }


def add_config_flags(
    parser: argparse.ArgumentParser,
    fields: Sequence[str],
    **verb_defaults: Any,
) -> None:
    """Give ``parser`` the flags of the ExperimentConfig ``fields``.

    Each flag defaults to ExperimentConfig's own default unless
    ``verb_defaults`` overrides it; a ``verb_defaults`` field without a
    flag here is fixed for the verb.  :func:`config_from_args` builds
    the config from exactly these fields.
    """
    table = _config_flags()
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    for name in fields:
        flag, options = table[name]
        parser.add_argument(flag, dest=name, default=defaults[name], **options)
    parser.set_defaults(config_fields=(*fields, *verb_defaults), **verb_defaults)


def config_from_args(
    args: argparse.Namespace, **overrides: Any
) -> ExperimentConfig:
    """The ExperimentConfig a verb's parsed flags describe, ``overrides``
    on top; a value the config rejects is an input error (exit 2)."""
    values = {name: getattr(args, name) for name in args.config_fields}
    return _checked(ExperimentConfig, **{**values, **overrides})


def _print_figure(fig: FigureData, scatter: bool = False) -> None:
    print(render_table(fig.columns, fig.rows, title=fig.title))
    if scatter:
        points = fig.paired_points()
        if points is not None:
            from .metrics.report import render_scatter

            print()
            print(render_scatter(
                points,
                diagonal=True,
                xlabel=fig.columns[1],
                ylabel=fig.columns[2],
                title="below the diagonal = prefetching wins",
            ))
        else:
            print("(no y=x scatter view for this figure)")
    if fig.notes:
        print(f"note: {fig.notes}")
    for name, ok in fig.checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")


def _print_audit(report) -> None:
    print(
        f"audit [{report.label}]: {report.n_events} events, "
        f"trace digest {report.trace_digest}, "
        f"{report.n_collisions} same-instant resource collisions, "
        f"{report.invariant_sweeps} invariant sweeps (all passed)"
    )


def _add_perf_flags(
    parser: argparse.ArgumentParser, cache: bool = True
) -> None:
    """The shared performance flags: worker fan-out and, unless the verb
    never caches, run caching."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for independent simulations "
        "(default 1: sequential, in-process)",
    )
    if not cache:
        return
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="memoize completed runs under DIR "
        "(default: $REPRO_CACHE_DIR if set, else no caching)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the run cache even if $REPRO_CACHE_DIR is set",
    )


def _add_output_flags(parser: argparse.ArgumentParser, what: str) -> None:
    """The digest-gated drivers' outputs (see :func:`_write_outputs`)."""
    parser.add_argument("--csv", default=None, metavar="FILE",
                        help=f"also write the {what} table as CSV")
    parser.add_argument(
        "--digest-out", default=None, metavar="FILE",
        help=f"write the {what} digest (for a later --check-digest)",
    )
    parser.add_argument(
        "--check-digest", default=None, metavar="FILE",
        help="compare against a saved digest; exit 1 on mismatch",
    )


def _write_outputs(args: argparse.Namespace, what: str, report) -> bool:
    """Write ``--csv``, print the digest, write ``--digest-out`` and check
    ``--check-digest`` for a tournament or soak ``report``; False when
    the digest does not match."""
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}", file=sys.stderr)
    digest = report.digest()
    print(f"{what} digest: {digest}")
    if args.digest_out:
        with open(args.digest_out, "w") as fh:
            fh.write(digest + "\n")
    if not args.check_digest:
        return True
    with open(args.check_digest) as fh:
        expected = fh.read().strip()
    if digest != expected:
        print(
            f"digest mismatch: expected {expected}, got {digest}",
            file=sys.stderr,
        )
        return False
    print("digest check: PASS")
    return True


def _open_cache(args: argparse.Namespace):
    """The run cache the perf flags select (None = caching off)."""
    from .perf.cache import open_cache

    return open_cache(
        getattr(args, "cache_dir", None), getattr(args, "no_cache", False)
    )


def _print_attribution(base, pf) -> None:
    """Per-node wall-time attribution tables for a paired comparison."""
    for tag, result in (("no-prefetch", base), ("prefetch", pf)):
        print()
        print(
            render_table(
                ATTRIBUTION_COLUMNS,
                attribution_rows(result),
                title=f"wall-time attribution [{tag}] "
                f"(obs digest {result.obs_digest})",
            )
        )
        print(attribution_summary(result))


def _print_fault_summary(base, pf) -> None:
    print()
    print(
        render_table(
            ["fault measure", "no-prefetch", "prefetch"],
            fault_measure_rows(base, pf),
            title=f"degraded-mode measures (plan digest "
            f"{pf.config.faults.digest})",
        )
    )
    print(f"fault-event digests: no-prefetch {base.fault_digest}, "
          f"prefetch {pf.fault_digest}")


def _cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    audits = []
    cache = None
    if args.audit:
        from .analysis.audit import run_with_audit

        pf_report = run_with_audit(config)
        base_report = run_with_audit(config.paired_baseline())
        pf, base = pf_report.result, base_report.result
        audits = [base_report, pf_report]
    else:
        cache = _open_cache(args)
        pf, base = run_pair(config, jobs=args.jobs, cache=cache)
    print(
        render_table(
            ["measure", "no-prefetch", "prefetch"],
            paired_measure_rows(base, pf),
            title=f"{config.pattern}/{config.sync_style}/"
            f"{config.intensity} (seed {config.seed})",
        )
    )
    if config.faults is not None:
        _print_fault_summary(base, pf)
    if args.obs:
        _print_attribution(base, pf)
    for report in audits:
        _print_audit(report)
    if cache is not None:
        print(cache.summary())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .perf.executor import execute_audits

    config = config_from_args(args)
    verdicts = execute_audits(
        [config, config.paired_baseline()], jobs=args.jobs, obs=args.obs
    )
    ok = True
    for verdict in verdicts:
        print(verdict["summary"])
        ok = ok and verdict["identical"]
    tag = " (with observability recorder attached)" if args.obs else ""
    print(f"determinism audit{tag}:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .experiments.tournament import (
        NO_PREFETCH,
        TournamentSpec,
        run_tournament,
    )

    # Left out, the plan axis keeps the spec's default (one healthy
    # column, or the lifted --faults plan).
    axis = {"fault_plans": tuple(args.fault_plans)} if args.fault_plans else {}
    spec = _checked(
        TournamentSpec,
        patterns=tuple(args.patterns),
        sync_styles=tuple(args.sync),
        policies=tuple(args.policies),
        base=config_from_args(args),
        **axis,
    )
    tournament = run_tournament(
        spec,
        jobs=args.jobs,
        cache=_open_cache(args),
        progress=lambda msg: print(msg, file=sys.stderr),
    )

    print(tournament.render())
    print()
    print("standings (cells won):")
    for policy, wins in tournament.standings():
        print(f"  {policy}: {wins}")
    if NO_PREFETCH in spec.policies:
        for policy in spec.policies:
            if policy == NO_PREFETCH:
                continue
            won, total = tournament.beats_baseline(policy)
            print(f"{policy} beat no-prefetch in {won}/{total} cells")
    return 0 if _write_outputs(args, "tournament", tournament) else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from .experiments.soak import SoakSpec, run_soak

    base = config_from_args(args)
    spec = _checked(
        SoakSpec,
        n_plans=args.plans,
        seed=base.seed,
        pattern=args.pattern,
        sync_style=args.sync,
        policy=args.policy,
        base=base,
    )

    if args.save_plans:
        import os

        os.makedirs(args.save_plans, exist_ok=True)
        for index, plan in enumerate(spec.plans()):
            path = os.path.join(args.save_plans, f"soak-{index}.json")
            plan.save(path)
            print(f"wrote {path} ({plan.digest})", file=sys.stderr)

    report = run_soak(
        spec, progress=lambda msg: print(msg, file=sys.stderr)
    )
    print(report.render())
    print()
    for cell in report.cells:
        if cell.error:
            print(f"plan {cell.index} crashed: {cell.error}")
    for index, name in report.failures():
        print(f"invariant FAILED: plan {index}: {name}")
    print(
        f"invariant sweep ({len(report.cells)} plans x "
        f"{len(report.cells[0].invariants)} invariants):",
        "PASS" if report.passed else "FAIL",
    )
    matched = _write_outputs(args, "soak", report)
    return 0 if report.passed and matched else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    suite = run_suite(
        seed=args.seed,
        progress=(lambda msg: print(msg, file=sys.stderr))
        if args.verbose
        else None,
        jobs=args.jobs,
        cache=cache,
    )
    rows = [
        (
            p.label,
            p.baseline.total_time,
            p.prefetch.total_time,
            p.total_time_reduction,
            p.read_time_reduction,
            p.prefetch.hit_ratio,
        )
        for p in suite.pairs
    ]
    print(
        render_table(
            [
                "experiment",
                "base total",
                "pf total",
                "total red %",
                "read red %",
                "hit ratio",
            ],
            rows,
            title=f"Full suite, seed {suite.seed} ({len(rows)} cells)",
        )
    )
    if cache is not None:
        print(cache.summary())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    fig_id = args.id
    cache = _open_cache(args)
    if fig_id in SUITE_FIGURES:
        suite = run_suite(seed=args.seed, jobs=args.jobs, cache=cache)
        fig = SUITE_FIGURES[fig_id](suite)
    elif fig_id in LEAD_FIGURES:
        sweep = run_lead_sweep(seed=args.seed, jobs=args.jobs, cache=cache)
        fig = LEAD_FIGURES[fig_id](sweep)
    else:
        generator = {**STANDALONE_FIGURES, **CHAOS_FIGURES}[fig_id]
        fig = generator(seed=args.seed, jobs=args.jobs, cache=cache)
    _print_figure(fig, scatter=args.scatter)
    if cache is not None:
        print(cache.summary())
    return 0 if fig.all_checks_pass else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import SweepResult, run_sweep

    base = config_from_args(args)
    # Values are parsed as int, then float, then kept as strings.
    values = []
    for raw in args.values:
        for cast in (int, float):
            try:
                values.append(cast(raw))
                break
            except ValueError:
                continue
        else:
            values.append(raw)
    sweep = run_sweep(args.param, values, base=base)
    print(
        render_table(
            SweepResult.COLUMNS,
            sweep.rows(),
            title=f"sweep {args.param} on {base.pattern}/{base.sync_style}",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report_gen import generate_report

    figures = generate_report(
        args.output,
        seed=args.seed,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    n_checks = sum(len(f.checks) for f in figures)
    n_pass = sum(sum(f.checks.values()) for f in figures)
    print(f"wrote {args.output}: {n_pass}/{n_checks} checks pass")
    return 0 if n_pass == n_checks else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .experiments.analysis import (
        classify_pattern,
        lru_hit_ratio,
        opt_hit_ratio,
        outcome_counts,
        run_lengths,
        sequentiality,
    )
    from .fs.trace import ReplayTrace

    trace = _read(ReplayTrace.load, args.trace)
    print(f"{len(trace)} accesses; outcomes {outcome_counts(trace)}")
    seq = sequentiality(trace)
    print(
        f"global sequentiality: successor {seq['successor_fraction']:.2f}, "
        f"monotone {seq['monotone_fraction']:.2f}"
    )
    klass = classify_pattern(trace)
    print(
        f"taxonomy (Fig. 2): looks like '{klass.name}' — scope "
        f"{klass.scope}, {'overlapped' if klass.overlapped else 'disjoint'},"
        f" {'regular' if klass.regular_portions else 'irregular'} portions"
    )
    for size in args.cache_sizes:
        print(
            f"what-if cache of {size} blocks: "
            f"LRU hit ratio {lru_hit_ratio(trace, size):.3f}, "
            f"OPT bound {opt_hit_ratio(trace, size):.3f}"
        )
    runs = run_lengths(trace)
    lengths = [length for rs in runs.values() for length in rs]
    if lengths:
        print(
            f"sequential runs: {len(lengths)} runs, mean length "
            f"{sum(lengths) / len(lengths):.1f}, max {max(lengths)}"
        )
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .traces import record_run

    config = config_from_args(args)
    result, trace = record_run(config)
    trace.save(args.output)
    print(
        f"recorded {len(trace)} reads from [{config.label}] "
        f"(total time {result.total_time:.1f} ms) -> {args.output}"
    )
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from .analysis.audit import run_twice_and_diff
    from .traces import ReplayTrace, replay_config, replay_pair

    trace = _read(ReplayTrace.load, args.trace)
    n_disks = args.n_disks if args.n_disks is not None else trace.meta.n_nodes
    config = replay_config(trace, config_from_args(args, n_disks=n_disks))
    faults = config.faults
    if args.audit:
        ok = True
        for cell in (config, config.paired_baseline()):
            report = run_twice_and_diff(cell, pattern=trace.to_pattern())
            print(report.summary())
            ok = ok and report.identical
        print("replay determinism audit:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    pf, baseline = replay_pair(trace, config)
    fault_tag = (
        f", faults {faults.digest}" if faults is not None else ""
    )
    print(
        render_table(
            ["measure", "no-prefetch", "prefetch"],
            paired_measure_rows(baseline, pf),
            title=f"replay of {args.trace} "
            f"({trace.meta.source} '{trace.meta.workload}', "
            f"{trace.meta.n_nodes} nodes, policy {args.policy}"
            f"{fault_tag})",
        )
    )
    if faults is not None:
        _print_fault_summary(baseline, pf)
    recorded_digest = trace.meta.extra.get("fault_plan_digest")
    if recorded_digest:
        print(
            f"note: trace was recorded under fault plan {recorded_digest}"
        )
    return 0


def _cmd_trace_synth(args: argparse.Namespace) -> int:
    from .traces import make_synthetic_trace

    trace = make_synthetic_trace(
        args.kind,
        n_nodes=args.nodes,
        file_blocks=args.file_blocks,
        reads_per_node=args.reads_per_node,
        seed=args.seed,
        compute_mean=args.compute,
        sync_every=args.sync_every,
        write_fraction=args.write_fraction,
    )
    trace.save(args.output)
    n_writes = sum(1 for r in trace if r.op == "w")
    mix = f" ({n_writes} writes)" if n_writes else ""
    print(
        f"synthesized '{args.kind}' trace: {len(trace)} accesses{mix} on "
        f"{args.nodes} nodes (seed {args.seed}) -> {args.output}"
    )
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    from .traces import import_csv_trace

    def load(path: str):
        return import_csv_trace(
            path, workload=args.workload, file_blocks=args.file_blocks
        )

    trace = _read(load, args.csv)
    trace.save(args.output)
    extra = trace.meta.extra
    notes = []
    if extra.get("sorted"):
        notes.append("rows re-sorted by timestamp")
    if extra.get("compute_derived"):
        notes.append("compute gaps derived from inter-arrival times")
    if extra.get("portions_derived"):
        notes.append("portions derived by sequential-run detection")
    print(
        f"imported {len(trace)} reads on {trace.meta.n_nodes} nodes "
        f"(file of {trace.meta.file_blocks} blocks) -> {args.output}"
    )
    for note in notes:
        print(f"  note: {note}")
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from .traces import ReplayTrace

    trace = _read(ReplayTrace.load, args.trace)
    meta = trace.meta
    stats = trace.stats()
    print(
        f"{args.trace}: {meta.source} '{meta.workload}' trace, "
        f"{meta.n_nodes} nodes, file of {meta.file_blocks} blocks"
    )
    if meta.seed is not None:
        print(f"  seed {meta.seed}, sync style '{meta.sync_style}'")
    per_node = stats["reads_per_node"]
    print(
        f"  {stats['n_records']} reads of {stats['distinct_blocks']} "
        f"distinct blocks (per node min {min(per_node)}, "
        f"max {max(per_node)})"
    )
    print(
        f"  compute: mean {stats['compute_mean']:.2f} ms, "
        f"total {stats['compute_total']:.1f} ms; "
        f"{stats['sync_joins']} barrier visits"
    )
    print(f"  sequentiality: successor fraction "
          f"{stats['sequentiality']:.2f}")
    hot = ", ".join(
        f"{block} (x{count})" for block, count in stats["hot_blocks"]
    )
    print(f"  hottest blocks: {hot}")
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    import json

    from .obs import (
        run_with_obs,
        spans_to_csv,
        timelines_to_csv,
        to_perfetto,
        validate_perfetto,
    )

    config = config_from_args(args)
    result, data = run_with_obs(config, sample_interval=args.interval)
    if args.format == "perfetto":
        payload = to_perfetto(data)
        if args.validate:
            errors = validate_perfetto(payload)
            for error in errors:
                print(f"INVALID {error}", file=sys.stderr)
            if errors:
                return 1
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        print(
            f"wrote {args.output}: {len(payload['traceEvents'])} trace "
            f"events ({len(data.spans.spans)} spans on "
            f"{len(data.spans.tracks())} tracks), obs digest {data.digest}"
        )
        print("open it at https://ui.perfetto.dev or chrome://tracing")
    else:
        spans_path = args.output + ".spans.csv"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(timelines_to_csv(data.timelines))
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(spans_to_csv(data.spans))
        print(
            f"wrote {args.output} (metric timelines) and {spans_path} "
            f"({len(data.spans.spans)} spans), obs digest {data.digest}"
        )
    print(
        f"[{config.label}] total time {result.total_time:.1f} ms, "
        f"{result.n_events} events"
    )
    return 0


def _cmd_obs_timeline(args: argparse.Namespace) -> int:
    from .obs import render_ascii, run_with_obs, timelines_to_csv

    config = config_from_args(args)
    _, data = run_with_obs(config, sample_interval=args.interval)
    print(render_ascii(data, width=args.width))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(timelines_to_csv(data.timelines))
        print(f"wrote metric timelines to {args.csv}")
    return 0


def _cmd_obs_attribute(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    cache = _open_cache(args)
    pf, base = run_pair(config, jobs=args.jobs, cache=cache)
    print(
        f"bottleneck attribution for {config.pattern}/{config.sync_style}/"
        f"{config.intensity} (seed {config.seed}): wall = compute + "
        "demand stall + sync wait + daemon theft, per node"
    )
    _print_attribution(base, pf)
    if cache is not None:
        print(cache.summary())
    return 0


def _parse_fault_spec(kind: str, raw: str) -> FaultSpec:
    """One ``--fail-stop``/``--fail-slow``/``--transient``/``--hot-spot``
    value: colon-separated numbers, disk id first (see ``faults make -h``).
    """
    parts = raw.split(":")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise FaultPlanError(f"--{kind} {raw!r}: expected numbers") from None
    if not numbers or not numbers[0].is_integer():
        raise FaultPlanError(f"--{kind} {raw!r}: first field is the disk id")
    disk = int(numbers[0])
    rest = numbers[1:]

    def window(values: List[float]) -> dict:
        out: dict = {}
        if len(values) >= 1:
            out["start"] = values[0]
        if len(values) >= 2:
            out["end"] = values[1]
        if len(values) > 2:
            raise FaultPlanError(f"--{kind} {raw!r}: too many fields")
        return out

    if kind == "fail-stop":
        if not 1 <= len(rest) <= 2:
            raise FaultPlanError(
                f"--fail-stop {raw!r}: want DISK:AT[:RECOVER]"
            )
        return FailStop(
            disk=disk,
            at=rest[0],
            recover=rest[1] if len(rest) == 2 else None,
        )
    if kind == "fail-slow":
        if not rest:
            raise FaultPlanError(
                f"--fail-slow {raw!r}: want DISK:FACTOR[:START[:END]]"
            )
        return FailSlow(disk=disk, factor=rest[0], **window(rest[1:]))
    if kind == "transient":
        if not rest:
            raise FaultPlanError(
                f"--transient {raw!r}: want DISK:PROB[:START[:END]]"
            )
        return TransientErrors(
            disk=disk, probability=rest[0], **window(rest[1:])
        )
    if kind == "hot-spot":
        if not rest:
            raise FaultPlanError(
                f"--hot-spot {raw!r}: want DISK:ALPHA[:START[:END]]"
            )
        return HotSpot(disk=disk, alpha=rest[0], **window(rest[1:]))
    raise FaultPlanError(f"unknown fault kind {kind!r}")


def _cmd_faults_make(args: argparse.Namespace) -> int:
    try:
        specs: List[FaultSpec] = []
        for kind, values in (
            ("fail-stop", args.fail_stop),
            ("fail-slow", args.fail_slow),
            ("transient", args.transient),
            ("hot-spot", args.hot_spot),
        ):
            for raw in values:
                specs.append(_parse_fault_spec(kind, raw))
        if not specs:
            print("error: no faults given (see --fail-stop etc.)",
                  file=sys.stderr)
            return 2
        plan = FaultPlan(
            faults=tuple(specs),
            resilience=ResiliencePolicy(
                max_retries=args.max_retries,
                timeout=args.timeout,
                backoff_base=args.backoff_base,
                backoff_factor=args.backoff_factor,
                backoff_max=args.backoff_max,
                backoff_jitter=args.backoff_jitter,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown=args.breaker_cooldown,
            ),
            name=args.name,
        )
    except (FaultPlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plan.save(args.output)
    print(f"wrote {args.output} ({len(plan.faults)} faults):")
    for line in plan.describe():
        print(f"  {line}")
    print(f"digest {plan.digest}")
    return 0


def _cmd_faults_show(args: argparse.Namespace) -> int:
    plan = _read(FaultPlan.load, args.plan)
    name = f" '{plan.name}'" if plan.name else ""
    print(f"fault plan{name}: {len(plan.faults)} faults")
    for line in plan.describe():
        print(f"  {line}")
    r = plan.resilience
    print(
        f"resilience: max_retries={r.max_retries}, timeout={r.timeout}, "
        f"backoff {r.backoff_base}x{r.backoff_factor} (max {r.backoff_max}, "
        f"jitter {r.backoff_jitter}), breaker threshold "
        f"{r.breaker_threshold} / cooldown {r.breaker_cooldown}"
    )
    print(f"digest {plan.digest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapid-transit",
        description="RAPID Transit reproduction (Kotz & Ellis, ICPP 1989)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Field groups of the config-flag table (add_config_flags).
    cell = ("pattern", "sync_style", "compute_mean", "seed")
    sizing = ("n_nodes", "n_disks", "file_blocks", "total_reads")
    writes = ("write_mode", "dirty_ratio", "dirty_background_ratio")
    small = dict(n_nodes=4, n_disks=4, file_blocks=400, total_reads=400)

    p_run = sub.add_parser("run", help="run one experiment cell (paired)")
    add_config_flags(
        p_run,
        (*cell, "policy", "lead", *sizing, "faults", *writes),
        sync_style="per-proc",
    )
    p_run.add_argument(
        "--audit", action="store_true",
        help="run under the determinism auditor: event-trace hashing, "
        "race detection, periodic invariant sweeps",
    )
    p_run.add_argument(
        "--obs", action="store_true",
        help="append the per-node wall-time attribution tables "
        "(compute / demand stall / sync wait / daemon theft)",
    )
    _add_perf_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_audit = sub.add_parser(
        "audit",
        help="determinism audit: run twice, diff event-trace hashes",
    )
    add_config_flags(
        p_audit,
        (*cell, "policy", *sizing, "faults", *writes),
        sync_style="per-proc",
        **small,
    )
    # Audits never use the run cache.
    _add_perf_flags(p_audit, cache=False)
    p_audit.add_argument(
        "--obs", action="store_true",
        help="attach the observability recorder to every audited run; "
        "an identical verdict then also proves span tracing and "
        "timeline sampling are schedule-neutral",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_tour = sub.add_parser(
        "tournament",
        help="race prefetch policies across the pattern/sync matrix "
        "and print the league table",
    )
    p_tour.add_argument(
        "--patterns", nargs="+", choices=ALL_PATTERN_NAMES,
        default=list(PATTERN_NAMES), metavar="PATTERN",
        help=f"patterns to race over (default: all of {PATTERN_NAMES}; "
        "read-write cells lfp-rw/gw-rw/wstream race with the writeback "
        "subsystem armed)",
    )
    p_tour.add_argument(
        "--sync", nargs="+", choices=SYNC_STYLES, default=["none"],
        metavar="STYLE",
        help="sync styles to race over (default: none); lw x portion "
        "cells are skipped",
    )
    p_tour.add_argument(
        "--policies", nargs="+", default=["none", "oracle", "adaptive"],
        metavar="POLICY",
        help="entrants: 'none' (no prefetching) or any registered "
        "policy (default: none oracle adaptive)",
    )
    add_config_flags(p_tour, ("compute_mean", "seed", *sizing, "faults"))
    p_tour.add_argument(
        "--fault-plans", nargs="+", type=_plan_axis_arg, default=None,
        metavar="PLAN",
        help="third matrix axis: each entry is 'none' (healthy) or a "
        "fault-plan JSON path; every (pattern, sync) cell is raced once "
        "per plan and faulted cells report degraded-mode measures plus "
        "a resilience score against their healthy counterpart "
        "(supersedes --faults)",
    )
    _add_output_flags(p_tour, "tournament")
    _add_perf_flags(p_tour)
    p_tour.set_defaults(func=_cmd_tournament)

    p_soak = sub.add_parser(
        "soak",
        help="seeded chaos soak: generate blessed fault plans and assert "
        "run-level invariants (no hang, no lost request, breaker "
        "recovery, bit-identical reruns) on every cell",
    )
    p_soak.add_argument(
        "--plans", type=int, default=5, metavar="N",
        help="fault plans to generate from the seed (default 5); each "
        "plan overlaps 2-3 faults of at least two distinct kinds",
    )
    p_soak.add_argument(
        "--pattern", choices=PATTERN_NAMES, default="lw",
        help="access pattern of every soak cell (default lw)",
    )
    p_soak.add_argument(
        "--sync", choices=SYNC_STYLES, default="none",
        help="sync style of every soak cell (default none)",
    )
    p_soak.add_argument(
        "--policy", default="adaptive",
        help="entrant to soak: 'none' (no prefetching) or any "
        "registered policy (default adaptive)",
    )
    add_config_flags(
        p_soak,
        ("compute_mean", "seed", *sizing),
        n_nodes=8,
        n_disks=8,
        file_blocks=640,
        total_reads=640,
    )
    p_soak.add_argument(
        "--save-plans", default=None, metavar="DIR",
        help="also write every generated plan as JSON into DIR",
    )
    _add_output_flags(p_soak, "soak")
    p_soak.set_defaults(func=_cmd_soak)

    p_suite = sub.add_parser("suite", help="run the full paper mix")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--verbose", action="store_true")
    _add_perf_flags(p_suite)
    p_suite.set_defaults(func=_cmd_suite)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("id", choices=FIGURE_IDS)
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument(
        "--scatter", action="store_true",
        help="also render the y=x ASCII scatter (paired figures)",
    )
    _add_perf_flags(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one ExperimentConfig parameter (paired runs)"
    )
    p_sweep.add_argument("param", help="field to sweep, e.g. lead")
    p_sweep.add_argument("values", nargs="+", help="values to try")
    add_config_flags(p_sweep, cell, sync_style="per-proc")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser(
        "report", help="regenerate every figure into a markdown report"
    )
    p_rep.add_argument("-o", "--output", default="REPORT.md")
    p_rep.add_argument("--seed", type=int, default=1)
    p_rep.set_defaults(func=_cmd_report)

    p_an = sub.add_parser("analyze", help="offline trace analysis")
    p_an.add_argument("trace", help="replay trace file (JSON lines)")
    p_an.add_argument(
        "--cache-sizes", type=int, nargs="+", default=[20, 80, 200]
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_trace = sub.add_parser(
        "trace",
        help="record, synthesize, import, replay, and inspect "
        "replay traces",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_rec = trace_sub.add_parser(
        "record", help="run an experiment and record a replayable trace"
    )
    p_rec.add_argument("-o", "--output", required=True,
                       help="trace file to write (JSON lines)")
    # --no-prefetch records from the baseline, the usual choice: the
    # workload timeline is then policy-independent.  A --faults digest
    # lands in the trace header as provenance.
    add_config_flags(p_rec, (*cell, "prefetch", *sizing, "faults"))
    p_rec.set_defaults(func=_cmd_trace_record)

    p_repl = trace_sub.add_parser(
        "replay",
        help="replay a trace through the full simulator "
        "(paired prefetch on/off comparison)",
        description="Replay a trace through the full simulator as a "
        "paired prefetch on/off comparison.  The machine has one disk "
        "per traced node unless --disks says otherwise.",
    )
    p_repl.add_argument("trace", help="replay trace file")
    add_config_flags(
        p_repl, ("policy", "lead", "n_disks", "faults"), n_disks=None
    )
    p_repl.add_argument(
        "--audit", action="store_true",
        help="replay twice under the determinism auditor and diff "
        "event-trace hashes (exit 1 on divergence)",
    )
    p_repl.set_defaults(func=_cmd_trace_replay)

    p_synth = trace_sub.add_parser(
        "synth", help="generate a synthetic workload trace"
    )
    p_synth.add_argument(
        "kind", choices=["bursty", "phased", "skewed", "mixed"]
    )
    p_synth.add_argument("-o", "--output", required=True)
    p_synth.add_argument("--nodes", type=int, default=20)
    p_synth.add_argument("--file-blocks", type=int, default=2000)
    p_synth.add_argument("--reads-per-node", type=int, default=100)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--compute", type=float, default=30.0)
    p_synth.add_argument(
        "--write-fraction", type=float, default=0.0, metavar="F",
        help="convert this fraction of each node's accesses into "
        "whole-block writes (0 = read-only, the default)",
    )
    p_synth.add_argument(
        "--sync-every", type=int, default=0,
        help="barrier visit after every N reads per node (0 = none)",
    )
    p_synth.set_defaults(func=_cmd_trace_synth)

    p_imp = trace_sub.add_parser(
        "import", help="import an external block-trace CSV"
    )
    p_imp.add_argument("csv", help="CSV with columns time,node,block"
                       "[,compute][,portion]")
    p_imp.add_argument("-o", "--output", required=True)
    p_imp.add_argument("--workload", default="imported",
                       help="workload name stored in the trace header")
    p_imp.add_argument(
        "--file-blocks", type=int, default=None,
        help="file size in blocks (default: max block + 1)",
    )
    p_imp.set_defaults(func=_cmd_trace_import)

    p_stats = trace_sub.add_parser(
        "stats", help="summarize a replay trace"
    )
    p_stats.add_argument("trace", help="replay trace file")
    p_stats.set_defaults(func=_cmd_trace_stats)

    def add_obs_cell_flags(p: argparse.ArgumentParser, *extra: str) -> None:
        """The experiment-cell flags every ``obs`` verb shares.

        Defaults are the audit sizing (small machine, short run): obs
        verbs are exploratory tools, and a 4x4 cell already exhibits
        every span kind.
        """
        add_config_flags(
            p,
            (*cell, "policy", "lead", *extra, *sizing, "faults"),
            sync_style="per-proc",
            **small,
        )
        p.add_argument(
            "--interval", type=float, default=50.0, metavar="MS",
            help="metric-timeline sampling interval in simulated ms "
            "(default 50)",
        )

    p_obs = sub.add_parser(
        "obs",
        help="span tracing, metric timelines, Perfetto export, and "
        "bottleneck attribution",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_oexp = obs_sub.add_parser(
        "export",
        help="run one cell under the span tracer and export the trace",
    )
    p_oexp.add_argument("-o", "--output", required=True,
                        help="output file (trace JSON or timelines CSV)")
    p_oexp.add_argument(
        "--format", choices=["perfetto", "csv"], default="perfetto",
        help="perfetto: Chrome trace-event JSON (default); csv: metric "
        "timelines to OUTPUT plus spans to OUTPUT.spans.csv",
    )
    p_oexp.add_argument(
        "--validate", action="store_true",
        help="schema-check the Perfetto payload before writing "
        "(exit 1 and write nothing on violations)",
    )
    add_obs_cell_flags(p_oexp, "prefetch")
    p_oexp.set_defaults(func=_cmd_obs_export)

    p_otl = obs_sub.add_parser(
        "timeline", help="render the span timeline as ASCII lanes"
    )
    p_otl.add_argument("--width", type=int, default=64,
                       help="timeline width in characters")
    p_otl.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the metric timelines as CSV",
    )
    add_obs_cell_flags(p_otl, "prefetch")
    p_otl.set_defaults(func=_cmd_obs_timeline)

    p_oattr = obs_sub.add_parser(
        "attribute",
        help="decompose wall time into compute / demand stall / "
        "sync wait / daemon theft, paired prefetch on/off",
    )
    add_obs_cell_flags(p_oattr)
    _add_perf_flags(p_oattr)
    p_oattr.set_defaults(func=_cmd_obs_attribute)

    p_faults = sub.add_parser(
        "faults", help="compose and inspect fault-injection plans"
    )
    faults_sub = p_faults.add_subparsers(
        dest="faults_command", required=True
    )

    p_fmake = faults_sub.add_parser(
        "make", help="compose a fault plan and write it as JSON"
    )
    p_fmake.add_argument("-o", "--output", required=True,
                         help="plan file to write (JSON)")
    p_fmake.add_argument("--name", default="", help="plan name")
    p_fmake.add_argument(
        "--fail-stop", action="append", default=[], metavar="D:AT[:REC]",
        help="disk D dies at time AT ms (recovering at REC)",
    )
    p_fmake.add_argument(
        "--fail-slow", action="append", default=[],
        metavar="D:FACTOR[:START[:END]]",
        help="disk D serves FACTOR x slower over the window",
    )
    p_fmake.add_argument(
        "--transient", action="append", default=[],
        metavar="D:PROB[:START[:END]]",
        help="disk D's transfers complete with an error with "
        "probability PROB over the window",
    )
    p_fmake.add_argument(
        "--hot-spot", action="append", default=[],
        metavar="D:ALPHA[:START[:END]]",
        help="disk D slows by (1 + ALPHA x queue depth) over the window",
    )
    p_fmake.add_argument("--max-retries", type=int, default=4)
    p_fmake.add_argument(
        "--timeout", type=float, default=0.0,
        help="per-request timeout ms (0 disables; required to survive "
        "an unrecovered fail-stop)",
    )
    p_fmake.add_argument("--backoff-base", type=float, default=5.0)
    p_fmake.add_argument("--backoff-factor", type=float, default=2.0)
    p_fmake.add_argument("--backoff-max", type=float, default=200.0)
    p_fmake.add_argument("--backoff-jitter", type=float, default=0.25)
    p_fmake.add_argument("--breaker-threshold", type=int, default=3)
    p_fmake.add_argument("--breaker-cooldown", type=float, default=500.0)
    p_fmake.set_defaults(func=_cmd_faults_make)

    p_fshow = faults_sub.add_parser(
        "show", help="pretty-print a saved fault plan and its digest"
    )
    p_fshow.add_argument("plan", help="plan file (JSON)")
    p_fshow.set_defaults(func=_cmd_faults_show)

    p_lint = sub.add_parser(
        "lint",
        help="simlint v2: determinism rules + whole-program flow "
        "analysis (see docs/analysis.md)",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=lint_cli)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
