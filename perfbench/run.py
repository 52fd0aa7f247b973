"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --report            # every workload, traced
    python3 perfbench/run.py --pin               # rewrite perfbench/pins.json

One workload run prints a table of its metrics and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` adds a cProfile-traced pass and reports
the per-layer metrics.  The exit code is 0 only when every simulation
passed its checks and every pinned digest matched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
PINS = BENCH_DIR / "pins.json"

#: Seed whose per-simulation digests are pinned in ``pins.json``.
DEFAULT_SEED = 1
#: Child processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Seconds any child process may take before it is killed.
CHILD_TIMEOUT_S = 170


def _bootstrap() -> None:
    """Put the checkout's simulator source on the import path, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator source not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--setup-only",
        action="store_true",
        help="import and build the workload, print the ready time, exit",
    )
    mode.add_argument(
        "--report",
        action="store_true",
        help="run every workload traced, each in its own process",
    )
    mode.add_argument(
        "--pin",
        action="store_true",
        help="pin every workload's digests for the default seed",
    )
    args = parser.parse_args(argv)
    if not (args.report or args.pin) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def _units(spec: dict, key: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def _load_pins(workload: str, seed: int) -> dict:
    if seed != DEFAULT_SEED or not PINS.is_file():
        return {}
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def measure_setup(workload: str, seed: int, probe) -> float:
    """Median normalized time from spawning a fresh interpreter to the
    point where its workload is built and the first simulation could
    start (``time.monotonic`` is system-wide, so the child reports it)."""
    from perfbench.probe import NOMINAL_MS

    samples = []
    before = probe.time_ms()
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = _child("--setup-only", "--workload", workload, "--seed", str(seed))
        ready = float(child.stdout.split()[-1])
        after = probe.time_ms()
        samples.append((ready - start) * NOMINAL_MS / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>16.6g}  {units[name]}")


def _print_layer_table(traced, overhead: float) -> None:
    """Self time per layer of the traced pass, per access and as a share
    of all profiled self time."""
    total = sum(traced.self_s.values())
    print(
        f"layer table: one cProfile pass of {traced.accesses} accesses, "
        f"{overhead:.2f}x the untraced host time"
    )
    for layer, seconds in traced.self_s.items():
        print(
            f"  {layer:<12} {seconds * 1e6 / traced.accesses:>10.2f} us/access"
            f" {100.0 * seconds / total:>6.1f}%"
        )


def run_workload(args, sizing=None) -> int:
    """Measure one workload, print its tables and result line, and
    return the exit code.  ``sizing`` defaults to the timed sizing."""
    from perfbench import harness, workloads
    from perfbench.probe import Probe

    # The process's one probe, built before anything else so that its
    # working set is measured exactly and left out of peak_rss_mib.
    probe = Probe()
    sims = workloads.build(args.workload, args.seed, sizing or workloads.FULL)
    spec = _spec()
    setup_s = measure_setup(args.workload, args.seed, probe)
    run = harness.measure(sims, args.seconds, probe)
    harness.report_failures(run)
    e2e_units = _units(spec, "end_to_end")
    e2e = harness.end_to_end(run, setup_s)
    print(
        f"{args.workload} seed {args.seed}: {len(sims)} simulations x "
        f"{run.passes} passes = {len(run.samples())} timed samples, "
        f"{run.failed} failed"
    )
    for index, (raw_s, norm_s) in enumerate(run.pass_seconds()):
        print(f"  pass {index}: {raw_s:.3f} s raw, {norm_s:.3f} s normalized")
    _print_table("end-to-end", e2e, e2e_units)
    pins = _load_pins(args.workload, args.seed)
    metrics, units = e2e, e2e_units
    if args.trace:
        traced = harness.traced_pass(sims, probe)
        metrics = harness.per_layer(run, traced, pins)
        units = _units(spec, "per_layer")
        _print_layer_table(traced, metrics["trace.overhead"])
        _print_table("per-layer (self_us from the traced pass)", metrics, units)
    if set(metrics) != set(units):
        raise SystemExit(
            "perfbench: metrics disagree with BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    matched = harness.pinned_matches(run, pins)
    correct = run.failed == 0 and matched == len(pins)
    if not correct:
        print(
            f"perfbench: {run.failed} failed, "
            f"{matched}/{len(pins)} pinned digests matched",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


def setup_only(args) -> int:
    from perfbench import harness, workloads  # noqa: F401 - timed import

    workloads.build(args.workload, args.seed)
    print(time.monotonic())
    return 0


def report(args) -> int:
    """Every workload, traced, each in its own process."""
    status = 0
    for workload in (w["name"] for w in _spec()["workloads"]):
        child = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                "1",
            ],
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        status = status or child.returncode
    return status


def pin(args) -> int:
    """Rewrite pins.json from one untimed pass of every workload."""
    from perfbench import harness, workloads

    pins = {}
    for workload in workloads.WORKLOADS:
        sims = workloads.build(workload, DEFAULT_SEED)
        run = harness.measure(sims, seconds=0.0)
        if run.failed:
            harness.report_failures(run)
            return 1
        pins[workload] = {
            sim.label: outcome.digest
            for sim, outcome in zip(run.sims, run.outcomes)
        }
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    if args.setup_only:
        return setup_only(args)
    if args.report:
        return report(args)
    if args.pin:
        return pin(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
