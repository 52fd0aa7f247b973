"""Proof of preservation: the write path does not perturb read-only runs.

The write subsystem (dirty buffers, flusher daemons, throttling) was
added *after* the read-only testbed reproduced the paper's figures.  Its
design promise is that every write-path branch is dead unless a pattern
actually writes: ``configure_writeback`` is only called — and daemons
only built — when ``pattern.has_writes``.  These digests were recorded
from the commit immediately *before* the write path existed; the six
read-only paper patterns must still produce bit-identical event traces,
with and without prefetching.  If one of these fails, a write-path
change leaked into the read path — fix the leak, do not re-record.

A read-write faulted cell then proves the new machinery is itself
deterministic (run-twice, diff event traces and fault schedules).

A second table pins five cells that exercise what the read-only table
does not — fault injection, the observability recorder, the adaptive
policy, and the write path — so any change to the event kernel's
``(time, priority, sequence)`` order shows up as a digest change.
"""

import pytest

from repro.analysis.audit import run_twice_and_diff, run_with_audit
from repro.experiments import ExperimentConfig
from repro.faults import FailSlow, FaultPlan, ResiliencePolicy, TransientErrors

#: blake2b/16 event-trace digests keyed by (pattern, prefetch on),
#: recorded before the write path existed.  Do not update these to make
#: a test pass: a digest change on a read-only pattern IS the bug.
GOLDEN_READ_ONLY_DIGESTS = {
    ("lfp", True): "24b3c33808d737a8bc7bf31d31e8ca3d",
    ("lfp", False): "5c11c8019fd60c4de8cdcf0d140295d0",
    ("lrp", True): "5db0834f7c1bfaba78ffa6e512a09e9f",
    ("lrp", False): "b6b9a17fbc4735fef5bf1b2a0aab5b08",
    ("lw", True): "ad7476a9842e594c6532f04aa4dd7ed0",
    ("lw", False): "534dbde4720dbf4a7ab76aa27ec87319",
    ("gfp", True): "357288fde080baa90822902c1c25ed1e",
    ("gfp", False): "c75e9e31c4a6e9cfe208757b0109e7e5",
    ("grp", True): "df780484c5e8af86baf01aaa6d53169b",
    ("grp", False): "b1a1786e058ca3bde071a04cff116994",
    ("gw", True): "efa47b8b529331250fdd58ef3c72916d",
    ("gw", False): "6bde6539a51dbe764e47cea82bf34d1b",
}


def _read_only_config(pattern: str, prefetch: bool) -> ExperimentConfig:
    return ExperimentConfig(
        pattern=pattern,
        sync_style="per-proc",
        prefetch=prefetch,
        policy="oracle",
        n_nodes=4,
        n_disks=4,
        file_blocks=400,
        total_reads=400,
        compute_mean=30.0,
        seed=1,
        record_trace=False,
    )


@pytest.mark.parametrize(
    "pattern,prefetch", sorted(GOLDEN_READ_ONLY_DIGESTS)
)
def test_read_only_patterns_bit_identical_to_pre_write_era(
    pattern, prefetch
):
    report = run_with_audit(_read_only_config(pattern, prefetch))
    assert report.trace_digest == GOLDEN_READ_ONLY_DIGESTS[
        (pattern, prefetch)
    ], (
        f"read-only pattern {pattern!r} (prefetch={prefetch}) no longer "
        "matches its pre-write-path event trace: the write subsystem "
        "has leaked into the read path"
    )


#: Downscaled sizing of the kernel-order cells below.
_SMALL = {"n_nodes": 4, "n_disks": 4, "file_blocks": 200, "total_reads": 200}

_FAIL_SLOW_TRANSIENT = FaultPlan(
    faults=(
        FailSlow(disk=1, factor=5.0, start=100.0, end=900.0),
        TransientErrors(disk=2, probability=0.3, start=100.0, end=800.0),
    ),
    resilience=ResiliencePolicy(
        timeout=240.0, max_retries=40, backoff_base=10.0, backoff_max=120.0
    ),
)

#: blake2b/16 event-trace digests (``sweep_interval=None``) keyed by cell
#: name: (config, obs recorder attached, digest).  Same rule as above —
#: do not re-record: a changed digest means the event order changed.
KERNEL_ORDER_DIGESTS = {
    "gw-oracle": (
        ExperimentConfig(
            pattern="gw", sync_style="per-proc", n_nodes=4, n_disks=4,
            file_blocks=400, total_reads=400, seed=1,
        ),
        False,
        "acdda9762ee3e6a06e34e45f8e17e09e",
    ),
    "gw-faulted": (
        ExperimentConfig(pattern="gw", faults=_FAIL_SLOW_TRANSIENT, **_SMALL),
        False,
        "4a0f3824f06e4d445e9188abec4df222",
    ),
    "grp-per-proc-obs": (
        ExperimentConfig(pattern="grp", sync_style="per-proc", **_SMALL),
        True,
        "952e1e403429634933676d9db5ef077c",
    ),
    "gw-adaptive": (
        ExperimentConfig(
            pattern="gw", sync_style="none", policy="adaptive", **_SMALL
        ),
        False,
        "7d1826fd7363c709092fc13afc70fc87",
    ),
    "lfp-rw-oracle": (
        ExperimentConfig(pattern="lfp-rw", **_SMALL),
        False,
        "94afad335c44dfca9d538f1b9cb9774c",
    ),
}


@pytest.mark.parametrize("cell", sorted(KERNEL_ORDER_DIGESTS))
def test_kernel_event_order_pinned(cell):
    config, obs, digest = KERNEL_ORDER_DIGESTS[cell]
    report = run_with_audit(config, sweep_interval=None, obs=obs)
    assert report.trace_digest == digest, (
        f"cell {cell!r} no longer matches its pinned event trace: the "
        "kernel's (time, priority, sequence) order has changed"
    )

def test_read_only_run_arms_no_write_machinery():
    result = run_with_audit(_read_only_config("lfp", True)).result
    assert result.total_writes == 0
    assert result.flush_count == 0
    assert result.dirty_peak == 0
    assert result.throttle_stall_count == 0


def test_read_write_faulted_run_is_deterministic():
    """The full write stack — flusher daemons, throttle, retried
    writebacks under a fail-slow disk, dirty-pressure feedback into the
    adaptive policy — replays bit-for-bit."""
    config = ExperimentConfig(
        pattern="lfp-rw",
        sync_style="none",
        policy="adaptive",
        n_nodes=4,
        n_disks=4,
        file_blocks=160,
        total_reads=160,
        faults=FaultPlan(
            faults=(FailSlow(disk=0, factor=4.0, start=200.0, end=1500.0),),
            resilience=ResiliencePolicy(
                timeout=240.0,
                max_retries=40,
                backoff_base=10.0,
                backoff_max=120.0,
            ),
        ),
        record_trace=False,
    )
    report = run_twice_and_diff(config)
    assert report.identical, report.summary()
    first, second = report.first.result, report.second.result
    # The cell genuinely exercised the write machinery...
    assert first.total_writes > 0
    assert first.flush_count > 0
    # ... and the fault schedule replayed bit-for-bit.
    assert first.fault_digest == second.fault_digest


def test_write_mode_changes_the_trace_of_a_rw_run():
    """Sanity check that the preservation proof is not vacuous: on a
    pattern that *does* write, the write-path knobs do change the event
    trace."""
    base = dict(
        pattern="lfp-rw",
        sync_style="none",
        policy="oracle",
        n_nodes=4,
        n_disks=4,
        file_blocks=160,
        total_reads=160,
        record_trace=False,
    )
    back = run_with_audit(ExperimentConfig(**base, write_mode="write-back"))
    through = run_with_audit(
        ExperimentConfig(**base, write_mode="write-through")
    )
    assert back.trace_digest != through.trace_digest
    assert through.result.flush_count >= through.result.total_writes
