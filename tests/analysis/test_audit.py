"""Runtime auditor: event-trace hashing, the same-instant race detector,
invariant promotion, and the twice-run determinism proof."""

import pytest

from repro.analysis import InvariantViolation, invariant, run_twice_and_diff
from repro.analysis.audit import Auditor, run_with_audit
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.machine.disk import Disk, RequestKind
from repro.sim import Environment
from repro.sim.monitor import EventTraceHash, SimultaneousEventLog


def small_config(**overrides):
    base = dict(
        n_nodes=4,
        n_disks=4,
        file_blocks=80,
        total_reads=80,
        pattern="gw",
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------- EventTraceHash


class _Ev:
    pass


class _OtherEv:
    pass


def test_trace_hash_identical_streams_match():
    a, b = EventTraceHash(), EventTraceHash()
    for h in (a, b):
        h(0.0, 0, 1, _Ev())
        h(1.5, -1, 2, _Ev())
    assert a.hexdigest() == b.hexdigest()
    assert a.n_events == b.n_events == 2


@pytest.mark.parametrize(
    "key",
    [(0.0, 0, 2), (0.5, 0, 1), (0.0, -1, 1)],
    ids=["sequence", "time", "priority"],
)
def test_trace_hash_sensitive_to_ordering_key(key):
    a, b = EventTraceHash(), EventTraceHash()
    a(0.0, 0, 1, _Ev())
    b(*key, _Ev())
    assert a.hexdigest() != b.hexdigest()


def test_trace_hash_sensitive_to_event_type():
    a, b = EventTraceHash(), EventTraceHash()
    a(0.0, 0, 1, _Ev())
    b(0.0, 0, 1, _OtherEv())
    assert a.hexdigest() != b.hexdigest()


# --------------------------------------------------- SimultaneousEventLog


class _Queue:
    pass


class _Request:
    def __init__(self, resource):
        self.resource = resource


def test_race_detector_flags_same_instant_same_resource():
    log = SimultaneousEventLog()
    queue = _Queue()
    log(5.0, 0, 1, _Request(queue))
    log(5.0, 0, 2, _Request(queue))
    log.finish()
    assert log.n_collisions == 1
    (collision,) = log.collisions
    assert collision.time == 5.0
    assert collision.resource == "_Queue"
    assert collision.n_events == 2


def test_race_detector_ignores_distinct_resources_and_instants():
    log = SimultaneousEventLog()
    log(5.0, 0, 1, _Request(_Queue()))
    log(5.0, 0, 2, _Request(_Queue()))  # same instant, different queues
    log(6.0, 0, 3, _Request(_Queue()))  # later instant
    log(6.0, 0, 4, _Ev())  # no .resource at all
    log.finish()
    assert log.n_collisions == 0


def test_race_detector_priority_separates_buckets():
    log = SimultaneousEventLog()
    queue = _Queue()
    log(5.0, 0, 1, _Request(queue))
    log(5.0, 1, 2, _Request(queue))
    log.finish()
    assert log.n_collisions == 0


def test_race_detector_caps_retained_collisions():
    log = SimultaneousEventLog(keep=2)
    for i in range(4):
        queue = _Queue()
        log(float(i), 0, 2 * i, _Request(queue))
        log(float(i), 0, 2 * i + 1, _Request(queue))
    log.finish()
    assert log.n_collisions == 4
    assert len(log.collisions) == 2


def _audited_disk_log(n_requests):
    """Submit ``n_requests`` to one idle disk at t=0 under an auditor."""
    env = Environment()
    auditor = Auditor(sweep_interval=None)
    auditor.on_environment(env)
    disk = Disk(env, 0)
    for block in range(n_requests):
        disk.submit(block, RequestKind.DEMAND, node_id=block)
    env.run()
    auditor.race_log.finish()
    return auditor.race_log


def test_race_detector_single_submission_to_idle_disk_is_no_race():
    assert _audited_disk_log(1).n_collisions == 0


def test_race_detector_flags_same_instant_disk_submissions():
    log = _audited_disk_log(2)
    assert log.n_collisions == 1
    (collision,) = log.collisions
    assert collision.resource == "Disk"
    assert collision.time == 0.0
    assert collision.n_events == 2


# ------------------------------------------------------------- invariants


def test_invariant_helper_passes_and_fails():
    invariant(True, "never raised")
    with pytest.raises(InvariantViolation, match="broke \\[1, 'two'\\]"):
        invariant(False, "broke", 1, "two")


def test_invariant_violation_is_an_assertion_error():
    assert issubclass(InvariantViolation, AssertionError)


def test_corrupted_cache_state_raises():
    class Capture:
        cache = None

        def on_environment(self, env):
            pass

        def on_wired(self, env, machine, cache):
            self.cache = cache

    capture = Capture()
    run_experiment(small_config(), instrument=capture)
    cache = capture.cache
    assert cache is not None
    cache.check_invariants()  # healthy after the run
    cache.unused_prefetched += 1  # desync counter from budget holders
    with pytest.raises(InvariantViolation, match="prefetch-unused"):
        cache.check_invariants()


def test_auditor_rejects_nonpositive_sweep_interval():
    auditor = Auditor(sweep_interval=0.0)
    with pytest.raises(InvariantViolation, match="sweep interval"):
        run_experiment(small_config(), instrument=auditor)


# ------------------------------------------------------ audited runs


def test_run_with_audit_reports_activity():
    report = run_with_audit(small_config())
    assert report.n_events > 0
    assert len(report.trace_digest) == 32  # blake2b/16 hex
    assert report.invariant_sweeps > 0
    assert report.result.metrics.total_accesses == 80


def test_run_with_audit_sweeps_scale_with_interval():
    fine = run_with_audit(small_config(), sweep_interval=50.0)
    coarse = run_with_audit(small_config(), sweep_interval=1000.0)
    assert fine.invariant_sweeps > coarse.invariant_sweeps


# ---------------------------------------------- twice-run determinism proof


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "prefetch", [True, False], ids=["prefetch", "no-prefetch"]
)
def test_twice_run_identical(seed, prefetch):
    """Acceptance: a 4-node/4-disk experiment run twice produces identical
    event-trace hashes, for two seeds in both prefetch configurations."""
    report = run_twice_and_diff(small_config(seed=seed, prefetch=prefetch))
    assert report.identical, report.summary()
    assert "IDENTICAL" in report.summary()


def test_different_seeds_diverge():
    a = run_with_audit(small_config(seed=1))
    b = run_with_audit(small_config(seed=2))
    assert a.trace_digest != b.trace_digest
