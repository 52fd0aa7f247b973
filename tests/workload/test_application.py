"""Tests for the synthetic application process."""

from repro.fs.trace import TraceMeta
from repro.sim import RandomStreams
from repro.traces import ReplayRecorder
from repro.workload import (
    ProgressTracker,
    application,
    make_pattern,
    make_sync,
)

from ..helpers import build_stack


def run_workload(pattern_name="gw", sync_style="none", n_nodes=2,
                 total_reads=10, file_blocks=10, compute_mean=0.0,
                 per_proc_k=10, seed=1, recorder=None):
    env, machine, file, cache, server, metrics = build_stack(
        n_nodes=n_nodes, n_disks=n_nodes, file_blocks=file_blocks
    )
    if recorder is not None:
        recorder.attach(env)
    rng = RandomStreams(seed)
    pattern = make_pattern(
        pattern_name, n_nodes=n_nodes, total_reads=total_reads,
        file_blocks=file_blocks, rng=rng,
    )
    tracker = ProgressTracker(pattern, n_nodes)
    sync = make_sync(sync_style, env, n_nodes, pattern,
                     per_proc_k=per_proc_k)
    apps = [
        env.process(
            application(node, server, tracker, sync, pattern, rng,
                        compute_mean)
        )
        for node in machine.nodes
    ]
    env.run(until=env.all_of(apps))
    return env, machine, cache, metrics, tracker, sync


def test_application_consumes_all_references():
    env, machine, cache, metrics, tracker, sync = run_workload()
    assert tracker.all_done()
    assert metrics.total_accesses == 10
    cache.check_invariants()


def test_application_with_compute_takes_longer():
    env_fast, *_ = run_workload(compute_mean=0.0, seed=2)
    env_slow, *_ = run_workload(compute_mean=50.0, seed=2)
    # With compute the run must stretch well beyond the I/O-only run.
    assert env_slow.now > env_fast.now > 0


def test_per_proc_sync_produces_barrier_waits():
    env, machine, cache, metrics, tracker, sync = run_workload(
        pattern_name="lw", sync_style="per-proc", n_nodes=2,
        total_reads=20, file_blocks=100, per_proc_k=5,
    )
    # 10 reads per node, k=5: 2 barrier generations, 2 waits each.
    assert len(sync.wait_times) == 4
    assert tracker.all_done()


def test_portion_sync_local_pattern_completes():
    env, machine, cache, metrics, tracker, sync = run_workload(
        pattern_name="lfp", sync_style="portion", n_nodes=2,
        total_reads=40, file_blocks=100,
    )
    assert tracker.all_done()
    # 20 reads/node with portion length 10: 2 portions each: 4 waits.
    assert len(sync.wait_times) == 4


def test_portion_sync_random_portions_no_deadlock():
    """lrp with portion sync: unequal portion counts need departures."""
    env, machine, cache, metrics, tracker, sync = run_workload(
        pattern_name="lrp", sync_style="portion", n_nodes=4,
        total_reads=80, file_blocks=200, seed=5,
    )
    assert tracker.all_done()


def test_total_sync_global_pattern_completes():
    env, machine, cache, metrics, tracker, sync = run_workload(
        pattern_name="gw", sync_style="total", n_nodes=2,
        total_reads=20, file_blocks=20,
    )
    assert tracker.all_done()


def test_deterministic_replay():
    def run(seed):
        *_, metrics, tracker, _ = run_workload(
            pattern_name="grp", sync_style="per-proc", n_nodes=3,
            total_reads=30, file_blocks=60, compute_mean=5.0, seed=seed,
            per_proc_k=5,
        )
        return metrics.end_time, metrics.read_times.total

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_reads_follow_local_string_order():
    recorder = ReplayRecorder(
        TraceMeta(workload="lfp", n_nodes=2, file_blocks=100)
    )
    run_workload(
        pattern_name="lfp", n_nodes=2, total_reads=20, file_blocks=100,
        recorder=recorder,
    )
    pattern = make_pattern("lfp", n_nodes=2, total_reads=20, file_blocks=100)
    trace0 = recorder.finish().timelines()[0]
    assert [r.block for r in trace0] == [int(b) for b in pattern.strings[0]]
