"""Tests for the adaptive prefetch subsystem (classifier, feedback, policy)."""

from types import SimpleNamespace

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, ResilienceLayer, ResiliencePolicy
from repro.machine import RequestKind
from repro.prefetch import AdaptiveConfig, AdaptivePolicy, build_policy
from repro.prefetch.adaptive import (
    KIND_RANDOM,
    KIND_SEQUENTIAL,
    KIND_STRIDED,
    AccessClassifier,
    FeedbackConfig,
    FeedbackController,
    GlobalStreamClassifier,
)
from repro.sim import Environment, RandomStreams

from ..helpers import build_stack

# ------------------------------------------------------------- classifier


def test_classifier_sequential_history():
    clf = AccessClassifier()
    for block in (10, 11, 12, 13):
        clf.observe(block)
    cls = clf.classify()
    assert cls.kind == KIND_SEQUENTIAL
    assert cls.stride == 1
    assert clf.predict(3, 100) == [14, 15, 16]


def test_classifier_strided_history():
    clf = AccessClassifier()
    for block in (0, 5, 10, 15):
        clf.observe(block)
    cls = clf.classify()
    assert cls.kind == KIND_STRIDED
    assert cls.stride == 5
    assert clf.predict(2, 100) == [20, 25]


def test_classifier_backward_stride():
    clf = AccessClassifier()
    for block in (30, 28, 26, 24):
        clf.observe(block)
    assert clf.classify().kind == KIND_STRIDED
    assert clf.predict(3, 100) == [22, 20, 18]


def test_classifier_random_history_predicts_nothing():
    clf = AccessClassifier()
    for block in (7, 91, 3, 55, 20):
        clf.observe(block)
    assert clf.classify().kind == KIND_RANDOM
    assert clf.predict(5, 100) == []


def test_classifier_needs_min_run():
    clf = AccessClassifier(min_run=3)
    clf.observe(10)
    clf.observe(11)  # run of 2: candidate only
    assert clf.classify().kind == KIND_RANDOM
    clf.observe(12)  # confirmation
    assert clf.classify().kind == KIND_SEQUENTIAL


def test_classifier_repeat_access_neutral():
    clf = AccessClassifier()
    for block in (10, 11, 11, 12, 13):
        clf.observe(block)
    assert clf.classify().kind == KIND_SEQUENTIAL


def test_classifier_large_jump_is_random():
    clf = AccessClassifier(max_stride=64)
    for block in (0, 100, 200, 300):
        clf.observe(block)
    assert clf.classify().kind == KIND_RANDOM


def test_classifier_prediction_respects_file_end():
    clf = AccessClassifier()
    for block in (96, 97, 98):
        clf.observe(block)
    assert clf.predict(5, 100) == [99]


def test_classifier_learns_portion_boundary():
    # Two completed 5-block portions at start-stride 20, then a third:
    # prediction must stop at the estimated portion end instead of
    # extrapolating into the gap, and continue in the predicted next
    # portion (regular start stride).
    clf = AccessClassifier()
    for start in (0, 20, 40):
        for off in range(5):
            clf.observe(start + off)
    assert clf.expected_run_length() == 5
    assert clf.start_stride() == 20
    # Last access was 44 (portion start 40, length 5 -> last block 44).
    assert clf.predict(4, 1000) == [60, 61, 62, 63]


def test_classifier_caps_at_boundary_without_regular_stride():
    clf = AccessClassifier()
    for start in (0, 37):  # two portions, irregular spacing
        for off in range(5):
            clf.observe(start + off)
    clf.observe(80)  # third portion begins
    clf.observe(81)
    clf.observe(82)
    assert clf.expected_run_length() == 5
    assert clf.start_stride() is None
    # Estimated end of the current portion is 84: only 83, 84 predicted.
    assert clf.predict(6, 1000) == [83, 84]


def test_classifier_validation():
    with pytest.raises(ValueError):
        AccessClassifier(min_run=1)
    with pytest.raises(ValueError):
        AccessClassifier(max_stride=0)


def test_global_classifier_dense_stream():
    clf = GlobalStreamClassifier(100, warmup=4)
    for block in (0, 2, 1, 3, 4, 6, 5):
        clf.observe(block)
    assert clf.sequential()
    assert clf.frontier == 6
    assert clf.predict(3) == [7, 8, 9]


def test_global_classifier_sparse_stream_silent():
    clf = GlobalStreamClassifier(1000, warmup=4)
    for block in (0, 100, 200, 300, 400):
        clf.observe(block)
    assert not clf.sequential()
    assert clf.predict(3) == []


def test_global_classifier_warmup():
    clf = GlobalStreamClassifier(100, warmup=8)
    for block in range(5):
        clf.observe(block)
    assert not clf.sequential()


def test_global_classifier_prediction_respects_file_end():
    clf = GlobalStreamClassifier(10, warmup=2)
    for block in range(8):
        clf.observe(block)
    assert clf.predict(5) == [8, 9]


# --------------------------------------------------------------- feedback


def test_feedback_grow_and_shrink():
    ctrl = FeedbackController(
        FeedbackConfig(
            initial_distance=2,
            max_distance=8,
            grow_step=1.0,
            shrink_factor=0.5,
        )
    )
    assert ctrl.distance == 2
    ctrl.grow("demand_stall")
    assert ctrl.distance == 3
    ctrl.shrink("unused_eviction")
    assert ctrl.distance == 2  # 3.0 * 0.5 = 1.5 -> rounds to 2
    ctrl.shrink("unused_eviction")
    assert ctrl.distance == 1


def test_feedback_clamps_to_bounds():
    ctrl = FeedbackController(
        FeedbackConfig(
            initial_distance=2,
            min_distance=1,
            max_distance=4,
            grow_step=2.0,
            shrink_factor=0.1,
        )
    )
    for _ in range(10):
        ctrl.grow("prefetch_hit")
    assert ctrl.distance == 4
    for _ in range(10):
        ctrl.shrink("daemon_theft")
    assert ctrl.distance == 1


def test_feedback_degree_follows_distance():
    ctrl = FeedbackController(
        FeedbackConfig(initial_distance=1, max_distance=12, degree_cap=4)
    )
    assert ctrl.degree == 1
    for _ in range(11):
        ctrl.grow("demand_stall")
    assert ctrl.distance == 12
    assert ctrl.degree == 4  # (12+1)//2 = 6, capped at 4


def test_feedback_counts_signals():
    ctrl = FeedbackController()
    ctrl.grow("demand_stall")
    ctrl.grow("demand_stall")
    ctrl.shrink("write_off")
    assert ctrl.signals == {"demand_stall": 2, "write_off": 1}


def test_feedback_on_change_fires_on_integer_steps():
    changes = []
    ctrl = FeedbackController(
        FeedbackConfig(initial_distance=2, grow_step=0.25),
        on_change=lambda: changes.append(ctrl.distance),
    )
    for _ in range(4):
        ctrl.grow("demand_stall")
    assert changes == [3]  # 2.25, 2.5 (rounds to 3? no: 2.5+0.5=3.0 -> 3)


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(min_distance=0)
    with pytest.raises(ValueError):
        FeedbackConfig(initial_distance=9, max_distance=8)
    with pytest.raises(ValueError):
        FeedbackConfig(grow_step=0)
    with pytest.raises(ValueError):
        FeedbackConfig(shrink_factor=1.0)
    with pytest.raises(ValueError):
        FeedbackConfig(overrun_tolerance=-1)
    with pytest.raises(ValueError):
        FeedbackConfig(degree_cap=0)


# ----------------------------------------------------------------- policy


class FakeCache:
    """The slice of BlockCache the adaptive policy touches.  Block ``b``
    lives on disk ``b % n_disks``."""

    def __init__(self, n_nodes=2, n_disks=2):
        self.blocks = set()
        self.departures = 0
        self.env = Environment()
        disks = [SimpleNamespace(disk_id=d) for d in range(n_disks)]
        self.machine = SimpleNamespace(
            nodes=[
                SimpleNamespace(idle_periods=[]) for _ in range(n_nodes)
            ],
            n_disks=n_disks,
            disks=disks,
            disk_for_block=disks.__getitem__,
        )
        self.file = SimpleNamespace(disk_for=lambda block: block % n_disks)
        self.resilience = None

    def contains(self, block):
        return block in self.blocks

    def evict(self, block):
        """Drop a cached block, counting the departure as BlockCache does."""
        self.blocks.remove(block)
        self.departures += 1

    def emit(self, point, *args):
        """Fire probe ``point`` the way the real cache does."""
        for fn in self.env.probe(point):
            fn(*args)


def make_policy(
    n_nodes=2, file_blocks=1000, n_disks=2, breaker_cooldown=None, **feedback
):
    """A policy bound to a :class:`FakeCache`.  With ``breaker_cooldown``
    the cache carries a real resilience layer whose breakers trip on
    the first failure, so the policy runs fault-aware."""
    policy = AdaptivePolicy(
        file_blocks,
        n_nodes,
        AdaptiveConfig(feedback=FeedbackConfig(**feedback)),
    )
    cache = FakeCache(n_nodes, n_disks)
    if breaker_cooldown is not None:
        cache.resilience = ResilienceLayer(
            cache.env,
            FaultPlan(
                resilience=ResiliencePolicy(
                    breaker_threshold=1, breaker_cooldown=breaker_cooldown
                )
            ),
            cache.machine,
            RandomStreams(0),
        )
    policy.bind(cache)
    return policy, cache


def test_policy_validation():
    with pytest.raises(ValueError):
        AdaptivePolicy(1000, 0)


def test_policy_predicts_from_local_history_only():
    policy, _ = make_policy()
    for block in (10, 11, 12):
        policy.observe(0, block)
    ref_index, block = policy.peek(0)
    assert ref_index == -1  # never a reference-string index
    assert block == 13


def test_policy_peek_reserves_and_commit_claims():
    policy, _ = make_policy()
    for block in (10, 11, 12):
        policy.observe(0, block)
    _, block = policy.peek(0)
    # Reserved: a second peek may not re-propose the same block.
    second = policy.peek(0)
    assert second is None or second[1] != block
    policy.commit(0, -1, block)
    third = policy.peek(0)
    assert third is None or third[1] != block


def test_policy_degree_limits_outstanding():
    policy, _ = make_policy(max_distance=4, initial_distance=4)
    for block in (10, 11, 12):
        policy.observe(0, block)
    committed = []
    while True:
        proposal = policy.peek(0)
        if proposal is None:
            break
        policy.commit(0, *proposal)
        committed.append(proposal[1])
    # Degree at distance 4 is (4+1)//2 = 2 per scope; the single-node
    # stream is visible to both the local and the merged-stream global
    # classifier, so each scope commits up to its own degree.
    assert len(committed) == 4


def test_policy_hit_frees_slot_and_grows():
    policy, cache = make_policy(max_distance=4, initial_distance=4)
    for block in (10, 11, 12):
        policy.observe(0, block)
    proposal = policy.peek(0)
    policy.commit(0, *proposal)
    cache.blocks.add(proposal[1])
    before = policy.signal_counts().get("prefetch_hit", 0)
    policy.observe(0, proposal[1])  # the consumer arrives
    assert policy.signal_counts()["prefetch_hit"] == before + 1
    assert policy._outstanding_local[0] == 0


def test_policy_demand_stall_grows_distance():
    policy, cache = make_policy(grow_step=1.0)
    start = policy._controllers[0].distance
    policy.observe(0, 10)  # absent from cache: a stall
    assert policy._controllers[0].distance == start + 1
    cache.blocks.add(11)
    before = policy._controllers[0].distance
    policy.observe(0, 11)  # present: no stall signal
    assert policy._controllers[0].distance == before


def test_policy_unused_eviction_shrinks_and_unclaims():
    policy, cache = make_policy(initial_distance=8, max_distance=8)
    for block in (10, 11, 12):
        policy.observe(0, block)
    proposal = policy.peek(0)
    policy.commit(0, *proposal)
    assert cache.env.probe("fs.unused_prefetch")
    cache.emit("fs.unused_prefetch", 0, proposal[1], "evicted")
    assert policy._outstanding_local[0] == 0
    assert policy.signal_counts()["unused_eviction"] == 1
    assert proposal[1] not in policy._claimed  # re-prefetchable


def test_policy_daemon_theft_shrinks():
    policy, cache = make_policy(
        initial_distance=8, max_distance=8, overrun_tolerance=1.0
    )
    cache.machine.nodes[0].idle_periods.append(
        SimpleNamespace(overrun=5.0)
    )
    policy.observe(0, 10)
    assert policy.signal_counts()["daemon_theft"] == 1
    # Already-scanned periods are not recounted.
    policy.observe(0, 11)
    assert policy.signal_counts()["daemon_theft"] == 1


def test_policy_abort_shrinks_on_budget_pressure():
    policy, _ = make_policy(initial_distance=8, max_distance=8)
    for block in (10, 11, 12):
        policy.observe(0, block)
    proposal = policy.peek(0)
    before = policy._controllers[0].distance
    policy.abort(0, *proposal)
    assert policy.signal_counts()["budget_pressure"] == 1
    assert policy._controllers[0].distance < before


def test_policy_writes_off_stale_commits():
    policy, cache = make_policy(initial_distance=4, max_distance=4)
    for block in (10, 11, 12):
        policy.observe(0, block)
    proposal = policy.peek(0)
    policy.commit(0, *proposal)
    assert policy._outstanding_local[0] == 1
    # Long after the write-off horizon, the slot is reclaimed.
    cache.env.run(until=policy.config.write_off_ms + 1.0)
    policy.peek(0)
    assert policy.signal_counts().get("write_off", 0) >= 1
    assert proposal[1] not in policy._issuer


def test_policy_global_scope_covers_merged_stream():
    # Nodes alternate on one shared sequential stream: each node's own
    # history is stride 2, but the merged stream is dense.
    policy, _ = make_policy(n_nodes=2)
    for block in range(12):
        policy.observe(block % 2, block)
    proposal = policy.peek(0)
    assert proposal is not None


def test_policy_trajectory_and_summary():
    policy, _ = make_policy(grow_step=1.0)
    for block in (10, 11, 12, 13, 14):
        policy.observe(0, block)  # stalls grow the distance
    trajectory = policy.distance_trajectory()
    assert len(trajectory) >= 2
    times = [t for t, _ in trajectory]
    assert times == sorted(times)
    summary = policy.distance_summary()
    assert summary["final"] > summary["initial"]
    assert summary["min"] <= summary["initial"] <= summary["max"]
    assert summary["changes"] >= 1


def test_policy_never_exhausts():
    policy, _ = make_policy()
    assert not policy.exhausted(0)


# -------------------------------------------------------------- peek memo


def count_scans(policy):
    """Record the node of each full scan ``policy`` runs from now on; a
    peek that runs none was answered from the memo."""
    scans = []
    scan = policy._scan

    def spy(node_id):
        scans.append(node_id)
        return scan(node_id)

    policy._scan = spy
    return scans


def test_memo_expires_when_the_write_off_head_ages():
    # Degree 1 per scope: one local and one global commit fill both
    # slots, so the node's peeks come back empty until a write-off.
    policy, cache = make_policy(
        n_nodes=1, initial_distance=8, max_distance=8, degree_cap=1
    )
    for block in (10, 11, 12):
        policy.observe(0, block)
    while True:
        proposal = policy.peek(0)
        if proposal is None:
            break
        policy.commit(0, *proposal)
    scans = count_scans(policy)
    cache.env.run(until=policy.config.write_off_ms - 1.0)
    assert policy.peek(0) is None
    assert scans == []
    # Only the clock moves: the heads committed at 0 reach write_off_ms.
    cache.env.run(until=policy.config.write_off_ms)
    assert policy.peek(0) is not None
    assert scans == [0]
    assert policy.signal_counts()["write_off"] >= 1


def test_memo_expires_when_a_breaker_cooldown_ends():
    # One disk: every candidate sits behind the one breaker.
    policy, cache = make_policy(n_nodes=1, n_disks=1, breaker_cooldown=100.0)
    for block in (10, 11, 12):
        policy.observe(0, block)
    cache.resilience.breakers[0].record_failure()  # OPEN until 100 ms
    assert policy.peek(0) is None
    scans = count_scans(policy)
    cache.env.run(until=99.0)
    assert policy.peek(0) is None
    assert scans == []
    # Only the clock moves: the half-open probe candidate is admitted.
    cache.env.run(until=100.0)
    assert policy.peek(0) == (-1, 13)
    assert scans == [0]


@pytest.mark.parametrize("departure", ["evict", "fetch_failed"])
def test_memo_expires_when_a_cached_block_departs(departure):
    # A real BlockCache, so both of its departure sites are exercised.
    env, _machine, _file, cache, _server, _metrics = build_stack(
        n_nodes=1, n_disks=1, demand_buffers=12
    )
    policy = AdaptivePolicy(100, 1)
    policy.bind(cache)
    for block in (10, 11, 12):
        policy.observe(0, block)
    buffers = {}
    for buffer, block in zip(cache.demand_rusets[0], range(13, 25)):
        buffer.start_fetch(block, RequestKind.DEMAND, 0)
        if departure == "evict":
            buffer.mark_ready()
        cache.table[block] = buffer
        buffers[block] = buffer
    assert policy.peek(0) is None  # every prediction is cached
    scans = count_scans(policy)
    assert policy.peek(0) is None
    assert scans == []
    # Only the cache moves: block 13 leaves the table.
    if departure == "evict":
        cache._evict(buffers[13])
    else:
        cache.fetch_failed(buffers[13], RuntimeError("disk gone"))
    assert policy.peek(0) == (-1, 13)
    assert scans == [0]


def test_memo_answers_most_empty_peeks(monkeypatch):
    """On a small gw cell the memo answers most empty peeks.  An epoch
    bump that quietly disables it fails here."""
    empty_peeks = []
    empty_scans = []
    peek = AdaptivePolicy.peek
    scan = AdaptivePolicy._scan

    def peek_spy(self, node_id):
        answer = peek(self, node_id)
        if answer is None:
            empty_peeks.append(node_id)
        return answer

    def scan_spy(self, node_id):
        answer = scan(self, node_id)
        if answer is None:
            empty_scans.append(node_id)
        return answer

    monkeypatch.setattr(AdaptivePolicy, "peek", peek_spy)
    monkeypatch.setattr(AdaptivePolicy, "_scan", scan_spy)
    run_experiment(
        ExperimentConfig(
            pattern="gw",
            sync_style="none",
            policy="adaptive",
            seed=1,
            n_nodes=4,
            n_disks=4,
            file_blocks=200,
            total_reads=200,
            record_trace=False,
        )
    )
    memo_answers = len(empty_peeks) - len(empty_scans)
    assert memo_answers >= 0.8 * len(empty_peeks), (
        f"memo answered {memo_answers} of {len(empty_peeks)} empty peeks"
    )


# ------------------------------------------------- factory / no oracle data


def test_factory_builds_adaptive_without_reference_string():
    config = ExperimentConfig(policy="adaptive", n_nodes=4, n_disks=4)
    policy = build_policy(config)  # no pattern, no tracker
    assert isinstance(policy, AdaptivePolicy)
    assert policy.n_nodes == 4
    assert policy.file_blocks == config.file_blocks


def test_factory_oracle_requires_reference_string():
    config = ExperimentConfig(policy="oracle", n_nodes=4, n_disks=4)
    with pytest.raises(ValueError):
        build_policy(config)


def test_adaptive_config_knobs_flow_from_experiment_config():
    config = ExperimentConfig(
        policy="adaptive",
        adaptive_min_distance=2,
        adaptive_initial_distance=3,
        adaptive_max_distance=9,
    )
    policy = build_policy(config)
    fb = policy.config.feedback
    assert (fb.min_distance, fb.initial_distance, fb.max_distance) == (
        2,
        3,
        9,
    )


def test_experiment_config_rejects_bad_adaptive_bounds():
    with pytest.raises(ValueError):
        ExperimentConfig(
            adaptive_min_distance=5,
            adaptive_initial_distance=2,
            adaptive_max_distance=9,
        )


# ----------------------------------------------------------- end-to-end


SMALL = dict(n_nodes=4, n_disks=4, file_blocks=200, total_reads=200)


def test_adaptive_runs_end_to_end():
    result = run_experiment(
        ExperimentConfig(pattern="lw", policy="adaptive", **SMALL)
    )
    assert result.blocks_prefetched > 0
    assert result.hit_ratio > 0
    assert result.adaptive_distance_summary["initial"] == 2.0
    assert len(result.adaptive_distance_trajectory) >= 1


def test_adaptive_beats_no_prefetch_on_sequential():
    config = ExperimentConfig(pattern="lw", policy="adaptive", **SMALL)
    adaptive = run_experiment(config)
    baseline = run_experiment(config.paired_baseline())
    assert adaptive.total_time < baseline.total_time


def test_adaptive_is_deterministic():
    from repro.analysis.audit import run_twice_and_diff

    config = ExperimentConfig(pattern="gfp", policy="adaptive", **SMALL)
    report = run_twice_and_diff(config)
    assert report.identical


def test_nonadaptive_results_have_empty_trajectory():
    result = run_experiment(
        ExperimentConfig(pattern="lw", policy="obl", **SMALL)
    )
    assert result.adaptive_distance_trajectory == []
    assert result.adaptive_distance_summary == {}


# ------------------------------------------------------- dirty pressure


def test_bind_subscribes_write_pressure():
    policy, cache = make_policy()
    assert cache.env.probe("fs.write_pressure")


def test_dirty_pressure_shrinks_global_scope_once_per_excursion():
    policy, cache = make_policy(initial_distance=8, max_distance=8)
    before = policy._global_controller.distance
    # Crossing the background limit latches exactly one shrink...
    cache.emit("fs.write_pressure", 0, 3, 2)
    cache.emit("fs.write_pressure", 0, 4, 2)
    cache.emit("fs.write_pressure", 1, 5, 2)
    assert policy.signal_counts()["dirty_pressure"] == 1
    assert policy._global_controller.distance < before
    # ... until the dirty population falls back below it.
    cache.emit("fs.write_pressure", 0, 2, 2)
    assert policy.signal_counts()["dirty_pressure"] == 1
    cache.emit("fs.write_pressure", 0, 3, 2)
    assert policy.signal_counts()["dirty_pressure"] == 2


def test_dirty_pressure_ignored_below_background_limit():
    policy, cache = make_policy()
    cache.emit("fs.write_pressure", 0, 1, 4)
    cache.emit("fs.write_pressure", 0, 2, 4)
    assert "dirty_pressure" not in policy.signal_counts()


def test_adaptive_rw_run_emits_dirty_pressure():
    """End to end: an adaptive read-write run under default thresholds
    actually sees the signal (the cell the feedback loop was added for)."""
    result = run_experiment(
        ExperimentConfig(pattern="lfp-rw", policy="adaptive", **SMALL)
    )
    assert result.total_writes > 0
    assert result.adaptive_distance_summary  # the loop was live
