"""Property-based tests (hypothesis) for kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store, Tally
from repro.workload.synchronization import DynamicBarrier


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_clock_monotonic_under_arbitrary_timeouts(delays):
    """The simulation clock never moves backwards."""
    env = Environment()
    observed = []

    def proc(d):
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
)
def test_resource_never_exceeds_capacity(capacity, hold_times):
    """At no instant do more than `capacity` processes hold the resource."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    overshoot = []

    def user(hold):
        req = res.request()
        yield req
        if res.count > capacity:
            overshoot.append(res.count)
        yield env.timeout(hold)
        res.release(req)

    for h in hold_times:
        env.process(user(h))
    env.run()
    assert not overshoot
    assert res.count == 0
    assert res.grants == len(hold_times)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
)
def test_barrier_conservation(parties, rounds):
    """Every waiter of the model's barrier is released exactly once per
    generation, and departing parties release no extra generation."""
    env = Environment()
    barrier = DynamicBarrier(env, parties=parties)
    releases = []

    def worker(i):
        for r in range(rounds):
            yield env.timeout(float((i * 7 + r * 3) % 11))
            gen = yield barrier.wait()
            releases.append(gen)
        barrier.depart()

    for i in range(parties):
        env.process(worker(i))
    env.run()
    assert len(releases) == parties * rounds
    for g in range(rounds):
        assert releases.count(g) == parties
    assert len(barrier.wait_times) == parties * rounds
    assert all(w >= 0 for w in barrier.wait_times)
    assert barrier.generation == rounds
    assert barrier.active == 0


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=60))
def test_store_preserves_items_fifo(items):
    """Everything put into a Store comes out, in order."""
    env = Environment()
    store = Store(env)
    out = []

    def producer():
        for item in items:
            store.put(item)
        yield env.timeout(0.0)

    def consumer():
        for _ in range(len(items)):
            item = yield store.get()
            out.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert out == items


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300))
@settings(max_examples=50)
def test_tally_consistency(values):
    """Tally streaming stats agree with direct computation."""
    t = Tally()
    t.extend(values)
    assert t.count == len(values)
    assert t.total == sum(values)
    assert t.min == min(values)
    assert t.max == max(values)
    mean = sum(values) / len(values)
    assert abs(t.mean - mean) < 1e-6 * max(1.0, abs(mean))
    assert t.percentile(0) == min(values)
    assert t.percentile(100) == max(values)
    assert t.samples == [float(v) for v in values]


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_deterministic_simulation_replay(seed):
    """An entire mini-simulation replays identically from its seed."""
    from repro.sim import RandomStreams

    def run(seed):
        env = Environment()
        rs = RandomStreams(seed)
        res = Resource(env, capacity=2)
        trace = []

        def worker(i):
            yield env.timeout(rs.exponential(f"arrive-{i}", 5.0))
            req = res.request()
            yield req
            trace.append((round(env.now, 9), i))
            yield env.timeout(rs.exponential(f"hold-{i}", 3.0))
            res.release(req)

        for i in range(8):
            env.process(worker(i))
        env.run()
        return trace

    assert run(seed) == run(seed)
