"""Tests for Gate, and for the model's cyclic barrier
(:class:`~repro.workload.synchronization.DynamicBarrier`) while no party
departs."""

from repro.sim import Environment, Gate
from repro.workload.synchronization import DynamicBarrier


# ----------------------------------------------------------------- Barrier


def test_barrier_releases_all_together():
    env = Environment()
    barrier = DynamicBarrier(env, parties=3)
    released = []

    def worker(i, delay):
        yield env.timeout(delay)
        gen = yield barrier.wait()
        released.append((env.now, i, gen))

    env.process(worker(0, 1.0))
    env.process(worker(1, 5.0))
    env.process(worker(2, 3.0))
    env.run()
    assert all(t == 5.0 for t, _, _ in released)
    assert all(g == 0 for _, _, g in released)
    assert sorted(i for _, i, _ in released) == [0, 1, 2]


def test_barrier_is_cyclic():
    env = Environment()
    barrier = DynamicBarrier(env, parties=2)
    gens = []

    def worker(delay):
        for _ in range(3):
            yield env.timeout(delay)
            gen = yield barrier.wait()
            gens.append(gen)

    env.process(worker(1.0))
    env.process(worker(2.0))
    env.run()
    assert sorted(gens) == [0, 0, 1, 1, 2, 2]
    assert barrier.generation == 3


def test_barrier_records_wait_times():
    env = Environment()
    barrier = DynamicBarrier(env, parties=2)

    def worker(delay):
        yield env.timeout(delay)
        yield barrier.wait()

    env.process(worker(2.0))
    env.process(worker(8.0))
    env.run()
    assert sorted(barrier.wait_times) == [0.0, 6.0]
    assert barrier.generation == 1


# -------------------------------------------------------------------- Gate


def test_gate_open_releases_waiters():
    env = Environment()
    gate = Gate(env)
    passed = []

    def waiter(i):
        yield gate.wait()
        passed.append((env.now, i))

    def opener():
        yield env.timeout(4.0)
        gate.open()

    env.process(waiter(0))
    env.process(waiter(1))
    env.process(opener())
    env.run()
    assert passed == [(4.0, 0), (4.0, 1)]


def test_gate_wait_while_open_is_immediate():
    env = Environment()
    gate = Gate(env, open=True)
    passed = []

    def waiter():
        yield gate.wait()
        passed.append(env.now)

    env.process(waiter())
    env.run()
    assert passed == [0.0]


def test_gate_close_blocks_new_waiters():
    env = Environment()
    gate = Gate(env, open=True)
    log = []

    def controller():
        yield env.timeout(1.0)
        gate.close()
        yield env.timeout(5.0)
        gate.open()

    def late_waiter():
        yield env.timeout(2.0)
        yield gate.wait()
        log.append(env.now)

    env.process(controller())
    env.process(late_waiter())
    env.run()
    assert log == [6.0]


def test_gate_double_open_is_idempotent():
    env = Environment()
    gate = Gate(env)
    gate.open()
    gate.open()
    assert gate.is_open
