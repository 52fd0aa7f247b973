"""Tests for replacement policies."""

from repro.fs import BufferState, GlobalLRUPolicy, RUSetPolicy
from repro.machine import RequestKind

from ..helpers import build_stack


def _fill(buf, block, kind=RequestKind.DEMAND, node=0, use=True):
    buf.start_fetch(block, kind, node)
    buf.mark_ready()
    if use:
        buf.record_use()


def test_ru_set_prefers_own_demand_buffer():
    env, machine, file, cache, *_ = build_stack(n_nodes=3)
    policy = RUSetPolicy()
    # Fill node 1's buffer; node 1's victim is its own buffer even though
    # other nodes' buffers are EMPTY.
    own = cache.demand_rusets[1][0]
    _fill(own, 42)
    assert policy.demand_victim(cache, 1) is own


def test_ru_set_falls_back_globally_when_own_pinned():
    env, machine, file, cache, *_ = build_stack(n_nodes=2)
    own = cache.demand_rusets[0][0]
    _fill(own, 1)
    own.pin()
    victim = RUSetPolicy().demand_victim(cache, 0)
    assert victim is cache.demand_rusets[1][0]


def test_ru_set_returns_none_when_everything_pinned():
    env, machine, file, cache, *_ = build_stack(n_nodes=2)
    for ruset in cache.demand_rusets:
        for buf in ruset:
            buf.pin()
    assert RUSetPolicy().demand_victim(cache, 0) is None


def test_prefetch_victim_prefers_local_empty():
    env, machine, file, cache, *_ = build_stack(n_nodes=2, prefetch_buffers=2)
    policy = RUSetPolicy()
    victim = policy.prefetch_victim(cache, 1)
    assert victim in cache.prefetch_sets[1]
    assert victim.state is BufferState.EMPTY


def test_prefetch_victim_lru_among_consumed():
    env, machine, file, cache, *_ = build_stack(n_nodes=1, prefetch_buffers=2)
    a, b = cache.prefetch_sets[0]

    def proc():
        _fill(a, 1, RequestKind.PREFETCH)
        yield env.timeout(5.0)
        _fill(b, 2, RequestKind.PREFETCH)

    env.process(proc())
    env.run()
    # a is older.
    assert RUSetPolicy().prefetch_victim(cache, 0) is a


def test_prefetch_victim_skips_unused_prefetched():
    env, machine, file, cache, *_ = build_stack(n_nodes=1, prefetch_buffers=2)
    a, b = cache.prefetch_sets[0]
    _fill(a, 1, RequestKind.PREFETCH, use=False)  # unused: protected
    _fill(b, 2, RequestKind.PREFETCH, use=True)
    assert RUSetPolicy().prefetch_victim(cache, 0) is b


def test_prefetch_victim_steals_remote_when_local_busy():
    env, machine, file, cache, *_ = build_stack(n_nodes=2, prefetch_buffers=1)
    local = cache.prefetch_sets[0][0]
    remote = cache.prefetch_sets[1][0]
    _fill(local, 1, RequestKind.PREFETCH, use=False)  # protected
    _fill(remote, 2, RequestKind.PREFETCH, use=True)
    assert RUSetPolicy().prefetch_victim(cache, 0) is remote


def test_global_lru_ignores_locality():
    env, machine, file, cache, *_ = build_stack(n_nodes=2)
    a = cache.demand_rusets[0][0]
    b = cache.demand_rusets[1][0]

    def proc():
        _fill(b, 2)
        yield env.timeout(5.0)
        _fill(a, 1)

    env.process(proc())
    env.run()
    # b is globally least recent, so even node 0 evicts it.
    assert GlobalLRUPolicy().demand_victim(cache, 0) is b


def test_replacement_names():
    assert RUSetPolicy.name == "ru-set"
    assert GlobalLRUPolicy.name == "global-lru"
