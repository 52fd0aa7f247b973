"""Hook-purity proofs: observer callables must stay passive."""

from repro.analysis.flow import analyze_flow
from repro.analysis.flow.summary import module_name_for, summarize_source


def _flow(*mods):
    summaries = []
    for rel, source in mods:
        parts = tuple(rel.split("/"))
        summaries.append(
            summarize_source(
                source,
                module=module_name_for(parts),
                rel_parts=parts,
                path="/tree/" + rel,
            )
        )
    return analyze_flow(summaries)


def _rules(findings):
    return [d.rule for d in findings]


def test_pure_hook_passes():
    findings = _flow(
        (
            "repro/obs/rec.py",
            "class Rec:\n"
            "    def __init__(self, env):\n"
            "        self.n = 0\n"
            "        env.subscribe('fs.read', self.on_read)\n"
            "    def on_read(self, ev):\n"
            "        self.n += 1\n",
        )
    )
    assert findings == []


def test_scheduling_hook_flagged():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def bad(env, ev):\n"
            "    env.schedule(ev)\n\n"
            "def install(env):\n"
            "    env.subscribe('fs.read', bad)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert ".schedule()" in findings[0].message
    assert "registered on fs.read" in findings[0].message
    assert findings[0].line == 5


def test_step_observer_registration_checked():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def spy(env):\n"
            "    env.process(None)\n\n"
            "def install(env):\n"
            "    env.add_step_observer(spy)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert ".process()" in findings[0].message


def test_parameter_attribute_mutation_flagged():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def bad(env, ev):\n"
            "    ev.ready = True\n\n"
            "def install(env):\n"
            "    env.subscribe('fs.read', bad)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert "mutates parameter 'ev'" in findings[0].message


def test_mutator_method_through_parameter_flagged():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def bad(disk, ev):\n"
            "    disk.queue.append(ev)\n\n"
            "def install(env):\n"
            "    env.subscribe('disk.request', bad)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert ".append()" in findings[0].message


def test_reader_method_through_parameter_clean():
    """Non-mutating method calls through a parameter are reads."""
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def ok(disk, ev):\n"
            "    return disk.queue_depth(), ev.describe()\n\n"
            "def install(env):\n"
            "    env.subscribe('disk.request', ok)\n",
        )
    )
    assert findings == []


def test_transitive_impurity_via_helper():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def kick(env, ev):\n"
            "    env.schedule(ev)\n\n"
            "def hook(env, ev):\n"
            "    kick(env, ev)\n\n"
            "def install(env):\n"
            "    env.subscribe('prefetch.action', hook)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    # The chain names the path from the hook to the offending helper.
    assert "via repro.sim.hooks.hook -> repro.sim.hooks.kick" in (
        findings[0].message
    )


def test_instance_attribute_callable_resolved_to_dunder_call():
    findings = _flow(
        (
            "repro/obs/rec.py",
            "class Sampler:\n"
            "    def __call__(self, env):\n"
            "        env.schedule(None)\n\n"
            "class Rec:\n"
            "    def __init__(self, env):\n"
            "        self._sampler = Sampler()\n"
            "        env.add_step_observer(self._sampler)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert "Sampler.__call__" in findings[0].message


def test_lambda_registration_unprovable():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def install(env):\n"
            "    env.subscribe('fs.read', lambda ev: None)\n",
        )
    )
    assert _rules(findings) == ["flow-purity"]
    assert "cannot be proven statically" in findings[0].message


def test_external_named_callable_stays_quiet():
    """An unresolvable plain name (imported from outside the scanned
    tree) produces no finding — under-approximation, not noise."""
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "from somewhere_external import probe\n\n"
            "def install(env):\n"
            "    env.subscribe('fs.read', probe)\n",
        )
    )
    assert findings == []


def test_allow_flow_purity_suppression():
    findings = _flow(
        (
            "repro/sim/hooks.py",
            "def bad(env, ev):\n"
            "    env.schedule(ev)\n\n"
            "def install(env):\n"
            "    env.subscribe('fs.read', bad)  # simlint: allow-flow-purity\n",
        )
    )
    assert findings == []


def test_self_rooted_container_mutation_is_own_bookkeeping():
    findings = _flow(
        (
            "repro/obs/rec.py",
            "class Rec:\n"
            "    def __init__(self, env):\n"
            "        self.events = []\n"
            "        env.subscribe('fs.read', self.on_read)\n"
            "    def on_read(self, ev):\n"
            "        self.events.append(ev)\n",
        )
    )
    assert findings == []
