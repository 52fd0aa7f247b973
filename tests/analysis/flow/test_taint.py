"""Interprocedural taint: propagation, blessing, frontier reporting."""

from repro.analysis.flow import analyze_flow
from repro.analysis.flow.summary import module_name_for, summarize_source


def _flow(*mods):
    """mods: (relative path, source) pairs → flow diagnostics."""
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


def test_two_hop_suppressed_wallclock_chain_flagged():
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def read_clock():\n"
            "    return time.time()  # simlint: allow-wallclock\n\n"
            "def stamp():\n"
            "    return read_clock()\n",
        ),
        (
            "repro/sim/kernel.py",
            "from repro.util.clock import stamp\n\n"
            "def step():\n"
            "    return stamp()\n",
        ),
    )
    assert _rules(findings) == ["flow-taint"]
    assert "wallclock" in findings[0].message
    assert findings[0].line == 4  # the stamp() call edge


def test_unsuppressed_direct_source_is_v1s_job():
    """A helper v1 already flags (unsuppressed direct read) produces no
    duplicate flow finding in its callers."""
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\ndef stamp():\n    return time.time()\n",
        ),
        (
            "repro/sim/kernel.py",
            "from repro.util.clock import stamp\n\n"
            "def step():\n"
            "    return stamp()\n",
        ),
    )
    assert findings == []


def test_frontier_rule_one_finding_per_root_cause():
    """sim.a → sim.b → tainted helper: only the frontier edge (inside
    sim.b) is reported; sim.a stays quiet because fixing b fixes a."""
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: allow-wallclock\n",
        ),
        (
            "repro/sim/b.py",
            "from repro.util.clock import stamp\n\n"
            "def middle():\n"
            "    return stamp()\n",
        ),
        (
            "repro/sim/a.py",
            "from repro.sim.b import middle\n\n"
            "def outer():\n"
            "    return middle()\n",
        ),
    )
    assert len(findings) == 1
    assert findings[0].path.name == "b.py"


def test_blessed_rng_module_neither_seeds_nor_forwards():
    findings = _flow(
        (
            "repro/sim/rng.py",
            "import numpy as np\n\n"
            "def stream(seed):\n"
            "    return np.random.default_rng(seed)\n",
        ),
        (
            "repro/fs/cache.py",
            "from repro.sim.rng import stream\n\n"
            "def jitter(seed):\n"
            "    return stream(seed)\n",
        ),
    )
    assert findings == []


def test_disk_module_blessed_for_rng_only():
    findings = _flow(
        (
            "repro/machine/disk.py",
            "import time\nimport random\n\n"
            "def timed():\n"
            "    return time.time()  # simlint: allow-wallclock\n\n"
            "def pick():\n"
            "    return random.random()  # simlint: allow-rng\n",
        ),
        (
            "repro/sim/kernel.py",
            "from repro.machine.disk import timed, pick\n\n"
            "def step():\n"
            "    return timed() + pick()\n",
        ),
    )
    # The RNG chain through disk is blessed; the wallclock one is not.
    assert _rules(findings) == ["flow-taint"]
    assert "wallclock" in findings[0].message


def test_taint_through_default_argument():
    findings = _flow(
        (
            "repro/util/ids.py",
            "import uuid\n\n"
            "def tag(u=uuid.uuid4()):  # simlint: allow-rng\n"
            "    return str(u)\n",
        ),
        (
            "repro/fs/server.py",
            "from repro.util.ids import tag\n\n"
            "def name_block():\n"
            "    return tag()\n",
        ),
    )
    assert _rules(findings) == ["flow-taint"]
    assert "uuid.uuid4" in findings[0].message


def test_taint_through_package_reexport():
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: allow-wallclock\n",
        ),
        ("repro/util/__init__.py", "from .clock import stamp\n"),
        (
            "repro/sim/kernel.py",
            "from repro.util import stamp\n\n"
            "def step():\n"
            "    return stamp()\n",
        ),
    )
    assert _rules(findings) == ["flow-taint"]
    assert findings[0].path.name == "kernel.py"


def test_non_sim_critical_caller_not_reported():
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: allow-wallclock\n",
        ),
        (
            "repro/experiments/report.py",
            "from repro.util.clock import stamp\n\n"
            "def header():\n"
            "    return stamp()\n",
        ),
    )
    assert findings == []


def test_allow_flow_taint_suppression_on_call_line():
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: allow-wallclock\n",
        ),
        (
            "repro/sim/kernel.py",
            "from repro.util.clock import stamp\n\n"
            "def step():\n"
            "    return stamp()  # simlint: allow-flow-taint\n",
        ),
    )
    assert findings == []


def test_test_modules_neither_seed_reports_nor_get_flagged():
    findings = _flow(
        (
            "repro/util/clock.py",
            "import time\n\n"
            "def stamp():\n"
            "    return time.time()  # simlint: allow-wallclock\n",
        ),
        (
            "repro/sim/test_kernel.py",
            "from repro.util.clock import stamp\n\n"
            "def test_step():\n"
            "    assert stamp() > 0\n",
        ),
    )
    assert findings == []
