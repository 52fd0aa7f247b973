"""Seeded regression fixtures: each tree is provably clean under the v1
per-file rules and must be flagged by the v2 whole-program passes.

These are the three holes the flow analyzer exists to close:

* ``wallclock_chain`` — a suppressed ``time.time()`` consumed through a
  two-hop helper chain from ``sim/``;
* ``rng_skipfile`` — a ``random.Random`` built in a ``skip-file``'d
  utility module and handed into ``fs/``;
* ``impure_hook`` — an ``fs.read`` subscriber that calls
  ``Environment.schedule``.
"""

from pathlib import Path

from repro.analysis.lint import run_lint
from repro.analysis.simlint import lint_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _v2_findings(root):
    return run_lint([root], base=root, flow=True).findings


def _rules(findings):
    return [d.rule for d in findings]


# ------------------------------------------------- wallclock helper chain


def test_wallclock_chain_v1_clean():
    assert lint_paths([FIXTURES / "wallclock_chain"]) == []


def test_wallclock_chain_v2_flagged():
    findings = _v2_findings(FIXTURES / "wallclock_chain")
    assert _rules(findings) == ["flow-taint"]
    diag = findings[0]
    assert diag.path.name == "kernel.py"
    assert "repro.sim.kernel.step" in diag.message
    assert "time.time" in diag.message
    # The chain names every hop down to the source.
    assert "repro.util.clock.stamp -> repro.util.clock.read_clock" in (
        diag.message
    )


# ------------------------------------------------------ skip-file'd RNG


def test_rng_skipfile_v1_clean():
    assert lint_paths([FIXTURES / "rng_skipfile"]) == []


def test_rng_skipfile_v2_flagged():
    findings = _v2_findings(FIXTURES / "rng_skipfile")
    assert _rules(findings) == ["flow-taint"]
    diag = findings[0]
    assert diag.path.name == "server.py"
    assert "repro.fs.server.pick_block" in diag.message
    assert "random.Random" in diag.message


# ------------------------------------------------------- scheduling hook


def test_impure_hook_v1_clean():
    assert lint_paths([FIXTURES / "impure_hook"]) == []


def test_impure_hook_v2_flagged():
    findings = _v2_findings(FIXTURES / "impure_hook")
    assert _rules(findings) == ["flow-purity"]
    diag = findings[0]
    assert diag.path.name == "hooks.py"
    assert "bad_hook" in diag.message
    assert ".schedule()" in diag.message
    # Flagged at the registration site, not inside the hook body.
    assert diag.line == 19


# ---------------------------------------------------------- cross checks


def test_fixtures_clean_without_flow():
    """``--no-flow`` reproduces v1 behaviour on every fixture."""
    for tree in ("wallclock_chain", "rng_skipfile", "impure_hook"):
        result = run_lint([FIXTURES / tree], flow=False, base=FIXTURES)
        assert result.findings == [], tree


def test_combined_scan_root_changes_module_names():
    """Module names are scan-root-relative: scanned from ``fixtures/``,
    the trees' absolute ``repro.*`` imports no longer resolve, so the
    taint chains (which need the import edges) go quiet while the
    purity finding (same-module resolution) survives.  This is the
    under-approximation contract: unresolvable names produce silence,
    never false positives."""
    findings = _v2_findings(FIXTURES)
    assert _rules(findings) == ["flow-purity"]
