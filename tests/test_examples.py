"""Smoke tests: the runnable examples must not rot.

Each example's ``main()`` is imported and executed (the fast ones; the
two long parameter sweeps are exercised indirectly by the benchmarks).
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["quickstart", "trace_analysis", "custom_policy", "pattern_detective"],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_all_examples_have_main_and_docstring():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        module = load_example(path.stem)
        assert hasattr(module, "main"), path.name
        assert module.__doc__ and len(module.__doc__) > 80, path.name
