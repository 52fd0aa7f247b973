"""Tests for the report generator (formatting; the full-scale content run
is the benchmark suite's job)."""

from repro.experiments import report_gen
from repro.experiments.figures import FigureData


def fake_figures():
    return [
        FigureData(
            figure_id="fig3", title="Read time", columns=["a", "b"],
            rows=[(1.0, 2.0)], checks={"ok": True},
        ),
        FigureData(
            figure_id="fig8", title="Total time", columns=["a"],
            rows=[(3.0,)], checks={"good": True, "bad": False},
            notes="a note",
        ),
    ]


def test_generate_report_writes_markdown(tmp_path, monkeypatch):
    monkeypatch.setattr(
        report_gen, "collect_all_figures", lambda seed, progress=None: fake_figures()
    )
    out = tmp_path / "r.md"
    figures = report_gen.generate_report(out, seed=5)
    text = out.read_text()
    assert "# RAPID Transit reproduction report" in text
    assert "Seed 5" in text
    assert "2/3 paper-shape checks pass" in text
    assert "## FAILED checks" in text
    assert "- fig8: `bad`" in text
    assert "### fig3: Read time" in text
    assert "*a note*" in text
    assert len(figures) == 2


def test_generate_report_no_failures_section_when_clean(tmp_path, monkeypatch):
    clean = [fake_figures()[0]]
    monkeypatch.setattr(
        report_gen, "collect_all_figures", lambda seed, progress=None: clean
    )
    out = tmp_path / "r.md"
    report_gen.generate_report(out)
    text = out.read_text()
    assert "FAILED" not in text
    assert "1/1 paper-shape checks pass" in text


def test_progress_callback_plumbed(monkeypatch, tmp_path):
    messages = []

    def fake_collect(seed, progress=None):
        if progress:
            progress("step one")
        return [fake_figures()[0]]

    monkeypatch.setattr(report_gen, "collect_all_figures", fake_collect)
    report_gen.generate_report(tmp_path / "r.md", progress=messages.append)
    assert messages == ["step one"]


def test_collect_all_figures_runs_the_registry_in_report_order(monkeypatch):
    """Every REPORT.md generator runs once, fed what its registry says,
    in the committed report's section order (generators stubbed)."""
    import re
    from pathlib import Path

    calls = []

    def stub(fig_id):
        def make(*args, **kwargs):
            calls.append((fig_id, args, kwargs))
            return FigureData(fig_id, fig_id, ["a"], [(1,)])

        return make

    monkeypatch.setattr(report_gen, "run_suite", lambda seed: "suite")
    monkeypatch.setattr(report_gen, "run_lead_sweep", lambda seed: "sweep")
    for registry in (
        report_gen.SUITE_FIGURES,
        report_gen.LEAD_FIGURES,
        report_gen.STANDALONE_FIGURES,
        report_gen.CHAOS_FIGURES,
    ):
        for fig_id in registry:
            monkeypatch.setitem(registry, fig_id, stub(fig_id))

    figures = report_gen.collect_all_figures(seed=3)

    report = (Path(__file__).parents[2] / "REPORT.md").read_text()
    sections = re.findall(r"^### ([\w-]+):", report, flags=re.MULTILINE)
    assert len(sections) == 25
    assert [f.figure_id for f in figures] == sections
    assert [fig_id for fig_id, _, _ in calls] == sections
    fed = {fig_id: (args, kwargs) for fig_id, args, kwargs in calls}
    for fig_id in report_gen.SUITE_FIGURES:
        assert fed[fig_id] == (("suite",), {})
    for fig_id in report_gen.LEAD_FIGURES:
        assert fed[fig_id] == (("sweep",), {})
    for fig_id in report_gen.STANDALONE_FIGURES:
        assert fed[fig_id] == ((), {"seed": 3})
    assert len(report_gen.FIGURE_IDS) == 28
    assert set(report_gen.CHAOS_FIGURES) <= set(report_gen.FIGURE_IDS)
    assert not set(report_gen.CHAOS_FIGURES) & set(sections)
