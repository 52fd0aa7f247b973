"""Extension B (paper Section VI future work): processor/disk scaling.

Two layers of scaling story live here:

* the original figure — prefetch benefit as the *simulated machine*
  grows past the paper's 20 nodes;
* the kernel scale sweep — the *simulator's* own throughput from 100 to
  1000 nodes, with per-scale bottleneck attribution (measured figures
  in docs/perf.md).
"""

from repro.experiments import ext_scalability
from repro.obs.attribution import COMPONENTS
from repro.perf.scale import run_scale_sweep

from .conftest import SEED, report_figure

#: Downscaled workload for the pytest-benchmark run; the figures in
#: docs/perf.md use 20 reads per node.
SWEEP_SCALES = (100, 250, 500, 1000)
SWEEP_READS_PER_NODE = 8


def test_ext_scalability(benchmark):
    fig = benchmark.pedantic(
        ext_scalability, kwargs={"seed": SEED}, rounds=1, iterations=1
    )
    report_figure(fig)


def _assert_sweep_shape(report):
    entries = report["entries"]
    assert [e["n_nodes"] for e in entries] == sorted(SWEEP_SCALES)
    for entry in entries:
        # Events grow with the machine; throughput stays positive.
        assert entry["n_events"] > entry["n_nodes"]
        assert entry["events_per_s"] > 0
        # Attribution is complete: every budget present, dominant named.
        assert set(entry["attribution_mean_ms"]) == set(COMPONENTS)
        assert entry["bottleneck"] in COMPONENTS
    # Linear workload sizing means events scale roughly linearly.
    first, last = entries[0], entries[-1]
    growth = last["n_events"] / first["n_events"]
    node_growth = last["n_nodes"] / first["n_nodes"]
    assert 0.5 * node_growth <= growth <= 2.0 * node_growth


def test_kernel_scale_sweep(benchmark):
    report = benchmark.pedantic(
        run_scale_sweep,
        kwargs={
            "scales": SWEEP_SCALES,
            "seed": SEED,
            "reads_per_node": SWEEP_READS_PER_NODE,
        },
        rounds=1,
        iterations=1,
    )
    _assert_sweep_shape(report)
