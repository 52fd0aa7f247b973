"""Exported bytes, pinned: the Perfetto JSON, the timelines CSV, the
spans CSV and the ASCII lanes of three observed cells.

The digests were recorded before timeline samples were stored as rows,
so they pin that the storage change moved no exported byte.  The cells
cover CI's obs-smoke grp cell, a write-back read-write cell (the
``cache.dirty`` gauge, write spans, flusher and throttle lanes) and a
64-node cell, whose disk-queue and node-CPU gauge groups are 64 wide.
"""

import json
from hashlib import blake2b

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs import (
    render_ascii,
    run_with_obs,
    spans_to_csv,
    timelines_to_csv,
    to_perfetto,
)

CELLS = {
    "grp": dict(
        pattern="grp", sync_style="none", seed=3,
        n_nodes=4, n_disks=4, file_blocks=200, total_reads=200,
    ),
    "rw-writeback": dict(
        pattern="lfp-rw", sync_style="per-proc", seed=7,
        n_nodes=4, n_disks=4, file_blocks=160, total_reads=160,
        dirty_ratio=0.1, dirty_background_ratio=0.05,
    ),
    "gw-64": dict(
        pattern="gw", sync_style="per-proc", seed=7,
        n_nodes=64, n_disks=64, file_blocks=1280, total_reads=1280,
    ),
}

#: blake2b (16 bytes) of each export, per cell, on Python 3.11.7.
DIGESTS = {
    "grp": {
        "perfetto": "1bbc28a32c9e093e858cef5ab52e5e3d",
        "timelines": "fe0b5f46e3bd566c81b334c7635ad061",
        "spans": "6afae5326f17b0017a1f28132bd09a34",
        "ascii": "0127ccd08b388806066cf2b6f48da3d4",
    },
    "rw-writeback": {
        "perfetto": "df631a8c35f943656276f67c9f7bd654",
        "timelines": "d245d5ed595b9c38246a58486f679aa4",
        "spans": "88e0e3435b0914f41b67f321c0ace61c",
        "ascii": "73e78d292d75760db46d428b44cddb22",
    },
    "gw-64": {
        "perfetto": "2f4c3c5e69ff97f5accd9ccd478f18f8",
        "timelines": "ca7c479328c81edb75b59d03a20fdc86",
        "spans": "f0097bf56323327e2e3d9b007597c5a7",
        "ascii": "1e8efbe8afbe2f15d56c60c3f79205e9",
    },
}


def _digest(text: str) -> str:
    return blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_exported_bytes_match_their_pins(cell):
    _, data = run_with_obs(ExperimentConfig(**CELLS[cell]))
    exports = {
        # What `obs export` writes with json.dump.
        "perfetto": json.dumps(to_perfetto(data)),
        "timelines": timelines_to_csv(data.timelines),
        "spans": spans_to_csv(data.spans),
        "ascii": render_ascii(data),
    }
    assert {k: _digest(v) for k, v in exports.items()} == DIGESTS[cell]


def test_rw_cell_exercises_the_write_side():
    _, data = run_with_obs(ExperimentConfig(**CELLS["rw-writeback"]))
    cats = {span.cat for span in data.spans.spans}
    assert {"writeback:action", "writeback:stall", "write:miss"} <= cats
    assert max(v for _, v in data.timelines.find("cache.dirty").samples) > 0
