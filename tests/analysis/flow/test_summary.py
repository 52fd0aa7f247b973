"""Per-module flow-summary extraction and its JSON round-trip."""

from repro.analysis.flow.summary import (
    FlowSummary,
    module_name_for,
    summarize_source,
)


def _summary(source, rel="repro/fs/mod.py"):
    parts = tuple(rel.split("/"))
    return summarize_source(
        source,
        module=module_name_for(parts),
        rel_parts=parts,
        path="/tree/" + rel,
    )


# ----------------------------------------------------------- module names


def test_module_name_for_plain_and_package():
    assert module_name_for(("repro", "fs", "cache.py")) == "repro.fs.cache"
    assert module_name_for(("repro", "fs", "__init__.py")) == "repro.fs"
    assert module_name_for(("top.py",)) == "top"


# -------------------------------------------------------------- extraction


def test_imports_and_aliases_recorded():
    s = _summary(
        "import numpy as np\n"
        "import os\n"
        "from repro.util.clock import stamp as now\n"
        "from repro.util import *\n"
    )
    assert s.imports["np"] == "numpy"
    assert s.imports["os"] == "os"
    assert s.imports["now"] == "repro.util.clock.stamp"
    assert "repro.util" in s.star_imports
    assert ("repro.util.clock", 3) in s.imported_modules


def test_relative_import_resolved_against_module():
    s = _summary(
        "from .clock import stamp\nfrom ..util import helper\n",
        rel="repro/sim/kernel.py",
    )
    assert s.imports["stamp"] == "repro.sim.clock.stamp"
    assert s.imports["helper"] == "repro.util.helper"


def test_relative_import_in_package_init():
    s = _summary(
        "from .clock import stamp\n", rel="repro/util/__init__.py"
    )
    assert s.imports["stamp"] == "repro.util.clock.stamp"


def test_direct_sources_with_suppression_flag():
    s = _summary(
        "import time\n\n"
        "def a():\n"
        "    return time.time()\n\n"
        "def b():\n"
        "    return time.time()  # simlint: allow-wallclock\n"
    )
    (src_a,) = s.functions["repro.fs.mod:a"].sources
    (src_b,) = s.functions["repro.fs.mod:b"].sources
    assert src_a.desc == "time.time" and not src_a.suppressed
    assert src_b.desc == "time.time" and src_b.suppressed


def test_source_normalized_through_alias():
    s = _summary(
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n"
    )
    (src,) = s.functions["repro.fs.mod:f"].sources
    assert src.category == "rng"
    assert src.desc == "numpy.random.default_rng"


def test_bare_name_source_from_import():
    s = _summary(
        "from random import Random\n\ndef f():\n    return Random()\n"
    )
    (src,) = s.functions["repro.fs.mod:f"].sources
    assert src.desc == "random.Random"


def test_default_argument_is_def_time_source():
    s = _summary(
        "import time\n\ndef f(t=time.time()):\n    return t\n"
    )
    (src,) = s.functions["repro.fs.mod:f"].sources
    assert src.category == "wallclock"


def test_hook_registrations_both_kinds():
    s = _summary(
        "def install(env, sink, point):\n"
        "    env.subscribe('fs.read', sink.on_read)\n"
        "    env.subscribe(point, sink.on_any)\n"
        "    env.add_step_observer(sink)\n"
        "    env.subscribe('fs.read')\n"
    )
    kinds = {(h.kind, h.target) for h in s.hooks}
    # A subscription is named by its point when that is a constant; a
    # call without a callable is not a registration.
    assert kinds == {
        ("fs.read", "sink.on_read"),
        ("subscribe", "sink.on_any"),
        ("add_step_observer", "sink"),
    }


def test_methods_and_attr_classes():
    s = _summary(
        "class Sampler:\n"
        "    def __call__(self, env):\n"
        "        pass\n\n"
        "class Rec:\n"
        "    def __init__(self):\n"
        "        self._sampler = Sampler()\n"
    )
    assert "Sampler" in s.classes and "Rec" in s.classes
    assert s.classes["Rec"].attr_classes == {"_sampler": "Sampler"}
    assert "repro.fs.mod:Sampler.__call__" in s.functions


def test_mutations_record_root_names():
    s = _summary(
        "def f(self, ev):\n"
        "    self.count += 1\n"
        "    ev.done = True\n"
        "    ev.queue.append(1)\n"
    )
    muts = s.functions["repro.fs.mod:f"].mutations
    roots = sorted(m.root for m in muts)
    assert roots == ["ev", "ev", "self"]


def test_module_level_code_summarized_as_pseudo_function():
    s = _summary("import time\nT0 = time.time()\n")
    mod = s.functions["repro.fs.mod:<module>"]
    assert [src.desc for src in mod.sources] == ["time.time"]


# ------------------------------------------------------------- round-trip


def test_json_round_trip_is_lossless():
    s = _summary(
        "import time\n"
        "from .clock import stamp\n\n"
        "class Rec:\n"
        "    def __init__(self, env):\n"
        "        env.subscribe('fs.read', self.on_read)\n"
        "    def on_read(self, ev):\n"
        "        self.n += 1\n\n"
        "def f(t=time.time()):  # simlint: allow-wallclock\n"
        "    return stamp(t)\n",
        rel="repro/sim/mod.py",
    )
    restored = FlowSummary.from_json(s.to_json())
    assert restored == s


def test_json_round_trip_survives_serialization(tmp_path):
    import json

    s = _summary("import random\n\ndef f():\n    return random.random()\n")
    blob = json.dumps(s.to_json())
    restored = FlowSummary.from_json(json.loads(blob))
    assert restored == s
