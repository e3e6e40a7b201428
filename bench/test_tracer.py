"""Tests of the benchmark's tracer and input generators.

    python -m pytest bench

A traced unit must produce the untraced output digest, the tracer must
leave every engine binding as it found it, and self times must add up to
the time spent inside traced calls.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_engine  # noqa: E402

load_engine()

import eventual  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _bindings() -> dict:
    """Every callable bound in an engine namespace, and every traced class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name in ("eventual", "yaml") or name.startswith("eventual."):
            for key, value in vars(module).items():
                if callable(value):
                    out[(name, key)] = value
    for module_name, qualname, *_ in TARGETS:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            out[(module_name, qualname)] = vars(getattr(sys.modules[module_name], cls_name))[attr]
    return out


TINY = workloads.gossip_variant(3)


def _tiny_unit():
    return workloads.simulate(TINY, 3, ("account", "balance"), apologies=False)


def test_traced_run_matches_untraced_and_restores_originals():
    before = _bindings()
    plain = _tiny_unit()
    tracer = Tracer()
    with tracer:
        assert eventual.sim.resolve is not before[("eventual.replication", "resolve")]
        assert eventual.sim.resolve is eventual.replication.resolve
        traced = _tiny_unit()
    after = _bindings()

    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tracer.calls["scenario.parse_scenario"] == 1
    assert tracer.calls["sim.Simulator.run"] == 1
    assert tracer.calls["txn.execute_step"] > 0
    assert tracer.calls["clocks.VersionVector.dominates"] > 0


def test_self_times_add_up_to_root_spans():
    tracer = Tracer()
    with tracer:
        _tiny_unit()
    roots = sum(s[5] - s[4] for s in tracer.spans if s is not None and s[1] == -1)
    assert abs(sum(tracer.layer_self_s.values()) - roots) < 1e-6
    for span_id, parent_id, _run, _name, start, end in tracer.spans:
        assert start <= end
        if parent_id >= 0:
            parent = tracer.spans[parent_id]
            assert parent[4] <= start and end <= parent[5]


def test_generators_are_seeded_and_valid():
    for generate in (workloads.gossip_variant, workloads.delta_hot, workloads.reserve_insert):
        text = generate(5)
        assert text == generate(5)
        assert text != generate(6)
        eventual.parse_scenario(text)  # strict validation raises on any error
    assert workloads.store_ops(5) == workloads.store_ops(5) != workloads.store_ops(6)
