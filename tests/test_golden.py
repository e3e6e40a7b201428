"""Golden digests: every bundled scenario, seeds 0-9, byte for byte.

For each run the checked-in ``golden_digests.json`` holds the sha256 of
the persisted report file (``cli.render_report_file``: the stable report
text plus every replica's archival event dump) and the trace hash. A
refactor that claims "same behaviour" must leave all of them unchanged;
a change that moves one must say why, not regenerate the file.

To print the current digests (for a deliberate, explained change):
``PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json``
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from eventual.cli import render_report_file
from eventual.scenario import load_scenario
from eventual.sim import Simulator

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"
GOLDEN = Path(__file__).parent / "golden_digests.json"
SEEDS = range(10)


def digests() -> dict[str, dict[str, str]]:
    out = {}
    for path in sorted(SCENARIOS.glob("*.yaml")):
        for seed in SEEDS:
            scenario = load_scenario(path)
            scenario.config.seed = seed
            sim = Simulator(scenario)
            report = sim.run()
            out[f"{path.stem}@{seed}"] = {
                "report_sha256": hashlib.sha256(render_report_file(report, sim).encode()).hexdigest(),
                "trace_hash": report.trace_hash,
            }
    return out


def test_bundled_scenarios_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = digests()
    assert len(expected) == 90
    moved = sorted(k for k in expected if actual.get(k) != expected[k])
    assert sorted(actual) == sorted(expected)
    assert moved == []


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
