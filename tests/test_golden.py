"""Golden digests: byte-for-byte pins of whole runs.

``golden_digests.json`` covers every bundled scenario at seeds 0-9.
``golden_fault_digests.json`` covers the paths the bundled scenarios
never reach (disaster, compensation, expiry, joins, crash recovery):
every complete inline scenario of ``test_sim.py`` at seeds 0-9, and
``reference.yaml`` with each replica crashed at every tick of its
no-crash run and recovered ``CRASH_RECOVERY_GAP`` ticks later.

Each entry holds the sha256 of the persisted report file
(``cli.render_report_file``: the stable report text plus every replica's
archival event dump) with its ``trace_hash:`` line dropped, and the trace
hash itself. A change to the schedule alone (another task layout, same
outcome) then moves only ``trace_hash``. A refactor that claims "same
behaviour" must leave all of them unchanged; a change that moves one
must say why, not regenerate the files.

``golden_semantic_digests.json`` holds, for the same runs, the sha256 of
``RunReport.semantic_digest``: business state only. A change that moves
report or trace bytes on purpose (a different batch layout, another
schedule) must still leave every one of these unchanged.

To print the current digests (for a deliberate, explained change):
``PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json``
``PYTHONPATH=src python tests/test_golden.py faults > tests/golden_fault_digests.json``
``PYTHONPATH=src python tests/test_golden.py semantic > tests/golden_semantic_digests.json``
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
from pathlib import Path

import test_sim
from eventual.cli import CRASH_RECOVERY_GAP, render_report_file
from eventual.scenario import load_scenario, parse_scenario
from eventual.sim import Fault, Simulator

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"
GOLDEN = Path(__file__).parent / "golden_digests.json"
GOLDEN_FAULTS = Path(__file__).parent / "golden_fault_digests.json"
GOLDEN_SEMANTIC = Path(__file__).parent / "golden_semantic_digests.json"
SEEDS = range(10)
PLACEHOLDER = re.compile(r"\b[A-Z]{2,}_[A-Z]{2,}\b")  # e.g. CHILD_AT in a template


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(report, sim) -> str:
    """The persisted report file without its ``trace_hash:`` line, which the
    pins hold apart."""
    return render_report_file(report, sim).replace(f"trace_hash: {report.trace_hash}\n", "", 1)


def _digest(scenario, seed: int | None = None) -> dict[str, str]:
    """The byte pins of one run, plus its semantic digest under ``"semantic"``."""
    if seed is not None:
        scenario.config.seed = seed
    sim = Simulator(scenario)
    report = sim.run()
    return {
        "report_sha256": _sha256(_report_text(report, sim)),
        "trace_hash": report.trace_hash,
        "semantic": _sha256(report.semantic_digest()),
    }


@functools.cache
def _bundled_runs() -> dict[str, dict[str, str]]:
    out = {}
    for path in sorted(SCENARIOS.glob("*.yaml")):
        for seed in SEEDS:
            out[f"{path.stem}@{seed}"] = _digest(load_scenario(path), seed)
    return out


def inline_scenarios() -> dict[str, str]:
    """Complete scenario texts defined at module level in test_sim.py."""
    return {
        name: text
        for name, text in sorted(vars(test_sim).items())
        if isinstance(text, str) and "schema: eventual/1" in text and not PLACEHOLDER.search(text)
    }


@functools.cache
def _fault_runs() -> dict[str, dict[str, str]]:
    out = {}
    for name, text in inline_scenarios().items():
        for seed in SEEDS:
            out[f"test_sim.{name}@{seed}"] = _digest(parse_scenario(text), seed)
    path = SCENARIOS / "reference.yaml"
    sim = Simulator(load_scenario(path))
    baseline = sim.run()
    for target in sorted(sim.replicas):
        for tick in range(1, baseline.end_time + 1):
            scenario = load_scenario(path)
            scenario.faults.append(Fault(kind="crash", at=tick, target=target))
            scenario.faults.append(Fault(kind="recover", at=tick + CRASH_RECOVERY_GAP, target=target))
            out[f"reference+crash:{target}@{tick}"] = _digest(scenario)
    return out


def _pins(runs: dict[str, dict[str, str]]) -> dict[str, dict[str, str]]:
    return {key: {k: v for k, v in pins.items() if k != "semantic"} for key, pins in runs.items()}


def digests() -> dict[str, dict[str, str]]:
    return _pins(_bundled_runs())


def fault_digests() -> dict[str, dict[str, str]]:
    return _pins(_fault_runs())


def semantic_digests() -> dict[str, str]:
    """Every golden run's semantic digest sha256, bundled and fault runs alike."""
    runs = {**_bundled_runs(), **_fault_runs()}
    return {key: pins["semantic"] for key, pins in runs.items()}


def _moved(expected: dict, actual: dict) -> list[str]:
    """Each pin that moved, as ``run: pin`` (``report_sha256`` or
    ``trace_hash``); a run pinned by one digest is named alone. A change to
    the schedule alone then reads as ``trace_hash`` lines only."""
    assert sorted(actual) == sorted(expected)
    moved = []
    for run in sorted(expected):
        pins, now = expected[run], actual[run]
        if not isinstance(pins, dict):
            if now != pins:
                moved.append(run)
            continue
        moved.extend(f"{run}: {pin}" for pin in sorted(pins) if now.get(pin) != pins[pin])
    return moved


def test_bundled_scenarios_match_the_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == 80
    assert _moved(expected, digests()) == []


def test_fault_paths_match_the_golden_digests():
    expected = json.loads(GOLDEN_FAULTS.read_text())
    assert len(expected) == 323
    assert _moved(expected, fault_digests()) == []


def test_every_golden_run_keeps_its_semantic_digest():
    expected = json.loads(GOLDEN_SEMANTIC.read_text())
    assert len(expected) == 80 + 323
    assert _moved(expected, semantic_digests()) == []


if __name__ == "__main__":
    pick = {"faults": fault_digests, "semantic": semantic_digests}.get(" ".join(sys.argv[1:]), digests)
    json.dump(pick(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
