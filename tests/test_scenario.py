"""Scenario loading: one parse per load, one load per sweep, and runs that
leave the parsed scenario as it was."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
import yaml

import test_golden
from eventual import scenario as scenario_module
from eventual.cli import crash_sweep, main
from eventual.errors import ScenarioInvalid
from eventual.scenario import parse_scenario
from eventual.sim import run

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"

TEXTS = {
    **{path.name: path.read_text() for path in sorted(SCENARIOS.glob("*.yaml"))},
    **{f"test_sim.{name}": text for name, text in test_golden.inline_scenarios().items()},
}


@pytest.fixture
def composes(monkeypatch):
    """Counts ``yaml.compose`` calls: ``composes[0]``."""
    calls = [0]
    original = yaml.compose

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(yaml, "compose", counted)
    return calls


def test_the_fast_parse_uses_libyaml_when_it_is_installed():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario_module._LOADER is expected


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_one_compose_gives_the_data_and_lines_of_the_pure_python_parse(name):
    text = TEXTS[name]
    lines, data = scenario_module._compose(text)
    assert data == yaml.safe_load(text)
    reference = scenario_module._Lines(yaml.compose(text, Loader=yaml.SafeLoader))
    assert lines._map == reference._map


@pytest.mark.parametrize(
    "text, line",
    [("schema: eventual/1\nentities: {a: {}}\ntopology: {partitions: {p0: [A]}: x}\n", 3),
     ("schema: eventual/1\nentities:\n  a: {merge: x\ntopology: {}\n", 4)],
    ids=["mapping-value", "unclosed-flow"],
)
def test_syntax_errors_keep_their_line(text, line):
    with pytest.raises(ScenarioInvalid) as caught:
        parse_scenario(text)
    assert caught.value.line == line


def test_a_seed_sweep_composes_once(composes, capsys):
    assert main(["sweep", str(SCENARIOS / "gossip.yaml"), "--sweep-seeds", "15"]) == 0
    assert "violating_seeds: []" in capsys.readouterr().out
    assert composes[0] == 1


def test_a_crash_sweep_composes_once(composes):
    points, violations = crash_sweep(SCENARIOS / "reference.yaml")
    assert points > 0 and violations == []
    assert composes[0] == 1


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_a_run_leaves_its_scenario_as_parsed(name):
    scenario = parse_scenario(TEXTS[name])
    run(scenario, seed=scenario.config.seed + 1)
    fresh = parse_scenario(TEXTS[name])
    assert scenario.actions == fresh.actions
    assert scenario.faults == fresh.faults
    assert scenario.processes == fresh.processes
    assert dataclasses.replace(scenario.config, seed=fresh.config.seed) == fresh.config
