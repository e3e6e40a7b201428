"""CLI surface: run, sweep, history, exit codes, report stability."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from eventual.cli import main

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"


def test_bank_scenario_runs_clean(capsys):
    code = main(["run", str(SCENARIOS / "bank.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert '"balance": 120' in out.replace('":', '": ') or '"balance":120' in out
    assert "quiescent: true" in out


def test_overbooking_scenario_reports_three_apologies(capsys):
    code = main(["run", str(SCENARIOS / "overbooking.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "apology_count: 3" in out


def test_malformed_scenario_names_the_offending_field(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        """schema: eventual/1
entities:
  account: {merge: commutative_delta}
topology:
  partitions: {p0: [A]}
actions:
  - {at: 1, replica: A, do: delta, entity: account/x, dletas: {balance: 1}}
"""
    )
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "dletas" in err
    assert "line 7" in err


def test_consistency_field_is_an_unknown_field(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        """schema: eventual/1
entities:
  account:
    merge: commutative_delta
    consistency: single_home
topology:
  partitions: {p0: [A]}
"""
    )
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 5: unknown field 'consistency' in entity 'account'" in err


def test_unknown_schema_tag_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: nope/9\nentities: {a: {}}\ntopology: {partitions: {p0: [A]}}\n")
    assert main(["run", str(bad)]) == 2


def test_report_files_are_byte_identical_across_runs(tmp_path, capsys):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert main(["run", str(SCENARIOS / "gossip.yaml"), "--seed", "5", "--report", str(r1)]) == 0
    assert main(["run", str(SCENARIOS / "gossip.yaml"), "--seed", "5", "--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    assert "== events ==" in r1.read_text()


def test_seed_sweep_passes_on_the_gossip_scenario(capsys):
    code = main(["sweep", str(SCENARIOS / "gossip.yaml"), "--sweep-seeds", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violating_seeds: []" in out


def test_seed_sweep_flags_the_broken_merge_fixture(capsys):
    code = main(["sweep", str(SCENARIOS / "broken_merge.yaml"), "--sweep-seeds", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DIVERGED" in out
    assert "violating_seeds: []" not in out


def test_crash_sweep_passes_on_the_reference_scenario(capsys):
    code = main(["sweep", str(SCENARIOS / "reference.yaml"), "--sweep-crash"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations: 0" in out


def test_history_shows_the_negative_crossing_and_tombstones(capsys):
    code = main(
        ["history", str(SCENARIOS / "negative_inventory.yaml"), "--entity", "inventory/w1", "--replica", "A"]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("history", "event_id", "checkpoint"))]
    ship = [l for l in lines if '"on_hand":-5' in l.replace(" ", "")]
    assert ship, out
    assert "discrepancy" in out  # the count that reconciled it is in history too


def test_history_unknown_entity_is_a_diagnostic(capsys):
    code = main(
        ["history", str(SCENARIOS / "bank.yaml"), "--entity", "account/ghost", "--replica", "A"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "UnknownEntity" in err


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
