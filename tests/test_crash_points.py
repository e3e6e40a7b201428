"""Commit-level crash points.

``Simulator.crash_after_commit(replica, k)`` crashes the replica right
after its k-th commit: the batch is durable, the rest of the running task
is lost, and the replica recovers ``CRASH_RECOVERY_GAP`` ticks later.
Recovery then owes every obligation the durable state implies, so a crash
between two commits of one task may lose no apology and leave no
resolvable exception open.
"""

from __future__ import annotations

import pytest

import test_sim
from eventual.cli import check_invariants, commit_points, crash_violations
from eventual.scenario import parse_scenario
from eventual.sim import CRASH_RECOVERY_GAP, Simulator, run
from test_scenario import TEXTS  # every bundled and inline scenario, by name


def crashed_after_commit(text: str, target: str, k: int):
    sim = Simulator(parse_scenario(text))
    sim.crash_after_commit(target, k)
    return sim, sim.run()


def test_a_crash_right_after_the_abrogating_cancel_keeps_its_apology():
    sim, report = crashed_after_commit(test_sim.DISASTER, "A", 3)
    assert report.commit_times["A"][2] == 20  # the third commit is the disaster's cancel
    assert sim.replicas["A"].epoch == 1
    assert report.reservations["A"]["r1"] == "abrogated"
    assert [(a["subject"], a["cause"]) for a in report.apologies] == [("r1", "disaster")]
    assert check_invariants(report) == []


@pytest.mark.parametrize("name", ["ref_child_first.yaml", "test_sim.REFERENTIAL_CHILD_FIRST"])
def test_a_crash_right_after_the_parent_insert_still_resolves_the_reference(name):
    sim, report = crashed_after_commit(TEXTS[name], "A", 3)
    assert report.commit_times["A"][2] == 20  # the third commit inserts the parent
    assert sim.replicas["A"].epoch == 1
    exc_id = "refviol:opportunity/o1:customer/c1"
    assert report.exceptions["A"] == {"open": [], "resolved": [exc_id]}
    assert check_invariants(report) == []


def test_the_crashed_replica_loses_its_task_and_recovers_after_the_gap():
    scenario = parse_scenario(test_sim.DISASTER)
    baseline = run(scenario)
    sim, report = crashed_after_commit(test_sim.DISASTER, "A", 1)
    # the first commit consumed the reserve at tick 2; the confirm sent at
    # tick 5 waits in the durable inbox until the replica is back
    assert report.commit_times["A"][:2] == [2, 2 + CRASH_RECOVERY_GAP]
    assert sim.replicas["A"].epoch == 1  # one crash: the point fires once
    assert report.semantic_digest() == baseline.semantic_digest()
    assert check_invariants(report) == []


# Every commit point of every bundled and inline scenario, at the scenario's
# own seed, that fails an invariant or ends in another business state than
# the no-crash run, as (scenario, replica, point).
KNOWN_MISMATCHES = {
    # negative control: the fixture diverges without any crash
    ("broken_merge.yaml", None, "baseline"),
    # the LWW winner of the concurrent profile/p writes flips with crash
    # timing; the value is still one of the candidates
    ("gossip.yaml", "A", "commit=1"),
    ("gossip.yaml", "B", "commit=1"),
    # the join's fire mark commits, and the dispatch step never runs
    ("test_sim.JOIN_FLOW", "A", "commit=4"),
}


def test_the_commit_sweep_finds_only_the_known_mismatches():
    found = set()
    points = 0
    for name, text in TEXTS.items():
        scenario = parse_scenario(text)
        baseline = run(scenario)
        if check_invariants(baseline):
            found.add((name, None, "baseline"))
            continue
        crash_points = commit_points(baseline)
        points += len(crash_points)
        for target, point, _ in crash_violations(scenario, baseline, crash_points):
            found.add((name, target, point))
    assert points > 100
    assert found == KNOWN_MISMATCHES
