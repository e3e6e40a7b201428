"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The sweep fixtures are module-scoped so the expensive parts
run once.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from eventual.cli import check_invariants, crash_sweep
from eventual.clocks import VersionVector
from eventual.registry import MergePolicy, RollupSpec, SchemaRegistry
from eventual.scenario import load_scenario
from eventual.sim import Simulator, run
from eventual.store import OP_DELTA, EntityRef, ReplicaStore, canonical_sort

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"
SWEEP_SEEDS = 100


def _passed(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def gossip_sweep():
    reports = []
    for seed in range(SWEEP_SEEDS):
        reports.append(run(load_scenario(SCENARIOS / "gossip.yaml"), seed=seed))
    return reports


def test_criterion_1_convergence_across_100_seeds(gossip_sweep):
    violations = []
    for seed, report in enumerate(gossip_sweep):
        violations.extend(f"seed {seed}: {failure}" for failure in check_invariants(report))
    assert violations == []  # tolerance: zero
    _passed(1, f"{SWEEP_SEEDS} seeds quiesced with byte-identical rollups on every replica")


def test_criterion_2_exactly_once_effect_under_redelivery(gossip_sweep):
    violations = []
    redeliveries = []
    for seed, report in enumerate(gossip_sweep):
        redeliveries.append(report.messages["avg_redeliveries"])
        for key, count in report.handler_effects.items():
            if count != 1:
                violations.append(f"seed {seed}: {key} x{count}")
    mean_redelivery = sum(redeliveries) / len(redeliveries)
    assert mean_redelivery >= 1.0, f"load condition not met: {mean_redelivery:.2f}"
    assert violations == []  # tolerance: zero
    _passed(
        2,
        f"every idempotence key had exactly 1 effect despite {mean_redelivery:.2f} avg redeliveries",
    )


def test_criterion_3_overbooking_apology_count_matches_oracle():
    scenario = load_scenario(SCENARIOS / "overbooking.yaml")
    sim = Simulator(scenario)
    report = sim.run()
    assert report.quiescent

    # independent oracle: brute-force canonical-order fold of the actual
    # reservation events, counting those that no longer fit the capacity
    events = [
        e for e in sim.replicas["A"].store.log("p0").events if e.op_kind == "tentative"
    ]
    assert len(events) == 8
    used, oracle_losers = 0, set()
    for event in canonical_sort(events):
        q = event.payload["quantity"]
        if used + q <= 5:
            used += q
        else:
            oracle_losers.add(event.payload["reservation_id"])

    assert len(report.apologies) == max(0, 8 - 5) == 3  # exact
    assert {a["subject"] for a in report.apologies} == oracle_losers
    cancelled = {r for r, s in report.reservations["A"].items() if s == "cancelled"}
    assert cancelled == oracle_losers

    # and zero apologies when the total fits
    fits = load_scenario(SCENARIOS / "overbooking.yaml")
    fits.actions = [a for a in fits.actions if a.action_id not in ("rA4", "rB3", "rB4")]
    fits_report = run(fits)
    assert fits_report.quiescent
    assert len(fits_report.apologies) == 0  # exact
    _passed(3, "4+4 partitioned reservations on capacity 5 gave exactly 3 apologies, 5 gave 0")


ONE_ENTITY_RULE_FIXTURE = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
max_time: 900
processes:
  - id: broken
    steps:
      - id: pay_two
        trigger: pay.requested
        handler: {kind: multi_write, entities: [account/a, account/b], deltas: {balance: 1}}
actions:
"""


def test_criterion_4_multi_entity_writes_rejected_every_time():
    from eventual.scenario import parse_scenario

    attempts = 10
    text = ONE_ENTITY_RULE_FIXTURE + "".join(
        f"  - {{at: {2 + i}, replica: A, do: emit, id: e{i}, type: pay.requested, payload: {{}}}}\n"
        for i in range(attempts)
    )
    report = run(parse_scenario(text), seed=0)
    assert report.quiescent
    assert report.multi_entity_rejections == attempts  # 100% of attempts
    assert "account/a" not in report.rollups["A"]  # zero events appended
    assert "account/b" not in report.rollups["A"]
    _passed(4, f"{attempts}/{attempts} two-entity steps rejected with zero events appended")


def test_criterion_5_deferred_aggregate_lags_then_equals_brute_sum():
    scenario = load_scenario(SCENARIOS / "invoice.yaml")
    brute_sum = sum(
        d["deltas"]["total"]
        for action in scenario.actions
        if action.do == "delta"
        for d in action.params.get("deferred", [])
    )
    report = run(scenario)
    assert report.quiescent
    stale = report.probes["stale"]["value"].get("total", 0)
    final = report.probes["final"]["value"]["total"]
    assert stale < brute_sum  # (a) a read window where the aggregate lags
    assert final == brute_sum  # (b) exact at quiescence
    _passed(5, f"aggregate read {stale} during the lag window, exactly {brute_sum} at quiescence")


def test_criterion_6_checkpoint_equivalence_on_1000_random_logs():
    registry = SchemaRegistry()
    registry.register(RollupSpec("acct", MergePolicy.COMMUTATIVE_DELTA, {"v": 0}, ("v",)))
    rng = random.Random(20_08)
    for case in range(1000):
        store = ReplicaStore("X", registry, ["p0"], {"acct": "p0"})
        ref = EntityRef("acct", "e")
        length = rng.randint(1, 1000) if case % 97 == 0 else rng.randint(1, 40)
        for i in range(length):
            ev = store.make_event(
                ref, OP_DELTA, {"deltas": {"v": rng.randint(-50, 50)}}, f"k{i}", "t"
            )
            store.append_event("p0", ev)
        before = store.rollup("p0", ref).canonical_dump()
        cut = VersionVector({"X": rng.randint(0, length)})
        store.summarize("p0", ref, cut)
        after = store.rollup("p0", ref).canonical_dump()
        assert after == before, f"case {case}"  # exact
    _passed(6, "1000 randomized logs summarize at random cuts with identical rollups")


def test_criterion_7_crash_sweep_matches_the_no_crash_run():
    points, violations = crash_sweep(SCENARIOS / "reference.yaml")
    assert points > 0
    # every invariant held, and exact state match at every crash point
    assert violations == []
    _passed(7, f"{points} crash points all recovered to the no-crash quiescent state")


def test_criterion_8_availability_during_every_partition(gossip_sweep):
    data_replicas = {"A", "B", "C"}
    violations = []
    for seed, report in enumerate(gossip_sweep):
        if report.commit_path_sends != 0:
            violations.append(f"seed {seed}: commit path touched the network")
        for window in report.partition_windows:
            start, end = window["start"], window["end"]
            for group in window["groups"]:
                side = set(group) & data_replicas
                if not side:
                    continue
                commits = sum(
                    1
                    for rid in side
                    for t in report.commit_times.get(rid, [])
                    if start <= t <= end
                )
                if commits < 1:
                    violations.append(f"seed {seed}: side {sorted(side)} had no commits")
    assert violations == []
    _passed(8, "every partition side kept committing; zero network sends on the commit path")


def test_criterion_9_twenty_repeats_one_trace_hash():
    hashes = {run(load_scenario(SCENARIOS / "gossip.yaml"), seed=0).trace_hash for _ in range(20)}
    assert len(hashes) == 1
    _passed(9, f"20 repeats produced one unique trace hash {next(iter(hashes))[:12]}…")


def _business_values(report) -> dict:
    out = {}
    for entity, dump in report.rollups["A"].items():
        value = json.loads(dump)["value"]
        out[entity] = {k: v for k, v in value.items() if k != "exceptions"}
    return out


def test_criterion_10_referential_orders_reach_identical_state():
    child_first = run(load_scenario(SCENARIOS / "ref_child_first.yaml"))
    parent_first = run(load_scenario(SCENARIOS / "ref_parent_first.yaml"))
    assert child_first.quiescent and parent_first.quiescent
    assert _business_values(child_first) == _business_values(parent_first)
    exc_id = "refviol:opportunity/o1:customer/c1"
    assert child_first.exceptions["A"]["open"] == []
    assert child_first.exceptions["A"]["resolved"] == [exc_id]  # opened, then resolved
    assert parent_first.exceptions["A"]["open"] == []
    assert parent_first.exceptions["A"]["resolved"] == []  # never opened
    _passed(10, "both entry orders converge; child-first shows one opened-then-resolved exception")
