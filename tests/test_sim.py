"""Simulator behavior: determinism, convergence, faults, crash recovery."""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

import eventual.node
import eventual.process
from eventual.bus import QueueMessage
from eventual.cli import check_invariants, render_report_file
from eventual.clocks import VersionVector
from eventual.errors import MalformedEvent
from eventual.process import scan_exceptions
from eventual.registry import MergePolicy, RollupSpec, SchemaRegistry
from eventual.replica import Replica
from eventual.scenario import load_scenario, parse_scenario
from eventual.sim import RunReport, Simulator, run
from eventual.store import OP_CANCEL, OP_INSERT, EntityRef, EventRecord, ReplicaStore
from eventual.txn import (
    PendingAction,
    ProcessStepDef,
    StepContext,
    StepPlan,
    TriggerSpec,
    apply_pending_actions,
    execute_step,
)

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"


def record_lines(report) -> list[dict]:
    """The report's rendered ``record`` lines, each parsed, with its replica."""
    out = []
    for line in report.render().splitlines():
        if line.startswith("record "):
            replica, _, body = line.removeprefix("record ").partition(": ")
            out.append({"replica": replica, **json.loads(body)})
    return out


BANK = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}}
"""

GOSSIP = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
  profile: {merge: lww_register}
topology:
  partitions: {p0: [A, B, C], p1: [A, B, C]}
  placement: {account: p0, profile: p1}
network: {delay_min: 1, delay_max: 4, drop: 0.2, duplicate: 0.1, reorder: true}
sync_interval: 6
max_time: 3000
faults:
  - {kind: partition, at: 8, groups: [[A], [B, C]]}
  - {kind: heal, at: 30}
actions:
  - {at: 2, replica: A, do: delta, id: a1, entity: account/k1, deltas: {balance: 10}}
  - {at: 3, replica: B, do: delta, id: a2, entity: account/k1, deltas: {balance: -4}}
  - {at: 10, replica: A, do: delta, id: a3, entity: account/k2, deltas: {balance: 7}}
  - {at: 11, replica: C, do: delta, id: a4, entity: account/k2, deltas: {balance: 5}}
  - {at: 12, replica: A, do: lww_set, id: a5, entity: profile/p, fields: {color: red}}
  - {at: 12, replica: B, do: lww_set, id: a6, entity: profile/p, fields: {color: blue}}
  - {at: 25, replica: C, do: delta, id: a7, entity: account/k1, deltas: {balance: 1}}
"""


def converged(report) -> bool:
    by_entity: dict[str, set[str]] = {}
    for replica, entities in report.rollups.items():
        for entity, dump in entities.items():
            by_entity.setdefault(entity, set()).add(dump)
    return all(len(dumps) == 1 for dumps in by_entity.values())


def test_trivial_scenario_commits_and_quiesces():
    report = run(parse_scenario(BANK))
    assert report.quiescent
    assert report.commits["A"] >= 1
    state = json.loads(report.rollups["A"]["account/alice"])
    assert state["value"]["balance"] == 100


def test_same_config_twice_gives_identical_trace_hashes():
    first = run(parse_scenario(BANK), seed=7)
    second = run(parse_scenario(BANK), seed=7)
    assert first.trace_hash == second.trace_hash
    assert first.render() == second.render()


def test_different_seeds_still_converge_under_faults():
    for seed in range(25):
        report = run(parse_scenario(GOSSIP), seed=seed)
        assert report.quiescent, f"seed {seed} did not quiesce"
        assert converged(report), f"seed {seed} diverged"
        balance = json.loads(report.rollups["A"]["account/k1"])["value"]["balance"]
        assert balance == 7


def test_exactly_once_effect_despite_drops_and_duplicates():
    for seed in range(10):
        report = run(parse_scenario(GOSSIP), seed=seed)
        bad = {k: n for k, n in report.handler_effects.items() if n != 1}
        assert bad == {}, f"seed {seed}: {bad}"


def test_lww_conflict_resolves_identically_everywhere():
    report = run(parse_scenario(GOSSIP), seed=3)
    colors = {
        replica: json.loads(entities["profile/p"])["value"]["color"]
        for replica, entities in report.rollups.items()
    }
    assert len(set(colors.values())) == 1
    assert report.conflicts  # the concurrent writes were reported


def test_commits_happen_on_both_sides_of_a_partition():
    report = run(parse_scenario(GOSSIP), seed=1)
    assert report.commit_path_sends == 0
    window = report.partition_windows[0]
    start, end = window["start"], window["end"]
    sides = [set(g) for g in window["groups"] if set(g) & {"A", "B", "C"}]
    for side in sides:
        commits_in_window = sum(
            1
            for rid in side
            for t in report.commit_times.get(rid, [])
            if start <= t <= end
        )
        assert commits_in_window >= 1, f"side {sorted(side)} was unavailable"


CRASH = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A, B]}
sync_interval: 4
max_time: 2000
faults:
  - {kind: crash, at: 5, target: B}
  - {kind: recover, at: 15, target: B}
actions:
  - {at: 2, replica: A, do: delta, id: a1, entity: account/x, deltas: {balance: 3}}
  - {at: 6, replica: B, do: delta, id: a2, entity: account/x, deltas: {balance: 4}}
  - {at: 7, replica: A, do: delta, id: a3, entity: account/x, deltas: {balance: 5}}
"""


def test_crash_and_recovery_still_reaches_the_no_crash_state():
    crashed = run(parse_scenario(CRASH), seed=2)
    assert crashed.quiescent
    assert converged(crashed)
    balance = json.loads(crashed.rollups["A"]["account/x"])["value"]["balance"]
    assert balance == 12  # the action sent to the crashed replica survives

    no_crash_text = CRASH.replace(
        """faults:
  - {kind: crash, at: 5, target: B}
  - {kind: recover, at: 15, target: B}
""",
        "",
    )
    baseline = run(parse_scenario(no_crash_text), seed=2)
    assert baseline.semantic_digest() == crashed.semantic_digest()


OVERBOOK = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A, B], notify: [N]}
notify_partition: notify
sync_interval: 5
max_time: 3000
faults:
  - {kind: partition, at: 3, groups: [[A, N], [B]]}
  - {kind: heal, at: 40}
actions:
  - {at: 5, replica: A, do: reserve, id: rA1, entity: book/moby, reservation_id: rA1, deadline: 200}
  - {at: 6, replica: A, do: reserve, id: rA2, entity: book/moby, reservation_id: rA2, deadline: 200}
  - {at: 7, replica: A, do: reserve, id: rA3, entity: book/moby, reservation_id: rA3, deadline: 200}
  - {at: 8, replica: A, do: reserve, id: rA4, entity: book/moby, reservation_id: rA4, deadline: 200}
  - {at: 5, replica: B, do: reserve, id: rB1, entity: book/moby, reservation_id: rB1, deadline: 200}
  - {at: 6, replica: B, do: reserve, id: rB2, entity: book/moby, reservation_id: rB2, deadline: 200}
  - {at: 7, replica: B, do: reserve, id: rB3, entity: book/moby, reservation_id: rB3, deadline: 200}
  - {at: 8, replica: B, do: reserve, id: rB4, entity: book/moby, reservation_id: rB4, deadline: 200}
"""


def test_partitioned_overbooking_yields_exactly_three_apologies():
    report = run(parse_scenario(OVERBOOK), seed=0)
    assert report.quiescent
    assert converged(report)
    assert len(report.apologies) == 3
    states = list(report.reservations["A"].values())
    assert sorted(states).count("cancelled") == 3
    # the five winners, never confirmed, expire at their deadline with no apology
    assert sorted(states).count("expired") == 5


def test_an_int_reservation_id_beside_string_ids_is_its_decimal_string():
    # a scenario may give an int id: the step writes it as "7", so the fold,
    # the scans and the report sort one type of id
    report = run(parse_scenario(OVERBOOK.replace("reservation_id: rA2", "reservation_id: 7")), seed=0)
    assert report.quiescent
    assert converged(report)
    assert len(report.apologies) == 3
    assert list(report.reservations["A"]) == ["7", "rA1", "rA3", "rA4", "rB1", "rB2", "rB3", "rB4"]


def test_no_apologies_when_total_reservations_fit():
    trimmed = OVERBOOK.replace(
        "  - {at: 7, replica: B, do: reserve, id: rB3, entity: book/moby, reservation_id: rB3, deadline: 200}\n", ""
    ).replace(
        "  - {at: 8, replica: B, do: reserve, id: rB4, entity: book/moby, reservation_id: rB4, deadline: 200}\n", ""
    ).replace(
        "  - {at: 8, replica: A, do: reserve, id: rA4, entity: book/moby, reservation_id: rA4, deadline: 200}\n", ""
    )
    report = run(parse_scenario(trimmed), seed=0)
    assert report.quiescent
    assert len(report.apologies) == 0


@pytest.mark.parametrize("seed", range(3))
def test_each_replica_cancels_each_capacity_loser_once(seed):
    # A cancel's own follow-up remediates the entity again; a loser it
    # cancels there must not be cancelled a second time.
    scenario = load_scenario(SCENARIOS / "overbooking.yaml")
    scenario.config.seed = seed
    sim = Simulator(scenario)
    report = sim.run()
    assert report.quiescent and converged(report)
    cancels: dict[tuple[str, str], int] = {}
    overbooked = 0
    for event in sim.replicas["A"].store.log("p0").missing_for(VersionVector()):
        if event.op_kind == OP_CANCEL:
            key = (event.event_id.replica, event.payload["reservation_id"])
            cancels[key] = cancels.get(key, 0) + 1
            overbooked += event.payload["cause"] in ("overbooking", "lost_promise")
    assert overbooked > 0
    assert {key: n for key, n in cancels.items() if n != 1} == {}


DISASTER = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A], notify: [N]}
notify_partition: notify
max_time: 1000
faults:
  - {kind: disaster, at: 20, target: r1, entity: book/moby}
actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/moby, reservation_id: r1, deadline: 500}
  - {at: 5, replica: A, do: confirm, id: c1, entity: book/moby, reservation_id: r1}
"""


def test_disaster_abrogates_a_confirmed_reservation_with_an_apology():
    report = run(parse_scenario(DISASTER), seed=0)
    assert report.quiescent
    assert report.reservations["A"]["r1"] == "abrogated"
    assert len(report.apologies) == 1
    assert report.apologies[0]["cause"] == "disaster"


EXPIRY = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A]}
max_time: 1000
actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/moby, reservation_id: r1, deadline: 30}
"""


def test_unconfirmed_reservation_expires_at_its_deadline():
    report = run(parse_scenario(EXPIRY), seed=0)
    assert report.quiescent
    assert report.reservations["A"]["r1"] == "expired"
    assert len(report.apologies) == 0  # expiry is the agreed deal, not a broken promise


# each infrastructure step below meets the lock that a pending deferred
# write holds on its entity, and must wait for it instead of raising; the
# texts are templates (LOCKED_STEP), so the golden digests leave them out
LOCKED_BOOK = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
lags: {pending: 20}
max_time: 500
LOCKED_STEP
  - {at: 9, replica: A, do: delta, id: d1, entity: account/x, deltas: {balance: 1},
     deferred: [{entity: book/b, deltas: {on_hand: -1}}]}
"""


_LOCKED_CANCELS = {
    "expiry": ("""actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/b, reservation_id: o1, deadline: 10}""",
               "expired", []),
    "disaster": ("""faults:
  - {kind: disaster, at: 10, target: o1, entity: book/b}
actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/b, reservation_id: o1}
  - {at: 3, replica: A, do: confirm, id: c1, entity: book/b, reservation_id: o1}""",
                 "abrogated", [("o1", "disaster")]),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(_LOCKED_CANCELS))
def test_an_infrastructure_cancel_waits_for_the_lock_of_a_pending_deferred_write(name, seed):
    step, state, apologies = _LOCKED_CANCELS[name]
    report = run(parse_scenario(LOCKED_BOOK.replace("LOCKED_STEP", step)), seed=seed)
    assert report.reservations["A"]["o1"] == state
    assert json.loads(report.rollups["A"]["book/b"])["value"]["on_hand"] == 4
    assert [(a["subject"], a["cause"]) for a in report.apologies] == apologies
    assert check_invariants(report) == []


@pytest.mark.parametrize("at", [0, 1])
def test_a_cleansing_waits_for_the_lock_of_a_pending_deferred_write(at):
    """``reference.yaml``'s physical count moved before ``dep``'s pending
    descriptor releases ``account/alice``: its cleansing meets the lock."""
    text = (SCENARIOS / "reference.yaml").read_text()
    moved = text.replace("{at: 50, replica: A, do: physical_count", f"{{at: {at}, replica: A, do: physical_count")
    assert moved != text
    report = run(parse_scenario(moved), seed=0)
    assert check_invariants(report) == []
    for rid in ("A", "B"):
        assert report.exceptions[rid]["open"] == []
        assert "disc:account/alice:client:count" in report.exceptions[rid]["resolved"]


def test_a_referential_resolution_waits_for_the_lock_of_a_pending_deferred_write():
    """The parent's insert commits and its follow-up meets the child's lock:
    the resolution must wait, not be lost with the committed message."""
    text = """
schema: eventual/1
entities:
  customer: {merge: lww_register}
  opportunity:
    merge: commutative_delta
    initial: {n: 0}
    aggregates: [n]
    parents: [{field: customer_id, type: customer}]
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
lags: {pending: 20}
max_time: 500
actions:
  - {at: 2, replica: A, do: insert, id: child, entity: opportunity/o1, fields: {customer_id: c1}}
  - {at: 5, replica: A, do: delta, id: d1, entity: account/x, deltas: {balance: 1},
     deferred: [{entity: opportunity/o1, deltas: {n: 1}}]}
  - {at: 8, replica: A, do: insert, id: parent, entity: customer/c1, fields: {name: Ada}}
"""
    report = run(parse_scenario(text), seed=0)
    assert report.exceptions["A"] == {"open": [], "resolved": ["refviol:opportunity/o1:customer/c1"]}
    assert check_invariants(report) == []


INVOICE = """
schema: eventual/1
entities:
  invoice_line: {merge: commutative_delta}
  invoice_total: {merge: commutative_delta, initial: {total: 0}, aggregates: [total]}
topology:
  partitions: {p0: [A]}
lags: {pending: 6}
max_time: 1000
actions:
  - {at: 2, replica: A, do: delta, id: l1, entity: invoice_line/i1-1, deltas: {amount: 25},
     deferred: [{entity: invoice_total/i1, deltas: {total: 25}}]}
  - {at: 4, replica: A, do: read, id: probe_stale, entity: invoice_total/i1, label: stale}
  - {at: 40, replica: A, do: read, id: probe_final, entity: invoice_total/i1, label: final}
"""


def test_deferred_aggregate_shows_a_stale_window_then_catches_up():
    report = run(parse_scenario(INVOICE), seed=0)
    assert report.quiescent
    assert report.probes["stale"]["value"].get("total", 0) == 0
    assert report.probes["final"]["value"]["total"] == 25


REFERENTIAL_CHILD_FIRST = """
schema: eventual/1
entities:
  customer: {merge: lww_register}
  opportunity:
    merge: lww_register
    parents: [{field: customer_id, type: customer}]
topology:
  partitions: {p0: [A]}
lags: {pending: 2}
max_time: 1000
actions:
  - {at: 2, replica: A, do: insert, id: child, entity: opportunity/o1, fields: {customer_id: c1}}
  - {at: 20, replica: A, do: insert, id: parent, entity: customer/c1, fields: {name: Ada}}
"""


def test_out_of_order_references_open_then_resolve():
    report = run(parse_scenario(REFERENTIAL_CHILD_FIRST), seed=0)
    assert report.quiescent
    exc_id = "refviol:opportunity/o1:customer/c1"
    assert report.exceptions["A"]["open"] == []
    assert exc_id in report.exceptions["A"]["resolved"]

    parent_first = REFERENTIAL_CHILD_FIRST.replace("at: 2, replica: A, do: insert, id: child",
                                                   "at: 30, replica: A, do: insert, id: child")
    baseline = run(parse_scenario(parent_first), seed=0)
    assert baseline.quiescent
    assert baseline.exceptions["A"]["open"] == []
    assert baseline.exceptions["A"]["resolved"] == []  # never opened
    # business state is identical either way
    a = json.loads(report.rollups["A"]["opportunity/o1"])["value"]
    b = json.loads(baseline.rollups["A"]["opportunity/o1"])["value"]
    assert {k: v for k, v in a.items() if k != "exceptions"} == {
        k: v for k, v in b.items() if k != "exceptions"
    }


DISCREPANCY = """
schema: eventual/1
entities:
  inventory: {merge: commutative_delta, initial: {on_hand: 0}, aggregates: [on_hand]}
topology:
  partitions: {p0: [A]}
lags: {cleanse: 4}
max_time: 1000
actions:
  - {at: 2, replica: A, do: delta, id: recv, entity: inventory/w1, deltas: {on_hand: 3}}
  - {at: 3, replica: A, do: delta, id: ship, entity: inventory/w1, deltas: {on_hand: -5}}
  - {at: 6, replica: A, do: physical_count, id: count, entity: inventory/w1, observed: {on_hand: 0}}
"""


def test_negative_inventory_discrepancy_is_cleansed_to_observed_reality():
    report = run(parse_scenario(DISCREPANCY), seed=0)
    assert report.quiescent
    state = json.loads(report.rollups["A"]["inventory/w1"])["value"]
    assert state["on_hand"] == 0
    assert report.exceptions["A"]["open"] == []
    assert len(report.exceptions["A"]["resolved"]) == 1


PROCESS_FLOW = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
  order: {merge: lww_register}
topology:
  partitions: {p0: [A]}
max_time: 1000
processes:
  - id: order_flow
    steps:
      - id: entry
        trigger: order.requested
        handler:
          kind: reserve
          entity_type: book
          key_from: item
          reservation_id_from: order_id
          deadline: 600
          emit: [{type: order.accepted, payload_from: [order_id, item]}]
      - id: fulfill
        trigger: order.accepted
        handler:
          kind: confirm
          entity_type: book
          key_from: item
          reservation_id_from: order_id
          emit: [{type: order.fulfilled, payload_from: [order_id, item]}]
      - id: record
        trigger: order.fulfilled
        handler:
          kind: insert
          entity_type: order
          key_from: order_id
          fields: {status: fulfilled}
    wiring: {order.accepted: fulfill, order.fulfilled: record}
actions:
  - {at: 2, replica: A, do: emit, id: e1, type: order.requested,
     payload: {order_id: o1, item: moby}}
"""


def test_order_process_dispatches_steps_in_event_order():
    report = run(parse_scenario(PROCESS_FLOW), seed=0)
    assert report.quiescent
    assert report.reservations["A"]["o1"] == "confirmed"
    order = json.loads(report.rollups["A"]["order/o1"])["value"]
    assert order["status"] == "fulfilled"
    # acceptance and fulfillment stay separate promises: the entry step's
    # events never carry a fulfillment marker
    entry_events = [
        line
        for line in report.rollups["A"]
        if line.startswith("book/")
    ]
    assert entry_events


JOIN_FLOW = """
schema: eventual/1
entities:
  shipment: {merge: lww_register}
topology:
  partitions: {p0: [A]}
max_time: 1000
processes:
  - id: shipping
    steps:
      - id: dispatch
        trigger: {all: [order.paid, order.packed], correlate: order_id}
        handler:
          kind: insert
          entity_type: shipment
          key_from: order_id
          fields: {state: dispatched}
actions:
  - {at: 2, replica: A, do: emit, id: e1, type: order.paid, payload: {order_id: o1}}
  - {at: 9, replica: A, do: emit, id: e2, type: order.packed, payload: {order_id: o1}}
"""


def test_join_trigger_fires_exactly_once_in_either_arrival_order():
    report = run(parse_scenario(JOIN_FLOW), seed=0)
    assert report.quiescent
    assert json.loads(report.rollups["A"]["shipment/o1"])["value"]["state"] == "dispatched"

    swapped = JOIN_FLOW.replace("type: order.paid", "type: TMP").replace(
        "type: order.packed", "type: order.paid"
    ).replace("type: TMP", "type: order.packed")
    report2 = run(parse_scenario(swapped), seed=0)
    assert report2.quiescent
    assert json.loads(report2.rollups["A"]["shipment/o1"])["value"]["state"] == "dispatched"
    # fired exactly once in both orders: one shipment insert, fired flag == 1
    for rep in (report, report2):
        join_dump = [v for k, v in rep.rollups["A"].items() if k.startswith("_join/")][0]
        assert json.loads(join_dump)["value"]["fired"] == 1
        # the join took its first trigger too: no message went unmatched
        assert record_lines(rep) == []


MULTI_WRITE = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
max_time: 500
processes:
  - id: broken
    steps:
      - id: pay_two
        trigger: pay.requested
        handler: {kind: multi_write, entities: [account/a, account/b], deltas: {balance: 1}}
actions:
  - {at: 2, replica: A, do: emit, id: e1, type: pay.requested, payload: {}}
"""


def test_multi_entity_step_is_rejected_and_appends_nothing():
    report = run(parse_scenario(MULTI_WRITE), seed=0)
    assert report.quiescent
    assert report.multi_entity_rejections == 1
    assert [r["kind"] for r in record_lines(report)] == ["multi_entity_rejected"]
    assert "account/a" not in report.rollups["A"]
    assert "account/b" not in report.rollups["A"]


COMPENSATE_FLOW = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
  ledger: {merge: commutative_delta, initial: {count: 0}, aggregates: [count]}
topology:
  partitions: {p0: [A], notify: [N]}
notify_partition: notify
max_time: 2000
processes:
  - id: orders
    steps:
      - id: fulfill
        trigger: order.accepted
        handler:
          kind: confirm
          entity_type: book
          key_from: item
          reservation_id_from: order_id
          emit: [{type: order.tallied, payload_from: [order_id]}]
      - id: tally
        trigger: order.tallied
        handler: {kind: delta, entity: ledger/total, deltas: {count: 1}}
      - id: untally
        trigger: order.accepted.compensate
        handler: {kind: delta, entity: ledger/total, deltas: {count: -1}}
    wiring: {order.tallied: tally}
actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/moby, reservation_id: o1, deadline: 400,
     emit: [{type: order.accepted, payload: {order_id: o1, item: moby}}]}
  - {at: 30, replica: A, do: read, id: before, entity: ledger/total, label: tallied}
  - {at: 40, replica: A, do: compensate, id: comp, action: r1}
  - {at: 80, replica: A, do: read, id: after, entity: ledger/total, label: after}
"""


def test_compensating_a_confirmed_reservation_reverses_downstream_work():
    report = run(parse_scenario(COMPENSATE_FLOW), seed=0)
    assert report.quiescent
    # downstream tally applied, then reversed by the compensating message
    assert report.probes["tallied"]["value"]["count"] == 1
    assert report.probes["after"]["value"]["count"] == 0
    ledger = json.loads(report.rollups["A"]["ledger/total"])["value"]
    assert ledger["count"] == 0
    # the broken promise is abrogated and apologized for
    assert report.reservations["A"]["o1"] == "abrogated"
    assert any(a["cause"] == "lost_promise" for a in report.apologies)


def test_a_client_action_s_transaction_is_the_one_that_consumed_its_message():
    sim = Simulator(parse_scenario(COMPENSATE_FLOW))
    sim.run()
    replica = sim.replicas["A"]
    (reserve,) = [e for e in replica.store.log("p0").events if e.idempotence_key == "reserve:o1"]
    # durable state, so a crash right after the reserve's commit keeps it
    assert replica.processed["client:r1"] == reserve.origin_txn_id


def test_a_compensation_on_another_replica_reads_the_transaction_where_the_action_ran():
    text = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A, B]}
max_time: 500
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}}
  - {at: 30, replica: B, do: compensate, id: comp, action: d1}
"""
    report = run(parse_scenario(text))
    assert record_lines(report) == []
    for rollups in report.rollups.values():
        assert json.loads(rollups["account/alice"])["value"]["balance"] == 0


PAID_TALLY = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
  ledger: {merge: commutative_delta, initial: {count: 0}, aggregates: [count]}
topology:
  partitions: {p0: [A, B]}
max_time: 500
processes:
  - id: books
    steps:
      - {id: tally, trigger: paid, handler: {kind: delta, entity: ledger/total, deltas: {count: 1}}}
      - {id: untally, trigger: paid.compensate, handler: {kind: delta, entity: ledger/total, deltas: {count: -1}}}
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}, emit: [{type: paid}]}
  - {at: 30, replica: COMP_ON, do: compensate, id: comp, action: d1}
"""


@pytest.mark.parametrize("where", ["A", "B"])
def test_a_compensation_sends_the_messages_of_the_transaction_wherever_it_runs(where):
    # the messages are in the outbox of the replica the action ran on
    report = run(parse_scenario(PAID_TALLY.replace("COMP_ON", where)))
    assert report.quiescent and record_lines(report) == []
    for rollups in report.rollups.values():
        assert json.loads(rollups["ledger/total"])["value"]["count"] == 0
        assert json.loads(rollups["account/alice"])["value"]["balance"] == 0


def test_a_compensation_on_another_replica_reverses_events_anti_entropy_has_not_brought_it():
    # at tick 2 B holds neither the delta nor the tally A committed at
    # tick 1: the reversing events are drafted from A's logs, where the
    # transaction ran
    text = PAID_TALLY.replace("at: 30, replica: COMP_ON", "at: 2, replica: B")
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert sim.replicas["B"].store.log("p0").events[0].event_id.replica == "B"  # made before any merge
    assert report.quiescent and record_lines(report) == []
    for rid in ("A", "B"):
        rollups = report.rollups[rid]
        assert json.loads(rollups["account/alice"])["value"]["balance"] == 0, rid
        assert json.loads(rollups["ledger/total"])["value"]["count"] == 0, rid


def test_a_compensation_on_another_replica_apologizes_for_a_promise_only_the_origin_saw_confirmed():
    # at tick 3 B has not heard of the reservation A made and confirmed:
    # its cancel still breaks a promise, so it is abrogated with an apology
    text = (
        COMPENSATE_FLOW.replace("partitions: {p0: [A], notify: [N]}", "partitions: {p0: [A, B], notify: [N]}")
        .replace("{at: 2, replica: A, do: reserve", "{at: 1, replica: A, do: reserve")
        .replace("{at: 40, replica: A, do: compensate", "{at: 3, replica: B, do: compensate")
    )
    report = run(parse_scenario(text), seed=0)
    assert report.quiescent and record_lines(report) == [] and check_invariants(report) == []
    assert report.reservations["A"] == report.reservations["B"] == {"o1": "abrogated"}
    assert [(a["apology_id"], a["cause"]) for a in report.apologies] == [("apology:o1", "lost_promise")]
    assert report.probes["after"]["value"]["count"] == 0


def test_a_compensation_notes_each_partition_of_the_transaction_it_does_not_host():
    text = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
  ledger: {merge: commutative_delta, initial: {count: 0}, aggregates: [count]}
topology:
  partitions: {p0: [A, B], p1: [A]}
  placement: {account: p0, ledger: p1}
max_time: 500
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: ledger/total, deltas: {count: 1}}
  - {at: 30, replica: B, do: compensate, id: comp, action: d1}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    txn_id = sim.replicas["A"].processed["client:d1"]
    assert record_lines(report) == [
        {"replica": "B", "tick": 30, "kind": "compensation_unhosted", "txn": txn_id, "partition": "p1"}
    ]
    assert json.loads(report.rollups["A"]["ledger/total"])["value"]["count"] == 1


def test_compensating_a_rolled_back_action_notes_that_it_has_no_transaction():
    text = BANK + """  - {at: 2, replica: A, do: delta, id: w, entity: account/alice, deltas: {balance: -500},
     guard: {field: balance, min: 0}}
  - {at: 5, replica: A, do: compensate, id: comp, action: w}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert "client:w" in sim.replicas["A"].processed  # acknowledged, in no transaction
    assert record_lines(report) == [
        {"replica": "A", "tick": 2, "kind": "guard_failed", "step": "client.delta", "base": "client:w",
         "reason": "guard failed: balance would be -400"},
        {"replica": "A", "tick": 5, "kind": "compensation_untracked", "action": "w"},
    ]
    assert json.loads(report.rollups["A"]["account/alice"])["value"]["balance"] == 100


def test_compensating_the_confirm_or_the_reserve_of_a_confirmed_reservation_apologizes_once():
    # either compensation breaks the promise the confirm made
    text = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A]}
max_time: 500
actions:
  - {at: 1, replica: A, do: reserve, id: res, entity: book/moby, reservation_id: o1}
  - {at: 3, replica: A, do: confirm, id: conf, entity: book/moby, reservation_id: o1}
  - {at: 6, replica: A, do: compensate, id: comp, action: UNDONE}
"""
    outcomes = []
    for undone in ("res", "conf"):
        report = run(parse_scenario(text.replace("UNDONE", undone)))
        assert report.quiescent and record_lines(report) == [] and check_invariants(report) == [], undone
        entry = json.loads(report.rollups["A"]["book/moby"])["value"]["reservations"]["o1"]
        apologies = [(a["apology_id"], a["cause"]) for a in report.apologies]
        outcomes.append((report.reservations, entry["state"], entry["cause"], apologies))
    assert outcomes[0] == outcomes[1] == (
        {"A": {"o1": "abrogated"}}, "abrogated", "lost_promise", [("apology:o1", "lost_promise")]
    )


def test_compensating_an_insert_tombstones_the_entity():
    text = """
schema: eventual/1
entities:
  profile: {merge: lww_register}
topology:
  partitions: {p0: [A]}
max_time: 500
actions:
  - {at: 1, replica: A, do: insert, id: ins, entity: profile/p, fields: {color: red}}
  - {at: 5, replica: A, do: compensate, id: comp, action: ins}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and record_lines(report) == []
    assert json.loads(report.rollups["A"]["profile/p"])["deleted"] is True
    insert, reversal = sim.replicas["A"].store.log("p0").events
    assert (insert.op_kind, reversal.op_kind) == (OP_INSERT, "tombstone")
    assert reversal.payload == {"compensates": insert.origin_txn_id}


def _skipped_action_report():
    """A step run without a simulator defers an action of a kind the engine
    does not know; applying it skips the action and records that."""
    registry = SchemaRegistry()
    registry.register(RollupSpec("account", MergePolicy.COMMUTATIVE_DELTA))
    replica = Replica("A", registry, ["p0"], {"account": "p0"})
    step = ProcessStepDef("crm", TriggerSpec(("crm",)), lambda ctx: StepPlan(pending=[PendingAction("notify_crm", {})]))
    ctx = StepContext(replica=replica, now=1, session="s1", payload={}, idempotence_base="b")
    descriptor = execute_step(step, ctx).pending_descriptor
    apply_pending_actions(replica, descriptor, now=4)
    return RunReport(records={"A": replica.records})


_GUARDED = "  - {at: 2, replica: A, do: delta, id: w, entity: account/alice, deltas: {balance: -500}, guard: {field: balance, min: 0}}\n"
_GUARD_FAILED = {"replica": "A", "tick": 2, "kind": "guard_failed", "step": "client.delta", "base": "client:w",
                 "reason": "guard failed: balance would be -400"}


@pytest.mark.parametrize(
    "source, expected",
    [
        (BANK + "  - {at: 5, replica: A, do: emit, id: stray, type: nobody.cares, payload: {}}\n",
         [{"replica": "A", "tick": 5, "kind": "message_unmatched", "msg_type": "nobody.cares"}]),
        ("""
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A]}
actions:
  - {at: 1, replica: A, do: confirm, id: c, entity: book/moby, reservation_id: ghost}
""",
         [{"replica": "A", "tick": 1, "kind": "step_refused", "step": "client.confirm",
           "error": "UnknownReservation", "detail": "ghost"}]),
        (MULTI_WRITE,
         [{"replica": "A", "tick": 2, "kind": "multi_entity_rejected", "step": "pay_two",
           "detail": "step pay_two plans writes on ['account/a', 'account/b']"}]),
        # the replica crashes after the record and recovers: records are durable
        (BANK + _GUARDED + "faults: [{kind: crash, at: 4, target: A}, {kind: recover, at: 9, target: A}]\n",
         [_GUARD_FAILED]),
        (_skipped_action_report,
         [{"replica": "A", "tick": 4, "kind": "action_skipped", "txn": "A:s1:1", "action": "notify_crm"}]),
        ("""
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
  ledger: {merge: commutative_delta, initial: {count: 0}, aggregates: [count]}
topology:
  partitions: {p0: [A, B], p1: [A]}
  placement: {account: p0, ledger: p1}
max_time: 500
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: ledger/total, deltas: {count: 1}}
  - {at: 30, replica: B, do: compensate, id: comp, action: d1}
""",
         [{"replica": "B", "tick": 30, "kind": "compensation_unhosted", "txn": "A:client:d1:1", "partition": "p1"}]),
        (BANK + _GUARDED + "  - {at: 5, replica: A, do: compensate, id: comp, action: w}\n",
         [_GUARD_FAILED, {"replica": "A", "tick": 5, "kind": "compensation_untracked", "action": "w"}]),
        (BANK.replace("balance: 100}}", "balance: 100}, irreversible: true}")
         + "  - {at: 3, replica: A, do: compensate, id: comp, action: d1}\n",
         [{"replica": "A", "tick": 3, "kind": "compensation_refused", "txn": "A:client:d1:1", "event": "A:1"}]),
    ],
    ids=["message_unmatched", "step_refused", "multi_entity_rejected", "guard_failed", "action_skipped",
         "compensation_unhosted", "compensation_untracked", "compensation_refused"],
)
def test_each_decision_renders_as_one_record_line(source, expected):
    report = source() if callable(source) else run(parse_scenario(source))
    assert record_lines(report) == expected
    assert report.multi_entity_rejections == sum(r["kind"] == "multi_entity_rejected" for r in expected)


def test_a_compensate_or_summarize_aimed_at_a_down_replica_waits_for_it():
    text = """
schema: eventual/1
entities: {account: {}}
topology: {partitions: {p0: [A, B]}}
faults: [{kind: crash, at: 3, target: A}, {kind: recover, at: 10, target: A}]
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}}
  - {at: 4, replica: A, do: compensate, action: d1}
  - {at: 5, replica: A, do: summarize, entity: account/alice}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and check_invariants(report) == []
    # nothing while A is down; at tick 10 the compensate keeps its place
    # before the recover fault, so it runs at 11
    assert report.commit_times["A"] == [1, 11]
    assert list(sim.replicas["A"].store.log("p0").checkpoints) == [EntityRef("account", "alice")]
    for rollups in report.rollups.values():
        assert json.loads(rollups["account/alice"])["value"]["balance"] == 0


def test_deferred_client_actions_keep_their_order():
    # both wait for A; the compensate, due first, still runs first once A is back
    text = """
schema: eventual/1
entities: {account: {}}
topology: {partitions: {p0: [A]}}
faults: [{kind: crash, at: 3, target: A}, {kind: recover, at: 10, target: A}]
actions:
  - {at: 2, replica: A, do: delta, id: dep, entity: account/alice, deltas: {balance: 100}}
  - {at: 4, replica: A, do: compensate, action: dep}
  - {at: 5, replica: A, do: summarize, entity: account/alice}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and check_invariants(report) == []
    (checkpoint,) = sim.replicas["A"].store.log("p0").checkpoints.values()
    assert checkpoint.covers_up_to.to_dict() == {"A": 2}  # the compensation included


def test_a_summarize_of_a_locked_entity_runs_once_the_pending_action_releases_it():
    text = """
schema: eventual/1
entities: {account: {}, invoice_total: {}}
topology: {partitions: {p0: [A]}}
lags: {pending: 3}
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100},
     deferred: [{entity: invoice_total/i1, deltas: {total: 100}}]}
  - {at: 2, replica: A, do: summarize, entity: invoice_total/i1}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and check_invariants(report) == []
    (checkpoint,) = sim.replicas["A"].store.log("p0").checkpoints.values()
    assert checkpoint.entity_ref == EntityRef("invoice_total", "i1")
    assert checkpoint.covers_up_to.to_dict() == {"A": 2}  # the pending action's delta included


def test_a_finished_simulator_is_freed_without_the_cycle_collector():
    # each replica's commit hook must not refer back to the simulator: the
    # cycle would keep a finished run's whole state alive until a full
    # collection, and raised delta-hot's peak RSS by 15%
    gc.disable()
    try:
        sim = Simulator(load_scenario(SCENARIOS / "overbooking.yaml"))
        sim.run()
        # a later write on a finished run's replicas records no batch
        assert all(replica.on_commit is None for replica in sim.replicas.values())
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        gc.enable()


# actions after two tentative reservations on a capacity-2 book, each of
# which takes the book below its reservations, and the losers that leaves
_UNDER_CAPACITY = {
    "deferred-write": (
        """
  - {at: 5, replica: A, do: delta, id: ship, entity: shipment/s1, deltas: {out: 1},
     deferred: [{entity: book/b, deltas: {on_hand: -1}}]}""",
        ["o2"],
    ),
    "two-deferred-writes-of-one-session": (
        """
  - {at: 5, replica: A, do: delta, id: ship, entity: shipment/s1, deltas: {out: 1}, session: s,
     deferred: [{entity: book/b, deltas: {on_hand: -1}}]}
  - {at: 6, replica: A, do: delta, id: ship2, entity: shipment/s2, deltas: {out: 1}, session: s,
     deferred: [{entity: book/b, deltas: {on_hand: -1}}]}""",
        ["o1", "o2"],
    ),
    "write-on-the-book-that-defers-elsewhere": (
        """
  - {at: 5, replica: A, do: delta, id: ship, entity: book/b, deltas: {on_hand: -1},
     deferred: [{entity: shipment/s1, deltas: {out: 1}}]}""",
        ["o2"],
    ),
    "compensated-restock": (
        """
  - {at: 4, replica: A, do: delta, id: restock, entity: book/b, deltas: {on_hand: 1}}
  - {at: 6, replica: A, do: reserve, id: r3, entity: book/b, reservation_id: o3}
  - {at: 9, replica: A, do: compensate, id: comp, action: restock}""",
        ["o3"],
    ),
}


@pytest.mark.parametrize("name", sorted(_UNDER_CAPACITY))
def test_a_write_that_takes_a_capacity_entity_below_its_reservations_cancels_each_loser_once(name):
    actions, losers = _UNDER_CAPACITY[name]
    text = """
schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 2}, aggregates: [on_hand], capacity_field: on_hand}
  shipment: {merge: commutative_delta, initial: {out: 0}, aggregates: [out]}
topology:
  partitions: {p0: [A]}
max_time: 500
actions:
  - {at: 2, replica: A, do: reserve, id: r1, entity: book/b, reservation_id: o1}
  - {at: 3, replica: A, do: reserve, id: r2, entity: book/b, reservation_id: o2}""" + actions
    report = run(parse_scenario(text), seed=0)
    assert report.quiescent
    cancelled = sorted(r for r, state in report.reservations["A"].items() if state == "cancelled")
    assert cancelled == losers
    assert sorted((a["subject"], a["cause"]) for a in report.apologies) == [
        (r, "overbooking") for r in losers
    ]
    assert check_invariants(report) == []


LOSSY_PIPE = """
schema: eventual/1
entities:
  counter: {merge: commutative_delta, initial: {n: 0}, aggregates: [n]}
topology:
  partitions: {p0: [A, B]}
network: {delay_min: 1, delay_max: 4, drop: 0.3, duplicate: 0.0, reorder: true}
retry: {base: 2, cap: 10}
sync_interval: 5
max_time: 3000
processes:
  - id: relay
    steps:
      - id: apply
        trigger: bump.requested
        handler: {kind: delta, entity: counter/c, deltas: {n: 1}}
actions:
  - {at: 2, replica: A, do: delta, id: a1, entity: counter/c, deltas: {n: 10},
     emit: [{type: bump.requested, to: [B, p0], payload: {}}]}
  - {at: 3, replica: A, do: delta, id: a2, entity: counter/c, deltas: {n: 100},
     emit: [{type: bump.requested, to: [B, p0], payload: {}}]}
"""


def test_thirty_percent_drop_still_delivers_every_message_exactly_once():
    for seed in range(100):
        report = run(parse_scenario(LOSSY_PIPE), seed=seed)
        assert report.quiescent, f"seed {seed}"
        n = json.loads(report.rollups["A"]["counter/c"])["value"]["n"]
        assert n == 112, f"seed {seed}: n={n}"
        assert all(v == 1 for v in report.handler_effects.values()), f"seed {seed}"


def test_genuinely_absent_parent_leaves_the_exception_open():
    orphan_only = REFERENTIAL_CHILD_FIRST.replace(
        "  - {at: 20, replica: A, do: insert, id: parent, entity: customer/c1, fields: {name: Ada}}\n",
        "",
    )
    report = run(parse_scenario(orphan_only), seed=0)
    assert report.quiescent
    assert report.exceptions["A"]["open"] == ["refviol:opportunity/o1:customer/c1"]
    assert report.exceptions["A"]["resolved"] == []


def test_lossless_network_delivers_exactly_once():
    # no drops, and a retry timer patient enough to outwait the ack round
    # trip: every message arrives exactly once
    clean = LOSSY_PIPE.replace("drop: 0.3", "drop: 0.0").replace(
        "retry: {base: 2, cap: 10}", "retry: {base: 32, cap: 32}"
    )
    report = run(parse_scenario(clean), seed=4)
    assert report.quiescent
    assert report.messages["duplicates"] == 0
    assert report.messages["delivered"] == 2  # one arrival per relayed message
    assert all(v == 1 for v in report.handler_effects.values())


def test_unmatched_event_types_are_recorded_and_ignored():
    text = BANK + "  - {at: 5, replica: A, do: emit, id: stray, type: nobody.cares, payload: {}}\n"
    report = run(parse_scenario(text), seed=0)
    assert report.quiescent
    assert [(r["kind"], r["msg_type"]) for r in record_lines(report)] == [("message_unmatched", "nobody.cares")]
    # the stray event consumed its key exactly once and changed nothing
    assert report.handler_effects["client:stray"] == 1


def test_a_retry_of_an_acked_message_sends_nothing():
    sim = Simulator(parse_scenario(GOSSIP))
    outbox = sim.replicas["A"].outbox
    node = sim.nodes["A"]
    outbox.add(QueueMessage("A:t:m0", ("B", "p0"), "thing.happened", {}, "K", 0, "A"))
    node._task_retry({"message_id": "A:t:m0"})
    assert sim.counters["sent"] == 1 and outbox.get("A:t:m0").attempts == 1
    outbox.mark_acked("A:t:m0")
    node._task_retry({"message_id": "A:t:m0"})
    node._task_retry({"message_id": "A:t:m9"})  # never added
    assert sim.counters["sent"] == 1 and outbox.get("A:t:m0").attempts == 1


def test_a_fifo_network_delivers_each_pair_s_envelopes_in_send_order(monkeypatch):
    text = """
schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A, B, C]}
network: {delay_min: 1, delay_max: 6, drop: 0.0, duplicate: 0.0, reorder: REORDER}
sync_interval: 3
max_time: 2000
processes:
  - id: relay
    steps:
      - {id: tally, trigger: paid, handler: {kind: delta, entity: account/tally, deltas: {balance: 1}}}
actions:
""" + "".join(
        f"  - {{at: {t}, replica: {r}, do: emit, type: paid, payload: {{n: {t}}}, partition: p0}}\n"
        f"  - {{at: {t}, replica: {r}, do: delta, entity: account/{r}, deltas: {{balance: 1}},"
        f" emit: [{{type: paid, to: [{d}, p0]}}]}}\n"
        for t, (r, d) in enumerate([("A", "B"), ("B", "C"), ("C", "A")] * 6, start=1)
    )
    send = Simulator._send
    receive = eventual.node.Node.receive

    def run_recording(reorder: str) -> tuple[dict, dict]:
        sent: dict = {}  # (src, dst) -> the bodies, in send order
        received: dict = {}  # (src, dst) -> the bodies, in delivery order

        def recorded_send(sim, src, dst, kind, body, env_id):
            sent.setdefault((src, dst), []).append(body)
            send(sim, src, dst, kind, body, env_id)

        def recorded_receive(node, src, kind, body):
            received.setdefault((src, node.replica.replica_id), []).append(body)
            receive(node, src, kind, body)

        monkeypatch.setattr(Simulator, "_send", recorded_send)
        monkeypatch.setattr(eventual.node.Node, "receive", recorded_receive)
        report = run(parse_scenario(text.replace("REORDER", reorder)), seed=3)
        assert report.quiescent and converged(report)
        assert report.messages["dropped"] == 0
        return sent, received

    def in_order(sent: dict, received: dict) -> bool:
        assert sent.keys() == received.keys()
        return all(
            [id(b) for b in received[pair]] == [id(b) for b in sent[pair]] for pair in sent
        )

    sent, received = run_recording("false")
    assert len(sent) == 6 and in_order(sent, received)
    # the same traffic on a reordering network arrives out of order somewhere
    assert not in_order(*run_recording("true"))


def test_quiesce_is_structural():
    sim = Simulator(parse_scenario(BANK))
    assert sim.quiesce()  # fresh idle system
    sim._in_flight = 1  # message in flight
    assert not sim.quiesce()
    sim._in_flight = 0
    sim.replicas["A"].descriptors["t1"] = object()  # unapplied descriptor
    assert not sim.quiesce()


def test_two_discrepancy_reports_compose():
    text = DISCREPANCY + (
        "  - {at: 30, replica: A, do: delta, id: late, entity: inventory/w1, deltas: {on_hand: -2}}\n"
        "  - {at: 40, replica: A, do: physical_count, id: count2, entity: inventory/w1, observed: {on_hand: 1}}\n"
    )
    report = run(parse_scenario(text), seed=0)
    assert report.quiescent
    state = json.loads(report.rollups["A"]["inventory/w1"])["value"]
    assert state["on_hand"] == 1  # reconciled to the latest observation
    assert len(report.exceptions["A"]["resolved"]) == 2
    assert report.exceptions["A"]["open"] == []


REF_TWO_REPLICA = """
schema: eventual/1
entities:
  customer: {merge: lww_register}
  opportunity:
    merge: lww_register
    parents: [{field: customer_id, type: customer}]
topology:
  partitions: {p0: [A, B]}
sync_interval: 4
lags: {pending: 2}
max_time: 1000
actions:
  - {at: CHILD_AT, replica: A, do: insert, id: child, entity: opportunity/o1, fields: {customer_id: c1}}
  - {at: PARENT_AT, replica: B, do: insert, id: parent, entity: customer/c1, fields: {name: Ada}}
"""


def test_parent_on_second_replica_converges_in_either_interleaving():
    # child first on A (parent unknown locally), parent already on B
    child_first = REF_TWO_REPLICA.replace("CHILD_AT", "2").replace("PARENT_AT", "3")
    # parent synced everywhere before the child commits
    parent_first = REF_TWO_REPLICA.replace("CHILD_AT", "40").replace("PARENT_AT", "2")
    a = run(parse_scenario(child_first), seed=1)
    b = run(parse_scenario(parent_first), seed=1)
    for rep in (a, b):
        assert rep.quiescent
        assert converged(rep)
        assert rep.exceptions["A"]["open"] == []
        assert rep.exceptions["B"]["open"] == []
    # business value identical either way
    va = json.loads(a.rollups["A"]["opportunity/o1"])["value"]
    vb = json.loads(b.rollups["A"]["opportunity/o1"])["value"]
    assert {k: v for k, v in va.items() if k != "exceptions"} == {
        k: v for k, v in vb.items() if k != "exceptions"
    }


def insert_heavy(blocks: int) -> str:
    """Three inserts a block on two replicas: a child before its parent, the
    parent, and a child after it."""
    actions = []
    for k in range(blocks):
        at = 2 * k + 1
        actions += [
            f"  - {{at: {at}, replica: A, do: insert, id: o{k}a, entity: opportunity/o{k}a,"
            f" fields: {{customer_id: c{k}}}}}",
            f"  - {{at: {at + 1}, replica: B, do: insert, id: c{k}, entity: customer/c{k},"
            f" fields: {{name: n{k}}}}}",
            f"  - {{at: {at + 2}, replica: A, do: insert, id: o{k}b, entity: opportunity/o{k}b,"
            f" fields: {{customer_id: c{k}}}}}",
        ]
    head = REF_TWO_REPLICA[: REF_TWO_REPLICA.index("actions:")]
    return head.replace("max_time: 1000", "max_time: 5000") + "actions:\n" + "\n".join(actions) + "\n"


def test_folds_grow_linearly_with_inserts(folds):
    # Every insert plans referential resolutions from the children indexed
    # under its parent, and every read advances the cached fold, so the run
    # folds only what is new.
    def work(blocks):
        folds[0] = 0
        report = run(parse_scenario(insert_heavy(blocks)), seed=3)
        assert report.quiescent and converged(report)
        assert report.exceptions["A"]["open"] == [] and report.exceptions["A"]["resolved"]
        return folds[0]

    small, large = work(20), work(40)
    assert 0 < large <= 2.2 * small


def test_referential_planning_reads_only_the_waiting_children(monkeypatch):
    # Planning reads the fold of each child indexed under the parent, not of
    # every hosted entity: at most one read per violation ever resolved.
    fold_state = ReplicaStore.fold_state
    plan = eventual.process.plan_referential_resolutions  # the engine's, not the cross-check
    planning, reads = [False], [0]

    def counted_fold_state(*args):
        reads[0] += planning[0]
        return fold_state(*args)

    def traced_plan(*args):
        planning[0] = True
        try:
            return plan(*args)
        finally:
            planning[0] = False

    monkeypatch.setattr(ReplicaStore, "fold_state", counted_fold_state)
    monkeypatch.setattr(eventual.node, "plan_referential_resolutions", traced_plan)

    def work(blocks):
        reads[0] = 0
        report = run(parse_scenario(insert_heavy(blocks)), seed=3)
        assert report.quiescent and converged(report)
        resolved = report.exceptions["A"]["resolved"]
        assert report.exceptions["A"]["open"] == [] and resolved
        assert 0 < reads[0] <= len(resolved)
        return reads[0]

    small, large = work(20), work(40)
    assert large <= 2.2 * small


def test_an_insert_after_a_tombstone_opens_one_resurrection_exception_everywhere():
    text = """
schema: eventual/1
entities:
  profile: {merge: lww_register}
topology:
  partitions: {p0: [A, B]}
network: {delay_min: 1, delay_max: 2, drop: 0.0, duplicate: 0.0}
sync_interval: 3
max_time: 500
actions:
  - {at: 1, replica: A, do: lww_set, id: set, entity: profile/p, fields: {color: red}}
  - {at: 2, replica: A, do: tombstone, id: kill, entity: profile/p}
  - {at: 30, replica: B, do: lww_set, id: revive, entity: profile/p, fields: {color: blue}}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and converged(report)
    ref = EntityRef.parse("profile/p")
    history = sim.replicas["B"].store.list_history("p0", ref)
    revive = [e for e in history if e.op_kind == OP_INSERT and e.event_id.replica == "B"]
    assert len(revive) == 1
    for rid in ("A", "B"):
        exceptions = [e for e in scan_exceptions(sim.replicas[rid]) if e.kind == "resurrection"]
        assert [(e.exception_id, e.status) for e in exceptions] == [("resurrection:profile/p", "open")]
        assert exceptions[0].detail == {"info": str(revive[0].event_id)}
        assert json.loads(report.rollups[rid]["profile/p"])["value"]["color"] == "red"


def test_concurrent_writes_to_a_custom_merge_entity_without_a_hook_open_one_exception_per_merging_replica():
    text = """
schema: eventual/1
entities:
  doc: {merge: custom_merge}
topology:
  partitions: {p0: [A, B]}
max_time: 500
faults:
  - {kind: partition, at: 1, groups: [[A], [B]]}
  - {kind: heal, at: 10}
actions:
  - {at: 2, replica: A, do: insert, id: a, entity: doc/d, fields: {v: 1}}
  - {at: 2, replica: B, do: insert, id: b, entity: doc/d, fields: {v: 2}}
"""
    sim = Simulator(parse_scenario(text))
    report = sim.run()
    assert report.quiescent and converged(report)
    for rid, replica in sim.replicas.items():
        assert report.exceptions[rid]["open"] == ["unmergeable:doc/d"], rid
        opened = [
            e.event_id.replica for e in replica.store.log("p0").events
            if e.op_kind == "discrepancy" and e.payload["kind"] == "unmergeable"
        ]
        assert sorted(opened) == ["A", "B"], rid  # each replica opened one when it merged


def test_each_kept_conflict_report_is_computed_once(monkeypatch):
    # A merge reads the entity's fold; ``resolve`` runs only until the
    # first report for that replica and entity is kept.
    resolve = eventual.node.resolve
    with_groups = [0]

    def counted(*args):
        report = resolve(*args)
        with_groups[0] += bool(report.groups)
        return report

    monkeypatch.setattr(eventual.node, "resolve", counted)
    for name in ("gossip.yaml", "overbooking.yaml", "reference.yaml"):
        with_groups[0] = 0
        report = run(load_scenario(SCENARIOS / name), seed=0)
        assert report.conflicts, name
        assert with_groups[0] == len(report.conflicts), name


def partitioned_deltas(blocks: int) -> str:
    """Integer deltas on two accounts, one from each of three replicas a
    block, with A cut off from B and C over the middle third."""
    actions = [
        f"  - {{at: {3 * k + j + 1}, replica: {r}, do: delta, id: d{k}{r},"
        f" entity: account/h{(k + j) % 2}, deltas: {{balance: {k % 5 - 2}}}}}"
        for k in range(blocks)
        for j, r in enumerate("ABC")
    ]
    t = 3 * blocks
    return f"""
schema: eventual/1
entities:
  account: {{merge: commutative_delta, initial: {{balance: 0}}, aggregates: [balance]}}
topology:
  partitions: {{p0: [A, B, C]}}
network: {{delay_min: 1, delay_max: 3, drop: 0.0, duplicate: 0.0}}
sync_interval: 4
max_time: {20 * t}
faults:
  - {{kind: partition, at: {t // 3}, groups: [[A], [B, C]]}}
  - {{kind: heal, at: {2 * t // 3}}}
actions:
""" + "\n".join(actions) + "\n"


def test_sync_work_grows_with_the_diff(folds, monkeypatch):
    # Integer deltas fold in place however late they arrive, so with no
    # crash nothing rebuilds: each replica folds each event it holds at
    # most once. Each event crosses the wire as the record its sender
    # holds, origin or relay, so the run encodes and decodes no line.
    to_line, from_line = EventRecord.to_line, EventRecord.from_line
    encodes, decodes = [0], [0]

    def counted_to_line(event):
        encodes[0] += 1
        return to_line(event)

    def counted_from_line(cls, line):
        decodes[0] += 1
        return from_line(line)

    monkeypatch.setattr(EventRecord, "to_line", counted_to_line)
    monkeypatch.setattr(EventRecord, "from_line", classmethod(counted_from_line))

    def work(blocks):
        folds[0] = encodes[0] = decodes[0] = 0
        sim = Simulator(parse_scenario(partitioned_deltas(blocks)))
        report = sim.run()
        assert report.quiescent and converged(report)
        made = 3 * blocks
        appended = sum(len(r.store.log("p0").events) for r in sim.replicas.values())
        assert appended == 3 * made
        assert 0 < folds[0] <= appended
        assert encodes[0] == decodes[0] == 0
        return folds[0]

    assert work(40) <= 2.2 * work(20)


def test_no_sync_round_parses_a_frontier(monkeypatch):
    # Frontiers travel as vectors, and every line resolves to its sender's
    # record, so a run decodes no line and parses no vector from a dict.
    from_line, from_dict = EventRecord.from_line, VersionVector.from_dict
    decodes, parses = [0], [0]

    def counted_from_line(cls, line):
        decodes[0] += 1
        return from_line(line)

    def counted_from_dict(cls, data):
        parses[0] += 1
        return from_dict(data)

    monkeypatch.setattr(EventRecord, "from_line", classmethod(counted_from_line))
    monkeypatch.setattr(VersionVector, "from_dict", classmethod(counted_from_dict))
    report = run(load_scenario(SCENARIOS / "gossip.yaml"), seed=0)
    assert report.quiescent and converged(report)
    assert decodes[0] == parses[0] == 0


def test_rendering_a_report_file_encodes_no_line_again(monkeypatch):
    # The run encodes nothing, since sync ships records. Its report file
    # encodes each distinct record once, as every replica holds its
    # origin's one record, so the run and the render together encode one
    # line per event; a second render finds every line made.
    to_line, encodes = EventRecord.to_line, [0]

    def counted_to_line(event):
        encodes[0] += 1
        return to_line(event)

    monkeypatch.setattr(EventRecord, "to_line", counted_to_line)
    scenario = load_scenario(SCENARIOS / "gossip.yaml")
    scenario.config.seed = 0
    sim = Simulator(scenario)
    report = sim.run()
    assert encodes[0] == 0
    dump = render_report_file(report, sim)
    held = [event for r in sim.replicas.values() for p in r.partitions_hosted() for event in r.store.log(p).events]
    distinct = len({id(event) for event in held})
    assert dump.count("\nevent ") == len(held) > distinct
    assert encodes[0] == distinct
    assert render_report_file(report, sim) == dump
    assert encodes[0] == distinct


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_replicas_share_each_synced_record_and_none_mutates_it(path):
    # Every replica holds its origin's one record of each event: no fold,
    # scan or step may edit it, or every replica would see the edit.
    scenario = load_scenario(path)
    shared = 0
    for seed in range(3):
        scenario.config.seed = seed
        sim = Simulator(scenario)
        sim.run()
        held: dict = {}  # (partition, event id) -> the records its origin and receivers hold
        for rid, replica in sorted(sim.replicas.items()):
            for pid in replica.partitions_hosted():
                log = replica.store.log(pid)
                for event in log.missing_for(VersionVector()):
                    assert log.line(event) == event.to_line(), (rid, event.event_id)
                    holders = held.setdefault((pid, event.event_id), {})
                    holders[rid] = event
        for (pid, event_id), records in held.items():
            origin = records[event_id.replica]
            assert all(r is origin for r in records.values()), (pid, event_id)
            shared += len(records) > 1
    if path.stem == "gossip":
        assert shared > 0  # its three replicas each receive what the others make


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line[: len(line) // 2],  # truncated
        lambda line: line[:-1],  # the closing brace cut off
        lambda line: line[: line.index(',"origin_txn_id"')] + "}",  # the last field cut off
        lambda line: "not json",
        lambda line: "",
        lambda line: '{"event_id":"',
        lambda line: line.replace('"event_id":"A:1"', '"event_id":"A:one"'),
        lambda line: line.replace('"event_id":"A:1"', '"event_id":"A1"'),
        lambda line: line.replace('"event_id":"A:1"', '"event_id":"A:0"'),
        # an id not held yet
        lambda line: line.replace('"event_id":"A:1"', '"event_id":"A:999"')
        .replace('"op_kind":"', '"op_kind":"bogus-'),
        # the held id: the line is decoded all the same
        lambda line: line.replace('"op_kind":"', '"op_kind":"bogus-'),
    ],
    ids=["truncated", "no-brace", "no-last-field", "not-json", "empty", "bare-head", "bad-seq", "no-colon",
         "seq-zero", "unknown-op", "held-unknown-op"],
)
def test_a_malformed_sync_line_raises_a_typed_error(corrupt):
    sim = Simulator(parse_scenario(GOSSIP))
    sim.run()
    node = sim.nodes["A"]
    held = node.replica.store.export_partition("p0")[0]
    assert held.startswith('{"event_id":"A:1"')
    node._merge_remote_events({"p0": [held]})  # a held line is decoded (or found decoded) and skipped
    bad = corrupt(held)
    with pytest.raises(MalformedEvent):
        node._merge_remote_events({"p0": [bad]})
