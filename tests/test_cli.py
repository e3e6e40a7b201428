"""CLI surface: run, sweep, history, exit codes, report stability."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from eventual.cli import check_invariants, main
from eventual.scenario import load_scenario
from eventual.sim import RunReport, Simulator
from eventual.store import EntityRef

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


@pytest.mark.parametrize("replicas", ["[A]", "[A, B]"])
def test_a_payload_key_that_is_not_a_string_exits_two_with_the_line(tmp_path, capsys, replicas):
    # a JSON line would turn the key 1 into "1": the origin and its peers would fold different keys
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        f"""schema: eventual/1
entities:
  account: {{merge: commutative_delta}}
topology:
  partitions: {{p0: {replicas}}}
actions:
  - {{at: 1, replica: A, do: delta, id: d1, entity: account/x, deltas: {{1: 5}}}}
"""
    )
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 7: key 1 in deltas must be a string" in err


def test_a_repeated_top_level_key_exits_two_on_its_line(tmp_path, capsys):
    # yaml.safe_load would keep the second actions block only, and the run would lose the first
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        """schema: eventual/1
entities:
  account: {merge: commutative_delta}
topology:
  partitions: {p0: [A]}
actions:
  - {at: 1, replica: A, do: delta, entity: account/x, deltas: {balance: 1}}
actions:
  - {at: 2, replica: A, do: delta, entity: account/x, deltas: {balance: 1}}
"""
    )
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 8: repeated key 'actions'" in err


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


# entities come last, so a tail may declare one more entity type
BOOKS = """schema: eventual/1
topology:
  partitions: {p0: [A]}
max_time: 200
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand], capacity_field: on_hand}
  order: {merge: lww_register}
"""


@pytest.mark.parametrize(
    "tail, line, message",
    [
        ("actions:\n  - {at: 1, replica: A, do: delta, entity: boook/moby, deltas: {on_hand: 1}}\n",
         9, "undeclared entity type 'boook'"),
        ("actions:\n  - {at: 1, replica: A, do: insert, entity_type: ordr, key: o1, fields: {}}\n",
         9, "undeclared entity type 'ordr'"),
        ("faults:\n  - {kind: disaster, at: 5, target: r1, entity: boook/moby}\n",
         9, "undeclared entity type 'boook'"),
        ("actions:\n  - {at: 1, replica: A, do: delta, entity: book/moby, deltas: {on_hand: 1},\n"
         "     deferred: [{entity: ordr/o1, deltas: {n: 1}}]}\n",
         10, "undeclared entity type 'ordr'"),
        ("actions:\n  - {at: soon, replica: A, do: read, entity: book/moby}\n",
         9, "'at' in action 'read' must be a number, got 'soon'"),
        ("actions:\n  - {replica: A, do: read, entity: book/moby}\n",
         9, "action 'read' needs field 'at'"),
        ("faults:\n  - {kind: crash, at: 2.5x, target: A}\n",
         9, "'at' in fault must be a number, got '2.5x'"),
        ("network:\n  drop: lots\n", 9, "'drop' in network must be a number, got 'lots'"),
        ("lags: {pending: never}\n", 8, "'pending' in lags must be a number, got 'never'"),
        ("sync_interval: [5]\n", 8, "'sync_interval' in scenario must be a number, got [5]"),
        ("actions:\n  - {at: true, replica: A, do: read, entity: book/moby}\n",
         9, "'at' in action 'read' must be a number, got True"),
        ("network:\n  drop: true\n", 9, "'drop' in network must be a number, got True"),
        ("actions:\n  - {at: 30.9, replica: A, do: read, entity: book/moby}\n",
         9, "'at' in action 'read' must be a number, got 30.9"),
        ("actions:\n  - {at: \"30\", replica: A, do: read, entity: book/moby}\n",
         9, "'at' in action 'read' must be a number, got '30'"),
        ("faults:\n  - {kind: crash, at: 2.0, target: A}\n",
         9, "'at' in fault must be a number, got 2.0"),
        ("network:\n  drop: '0.5'\n", 9, "'drop' in network must be a number, got '0.5'"),
        ("processes:\n  - id: audit\n    steps:\n"
         "      - {id: note, trigger: audit.note, handler: {kind: delta, entity: bok/x, deltas: {n: 1}}}\n",
         11, "undeclared entity type 'bok'"),
        ("processes:\n  - id: audit\n    steps:\n      - id: note\n        trigger: audit.note\n"
         "        handler:\n          kind: multi_write\n          entities: [order/o, ordr/u]\n",
         15, "undeclared entity type 'ordr'"),
        ("actions:\n  - {at: 1, replica: A, do: reserve, entity: book/moby, reservation_id: r1, deadline: x}\n",
         9, "'deadline' in action 'reserve' must be a number, got 'x'"),
        ("actions:\n  - {at: 1, replica: A, do: reserve, entity: book/moby, reservation_id: r1, quantity: \"2\"}\n",
         9, "'quantity' in action 'reserve' must be a number, got '2'"),
        ("actions:\n  - {at: 1, replica: A, do: delta, entity: book/moby, deltas: {on_hand: x}}\n",
         9, "'on_hand' in deltas must be a number, got 'x'"),
        ("actions:\n  - {at: 1, replica: A, do: delta, entity: book/moby, deltas: {on_hand: 1},\n"
         "     deferred: [{entity: book/moby, deltas: {on_hand: true}}]}\n",
         10, "'on_hand' in deltas must be a number, got True"),
        ("actions:\n  - {at: 1, replica: A, do: physical_count, entity: book/moby, observed: {on_hand: '3'}}\n",
         9, "'on_hand' in observed must be a number, got '3'"),
        ("network:\n  reorder: \"false\"\n", 9, "'reorder' in network must be a bool, got 'false'"),
        ("network:\n  reorder: [1]\n", 9, "'reorder' in network must be a bool, got [1]"),
        ("notify_partition: [1]\n", 8, "'notify_partition' in scenario must be a string, got [1]"),
        ("  shelf:\n    capacity_field: [1]\n", 9, "'capacity_field' in entity 'shelf' must be a string, got [1]"),
        ("  shelf:\n    aggregates: [on_hand, [1]]\n", 9, "an aggregates entry must be a string, got [1]"),
        ("  shelf:\n    parents: [{field: [1], type: book}]\n", 9, "'field' in parent must be a string, got [1]"),
        ("  shelf:\n    parents: [{field: book_id, type: [book]}]\n", 9,
         "'type' in parent must be a string, got ['book']"),
        ("  shelf:\n    parents: [{field: book_id, type: boook}]\n", 9, "undeclared entity type 'boook'"),
        ("  shelf:\n    merge: arrival_lww\n", 9, "entity 'shelf': unknown merge policy 'arrival_lww'"),
    ],
    ids=["action-entity", "action-entity-type", "disaster-entity", "deferred-entity", "action-at",
         "missing-at", "fault-at", "network-drop", "lags-pending", "sync-interval", "action-at-bool",
         "network-drop-bool", "action-at-float", "action-at-str", "fault-at-float",
         "network-drop-str", "handler-entity", "handler-entities", "reserve-deadline-str",
         "reserve-quantity-str", "delta-value-str", "deferred-delta-bool", "observed-str", "reorder-str",
         "reorder-list", "notify-partition-list", "capacity-field-list", "aggregates-entry-list",
         "parent-field-list", "parent-type-list", "parent-type-undeclared", "merge-policy-unknown"],
)
def test_malformed_entities_and_numbers_exit_two_with_the_line(tmp_path, capsys, tail, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(BOOKS + tail)
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {message}" in err


HOSTS = """schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 5}, aggregates: [on_hand]}
  tally: {merge: commutative_delta}
topology:
  partitions: {p0: [A], p1: [A, B]}
  placement: {tally: p1}
max_time: 200
"""


@pytest.mark.parametrize(
    "tail, line, message",
    [
        ("actions:\n  - {at: 1, replica: B, do: delta, entity: book/moby, deltas: {on_hand: 1}}\n",
         10, "replica 'B' does not host partition 'p0' of entity type 'book'"),
        ("actions:\n  - {at: 1, replica: B, do: insert, entity_type: book, key: b1, fields: {}}\n",
         10, "replica 'B' does not host partition 'p0' of entity type 'book'"),
        ("actions:\n  - {at: 1, replica: B, do: delta, entity: tally/t, deltas: {n: 1},\n"
         "     deferred: [{entity: book/moby, deltas: {on_hand: -1}}]}\n",
         11, "replica 'B' does not host partition 'p0' of entity type 'book'"),
    ],
    ids=["entity", "entity-type", "deferred"],
)
def test_actions_on_unhosted_partitions_exit_two_with_the_line(tmp_path, capsys, tail, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(HOSTS + tail)
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {message}" in err


NAMES = """schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology: {partitions: {p0: [A, B]}}
actions:
  - {at: 1, replica: A, do: delta, id: a1, entity: account/x, deltas: {balance: 1}}
"""

TO_MESSAGE = ("'to' in emit entry must be 'self', 'notify' or a [replica, partition] pair "
              "whose replica hosts the partition")

SHAPES = """schema: eventual/1
entities:
  account: {merge: commutative_delta}
topology:
  partitions: {p0: [r1, r2]}
"""


@pytest.mark.parametrize(
    "text, line, message",
    [
        (SHAPES + "processes:\n  - steps: []\n", 7, "process needs field 'id'"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n"
         "      - {id: s, handler: {kind: delta, entity: account/x, deltas: {n: 1}}}\n",
         9, "step needs field 'trigger'"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - {id: s, trigger: t}\n",
         9, "step needs field 'handler'"),
        ("schema: eventual/1\nentities:\n  account: {merge: commutative_delta}\n  child:\n"
         "    merge: lww_register\n    parents: [{type: account}]\ntopology:\n  partitions: {p0: [r1]}\n",
         6, "parent needs field 'field'"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - {id: s, trigger: t, handler: delta}\n",
         9, "handler must be a mapping, got 'delta'"),
        (SHAPES + "actions: [[1, 2]]\n", 6, "action must be a mapping, got [1, 2]"),
        ("schema: eventual/1\nentities:\n  account: {merge: commutative_delta}\n"
         "topology: {partitions: [p0]}\n",
         4, "topology.partitions must be a mapping, got ['p0']"),
        (SHAPES + "faults:\n  - {kind: partition, at: 3, groups: [r1]}\n",
         7, "partition group must be a list, got 'r1'"),
        (SHAPES + "seed: !!python/object:os.getcwd {}\n",
         6, "unsupported tag !!python/object:os.getcwd on a mapping"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1},\n"
         "     deferred: [1]}\n",
         8, "deferred write must be a mapping, got 1"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n"
         "      - {id: s, trigger: t, handler: {kind: multi_write, entities: account/x}}\n",
         9, "entities must be a list, got 'account/x'"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n"
         "        trigger: {all: ab, correlate: k}\n"
         "        handler: {kind: delta, entity: account/x, deltas: {n: 1}}\n",
         10, "trigger.all must be a list, got 'ab'"),
        (SHAPES + "processes:\n  - id: p\n    wiring: [a]\n    steps: []\n",
         8, "wiring must be a mapping, got ['a']"),
        ("schema: eventual/1\nentities:\n  account: {aggregates: balance}\n"
         "topology:\n  partitions: {p0: [r1]}\n",
         3, "aggregates must be a list, got 'balance'"),
        ("schema: eventual/1\nentities:\n  account: {initial: 5}\ntopology:\n  partitions: {p0: [r1]}\n",
         3, "initial must be a mapping, got 5"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: 5}\n",
         7, "deltas must be a mapping, got 5"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1},\n"
         "     guard: 5}\n",
         8, "guard must be a mapping, got 5"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: insert, entity: account/x, fields: 5}\n",
         7, "fields must be a mapping, got 5"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler: {kind: physical_count, entity: account/x, observed: [1]}\n",
         11, "observed must be a mapping, got [1]"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler: {kind: delta, entity: account/x, deltas: {n: 1}, guard: {min: 0}}\n",
         11, "guard needs field 'field'"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1},\n"
         "     deferred: [{entity: account/y, deltas: 3}]}\n",
         8, "deltas must be a mapping, got 3"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1},\n"
         "     deferred: [{entity: account/y}]}\n",
         8, "deferred write needs field 'deltas'"),
        (SHAPES + "sync_interval: 0\n", 6, "'sync_interval' in scenario must be at least 1, got 0"),
        (SHAPES + "sync_interval: -3\n", 6, "'sync_interval' in scenario must be at least 1, got -3"),
        (SHAPES + "retry: {base: 0, cap: 0}\n", 6, "'base' in retry must be at least 1, got 0"),
        (SHAPES + "retry: {base: 1,\n        cap: 0}\n", 7, "'cap' in retry must be at least 1, got 0"),
        (SHAPES + "lags:\n  lock_backoff: 0\n", 7, "'lock_backoff' in lags must be at least 1, got 0"),
        (SHAPES + "network:\n  delay_max: 1\n  delay_min: 5\n", 8,
         "'delay_min' in network must be between 0 and 1, got 5"),
        (SHAPES + "network:\n  delay_min: -1\n", 7,
         "'delay_min' in network must be between 0 and 4, got -1"),
        (SHAPES + "network: {delay_max: 0}\n", 6,
         "'delay_min' in network must be between 0 and 0, got 1"),
        (SHAPES + "network:\n  drop: 1.5\n", 7, "'drop' in network must be between 0 and 1, got 1.5"),
        (SHAPES + "network:\n  duplicate: -0.1\n", 7,
         "'duplicate' in network must be between 0 and 1, got -0.1"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: insert, entity: account/x,\n"
         "     fields: {a: {b: [{2: x}]}}}\n",
         8, "key 2 in fields must be a string"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: insert, entity: account/x, fields: {a: !!set {x}}}\n",
         7, "unsupported tag !!set on a mapping"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: reserve, entity: account/x, reservation_id: r,\n"
         "     terms: {7: late}}\n",
         8, "key 7 in terms must be a string"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1},\n"
         "     guard: {field: n, 0: 1}}\n",
         8, "key 0 in guard must be a string"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: emit, type: t, payload: {true: 1}}\n",
         7, "key True in payload must be a string"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler: {kind: physical_count, entity: account/x, observed: {1: 3}}\n",
         11, "key 1 in observed must be a string"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler:\n          kind: noop\n          emit: [{type: u, payload: {9: x}}]\n",
         13, "key 9 in emit payload must be a string"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler: {kind: noop, emit: [{payload: {}}]}\n",
         11, "emit entry needs field 'type'"),
        ("schema: eventual/1\nentities:\n  account: {initial: {1: 0}}\ntopology:\n  partitions: {p0: [r1]}\n",
         3, "key 1 in initial must be a string"),
        ("schema: eventual/1\nentities:\n  account: {}\n  a/b: {}\ntopology:\n  partitions: {p0: [r1]}\n",
         4, "entity type 'a/b' is not a string free of '/'"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: reserve, entity: account/x,\n"
         "     reservation_id: 2026-01-02}\n",
         8, "unsupported tag !!timestamp on '2026-01-02'"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: confirm, entity: account/x, reservation_id: [r]}\n",
         7, "'reservation_id' in action 'confirm' must be a string or an int, got ['r']"),
        (SHAPES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler: {kind: cancel, entity: account/x, reservation_id: r, cause: {a: 1}}\n",
         11, "'cause' in handler must be a string, got {'a': 1}"),
        (SHAPES + "actions:\n  - {at: 1, replica: r1, do: delta, entity: account/x, deltas: {n: 1}, 5: x}\n",
         7, "unknown field 5 in action 'delta'"),
        (SHAPES + "7: x\n", 6, "unknown field 7 in scenario"),
        (NAMES.replace("do: delta", "do: [delta]"), 6, "'do' in action must be a string, got ['delta']"),
        (NAMES.replace("replica: A", "replica: [A]"), 6,
         "'replica' in action 'delta' must be a string, got ['A']"),
        (NAMES + "  - {at: 2, replica: A, do: read, id: r1, entity: account/x, label: [1]}\n", 7,
         "'label' in action 'read' must be a string, got [1]"),
        (NAMES + "processes:\n  - id: p\n    steps:\n      - {id: s, trigger: t, handler: {kind: [delta]}}\n",
         10, "'kind' in handler must be a string, got ['delta']"),
        (NAMES + "processes:\n  - id: [p]\n    steps: []\n", 8, "'id' in process must be a string, got ['p']"),
        (NAMES + "processes:\n  - id: p\n    steps:\n      - {id: [s], trigger: t, handler: {kind: noop}}\n",
         10, "'id' in step must be a string, got ['s']"),
        (NAMES + "processes:\n  - id: p\n    steps:\n      - id: s\n"
         "        trigger: {all: [a, [b]], correlate: k}\n        handler: {kind: noop}\n",
         11, "a trigger.all entry must be a string, got ['b']"),
        (NAMES + "processes:\n  - id: p\n    steps:\n      - id: s\n"
         "        trigger: {all: [a, b], correlate: [k]}\n        handler: {kind: noop}\n",
         11, "'correlate' in trigger must be a string, got ['k']"),
        (NAMES + "faults:\n  - {kind: partition, at: 1, groups: [[A], [[B]]]}\n", 8,
         "a partition group entry must be a string, got ['B']"),
        (NAMES + "faults:\n  - {kind: crash, at: 1, target: [A]}\n", 8,
         "'target' in fault must be a string, got ['A']"),
        (NAMES + "  - {at: 2, replica: A, do: insert, id: i1, entity_type: [account], key: k, fields: {}}\n", 7,
         "'entity_type' in action 'insert' must be a string, got ['account']"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: [x]}]}"), 6,
         "'type' in emit entry must be a string, got ['x']"),
        (NAMES + "  - {at: 2, replica: A, do: emit, id: e1, type: [x]}\n", 7,
         "'type' in action 'emit' must be a string, got ['x']"),
        (NAMES + "  - {at: 2, replica: A, do: emit, id: e1, payload: {}}\n", 7, "action 'emit' needs field 'type'"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, to: [Z, p0]}]}"), 6,
         f"{TO_MESSAGE}, got ['Z', 'p0']"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, to: [B]}]}"), 6, f"{TO_MESSAGE}, got ['B']"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, to: notfy}]}"), 6,
         f"{TO_MESSAGE}, got 'notfy'"),
        (NAMES.replace("{partitions: {p0: [A, B]}}", "{partitions: {p0: [A, B], p1: [B]}}").replace(
            "{balance: 1}}", "{balance: 1}, emit: [{type: x, to: [A, p1]}]}"), 6,
         f"{TO_MESSAGE}, got ['A', 'p1']"),
        (NAMES + "  - {at: 2, replica: A, do: emit, id: e1, type: x, partition: p9}\n", 7,
         "replica 'A' does not host partition 'p9'"),
        (NAMES.replace("{balance: 0}", "{balance: x}"), 3,
         "aggregate field 'balance' of entity type 'account' needs a number as its initial value, got 'x'"),
        (NAMES.replace("{balance: 0}", "{balance: {a: 1}}"), 3,
         "aggregate field 'balance' of entity type 'account' needs a number as its initial value, got {'a': 1}"),
        (NAMES.replace("{balance: 0}", "{balance: true}"), 3,
         "aggregate field 'balance' of entity type 'account' needs a number as its initial value, got True"),
        (NAMES.replace("{balance: 0}, aggregates: [balance]", "{balance: x}"), 6,
         "deltas field 'balance' of entity type 'account' needs a number as its initial value, got 'x'"),
        (NAMES.replace("{balance: 0}, aggregates: [balance]", "{balance: true}"), 6,
         "deltas field 'balance' of entity type 'account' needs a number as its initial value, got True"),
        (NAMES.replace("{balance: 0}, aggregates: [balance]", "{balance: x}").replace(
            "deltas: {balance: 1}}", "deltas: {n: 1},\n     guard: {field: balance}}"), 7,
         "guard field 'balance' of entity type 'account' needs a number as its initial value, got 'x'"),
        (NAMES.replace("account: {", "total: {initial: {n: x}}\n  account: {").replace(
            "deltas: {balance: 1}}", "deltas: {balance: 1},\n     deferred: [{entity: total/t, deltas: {n: 1}}]}"),
         8, "deltas field 'n' of entity type 'total' needs a number as its initial value, got 'x'"),
        (NAMES + "processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n"
         "        handler:\n          kind: delta\n          entity: account/y\n"
         "          deltas: {balance: 1}\n          guard: {field: [balance]}\n",
         16, "'field' in guard must be a string, got ['balance']"),
        (NAMES.replace("deltas: {balance: 1}}", "deltas: {balance: 1}, guard: {field: balance, min: x}}"), 6,
         "'min' in guard must be a number, got 'x'"),
    ],
    ids=["process-id", "step-trigger", "step-handler", "parent-field", "handler-string",
         "action-list", "partitions-list", "group-string", "unsafe-tag", "deferred-entry",
         "handler-entities", "trigger-all", "wiring", "aggregates", "initial", "action-deltas",
         "action-guard", "action-fields", "handler-observed", "handler-guard-field",
         "deferred-deltas", "deferred-no-deltas", "sync-zero", "sync-negative", "retry-base",
         "retry-cap", "lock-backoff", "delay-order", "delay-negative", "delay-default-order",
         "drop", "duplicate", "fields-nested-int-key", "fields-set", "terms-int-key",
         "guard-int-key", "emit-action-bool-key", "handler-observed-int-key",
         "handler-emit-payload-int-key", "emit-no-type", "initial-int-key", "entity-type-slash",
         "reservation-id-date", "reservation-id-list", "handler-cause-mapping", "action-int-key",
         "top-level-int-key", "action-do-list", "action-replica-list", "read-label-list",
         "handler-kind-list", "process-id-list", "step-id-list", "trigger-all-entry-list",
         "trigger-correlate-list", "partition-group-entry-list", "fault-target-list",
         "entity-type-list", "emit-entry-type-list", "emit-action-type-list", "emit-action-no-type",
         "emit-to-unknown-replica", "emit-to-short", "emit-to-typo", "emit-to-unhosted",
         "emit-action-unhosted-partition", "aggregate-initial-string", "aggregate-initial-mapping",
         "aggregate-initial-bool", "deltas-initial-string", "deltas-initial-bool",
         "guard-initial-string", "deferred-initial-string", "guard-field-list", "guard-min-string"],
)
def test_malformed_structure_exits_two_with_the_line(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {message}" in err


READ = "  - {at: 2, replica: A, do: read, id: r1, entity: account/x, "
HANDLER = ("processes:\n  - id: p\n    steps:\n      - id: s\n        trigger: t\n        handler:\n"
           "          kind: insert\n          entity_type: account\n")
CAPACITY = NAMES.replace("aggregates: [balance]}", "aggregates: [balance], capacity_field: slots}")


@pytest.mark.parametrize(
    "text, line, message",
    [
        # the second action's default id, a1, is the first one's explicit id
        (NAMES + "  - {at: 2, replica: A, do: delta, entity: account/x, deltas: {balance: 5}}\n", 7,
         "repeated action id 'a1'"),
        (NAMES + "  - {at: 2, replica: B, do: delta,\n     id: a1, entity: account/x, deltas: {balance: 5}}\n", 8,
         "repeated action id 'a1'"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, payload_from: 5}]}"), 6,
         "'payload_from' in emit entry must be a list, got 5"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, payload_from: [a, [b]]}]}"), 6,
         "a payload_from entry must be a string, got ['b']"),
        (NAMES + HANDLER + "          key_from: [k]\n", 15, "'key_from' in handler must be a string, got ['k']"),
        (NAMES + "  - {at: 2, replica: A, do: insert, entity_type: account, key_from: {k: 1}, fields: {}}\n", 7,
         "'key_from' in action 'insert' must be a string, got {'k': 1}"),
        (CAPACITY.replace("{balance: 0}", "{balance: 0, slots: x}"), 3,
         "capacity field 'slots' of entity type 'account' needs a number as its initial value, got 'x'"),
        (CAPACITY.replace("{balance: 0}", "{balance: 0, slots: [5]}"), 3,
         "capacity field 'slots' of entity type 'account' needs a number as its initial value, got [5]"),
        (NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, payload: x}]}"), 6,
         "'payload' in emit entry must be a mapping, got 'x'"),
        (NAMES + HANDLER + "          emit: [{type: x, payload: 5}]\n", 15,
         "'payload' in emit entry must be a mapping, got 5"),
        (NAMES + "  - {at: 2, replica: A, do: emit, id: e1, type: x, payload: 5}\n", 7,
         "payload must be a mapping, got 5"),
        (NAMES.replace("{p0: [A, B]}}", "{p0: [A, B]}, placement: {account: {a: 1}}}"), 4,
         "placement of 'account' must be a string, got {'a': 1}"),
        (NAMES + "processes:\n  - id: p\n    wiring: {t1: nowhere}\n    steps: []\n", 9,
         "'t1' wires to undeclared step 'nowhere'"),
        (NAMES + "processes:\n  - id: p\n    wiring:\n      t1: [s]\n    steps: []\n", 10,
         "wiring of 't1' must be a string, got ['s']"),
        (NAMES.replace("id: a1,", "id: a1, session: [a],"), 6, "'session' in action 'delta' must be a string, got ['a']"),
        (NAMES.replace("id: a1,", "id: a1, session: 5,"), 6, "'session' in action 'delta' must be a string, got 5"),
    ],
    ids=["default-id-repeats-an-explicit-one", "explicit-id-repeated", "payload-from-int",
         "payload-from-entry-list", "handler-key-from-list", "action-key-from-mapping",
         "capacity-initial-string", "capacity-initial-list", "emit-payload-string",
         "handler-emit-payload-int", "emit-action-payload-int", "placement-mapping",
         "wiring-to-an-undeclared-step", "wiring-to-a-list", "session-list", "session-int"],
)
def test_fields_that_failed_while_running_exit_two_with_the_line(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {message}" in err


@pytest.mark.parametrize("text", [
    NAMES + "  - {at: 2, replica: A, do: delta, id: a2, entity: account/x, deltas: {balance: 5}}\n",
    NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, payload_from: [a, b]}]}"),
    NAMES + HANDLER + "          key_from: k\n",
    CAPACITY.replace("{balance: 0}", "{balance: 0, slots: 2.5}"),
    CAPACITY,  # an absent capacity field starts from 0
    NAMES.replace("{balance: 1}}", "{balance: 1}, emit: [{type: x, payload: {n: 1}}]}").replace(
        "{p0: [A, B]}}", "{p0: [A, B]}, placement: {account: p0}}").replace("id: a1,", "id: a1, session: s1,")
    + "processes:\n  - id: p\n    wiring: {x: s}\n    steps:\n"
    "      - {id: s, trigger: x, handler: {kind: delta, entity: account/y, deltas: {balance: 1}}}\n",
    # an anchored action, merged into the next one with an aliased deltas mapping
    NAMES.replace("- {at: 1", "- &a1 {at: 1").replace("deltas: {balance: 1}}", "deltas: &d {balance: 1}}")
    + "  - {<<: *a1, at: 2, id: a2, deltas: *d}\n",
], ids=["distinct-ids", "payload-from-names", "key-from-name", "capacity-float", "capacity-absent",
        "payload-placement-wiring-session", "alias-and-merge"])
def test_the_fields_those_checks_read_run_when_well_formed(tmp_path, capsys, text):
    good = tmp_path / "good.yaml"
    good.write_text(text)
    assert main(["run", str(good)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        (NAMES.replace("deltas: {balance: 1}}", "deltas: &d {balance: 1, x: *d}}"), 6,
         "alias *d is inside the mapping or list it names"),
        (NAMES.replace("id: a1,", "id: a1, session: 2001-12-14,"), 6, "unsupported tag !!timestamp on '2001-12-14'"),
        (NAMES + READ + "label: !!binary aGk=}\n", 7, "unsupported tag !!binary on 'aGk='"),
        (NAMES + READ + "label: !!omap [a: 1]}\n", 7, "unsupported tag !!omap on a list"),
        (NAMES + READ + "label: !mine x}\n", 7, "unsupported tag !mine on 'x'"),
        (NAMES + READ + "[label]: x}\n", 7, "a mapping or list cannot be a key"),
        (NAMES + READ + "label: *nowhere}\n", 7, "alias *nowhere has no anchor"),
        (NAMES.replace("id: a1,", "id: &i a1, session: &i s,"), 6, "anchor &i is defined twice"),
        (NAMES + READ + "<<: 5}\n", 7, "a merge key '<<' takes a mapping or a list of mappings"),
        (NAMES + READ + "label: <<}\n", 7, "a merge key '<<' can only be a mapping key"),
        (NAMES.replace("at: 1,", "at: !!int one,"), 6, "'one' is not a valid !!int"),
        (NAMES + "---\nschema: eventual/1\n", 7, "a scenario file holds one YAML document"),
    ],
    ids=["recursive-alias", "session-date", "binary", "omap", "local-tag", "list-key", "undefined-alias",
         "duplicate-anchor", "merge-of-a-scalar", "merge-key-as-a-value", "bad-int", "second-document"],
)
def test_yaml_a_scenario_cannot_hold_exits_two_with_the_line(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    code = main(["run", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"line {line}: {message}" in err


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


# Two replicas write one register concurrently: with the arrival-order
# control (the ``arrival_order_fold`` fixture) each keeps the write it
# received last, so they diverge.
ARRIVAL_CONTROL = """schema: eventual/1
entities:
  profile:
    merge: lww_register
topology:
  partitions: {p0: [A, B]}
sync_interval: 4
max_time: 1000
actions:
  - {at: 2, replica: A, do: lww_set, id: a1, entity: profile/p, fields: {color: red}}
  - {at: 2, replica: B, do: lww_set, id: a2, entity: profile/p, fields: {color: blue}}
"""


def _sweep_arrival_control(tmp_path) -> int:
    path = tmp_path / "arrival_control.yaml"
    path.write_text(ARRIVAL_CONTROL)
    return main(["sweep", str(path), "--sweep-seeds", "8"])


def test_seed_sweep_flags_the_broken_merge_fixture(tmp_path, capsys, arrival_order_fold):
    code = _sweep_arrival_control(tmp_path)
    out = capsys.readouterr().out
    assert code == 1
    assert "DIVERGED" in out
    assert "violating_seeds: []" not in out


def test_seed_sweep_passes_the_arrival_control_text_under_the_canonical_fold(tmp_path, capsys):
    code = _sweep_arrival_control(tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "violating_seeds: []" in out


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


def test_a_summarize_action_keeps_every_rollup_and_history_prints_its_checkpoint(tmp_path, capsys):
    text = """schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A, B]}
max_time: 500
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}}
  - {at: 2, replica: B, do: delta, id: d2, entity: account/alice, deltas: {balance: -30}}
  - {at: 40, replica: A, do: summarize, id: s, entity: account/alice}
  - {at: 50, replica: A, do: delta, id: d3, entity: account/alice, deltas: {balance: 5}}
"""
    path = tmp_path / "summarize.yaml"
    path.write_text(text)
    without = tmp_path / "plain.yaml"
    without.write_text(text.replace("  - {at: 40, replica: A, do: summarize, id: s, entity: account/alice}\n", ""))
    summarized = Simulator(load_scenario(path))
    report = summarized.run()
    assert report.quiescent and check_invariants(report) == []
    assert report.rollups == Simulator(load_scenario(without)).run().rollups
    assert json.loads(report.rollups["A"]["account/alice"])["value"]["balance"] == 75
    (checkpoint,) = summarized.replicas["A"].store.log("p0").checkpoints.values()
    assert checkpoint.covers_up_to.to_dict() == {"A": 1, "B": 1}
    assert main(["history", str(path), "--entity", "account/alice", "--replica", "A"]) == 0
    assert "checkpoint covering {'A': 1, 'B': 1}" in capsys.readouterr().out.splitlines()


def test_an_int_reservation_id_runs_summarizes_and_renders_its_report(tmp_path, capsys):
    """A scenario may give an int reservation id: the step writes it as its
    decimal string, which keys the reservation in fold state, the checkpoint,
    the events and the report."""
    path = tmp_path / "int_rid.yaml"
    path.write_text("""schema: eventual/1
entities:
  book: {merge: commutative_delta, initial: {on_hand: 3}, aggregates: [on_hand], capacity_field: on_hand}
topology:
  partitions: {p0: [A]}
max_time: 500
actions:
  - {at: 1, replica: A, do: reserve, id: r, entity: book/b, reservation_id: 5}
  - {at: 5, replica: A, do: summarize, id: s, entity: book/b}
  - {at: 6, replica: A, do: read, id: q, entity: book/b}
""")
    report = tmp_path / "report.txt"
    assert main(["run", str(path), "--report", str(report)]) == 0
    capsys.readouterr()
    assert 'reservations A: {"5": "tentative"}' in report.read_text().splitlines()
    assert '"reservations": {"5": {' in report.read_text()
    assert '"reservation_id":"5"' in report.read_text()


def test_a_run_cut_at_max_time_fails_its_invariants_and_exits_one(tmp_path, capsys):
    path = tmp_path / "cut.yaml"
    path.write_text("""schema: eventual/1
entities:
  account: {merge: commutative_delta, initial: {balance: 0}, aggregates: [balance]}
topology:
  partitions: {p0: [A]}
max_time: 5
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}}
  - {at: 9, replica: A, do: delta, id: d2, entity: account/alice, deltas: {balance: 1}}
""")
    report = Simulator(load_scenario(path)).run()
    assert report.max_time_exceeded and not report.quiescent
    assert [f.split(":")[0] for f in check_invariants(report)] == ["MAX_TIME_EXCEEDED"]
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "max_time_exceeded: true" in out
    assert "FAIL MAX_TIME_EXCEEDED: run did not quiesce before max_time" in out


def test_history_replays_the_requested_seed(capsys):
    """The printed history is the one a run at ``--seed`` holds, and differs by seed."""
    printed = {}
    for seed in (3, 7):
        code = main(["history", str(SCENARIOS / "gossip.yaml"), "--entity", "audit/log",
                     "--replica", "A", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [l.split() for l in out.splitlines()
                if not l.startswith(("history", "event_id", "checkpoint"))]
        printed[seed] = [(row[0], row[3]) for row in rows]
        scenario = load_scenario(SCENARIOS / "gossip.yaml")
        scenario.config.seed = seed
        sim = Simulator(scenario)
        sim.run()
        store = sim.replicas["A"].store
        ref = EntityRef.parse("audit/log")
        expected = [(str(e.event_id), e.origin_txn_id) for e in store.list_history(store.route(ref), ref)]
        assert printed[seed] == expected
    assert printed[3] != printed[7]


def test_history_unknown_entity_is_a_diagnostic(capsys):
    code = main(
        ["history", str(SCENARIOS / "bank.yaml"), "--entity", "account/ghost", "--replica", "A"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "UnknownEntity" in err


@pytest.mark.parametrize(
    "entity, message",
    [
        ("order/o1", "WrongPartition: replica A does not host partition 'p1'"),
        ("ghost/g1", "WrongPartition: no placement for entity type 'ghost'"),
    ],
    ids=["unhosted-partition", "undeclared-type"],
)
def test_history_of_an_entity_the_replica_cannot_route_names_why(tmp_path, capsys, entity, message):
    path = tmp_path / "placed.yaml"
    path.write_text("""schema: eventual/1
entities: {account: {}, order: {}}
topology:
  partitions: {p0: [A, B], p1: [B]}
  placement: {account: p0, order: p1}
actions:
  - {at: 1, replica: B, do: insert, id: o, entity: order/o1, fields: {state: new}}
""")
    assert main(["history", str(path), "--entity", entity, "--replica", "A"]) == 1
    assert capsys.readouterr().err.splitlines() == [message]


def test_an_irreversible_compensation_is_a_record_not_an_exit(tmp_path, capsys):
    path = tmp_path / "irreversible.yaml"
    path.write_text("""schema: eventual/1
entities: {account: {}}
topology: {partitions: {p0: [A]}}
actions:
  - {at: 1, replica: A, do: delta, id: d1, entity: account/alice, deltas: {balance: 100}, irreversible: true}
  - {at: 3, replica: A, do: compensate, action: d1}
""")
    assert main(["run", str(path)]) == 0
    records = [line for line in capsys.readouterr().out.splitlines() if line.startswith("record ")]
    assert records == [
        'record A: {"event": "A:1", "kind": "compensation_refused", "tick": 3, "txn": "A:client:d1:1"}'
    ]
    report = Simulator(load_scenario(path)).run()
    assert check_invariants(report) == []
    assert json.loads(report.rollups["A"]["account/alice"])["value"]["balance"] == 100


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def _report(reservations: dict, apologies=(), open_exceptions=(), quiescent=True) -> RunReport:
    """A quiescent report of replica A holding book/moby with ``reservations``
    (id -> cause) and customer/c1, plus the given apology subjects and open
    exception ids."""
    entry = {rid: {"state": "cancelled", "cause": cause} for rid, cause in reservations.items()}
    return RunReport(
        quiescent=quiescent,
        rollups={"A": {
            "book/moby": json.dumps({"value": {"reservations": entry}, "deleted": False}),
            "customer/c1": json.dumps({"value": {}, "deleted": False}),
        }},
        apologies=[{"apology_id": f"apology:{s}", "subject": s} for s in apologies],
        exceptions={"A": {"open": list(open_exceptions), "resolved": []}},
    )


def test_each_broken_promise_has_exactly_one_apology():
    assert check_invariants(_report({"r1": "overbooking", "r2": "expired"}, ["r1"])) == []
    assert check_invariants(_report({"r1": "disaster"})) == [
        "APOLOGY_COUNT: r1 broke a promise and has 0 apologies"
    ]
    assert check_invariants(_report({"r1": "lost_promise"}, ["r1", "r1"])) == [
        "APOLOGY_COUNT: r1 broke a promise and has 2 apologies"
    ]
    assert check_invariants(_report({"r1": "expired"}, ["r1"])) == [
        "APOLOGY_COUNT: apology for r1, which broke no promise"
    ]


def test_no_reference_stays_open_beside_its_parent():
    held = "refviol:opportunity/o1:customer/c1"
    missing = "refviol:opportunity/o2:customer/c2"
    assert check_invariants(_report({}, open_exceptions=[missing])) == []
    assert check_invariants(_report({}, open_exceptions=[held, missing])) == [
        f"REFERENCE_OPEN: {held} open on A, which holds the parent"
    ]


def test_the_promise_and_reference_checks_wait_for_quiescence():
    report = _report({"r1": "disaster"}, open_exceptions=["refviol:opportunity/o1:customer/c1"],
                     quiescent=False)
    assert check_invariants(report) == ["NOT_QUIESCENT: work remained at end of run"]
