"""Log, rollup, tombstone, checkpoint, and history behavior."""

from __future__ import annotations

import copy
import itertools
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventual.clocks import VersionVector
from eventual.errors import (
    DuplicateEventId,
    FutureVersion,
    InvalidRecord,
    MalformedEvent,
    SequenceGap,
    UnknownEntity,
    WrongPartition,
)
from eventual.registry import MergePolicy, RollupSpec, SchemaRegistry
from eventual import store as store_module
from eventual.replica import Replica
from eventual.replication import ConflictReport
from eventual.store import (
    OP_APOLOGY,
    OP_CANCEL,
    OP_CONFIRM,
    OP_DELTA,
    OP_DISCREPANCY,
    OP_INSERT,
    OP_TENTATIVE,
    OP_TOMBSTONE,
    EntityRef,
    EntityState,
    EventId,
    EventRecord,
    FoldState,
    PartitionLog,
    ReplicaStore,
    canonical_sort,
)

ACCOUNT = EntityRef("account", "alice")
INVENTORY = EntityRef("inventory", "w1")


def make_registry() -> SchemaRegistry:
    reg = SchemaRegistry()
    reg.register(RollupSpec("account", MergePolicy.COMMUTATIVE_DELTA, {"balance": 0}, ("balance",)))
    reg.register(RollupSpec("inventory", MergePolicy.COMMUTATIVE_DELTA, {"on_hand": 0}, ("on_hand",)))
    reg.register(RollupSpec("profile", MergePolicy.LWW_REGISTER))
    return reg


def make_store(replica_id: str = "A", registry: SchemaRegistry | None = None) -> ReplicaStore:
    registry = registry or make_registry()
    placement = {"account": "p0", "inventory": "p0", "profile": "p0"}
    return ReplicaStore(replica_id, registry, ["p0"], placement)


def delta(store: ReplicaStore, entity: EntityRef, key: str, **deltas) -> EventRecord:
    ev = store.make_event(entity, OP_DELTA, {"deltas": deltas}, key, f"txn-{key}")
    store.append_event("p0", ev)
    return ev


def brute_balance(events: list[EventRecord], field: str) -> float:
    """Independent oracle: signed sum over unique idempotence keys."""
    seen: set[str] = set()
    total = 0
    for ev in events:
        if ev.idempotence_key in seen:
            continue
        seen.add(ev.idempotence_key)
        total += ev.payload.get("deltas", {}).get(field, 0)
    return total


def test_first_append_is_position_zero():
    store = make_store()
    ev = store.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 100}}, "k1", "t1")
    assert store.append_event("p0", ev) == 0


def test_duplicate_event_id_reports_and_leaves_log_unchanged():
    store = make_store()
    ev = store.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 100}}, "k1", "t1")
    store.append_event("p0", ev)
    with pytest.raises(DuplicateEventId):
        store.append_event("p0", ev)
    assert len(store.log("p0").events) == 1


def test_wrong_partition_is_a_routing_bug():
    reg = make_registry()
    store = ReplicaStore("A", reg, ["p0", "p1"], {"account": "p0"})
    ev = store.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 1}}, "k", "t")
    with pytest.raises(WrongPartition):
        store.append_event("p1", ev)


def test_interleaved_appends_preserve_per_replica_order():
    # Oracle: enumerate every interleaving of A's two events and B's one,
    # then check each origin's events appear in sequence order.
    reg = make_registry()
    source_a = make_store("A", reg)
    source_b = make_store("B", reg)
    a_events = [
        source_a.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 1}}, "a1", "t"),
        source_a.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 2}}, "a2", "t"),
    ]
    source_a.append_event("p0", a_events[0])
    source_a.append_event("p0", a_events[1])
    b_events = [source_b.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 4}}, "b1", "t")]
    source_b.append_event("p0", b_events[0])

    tagged = [("A", e) for e in a_events] + [("B", e) for e in b_events]
    interleavings = {
        perm
        for perm in itertools.permutations(range(3))
        if [i for i in perm if tagged[i][0] == "A"] == sorted(i for i in perm if tagged[i][0] == "A")
    }
    assert len(interleavings) == 3
    rollups = set()
    for perm in sorted(interleavings):
        store = make_store("C", reg)
        for i in perm:
            store.ingest_foreign("p0", tagged[i][1])
        log = store.log("p0").events
        for origin in ("A", "B"):
            seqs = [e.event_id.seq for e in log if e.event_id.replica == origin]
            assert seqs == sorted(seqs)
        rollups.add(store.rollup("p0", ACCOUNT).canonical_dump())
    assert len(rollups) == 1  # arrival order never changes the rollup


def test_rollup_empty_log_is_initial_value():
    store = make_store()
    state = store.rollup("p0", ACCOUNT)
    assert state.value == {"balance": 0}
    assert state.version == VersionVector()
    assert not state.deleted_flag


def test_rollup_signed_sum_of_operations():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=100)
    delta(store, ACCOUNT, "d2", balance=50)
    delta(store, ACCOUNT, "w1", balance=-30)
    assert store.rollup("p0", ACCOUNT).value["balance"] == 120


def test_negative_inventory_is_accepted():
    store = make_store()
    delta(store, INVENTORY, "r1", on_hand=3)
    delta(store, INVENTORY, "s1", on_hand=-5)
    state = store.rollup("p0", INVENTORY)
    assert state.value["on_hand"] == -2


def test_read_version_empty_vector_is_initial():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=100)
    state = store.read_version("p0", ACCOUNT, VersionVector())
    assert state.value == {"balance": 0}


def test_read_version_at_frontier_matches_rollup():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=100)
    delta(store, ACCOUNT, "d2", balance=-10)
    frontier = store.log("p0").frontier()
    assert (
        store.read_version("p0", ACCOUNT, frontier).canonical_dump()
        == store.rollup("p0", ACCOUNT).canonical_dump()
    )


def test_read_version_every_prefix_matches_brute_force_fold():
    store = make_store()
    amounts = [100, -20, 7, -3, 50]
    events = [delta(store, ACCOUNT, f"k{i}", balance=a) for i, a in enumerate(amounts)]
    ordered = canonical_sort(events)
    for k in range(len(ordered) + 1):
        prefix = ordered[:k]
        vv = VersionVector()
        for ev in prefix:
            vv = vv.with_entry(ev.event_id.replica, ev.event_id.seq)
        state = store.read_version("p0", ACCOUNT, vv)
        assert state.value["balance"] == brute_balance(prefix, "balance")


def test_read_version_beyond_frontier_is_rejected():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=1)
    with pytest.raises(FutureVersion):
        store.read_version("p0", ACCOUNT, VersionVector({"A": 99}))


def test_tombstone_sets_deleted_flag_and_keeps_value_and_history():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=100)
    store.mark_deleted("p0", ACCOUNT, "txn-del")
    state = store.rollup("p0", ACCOUNT)
    assert state.deleted_flag
    assert state.value["balance"] == 100
    history = store.list_history("p0", ACCOUNT)
    assert [e.op_kind for e in history] == [OP_DELTA, OP_TOMBSTONE]


def test_tombstone_on_unknown_entity_is_rejected():
    store = make_store()
    with pytest.raises(UnknownEntity):
        store.mark_deleted("p0", ACCOUNT, "txn")


def test_concurrent_delete_and_delta_reconcile_identically_both_orders():
    reg = make_registry()
    a = make_store("A", reg)
    b = make_store("B", reg)
    seed = a.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 10}}, "seed", "t0")
    a.append_event("p0", seed)
    b.ingest_foreign("p0", seed)
    tomb = a.mark_deleted("p0", ACCOUNT, "t-del")
    concurrent = b.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 5}}, "d2", "t1")
    b.append_event("p0", concurrent)

    merged_ab = make_store("C", reg)
    for ev in (seed, tomb, concurrent):
        merged_ab.ingest_foreign("p0", ev)
    merged_ba = make_store("D", reg)
    for ev in (seed, concurrent, tomb):
        merged_ba.ingest_foreign("p0", ev)

    dump_ab = merged_ab.rollup("p0", ACCOUNT).canonical_dump()
    dump_ba = merged_ba.rollup("p0", ACCOUNT).canonical_dump()
    assert dump_ab == dump_ba
    assert merged_ab.rollup("p0", ACCOUNT).deleted_flag
    # the concurrent delta stays in history even though the entity is dead
    assert any(e.idempotence_key == "d2" for e in merged_ab.list_history("p0", ACCOUNT))


def test_resurrection_insert_after_tombstone_is_ignored_in_rollup():
    store = make_store()
    ins = store.make_event(ACCOUNT, OP_INSERT, {"fields": {"owner": "alice"}}, "i1", "t1")
    store.append_event("p0", ins)
    store.mark_deleted("p0", ACCOUNT, "t-del")
    revive = store.make_event(ACCOUNT, OP_INSERT, {"fields": {"owner": "mallory"}}, "i2", "t2")
    store.append_event("p0", revive)
    state = store.rollup("p0", ACCOUNT)
    assert state.deleted_flag
    assert state.value["owner"] == "alice"


def test_summarize_empty_log_is_a_noop_checkpoint():
    store = make_store()
    ckpt = store.summarize("p0", ACCOUNT, VersionVector())
    assert store.rollup("p0", ACCOUNT).value == {"balance": 0}
    assert ckpt.covers_up_to == VersionVector()


def test_summarize_mid_log_preserves_rollup_exactly():
    store = make_store()
    rng = random.Random(7)
    amounts = [rng.randint(-40, 60) for _ in range(100)]
    events = [delta(store, ACCOUNT, f"k{i}", balance=a) for i, a in enumerate(amounts)]
    full = brute_balance(events, "balance")
    cut = VersionVector({"A": events[59].event_id.seq})
    store.summarize("p0", ACCOUNT, cut)
    assert store.rollup("p0", ACCOUNT).value["balance"] == full
    # appending one more delta folds on top of the summarized value
    delta(store, ACCOUNT, "extra", balance=11)
    assert store.rollup("p0", ACCOUNT).value["balance"] == full + 11


def test_an_earlier_cut_never_moves_a_checkpoint_backwards():
    store = make_store()
    for i in range(6):
        delta(store, ACCOUNT, f"k{i}", balance=1)
    store.summarize("p0", ACCOUNT, VersionVector({"A": 4}))
    ckpt = store.summarize("p0", ACCOUNT, VersionVector({"A": 2}))
    assert store.rollup("p0", ACCOUNT).value["balance"] == 6
    assert ckpt.covers_up_to == VersionVector({"A": 4})


def test_a_second_checkpoint_resumes_the_first(monkeypatch):
    store = make_store()
    for i in range(6):
        delta(store, ACCOUNT, f"k{i}", balance=1)
    store.summarize("p0", ACCOUNT, VersionVector({"A": 2}))
    folded = []
    original = FoldState.fold

    def recording_fold(state, event, spec):
        folded.append(event.event_id.seq)
        original(state, event, spec)

    monkeypatch.setattr(FoldState, "fold", recording_fold)
    store.summarize("p0", ACCOUNT, VersionVector({"A": 5}))
    monkeypatch.undo()
    assert folded == [3, 4, 5]  # only the events past the first cut
    assert store.rollup("p0", ACCOUNT).value["balance"] == 6


def test_summarize_refused_while_entity_locked():
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=1)
    store.lock_guard = lambda ref: ref == ACCOUNT
    from eventual.errors import LockConflict

    with pytest.raises(LockConflict):
        store.summarize("p0", ACCOUNT, store.log("p0").frontier())


def test_a_cut_that_is_not_causally_closed_is_refused():
    from eventual.errors import CutNotClosed

    reg = make_registry()
    a, b = make_store("A", reg), make_store("B", reg)
    profile = EntityRef("profile", "p")
    red = a.make_event(profile, OP_INSERT, {"fields": {"color": "red"}}, "i1", "t1")
    a.append_event("p0", red)
    b.ingest_foreign("p0", red)
    tombstone = b.mark_deleted("p0", profile, "t-del")
    a.ingest_foreign("p0", tombstone)
    blue = a.make_event(profile, OP_INSERT, {"fields": {"color": "blue"}}, "i2", "t2")
    a.append_event("p0", blue)
    before = a.rollup("p0", profile).canonical_dump()
    assert a.fold_state("p0", profile).resurrections == ["A:2"]
    assert '"color":"red"' in before
    # A:2 is after B:1, so a cut holding A:2 without B:1 would fold blue as live
    a.summarize("p0", profile, VersionVector({"A": 1}))
    with pytest.raises(CutNotClosed, match="A:2") as refused:
        a.summarize("p0", profile, VersionVector({"A": 2}))
    assert refused.value.event_id == blue.event_id
    assert refused.value.stamp == blue.causal_stamp
    a.clear_fold_cache()
    assert a.rollup("p0", profile).canonical_dump() == before
    a.summarize("p0", profile, a.log("p0").frontier())
    a.clear_fold_cache()
    assert a.rollup("p0", profile).canonical_dump() == before
    assert a.fold_state("p0", profile).resurrections == ["A:2"]


def test_history_unknown_entity_is_empty():
    store = make_store()
    assert store.list_history("p0", EntityRef("account", "ghost")) == []


def test_history_returns_appends_in_canonical_order():
    store = make_store()
    events = [delta(store, ACCOUNT, f"k{i}", balance=i) for i in range(3)]
    assert store.list_history("p0", ACCOUNT) == canonical_sort(events)


def test_history_shows_the_event_that_drove_inventory_negative():
    store = make_store()
    delta(store, INVENTORY, "recv", on_hand=3)
    delta(store, INVENTORY, "ship", on_hand=-5)
    state = store.rollup("p0", INVENTORY)
    assert state.value["on_hand"] < 0
    history = store.list_history("p0", INVENTORY)
    culprit = [e for e in history if e.payload.get("deltas", {}).get("on_hand", 0) < 0]
    assert culprit and culprit[0].idempotence_key == "ship"


def test_archival_export_roundtrip_is_lossless():
    reg = make_registry()
    store = make_store("A", reg)
    delta(store, ACCOUNT, "d1", balance=100)
    store.mark_deleted("p0", ACCOUNT, "t-del")
    lines = store.export_partition("p0")
    clone = make_store("Z", reg)
    clone.import_partition("p0", lines)
    assert clone.export_partition("p0") == lines
    assert (
        clone.rollup("p0", ACCOUNT).canonical_dump()
        == store.rollup("p0", ACCOUNT).canonical_dump()
    )


def test_event_lines_are_byte_stable_across_reads():
    store = make_store()
    ev = delta(store, ACCOUNT, "d1", balance=100)
    again = store.log("p0").get(ev.event_id)
    assert ev.to_line() == again.to_line()
    assert EventRecord.from_line(ev.to_line()) == ev


UNSORTED_PAYLOAD = {"note": {"z": 1, "a": [{"y": 2, "x": 1}]}, "deltas": {"balance": 1}}


def _made_and_unsorted_line() -> tuple[EventRecord, str]:
    """An event, and a valid line of it that is not canonical: its payload's
    keys as a writer that keeps insertion order would write them."""
    made = make_store().make_event(ACCOUNT, OP_DELTA, UNSORTED_PAYLOAD, "k", "t")
    raw = json.loads(made.to_line())
    raw["payload"] = UNSORTED_PAYLOAD
    unsorted = json.dumps(raw, separators=(",", ":"))
    assert '"payload":{"note":{"z":1' in unsorted
    return made, unsorted


def test_a_made_and_a_decoded_event_encode_the_same_canonical_line():
    made, unsorted = _made_and_unsorted_line()
    decoded = EventRecord.from_line(unsorted)
    canonical = json.dumps(UNSORTED_PAYLOAD, sort_keys=True, separators=(",", ":"))
    assert made.to_line() == decoded.to_line()
    assert f'"payload":{canonical},' in made.to_line()


@pytest.mark.parametrize("form", ["unsorted-keys", "padded"])
def test_an_imported_line_that_is_not_canonical_is_exported_as_its_encoding(form):
    # a log keeps no line: an event's archival line is its record's encoding
    made, unsorted = _made_and_unsorted_line()
    line = unsorted if form == "unsorted-keys" else f" {made.to_line()}\n"
    assert line != made.to_line()
    clone = make_store("B")
    assert clone.import_partition("p0", [line]) == 1
    assert clone.log("p0").get(made.event_id) == made
    exported = clone.export_partition("p0")
    assert exported == [made.to_line()]
    again = make_store("C")
    again.import_partition("p0", exported)
    assert again.export_partition("p0") == exported



# -- the records are immutable tuples -------------------------------------


def _record() -> EventRecord:
    stamp = VersionVector({"A": 3, "B": 1})
    return EventRecord(EventId("A", 3), ACCOUNT, OP_DELTA, {"deltas": {"balance": 1}}, stamp, 4, "k", "t")


@pytest.mark.parametrize(
    "record, field",
    [(EventId("A", 1), "seq"), (ACCOUNT, "key"), (_record(), "payload"), (_record(), "lww_hint")],
)
def test_assigning_a_record_field_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_records_with_equal_fields_are_equal():
    assert EventId("A", 1) == EventId("A", 1) != EventId("A", 2)
    assert hash(EventId("A", 1)) == hash(EventId.parse("A:1"))
    assert EntityRef("account", "alice") == ACCOUNT != INVENTORY
    assert hash(EntityRef("account", "alice")) == hash(ACCOUNT)
    assert _record() == _record()
    assert _record() != _record()._replace(lww_hint=5)


@given(st.text(alphabet="abc_", min_size=1), st.text())
def test_an_entity_ref_parses_back_from_its_text(entity_type, key):
    ref = EntityRef(entity_type, key)
    assert EntityRef.parse(str(ref)) == ref


_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _holds_surrogate_pair(obj) -> bool:
    """Whether a string in ``obj``, keys included, holds a high surrogate
    then a low one: a line writes them as two escapes, which decode to one
    character, so every line codec refuses them."""
    if isinstance(obj, str):
        return _SURROGATE_PAIR.search(obj) is not None
    if isinstance(obj, dict):
        return any(_holds_surrogate_pair(k) or _holds_surrogate_pair(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return any(_holds_surrogate_pair(v) for v in obj)
    return False


_payloads = st.recursive(
    st.integers() | st.floats(allow_nan=False) | st.text() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.text(), _payloads, max_size=4),
    st.dictionaries(st.sampled_from("ABC"), st.integers(min_value=0, max_value=9)),
    st.text(alphabet="ABC:", min_size=1),
    st.integers(min_value=1),
)
def test_an_event_line_decodes_to_an_equal_record(payload, stamp, replica, seq):
    event = EventRecord(
        EventId(replica, seq), ACCOUNT, OP_DELTA, payload, VersionVector(stamp), seq, "k", "t"
    )
    if _holds_surrogate_pair(payload):
        with pytest.raises(InvalidRecord, match="surrogate pair"):
            event.to_line()
        return
    assert EventRecord.from_line(event.to_line()) == event


_json_payloads = st.dictionaries(
    st.text(),
    st.recursive(
        st.text() | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(store_module.OP_KINDS)),
    _json_payloads,
    # the account's aggregate is no payload field: make_event refuses it by design
    _json_payloads.filter(lambda p: "balance" not in p),
)
def test_every_made_event_decodes_from_its_line_to_an_equal_record(op_kind, payload, later):
    # A run hands its receivers the sender's record for a line instead of
    # decoding it, which is sound only if decoding would give that record back.
    store = make_store()
    if _holds_surrogate_pair([payload, later]):
        # no line gives such a string back: the store refuses it before making an event
        held = payload if _holds_surrogate_pair(payload) else later
        with pytest.raises(InvalidRecord, match="surrogate pair"):
            store.make_event(EntityRef("profile", "p/1"), op_kind, held, "k", "t")
        return
    first = store.make_event(EntityRef("profile", "p/1"), op_kind, payload, "k", "t")
    store.append_event("p0", first)
    second = store.make_event(ACCOUNT, op_kind, later, "k2", "t2")
    for event in (first, second):
        assert EventRecord.from_line(event.to_line()) == event


@pytest.mark.parametrize(
    "op_kind, payload, key",
    [
        (OP_DELTA, {"deltas": {1: 5}}, "k"),
        (OP_DELTA, {1: "a", "b": 2}, "k"),
        (OP_INSERT, {"fields": {"tags": {"x", "y"}}}, "k"),
        (OP_INSERT, {"fields": [b"raw"]}, "k"),
        ("upsert", {}, "k"),
        (OP_DELTA, {}, 7),
        (OP_TENTATIVE, {"reservation_id": 7, "quantity": 1}, "k"),
        (OP_CANCEL, {"reservation_id": ["r1"], "cause": "cancelled"}, "k"),
        (OP_DELTA, {"note": ["x", "\ud800\udc00"]}, "k"),
        (OP_DELTA, {"n\udbff\udfffote": 1}, "k"),
        (OP_DELTA, {}, "k\ud800\udc00"),
    ],
    ids=["int-key", "mixed-keys", "set-leaf", "bytes-leaf", "unknown-op-kind", "int-idempotence-key",
         "int-reservation-id", "list-reservation-id", "surrogate-pair-leaf", "surrogate-pair-key",
         "surrogate-pair-idempotence-key"],
)
def test_a_value_no_line_gives_back_is_refused_before_an_event_is_made(op_kind, payload, key):
    store = make_store()
    with pytest.raises(InvalidRecord):
        store.make_event(EntityRef("profile", "p1"), op_kind, payload, key, "t")
    assert store.seq == 0


def test_an_entity_type_holding_a_slash_is_refused():
    with pytest.raises(InvalidRecord):
        SchemaRegistry().register(RollupSpec("a/b"))


@settings(max_examples=100, deadline=None)
@given(_payloads, st.dictionaries(st.text(), _payloads, max_size=4), st.booleans())
def test_the_kept_encoders_write_what_json_dumps_writes(value, payload, deleted):
    compact = {"separators": (",", ":")}
    canonical = {"sort_keys": True, **compact}
    event = _record()._replace(payload=payload)
    if _holds_surrogate_pair(payload):
        with pytest.raises(InvalidRecord, match="surrogate pair"):
            event.to_line()
    else:
        assert event.to_line() == json.dumps(
            {
                "event_id": "A:3",
                "entity_ref": "account/alice",
                "op_kind": OP_DELTA,
                "payload": payload,
                "causal_stamp": {"A": 3, "B": 1},
                "lww_hint": 4,
                "idempotence_key": "k",
                "origin_txn_id": "t",
            },
            **compact,
        )
    state = EntityState(ACCOUNT, {"n": value, **payload}, VersionVector({"A": 1}), deleted)
    assert state.canonical_dump() == json.dumps(
        {"entity": "account/alice", "value": state.value, "version": {"A": 1}, "deleted": deleted},
        **canonical,
    )
    report = ConflictReport(ACCOUNT, "lww_register", [["A:1", "B:1"]], {"v": value}, ["é"])
    assert report.dump() == json.dumps(
        {
            "entity": "account/alice",
            "policy": "lww_register",
            "groups": [["A:1", "B:1"]],
            "resolution": {"v": value},
            "compensations": ["é"],
        },
        **canonical,
    )


def _canon_reference(obj):
    """``canon`` as it was first written: one recursive call per value."""
    if isinstance(obj, dict):
        return {k: _canon_reference(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_canon_reference(x) for x in obj]
    return obj


def _containers(obj) -> list:
    if isinstance(obj, dict):
        return [obj] + [c for v in obj.values() for c in _containers(v)]
    if isinstance(obj, (list, tuple)):
        return [obj] + [c for v in obj for c in _containers(v)]
    return []


_nested = st.recursive(
    st.integers() | st.floats(allow_nan=False) | st.text() | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(_nested)
def test_canon_returns_what_the_reference_returns_in_the_same_key_order(value):
    if _holds_surrogate_pair(value):
        with pytest.raises(InvalidRecord, match="surrogate pair"):
            store_module.canon(value)
        return
    made = store_module.canon(value)
    expected = _canon_reference(value)
    assert json.dumps(made) == json.dumps(expected)  # no sort_keys: key order counts
    assert [type(c) for c in _containers(made)] == [type(c) for c in _containers(expected)]
    # every dict and list is a new one: a payload never aliases its caller's
    held = {id(c) for c in _containers(value)}
    assert not any(id(c) in held for c in _containers(made))


def test_vector_stamps_never_share_a_dict():
    log = PartitionLog("p0")
    log.append(_record())
    frontier = log.frontier()
    log.append(_record()._replace(event_id=EventId("A", 4)))
    assert frontier == VersionVector({"A": 3})
    assert log.frontier() == VersionVector({"A": 4})
    assert log.frontier()._v is not log.frontier()._v
    vector = VersionVector({"A": 2})
    for derived in (vector.with_entry("A", 1), vector.with_entry("B", 1), vector.merge(VersionVector())):
        assert derived._v is not vector._v
    assert vector == VersionVector({"A": 2})


def test_a_zero_entry_is_absent():
    assert VersionVector({"A": 0}) == VersionVector()
    assert hash(VersionVector({"A": 0})) == hash(VersionVector())
    assert VersionVector().with_entry("A", 0) == VersionVector()
    assert VersionVector.from_dict({"A": 0, "B": 2}) == VersionVector({"B": 2})


@pytest.mark.parametrize(
    ("corrupt", "field"),
    [
        (lambda line: line[: len(line) // 2], None),  # truncated JSON
        (lambda line: line[:-1], None),  # the closing brace cut off
        (lambda line: line[: line.index(',"origin_txn_id"')] + "}", None),  # the last field cut off
        (lambda line: "not json", None),
        (lambda line: "", None),
        (lambda line: '{"event_id":"', None),  # a bare head
        (lambda line: line.replace('"lww_hint"', '"lww_hnt"'), None),  # a missing field
        (lambda line: line.replace('"event_id":"A:1"', '"event_id":"A:one"'), None),  # a bad event_id
        (lambda line: line.replace('"event_id":"A:1"', '"event_id":"A1"'), None),  # an event_id with no colon
        (lambda line: line.replace('"event_id":"A:1"', '"event_id":"A:0"'), None),  # a sequence below 1
        # a sequence int() reads but that is not how to_line writes it
        *((lambda line, seq=seq: line.replace('"event_id":"A:1"', f'"event_id":"A:{seq}"'), None)
          for seq in ("1_0", " 1", "+1", "01", "\\u0661")),
        (lambda line: line.replace('"op_kind":"delta"', '"op_kind":"bogus"'), None),  # an unknown op kind
        # a field of the wrong type is named in the error
        (lambda line: line.replace('"lww_hint":1', '"lww_hint":"1"'), "lww_hint"),
        (lambda line: line.replace('"lww_hint":1', '"lww_hint":true'), "lww_hint"),
        (lambda line: line.replace('"lww_hint":1', '"lww_hint":1.5'), "lww_hint"),
        (lambda line: line.replace('"op_kind":"delta"', '"op_kind":["delta"]'), "op_kind"),
        (lambda line: line.replace('"idempotence_key":"d1"', '"idempotence_key":1'), "idempotence_key"),
        (lambda line: line.replace('"origin_txn_id":"txn-d1"', '"origin_txn_id":null'), "origin_txn_id"),
        (lambda line: line.replace('"payload":{"deltas":{"balance":100}}', '"payload":[1]'), "payload"),
        (lambda line: line.replace('"causal_stamp":{"A":1}', '"causal_stamp":"A:1"'), "causal_stamp"),
        (lambda line: line.replace('"causal_stamp":{"A":1}', '"causal_stamp":{"A":0}'), "causal_stamp"),
        (lambda line: line.replace('"causal_stamp":{"A":1}', '"causal_stamp":{"A":"1"}'), "causal_stamp"),
        (lambda line: line.replace('"causal_stamp":{"A":1}', '"causal_stamp":{"A":true}'), "causal_stamp"),
        # a reservation id is a string
        (lambda line: line.replace('"op_kind":"delta","payload":{"deltas":{"balance":100}}',
                                   '"op_kind":"tentative","payload":{"reservation_id":7}'), "reservation_id"),
        # a raw surrogate pair, which to_line writes as two escapes: one character once decoded
        (lambda line: line.replace('"idempotence_key":"d1"', '"idempotence_key":"d\ud800\udc00"'), None),
        (lambda line: line.replace('"idempotence_key":"d1"', '"idempotence_key":"d\ud800\\udc00"'), None),
    ],
    ids=["truncated", "no-brace", "no-last-field", "not-json", "empty", "bare-head", "missing-field",
         "bad-event-id", "no-colon", "seq-zero", "seq-underscore", "seq-space",
         "seq-plus", "seq-leading-zero", "seq-arabic-indic-digit", "unknown-op",
         "hint-string", "hint-bool", "hint-float", "op-kind-list", "key-int", "txn-null",
         "payload-list", "stamp-string", "stamp-zero", "stamp-entry-string", "stamp-entry-bool",
         "reservation-id-int", "raw-surrogate-pair", "raw-high-escaped-low-surrogate"],
)
def test_malformed_archive_lines_raise_a_typed_error_naming_the_line(corrupt, field):
    store = make_store()
    delta(store, ACCOUNT, "d1", balance=100)
    delta(store, ACCOUNT, "d2", balance=5)
    lines = store.export_partition("p0")
    bad = corrupt(lines[0])
    assert bad != lines[0]
    with pytest.raises(MalformedEvent) as caught:
        EventRecord.from_line(bad)
    assert caught.value.line == bad and repr(bad) in str(caught.value)
    if field is not None:
        assert str(caught.value.__cause__).startswith(field)
    # a clone holding nothing, and one holding the id the corrupt line names:
    # either way the line is decoded, raises, and nothing is appended
    for held in ([], [lines[0]]):
        clone = make_store("Z")
        clone.import_partition("p0", held)
        with pytest.raises(MalformedEvent):
            clone.import_partition("p0", [bad, lines[1]])
        assert clone.export_partition("p0") == held


# -- the archival line codec ------------------------------------------------


def _reference_line(event: EventRecord) -> str:
    """The archival line as ``json.dumps`` writes the record's eight-field dict."""
    return json.dumps(
        {
            "event_id": str(event.event_id),
            "entity_ref": str(event.entity_ref),
            "op_kind": event.op_kind,
            "payload": event.payload,
            "causal_stamp": event.causal_stamp.to_dict(),
            "lww_hint": event.lww_hint,
            "idempotence_key": event.idempotence_key,
            "origin_txn_id": event.origin_txn_id,
        },
        separators=(",", ":"),
    )


def _holds_nan(obj) -> bool:
    if isinstance(obj, dict):
        return any(_holds_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_holds_nan(v) for v in obj)
    return obj != obj


# text heavy in what a line escapes: quotes, backslashes, control
# characters, non-ASCII and a lone surrogate, beside the separators of ids and refs
_escaped = st.text(st.sampled_from('"\\\x00\n\x1f\x7f:/é€😀\ud800') | st.characters(), max_size=8)
_line_leaves = (
    st.integers(min_value=-(2**200), max_value=2**200) | st.floats() | _escaped | st.booleans() | st.none()
)
_line_payloads = st.dictionaries(
    _escaped,
    st.recursive(
        _line_leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_escaped, inner, max_size=3),
        max_leaves=10,
    ),
    max_size=4,
).map(lambda payload: payload if _holds_surrogate_pair(payload) else store_module.canon(payload))
_records = st.builds(
    lambda replica, seq, entity_type, key, op_kind, payload, stamp, hint, ikey, txn_id: EventRecord(
        EventId(replica, seq), EntityRef(entity_type, key), op_kind, payload, VersionVector(stamp),
        hint, ikey, txn_id,
    ),
    _escaped,
    st.integers(min_value=1, max_value=2**70),
    _escaped.filter(lambda text: "/" not in text),
    _escaped,
    st.sampled_from(sorted(store_module.OP_KINDS)),
    _line_payloads,
    st.dictionaries(_escaped, st.integers(min_value=1, max_value=2**70), max_size=4),
    st.integers(min_value=0, max_value=2**70),
    _escaped,
    _escaped,
)


@settings(max_examples=300, deadline=None)
@given(_records)
@example(_record()._replace(origin_txn_id=chr(0xD800) + chr(0xDC00)))
def test_a_line_is_the_reference_dump_and_decodes_to_an_equal_record(event):
    if _holds_surrogate_pair([*event, event.causal_stamp.to_dict()]):
        # a line writes the pair as two escapes, which decode to one character
        with pytest.raises(InvalidRecord, match="surrogate pair"):
            event.to_line()
        return
    line = event.to_line()
    assert line == _reference_line(event)
    decoded = EventRecord.from_line(line)
    assert type(decoded) is EventRecord
    assert type(decoded.event_id) is EventId and type(decoded.entity_ref) is EntityRef
    assert repr(decoded) == repr(event)  # a NaN is unequal to itself, not to its repr
    if not _holds_nan(event.payload):
        assert decoded == event
    assert decoded.to_line() == line


@pytest.mark.parametrize("padded", [" {}", "{}\n", "\t{}\r\n ", "\n {} "])
def test_a_whitespace_padded_line_decodes_as_json_loads_reads_it(padded):
    event = _record()
    line = padded.replace("{}", event.to_line())
    assert json.loads(line) == json.loads(event.to_line())
    assert EventRecord.from_line(line) == event


@pytest.mark.parametrize("corrupt", [
    lambda line: line + "x",
    lambda line: line + " }",
    lambda line: line + "{}",
    lambda line: line + "\n,",
    lambda line: "\ufeff" + line,
    lambda line: line[:-1],
    lambda line: "",
], ids=["trailing-word", "trailing-brace", "second-object", "trailing-comma", "bom", "unclosed", "empty"])
def test_a_line_json_loads_refuses_is_malformed(corrupt):
    line = corrupt(_record().to_line())
    with pytest.raises(json.JSONDecodeError) as refused:
        json.loads(line)
    with pytest.raises(MalformedEvent) as caught:
        EventRecord.from_line(line)
    assert str(caught.value.__cause__) == str(refused.value)


def test_an_import_with_a_misrouted_event_appends_nothing():
    reg = make_registry()
    source = ReplicaStore("A", reg, ["p0", "p1"], {"account": "p0", "inventory": "p1"})
    lines = []
    for ref, partition in ((ACCOUNT, "p0"), (ACCOUNT, "p0"), (INVENTORY, "p1")):
        event = source.make_event(ref, OP_DELTA, {"deltas": {"n": 1}}, f"k{len(lines)}", "t")
        source.append_event(partition, event)
        lines.append(event.to_line())
    clone = make_store("Z", reg)
    clone.import_partition("p0", [lines[0]])
    clone.placement["inventory"] = "p1"  # a type this replica places on a partition it does not host
    with pytest.raises(WrongPartition, match="does not host partition 'p1'"):
        clone.import_partition("p0", lines)
    assert clone.export_partition("p0") == [lines[0]] and clone.lamport == 1
    clone.placement["inventory"] = "p0"
    # now every type routes here; an event the log holds is skipped
    assert clone.import_partition("p0", lines + lines) == 2
    assert clone.export_partition("p0") == lines and clone.lamport == 3


def test_an_import_with_a_sequence_gap_appends_nothing():
    reg = make_registry()
    sources = {origin: make_store(origin, reg) for origin in "AZ"}
    for origin, source in sources.items():
        for i in range(3):
            delta(source, ACCOUNT, f"{origin}{i}", balance=1)
    lines = {origin: source.export_partition("p0") for origin, source in sources.items()}
    clone = make_store("C", reg)
    for line in (lines["Z"][0], lines["Z"][2]):  # Z:1 and Z:3, without Z:2
        clone.ingest_foreign("p0", EventRecord.from_line(line))
    held = clone.export_partition("p0")
    with pytest.raises(SequenceGap, match="Z:2 arrived after Z:3"):
        clone.import_partition("p0", lines["A"] + lines["Z"])
    assert clone.export_partition("p0") == held
    assert clone.import_partition("p0", lines["A"]) == 3  # an origin the log holds nothing of


def test_a_sequence_at_or_below_an_unseen_origin_s_is_a_sequence_gap():
    log = PartitionLog("p0")
    with pytest.raises(SequenceGap, match="A:0 arrived after A:0"):
        log.append(_record()._replace(event_id=EventId("A", 0)))

# -- the fold cache ------------------------------------------------------


def read(store: ReplicaStore, ref: EntityRef, folds: list[int]) -> tuple[FoldState, int]:
    """A whole-log read, and how many events it folded."""
    before = folds[0]
    state = store.fold_state("p0", ref)
    return state, folds[0] - before


def test_a_late_int_delta_folds_in_place(folds, scratch_fold):
    reg = make_registry()
    store, peer = make_store("A", reg), make_store("B", reg)
    early = peer.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 100}}, "b1", "t")
    for i in range(3):
        delta(store, ACCOUNT, f"a{i}", balance=1)
    state, folded = read(store, ACCOUNT, folds)
    assert folded == 3
    assert read(store, ACCOUNT, folds) == (state, 0)
    delta(store, ACCOUNT, "a3", balance=1)  # a local commit sorts last
    assert read(store, ACCOUNT, folds)[1] == 1
    assert early.canonical_key < store.log("p0").live_events_for(ACCOUNT)[-1].canonical_key
    store.ingest_foreign("p0", early)
    assert read(store, ACCOUNT, folds) == (state, 1)
    assert state.to_snapshot() == scratch_fold(store, "p0", ACCOUNT).to_snapshot()
    assert store.rollup("p0", ACCOUNT).value["balance"] == 104


def _late_tombstone(store, peer):
    return peer.make_event(ACCOUNT, OP_TOMBSTONE, {}, "b:tombstone", "t")


def _late_copy_of_a_seen_key(store, peer):
    # sorts before the local copy of "a2", so it is the copy whose effect counts
    return peer.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 100}}, "a2", "t")


def _late_float_delta(store, peer):
    return peer.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 0.5}}, "b1", "t")


def _late_int_delta_onto_a_float_sum(store, peer):
    delta(store, ACCOUNT, "a:float", balance=0.5)
    return peer.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 1}}, "b1", "t")


def _late_second_copy_of_an_id(op, payload):
    def late(store, peer):
        store.append_event("p0", store.make_event(ACCOUNT, op, payload, "a:first", "t"))
        return peer.make_event(ACCOUNT, op, payload, "b:second", "t")

    return late


def _late_resurrecting_insert(store, peer):
    for event in store.list_history("p0", ACCOUNT)[:2]:  # the insert and the tombstone
        peer.ingest_foreign("p0", event)
    return peer.make_event(ACCOUNT, OP_INSERT, {"fields": {"owner": "bob"}}, "b:revive", "t")


@pytest.mark.parametrize(
    "late",
    [
        _late_tombstone,
        _late_copy_of_a_seen_key,
        _late_float_delta,
        _late_int_delta_onto_a_float_sum,
        _late_resurrecting_insert,
        _late_second_copy_of_an_id(OP_TENTATIVE, {"reservation_id": "r0", "quantity": 1}),
        _late_second_copy_of_an_id(OP_APOLOGY, {"apology_id": "p0"}),
        _late_second_copy_of_an_id(OP_DISCREPANCY, {"exception_id": "x0"}),
    ],
    ids=[
        "tombstone",
        "seen-key",
        "float-delta",
        "int-onto-float-sum",
        "resurrection",
        "second-tentative",
        "second-apology",
        "second-discrepancy",
    ],
)
def test_a_late_order_dependent_event_rebuilds(late, folds, scratch_fold):
    reg = make_registry()
    store, peer = make_store("A", reg), make_store("B", reg)
    store.append_event("p0", store.make_event(ACCOUNT, OP_INSERT, {"fields": {"owner": "ann"}}, "a:ins", "t"))
    store.mark_deleted("p0", ACCOUNT, "t", "a:del")
    for i in range(4):
        delta(store, ACCOUNT, f"a{i}", balance=1)
    event = late(store, peer)
    read(store, ACCOUNT, folds)
    assert event.canonical_key < store.list_history("p0", ACCOUNT)[-1].canonical_key
    store.ingest_foreign("p0", event)
    state, folded = read(store, ACCOUNT, folds)
    assert folded == len(store.log("p0").live_events_for(ACCOUNT))  # the whole log again
    assert state.to_snapshot() == scratch_fold(store, "p0", ACCOUNT).to_snapshot()


def test_float_deltas_in_opposite_orders_dump_byte_equal():
    reg = make_registry()
    events = []
    for origin, amount in (("A", 0.1), ("B", 0.2), ("C", 0.7)):
        events.append(delta(make_store(origin, reg), ACCOUNT, origin, balance=amount))
    dumps = []
    for arrival in (events, events[::-1]):
        store = make_store("X", reg)
        for event in arrival:
            store.ingest_foreign("p0", event)
            store.fold_state("p0", ACCOUNT)
        dumps.append(store.rollup("p0", ACCOUNT).canonical_dump())
    assert dumps[0] == dumps[1]


def test_summarize_drops_the_cached_fold_and_appends_fold_on_the_checkpoint(folds, scratch_fold):
    store = make_store()
    for i in range(6):
        delta(store, ACCOUNT, f"k{i}", balance=1)
    read(store, ACCOUNT, folds)
    store.summarize("p0", ACCOUNT, VersionVector({"A": 4}))
    delta(store, ACCOUNT, "k6", balance=1)
    state, folded = read(store, ACCOUNT, folds)
    assert folded == 3  # resumed from the checkpoint: only the live events
    assert state.to_snapshot() == scratch_fold(store, "p0", ACCOUNT).to_snapshot()
    assert read(store, ACCOUNT, folds) == (state, 0)
    assert store.rollup("p0", ACCOUNT).value["balance"] == 7


def test_a_read_after_import_into_a_fresh_replica_matches_the_full_fold(folds, scratch_fold):
    reg = make_registry()
    source, peer = make_store("A", reg), make_store("B", reg)
    for i in range(4):
        delta(source, ACCOUNT, f"a{i}", balance=i)
        event = delta(peer, ACCOUNT, f"b{i}", balance=10 * i)
        source.ingest_foreign("p0", event)
    clone = make_store("Z", reg)
    clone.import_partition("p0", source.export_partition("p0"))
    state, folded = read(clone, ACCOUNT, folds)
    assert folded == 8
    assert state.to_snapshot() == scratch_fold(clone, "p0", ACCOUNT).to_snapshot()
    assert read(clone, ACCOUNT, folds) == (state, 0)
    delta(source, ACCOUNT, "a4", balance=1000)
    clone.import_partition("p0", source.export_partition("p0"))
    state, folded = read(clone, ACCOUNT, folds)
    assert folded == 1
    assert state.to_snapshot() == scratch_fold(clone, "p0", ACCOUNT).to_snapshot()
    assert clone.rollup("p0", ACCOUNT).value["balance"] == 1066


def test_a_crash_drops_the_fold_cache_and_the_next_read_rebuilds(folds, scratch_fold):
    replica = Replica("A", make_registry(), ["p0"], {"account": "p0"})
    for i in range(3):
        delta(replica.store, ACCOUNT, f"k{i}", balance=2)
    before, _ = read(replica.store, ACCOUNT, folds)
    replica.crash()
    replica.recover()
    state, folded = read(replica.store, ACCOUNT, folds)
    assert state is not before and folded == 3
    assert state.to_snapshot() == scratch_fold(replica.store, "p0", ACCOUNT).to_snapshot()
    assert read(replica.store, ACCOUNT, folds) == (state, 0)


def test_a_checkpoint_of_an_entity_with_no_events_reads_the_initial_value(scratch_fold):
    store = make_store()
    delta(store, ACCOUNT, "k0", balance=5)
    store.summarize("p0", INVENTORY, store.log("p0").frontier())
    assert store.rollup("p0", INVENTORY).value == {"on_hand": 0}
    assert store.rollup("p0", INVENTORY).value == {"on_hand": 0}  # the cached read
    delta(store, INVENTORY, "i0", on_hand=3)
    assert store.rollup("p0", INVENTORY).value == {"on_hand": 3}
    assert store.fold_state("p0", INVENTORY).to_snapshot() == (
        scratch_fold(store, "p0", INVENTORY).to_snapshot()
    )


def test_a_checkpointed_empty_custom_value_stays_empty(scratch_fold):
    def counter(value, event):
        return {} if event.payload.get("clear") else {"n": value.get("n", 0) + 1}

    reg = SchemaRegistry()
    reg.register(RollupSpec("counter", MergePolicy.CUSTOM_MERGE, {"n": 100}, fold=counter))
    ref = EntityRef("counter", "c")
    store = ReplicaStore("A", reg, ["p0"], {"counter": "p0"})
    store.append_event("p0", store.make_event(ref, OP_INSERT, {"clear": True}, "k0", "t0"))
    assert store.rollup("p0", ref).value == {}
    store.summarize("p0", ref, store.log("p0").frontier())
    assert store.rollup("p0", ref).value == {}
    store.append_event("p0", store.make_event(ref, OP_INSERT, {}, "k1", "t1"))
    assert store.rollup("p0", ref).value == {"n": 1}
    assert store.fold_state("p0", ref).to_snapshot() == scratch_fold(store, "p0", ref).to_snapshot()


# -- the kept reservation view ------------------------------------------


@pytest.fixture
def view_builds(monkeypatch):
    """Counts the reservation views the engine's folds build: ``view_builds[0]``."""
    calls = [0]
    build = FoldState._build_reservation_view

    def counted(state):
        calls[0] += 1
        return build(state)

    monkeypatch.setattr(FoldState, "_build_reservation_view", counted)
    return calls


def reservation_event(store: ReplicaStore, op: str, rid: str, key: str, **extra) -> EventRecord:
    event = store.make_event(ACCOUNT, op, {"reservation_id": rid, **extra}, key, f"txn-{key}")
    store.append_event("p0", event)
    return event


def test_reads_between_local_deltas_build_the_reservation_view_once(view_builds):
    store = make_store()
    for i in range(18):
        reservation_event(store, OP_TENTATIVE, f"r{i}", f"reserve:r{i}", quantity=1)
    for i in range(100):
        delta(store, ACCOUNT, f"d{i}", balance=1)
        assert len(store.rollup("p0", ACCOUNT).value["reservations"]) == 18
    assert view_builds[0] == 1


def test_each_reservation_event_drops_the_view_and_no_other_event_does(view_builds):
    store = make_store()
    reservation_event(store, OP_TENTATIVE, "r0", "reserve:r0")
    store.rollup("p0", ACCOUNT)
    assert view_builds[0] == 1
    for builds, (op, rid, key, extra) in enumerate(
        [
            (OP_TENTATIVE, "r1", "reserve:r1", {"quantity": 2}),
            (OP_CONFIRM, "r0", "confirm:r0", {}),
            (OP_CANCEL, "r1", "cancel:r1", {"cause": "cancelled"}),
        ],
        start=2,
    ):
        reservation_event(store, op, rid, key, **extra)
        for _ in range(2):
            store.rollup("p0", ACCOUNT)
        assert view_builds[0] == builds
    view = store.fold_state("p0", ACCOUNT).reservation_view()
    assert {rid: entry["state"] for rid, entry in view.items()} == {"r0": "confirmed", "r1": "cancelled"}
    for op, payload, key in [
        (OP_DELTA, {"deltas": {"balance": 1}}, "d0"),
        (OP_INSERT, {"fields": {"owner": "ann"}}, "ins"),
        (OP_APOLOGY, {"apology_id": "p0"}, "apology"),
        (OP_DISCREPANCY, {"exception_id": "x0"}, "disc"),
        (OP_DELTA, {"deltas": {}, "resolves": "x0"}, "resolve"),
        (OP_CANCEL, {"reservation_id": "r0", "cause": "disaster"}, "cancel:r1"),  # a seen key
        (OP_TOMBSTONE, {}, "del"),
    ]:
        store.append_event("p0", store.make_event(ACCOUNT, op, payload, key, "t"))
        assert store.fold_state("p0", ACCOUNT).reservation_view() is view
        assert store.rollup("p0", ACCOUNT).value["reservations"] is view
    assert view["r0"]["state"] == "confirmed"
    assert view_builds[0] == 4


def test_a_summarized_or_rebuilt_fold_starts_without_a_view(view_builds):
    reg = make_registry()
    store, peer = make_store("A", reg), make_store("B", reg)
    early = peer.make_event(ACCOUNT, OP_TOMBSTONE, {}, "b:tombstone", "t")
    for i in range(3):
        reservation_event(store, OP_TENTATIVE, f"r{i}", f"reserve:r{i}")
    kept = store.fold_state("p0", ACCOUNT)
    view = kept.reservation_view()
    store.summarize("p0", ACCOUNT, VersionVector({"A": 2}))
    resumed = store.fold_state("p0", ACCOUNT)
    assert resumed is not kept
    assert resumed.reservation_view() == view
    assert view_builds[0] == 2
    assert early.canonical_key < store.list_history("p0", ACCOUNT)[-1].canonical_key
    store.ingest_foreign("p0", early)  # a late tombstone: the next read rebuilds
    rebuilt = store.fold_state("p0", ACCOUNT)
    assert rebuilt is not resumed and rebuilt.deleted
    assert rebuilt.reservation_view() == view
    assert view_builds[0] == 3


# -- the kept value ------------------------------------------------------


@pytest.fixture
def value_builds(monkeypatch):
    """Counts the values the engine's folds build: ``value_builds[0]``.

    The suite's cross-check folds a ``FoldState`` subclass, which is not
    counted.
    """
    calls = [0]
    build = FoldState._build_value

    def counted(state, spec):
        calls[0] += type(state) is FoldState
        return build(state, spec)

    monkeypatch.setattr(FoldState, "_build_value", counted)
    return calls


@pytest.fixture
def sorts(monkeypatch):
    """Counts the store's ``canonical_sort`` calls: ``sorts[0]``."""
    calls = [0]

    def counted(events):
        calls[0] += 1
        return canonical_sort(events)

    monkeypatch.setattr(store_module, "canonical_sort", counted)
    return calls


def append(store: ReplicaStore, op: str, payload: dict, key: str) -> EventRecord:
    event = store.make_event(ACCOUNT, op, payload, key, f"txn-{key}")
    store.append_event("p0", event)
    return event


def test_rereads_of_an_unchanged_entity_build_its_value_once(value_builds):
    store = make_store()
    delta(store, ACCOUNT, "d0", balance=5)
    first = store.rollup("p0", ACCOUNT)
    for _ in range(100):
        assert store.rollup("p0", ACCOUNT).value is first.value
    assert value_builds[0] == 1
    delta(store, ACCOUNT, "d0", balance=5)  # a redelivery: a new event id, a seen key
    again = store.rollup("p0", ACCOUNT)
    assert again.version != first.version
    assert again.value is first.value == {"balance": 5}
    assert value_builds[0] == 1
    delta(store, ACCOUNT, "d1", balance=1)
    assert store.rollup("p0", ACCOUNT).value == {"balance": 6}
    assert value_builds[0] == 2


@pytest.mark.parametrize(
    "op, payload, drops_view",
    [
        (OP_DELTA, {"deltas": {"balance": 1}}, False),
        (OP_INSERT, {"fields": {"owner": "ann"}}, False),
        (OP_TOMBSTONE, {}, False),
        (OP_DELTA, {"deltas": {}, "resolves": "x0"}, False),
        (OP_DISCREPANCY, {"exception_id": "x1"}, False),
        (OP_APOLOGY, {"apology_id": "p1"}, False),
        (OP_TENTATIVE, {"reservation_id": "r1"}, True),
        (OP_CONFIRM, {"reservation_id": "r0"}, True),
        (OP_CANCEL, {"reservation_id": "r0", "cause": "expired"}, True),
    ],
)
def test_each_rule_drops_the_value_and_only_reservation_rules_drop_the_view(op, payload, drops_view):
    store = make_store()
    append(store, OP_TENTATIVE, {"reservation_id": "r0"}, "reserve:r0")
    append(store, OP_DISCREPANCY, {"exception_id": "x0"}, "disc")
    append(store, OP_APOLOGY, {"apology_id": "p0"}, "apology")
    before = store.rollup("p0", ACCOUNT).value
    assert store.rollup("p0", ACCOUNT).value is before
    append(store, op, payload, "next")
    after = store.rollup("p0", ACCOUNT).value
    assert after is not before
    assert (after["reservations"] is not before["reservations"]) is drops_view


def test_a_read_after_one_commit_folds_it_without_sorting(folds, sorts):
    reg = make_registry()
    store, peer = make_store("A", reg), make_store("B", reg)
    early = peer.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 100}}, "b1", "t")
    for i in range(5):
        delta(store, ACCOUNT, f"a{i}", balance=1)
    assert read(store, ACCOUNT, folds)[1] == 5
    assert sorts[0] == 1
    delta(store, ACCOUNT, "a5", balance=1)
    assert read(store, ACCOUNT, folds)[1] == 1
    store.ingest_foreign("p0", early)  # one late event whose rule commutes
    assert read(store, ACCOUNT, folds)[1] == 1
    assert sorts[0] == 1
    assert store.rollup("p0", ACCOUNT).value == {"balance": 106}
    store.ingest_foreign("p0", peer.make_event(ACCOUNT, OP_TOMBSTONE, {}, "b:tombstone", "t"))
    assert read(store, ACCOUNT, folds)[1] == 8  # one late tombstone: a rebuild
    assert sorts[0] == 2


def test_a_value_read_earlier_is_unchanged_by_later_folds():
    reg = make_registry()
    store, peer = make_store("A", reg), make_store("B", reg)
    late = peer.make_event(ACCOUNT, OP_DISCREPANCY, {"exception_id": "x9", "kind": "negative"}, "b", "t")
    reads = []
    for op, payload in [
        (OP_INSERT, {"fields": {"owner": "ann"}}),
        (OP_DELTA, {"deltas": {"balance": 3}}),
        (OP_TENTATIVE, {"reservation_id": "r0", "quantity": 2}),
        (OP_DISCREPANCY, {"exception_id": "x0", "observed": {"balance": 1}}),
        (OP_APOLOGY, {"apology_id": "p0"}),
        (OP_CONFIRM, {"reservation_id": "r0"}),
        (OP_TENTATIVE, {"reservation_id": "r1"}),
        (OP_DELTA, {"deltas": {"balance": -2}, "resolves": "x0"}),
        (OP_CANCEL, {"reservation_id": "r1", "cause": "disaster"}),
        (OP_APOLOGY, {"apology_id": "p1"}),
        (OP_TOMBSTONE, {}),
    ]:
        append(store, op, payload, f"{op}:{len(reads)}")
        value = store.rollup("p0", ACCOUNT).value
        reads.append((value, copy.deepcopy(value)))
    store.ingest_foreign("p0", late)
    store.rollup("p0", ACCOUNT)
    for value, as_read in reads:
        assert value == as_read
    assert reads[2][0]["reservations"]["r0"]["state"] == "tentative"
    assert reads[3][0]["exceptions"]["x0"]["resolved"] is False


# -- property tests ------------------------------------------------------


@st.composite
def delta_batches(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    per_origin: dict[str, int] = {"A": 0, "B": 0, "C": 0}
    events = []
    for i in range(n):
        origin = draw(st.sampled_from(sorted(per_origin)))
        per_origin[origin] += 1
        amount = draw(st.integers(min_value=-50, max_value=50))
        events.append((origin, per_origin[origin], amount))
    return events


def _materialize(events, registry):
    stores = {o: make_store(o, registry) for o in ("A", "B", "C")}
    out = []
    for origin, _seq, amount in events:
        ev = stores[origin].make_event(
            ACCOUNT, OP_DELTA, {"deltas": {"balance": amount}}, f"{origin}-{_seq}", "t"
        )
        stores[origin].append_event("p0", ev)
        out.append(ev)
    return out


@settings(max_examples=100, deadline=None)
@given(delta_batches(), st.randoms(use_true_random=False))
def test_commutative_fold_is_permutation_invariant(batch, rnd):
    registry = make_registry()
    events = _materialize(batch, registry)
    shuffled = list(events)
    rnd.shuffle(shuffled)
    # per-origin order must be preserved on ingest
    shuffled.sort(key=lambda e: (e.event_id.seq,))
    base = make_store("X", registry)
    for ev in events:
        base.ingest_foreign("p0", ev)
    other = make_store("Y", registry)
    for ev in shuffled:
        other.ingest_foreign("p0", ev)
    assert (
        base.rollup("p0", ACCOUNT).canonical_dump()
        == other.rollup("p0", ACCOUNT).canonical_dump()
    )
    assert base.rollup("p0", ACCOUNT).value["balance"] == brute_balance(events, "balance")


@settings(max_examples=60, deadline=None)
@given(delta_batches(), st.integers(min_value=0, max_value=10_000))
def test_checkpoint_preserves_rollup_for_random_cuts(batch, cut_seed):
    registry = make_registry()
    events = _materialize(batch, registry)
    store = make_store("X", registry)
    for ev in events:
        store.ingest_foreign("p0", ev)
    before = store.rollup("p0", ACCOUNT).canonical_dump()
    rng = random.Random(cut_seed)
    frontier = store.log("p0").frontier()
    cut = VersionVector({r: rng.randint(0, s) for r, s in frontier.items()})
    store.summarize("p0", ACCOUNT, cut)
    assert store.rollup("p0", ACCOUNT).canonical_dump() == before


@settings(max_examples=60, deadline=None)
@given(delta_batches())
def test_prefix_reads_match_brute_force(batch):
    registry = make_registry()
    events = _materialize(batch, registry)
    store = make_store("X", registry)
    for ev in events:
        store.ingest_foreign("p0", ev)
    ordered = canonical_sort(events)
    for k in (0, len(ordered) // 2, len(ordered)):
        vv = VersionVector()
        for ev in ordered[:k]:
            vv = vv.with_entry(ev.event_id.replica, ev.event_id.seq)
        assert store.read_version("p0", ACCOUNT, vv).value["balance"] == brute_balance(
            ordered[:k], "balance"
        )


OPS = {
    OP_DELTA: st.fixed_dictionaries(
        {"deltas": st.fixed_dictionaries({"balance": st.integers(-9, 9)})},
        optional={"resolves": st.sampled_from(["x0", "x1"])},
    ),
    OP_INSERT: st.fixed_dictionaries({"fields": st.fixed_dictionaries({"owner": st.sampled_from("abc")})}),
    OP_TOMBSTONE: st.just({}),
    OP_TENTATIVE: st.fixed_dictionaries(
        {"reservation_id": st.sampled_from(["r0", "r1"]), "quantity": st.integers(1, 3)}
    ),
    OP_CONFIRM: st.fixed_dictionaries({"reservation_id": st.sampled_from(["r0", "r1"])}),
    OP_CANCEL: st.fixed_dictionaries(
        {
            "reservation_id": st.sampled_from(["r0", "r1"]),
            "cause": st.sampled_from(["cancelled", "expired", "disaster", "lost_promise"]),
        }
    ),
    OP_APOLOGY: st.fixed_dictionaries(
        {"apology_id": st.sampled_from(["p0", "p1"]), "text": st.sampled_from("xy")}
    ),
    OP_DISCREPANCY: st.fixed_dictionaries(
        {
            "exception_id": st.sampled_from(["x0", "x1"]),
            "kind": st.sampled_from(["negative", "referential_violation"]),
            "detail": st.fixed_dictionaries({"n": st.integers(0, 3)}),
        }
    ),
}


@st.composite
def entity_histories(draw):
    """Events on one entity from origins A and B, each of which sometimes
    learns the other's events first, with some idempotence keys reused."""
    reg = make_registry()
    stores = {o: make_store(o, reg) for o in "AB"}
    keys: list[str] = []
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        origin = draw(st.sampled_from("AB"))
        store = stores[origin]
        if draw(st.booleans()):
            other = stores["B" if origin == "A" else "A"]
            for event in other.log("p0").missing_for(store.log("p0").frontier()):
                store.ingest_foreign("p0", event)
        op = draw(st.sampled_from(sorted(OPS)))
        key = draw(st.sampled_from(keys)) if keys and draw(st.booleans()) else f"k{i}"
        keys.append(key)
        store.append_event("p0", store.make_event(ACCOUNT, op, draw(OPS[op]), key, "t"))
    return [e for s in stores.values() for e in s.log("p0").events if e.event_id.replica == s.replica_id]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_arrival_order_with_reads_between_folds_to_the_canonical_state(data):
    events = data.draw(entity_histories())
    arrival = data.draw(st.permutations([e.event_id.replica for e in events]))
    pending = {o: [e for e in events if e.event_id.replica == o] for o in "AB"}
    store = make_store("X")
    spec = store.registry.get("account")
    reads = []
    for origin in arrival:
        store.ingest_foreign("p0", pending[origin].pop(0))  # each origin in sequence order
        # the kept view and value, built by an earlier read or this one, are a fresh fold's
        fresh = FoldState()
        for event in store.list_history("p0", ACCOUNT):
            fresh.fold(event, spec)
        assert store.fold_state("p0", ACCOUNT).reservation_view() == fresh.reservation_view()
        value = store.rollup("p0", ACCOUNT).value
        assert value == fresh.finalize(spec)
        reads.append((value, copy.deepcopy(value)))
    for value, as_read in reads:
        assert value == as_read  # later folds left every earlier value as it was read
    reference = FoldState()
    for event in canonical_sort(events):
        reference.fold(event, spec)
    assert store.fold_state("p0", ACCOUNT).to_snapshot() == reference.to_snapshot()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("ABC"), st.integers(min_value=1, max_value=3)), max_size=30),
    st.dictionaries(st.sampled_from("ABCD"), st.integers(min_value=-4, max_value=4)),
    st.dictionaries(st.sampled_from("ABCD"), st.integers(min_value=0, max_value=40)),
)
def test_indexed_missing_for_matches_a_full_log_filter_and_sort(arrivals, offsets, absolute):
    # missing_for skips each origin the vector covers and bisects the rest:
    # it must return what a filter of the whole log by ``covers`` returns,
    # grouped by origin in id order, each origin in sequence order
    log = PartitionLog("p0")
    seqs: dict[str, int] = {}
    for origin, gap in arrivals:
        seqs[origin] = seqs.get(origin, 0) + gap
        event_id = EventId(origin, seqs[origin])
        log.append(EventRecord(event_id, ACCOUNT, OP_DELTA, {}, VersionVector(), 0, str(event_id), "t"))
    # vectors near the log's own frontier (behind it, at it, ahead of it, and
    # naming an origin the log lacks), and vectors anywhere
    near = {o: max(seqs.get(o, 0) + d, 0) for o, d in offsets.items()}
    for vector in (VersionVector(near), VersionVector(absolute), VersionVector(), log.frontier()):
        brute = [
            e for e in sorted(log.events, key=lambda e: (e.event_id.replica, e.event_id.seq))
            if not vector.covers(e.event_id.replica, e.event_id.seq)
        ]
        missing = log.missing_for(vector)
        assert [e.event_id for e in missing] == [e.event_id for e in brute]
        assert all(m is b for m, b in zip(missing, brute))


def test_canonical_order_extends_causality():
    # An event that causally follows another must sort after it.
    reg = make_registry()
    a = make_store("A", reg)
    b = make_store("B", reg)
    first = a.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 1}}, "k1", "t")
    a.append_event("p0", first)
    b.ingest_foreign("p0", first)  # B observes A's event
    second = b.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 2}}, "k2", "t")
    b.append_event("p0", second)
    assert first.causal_stamp.strictly_dominates(second.causal_stamp) is False
    assert second.causal_stamp.strictly_dominates(first.causal_stamp)
    assert first.canonical_key < second.canonical_key


def test_payload_must_not_carry_a_rollup_aggregate():
    store = make_store()
    with pytest.raises(ValueError):
        store.make_event(ACCOUNT, OP_DELTA, {"balance": 120}, "k", "t")
    # operation parameters that merely reference the field are fine
    store.make_event(ACCOUNT, OP_DELTA, {"deltas": {"balance": 120}}, "k", "t")


def test_rollup_requires_a_registered_entity_type():
    from eventual.errors import UnknownEntityType

    reg = make_registry()
    store = ReplicaStore("A", reg, ["p0"], {"mystery": "p0"})
    with pytest.raises(UnknownEntityType):
        store.rollup("p0", EntityRef("mystery", "m1"))
