"""Log, rollup, tombstone, checkpoint, and history behavior."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventual.clocks import VersionVector
from eventual.errors import DuplicateEventId, FutureVersion, UnknownEntity, WrongPartition
from eventual.registry import MergePolicy, RollupSpec, SchemaRegistry
from eventual.store import (
    OP_DELTA,
    OP_INSERT,
    OP_TOMBSTONE,
    EntityRef,
    EventRecord,
    FoldState,
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
    from eventual.errors import LockedEntity

    with pytest.raises(LockedEntity):
        store.summarize("p0", ACCOUNT, store.log("p0").frontier())


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
