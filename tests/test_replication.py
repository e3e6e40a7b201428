"""Anti-entropy, conflict resolution, overbooking, compensation."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventual.clocks import VersionVector
from eventual.errors import Uncompensatable, UnmergeableCustom
from eventual.registry import MergePolicy, RollupSpec, SchemaRegistry
from eventual.replica import Replica
from eventual.replication import (
    _Offline,
    compensation_plan,
    concurrent_groups,
    detect_overbooking,
    resolve,
    sync,
)
from eventual.store import OP_DELTA, OP_INSERT, OP_TENTATIVE, EntityRef, EventRecord, FoldState, canonical_sort
from eventual.txn import CommitBatch, commit, execute_step

from test_txn import ctx_for, step

BOOK = EntityRef("book", "moby")
ACCOUNT = EntityRef("account", "alice")
PROFILE = EntityRef("profile", "p1")


def make_registry() -> SchemaRegistry:
    reg = SchemaRegistry()
    reg.register(RollupSpec("account", MergePolicy.COMMUTATIVE_DELTA, {"balance": 0}, ("balance",)))
    reg.register(
        RollupSpec("book", MergePolicy.COMMUTATIVE_DELTA, {"on_hand": 5}, ("on_hand",), capacity_field="on_hand")
    )
    reg.register(RollupSpec("profile", MergePolicy.LWW_REGISTER))
    reg.register(RollupSpec("custom_thing", MergePolicy.CUSTOM_MERGE))
    return reg


PLACEMENT = {
    "account": "p0",
    "book": "p0",
    "profile": "p0",
    "custom_thing": "p0",
    "_exception": "p0",
    "_apology": "p0",
    "_join": "p0",
}


def make_replica(replica_id: str, registry: SchemaRegistry | None = None) -> Replica:
    return Replica(replica_id, registry or make_registry(), ["p0"], PLACEMENT)


def local_delta(replica: Replica, entity: EntityRef, key: str, **deltas):
    ev = replica.store.make_event(entity, OP_DELTA, {"deltas": deltas}, key, f"t-{key}")
    replica.store.append_event("p0", ev)
    return ev


def resolve_folded(entity: EntityRef, events, spec):
    """``resolve`` with the fold a replica holding exactly ``events`` keeps."""
    state = FoldState()
    for event in canonical_sort(events):
        state.fold(event, spec)
    return resolve(entity, events, spec, state)


def test_sync_of_identical_replicas_exchanges_nothing():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    ev = local_delta(a, ACCOUNT, "d1", balance=5)
    b.store.ingest_foreign("p0", ev)
    assert sync(a, b) == (0, 0)


def test_sync_unions_event_sets_and_rollups_match():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    local_delta(a, ACCOUNT, "d1", balance=5)
    local_delta(b, ACCOUNT, "d2", balance=7)
    to_a, to_b = sync(a, b)
    assert (to_a, to_b) == (1, 1)
    dump_a = a.store.rollup("p0", ACCOUNT).canonical_dump()
    dump_b = b.store.rollup("p0", ACCOUNT).canonical_dump()
    assert dump_a == dump_b
    assert a.store.rollup("p0", ACCOUNT).value["balance"] == 12
    assert a.frontier("p0") == b.frontier("p0")


def test_an_offline_sync_encodes_no_line_and_each_replica_holds_the_other_s_record(monkeypatch):
    # sync ships the records the logs hold: a line is first needed at export
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    made_a = local_delta(a, ACCOUNT, "d1", balance=5)
    made_b = local_delta(b, ACCOUNT, "d2", balance=7)
    encoded = []
    monkeypatch.setattr(EventRecord, "to_line", lambda event: encoded.append(event))
    assert sync(a, b) == (1, 1)
    assert encoded == []
    assert b.store.log("p0").get(made_a.event_id) is made_a
    assert a.store.log("p0").get(made_b.event_id) is made_b


def test_an_offline_host_queues_the_tasks_due_at_its_tick_and_drops_later_ones():
    # a task due at the exchange's tick waits in the one queue, after the
    # envelopes sent before it; expiries, retries and backoffs come later
    queue = deque()
    host = _Offline("A", queue)
    host.send("B", "sync_req", {"n": 1}, "e1")
    host.schedule(host.now, "consume", "p0")
    host.schedule(host.now + 1, "retry", "m1")
    host.schedule(host.now + 5, "expire", "r1")
    assert list(queue) == [
        ("A", "B", "sync_req", {"n": 1}),
        ("A", "A", None, {"kind": "consume", "detail": "p0"}),
    ]


def test_random_pairwise_gossip_converges_for_many_seeds():
    for seed in range(100):
        rng = random.Random(seed)
        reg = make_registry()
        replicas = [make_replica(r, reg) for r in ("A", "B", "C")]
        for i in range(rng.randint(3, 10)):
            who = rng.choice(replicas)
            local_delta(who, ACCOUNT, f"{who.replica_id}-k{i}", balance=rng.randint(-9, 9))
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            sync(replicas[i], replicas[j])
        dumps = {r.store.rollup("p0", ACCOUNT).canonical_dump() for r in replicas}
        fronts = {r.frontier("p0").key() for r in replicas}
        assert len(dumps) == 1, f"seed {seed} diverged"
        assert len(fronts) == 1


def test_resolve_no_concurrency_has_empty_groups():
    reg = make_registry()
    a = make_replica("A", reg)
    e1 = local_delta(a, ACCOUNT, "d1", balance=1)
    e2 = local_delta(a, ACCOUNT, "d2", balance=2)
    report = resolve_folded(ACCOUNT, [e1, e2], reg.get("account"))
    assert report.groups == []


def test_lww_concurrent_writes_tiebreak_by_replica_id():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    ea = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"x": 1}}, "ka", "t1")
    a.store.append_event("p0", ea)
    eb = b.store.make_event(PROFILE, OP_INSERT, {"fields": {"x": 2}}, "kb", "t2")
    b.store.append_event("p0", eb)
    assert ea.lww_hint == eb.lww_hint  # genuinely tied logical timestamps
    report = resolve_folded(PROFILE, [ea, eb], reg.get("profile"))
    assert report.groups == [[str(ea.event_id), str(eb.event_id)]]
    assert report.resolution["winner"] == str(eb.event_id)  # B > A
    assert report.resolution["losers"] == [str(ea.event_id)]
    # losers stay in history; the rollup shows the winner
    a.store.ingest_foreign("p0", eb)
    assert a.store.rollup("p0", PROFILE).value["x"] == 2
    assert len(a.store.list_history("p0", PROFILE)) == 2


def test_concurrent_commutative_deltas_compose_with_no_loser():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    ea = local_delta(a, ACCOUNT, "da", balance=10)
    eb = local_delta(b, ACCOUNT, "db", balance=-4)
    report = resolve_folded(ACCOUNT, [ea, eb], reg.get("account"))
    assert report.resolution == {"composed": {"balance": 6}}
    assert "winner" not in report.resolution


def test_resolution_is_a_pure_function_of_the_event_set():
    reg = make_registry()
    a, b, c = (make_replica(r, reg) for r in ("A", "B", "C"))
    events = [
        local_delta(a, ACCOUNT, "da", balance=10),
        local_delta(b, ACCOUNT, "db", balance=-4),
        local_delta(c, ACCOUNT, "dc", balance=1),
    ]
    spec = reg.get("account")
    baseline = resolve_folded(ACCOUNT, events, spec).dump()
    rng = random.Random(42)
    for _ in range(100):
        shuffled = list(events)
        rng.shuffle(shuffled)
        assert resolve_folded(ACCOUNT, shuffled, spec).dump() == baseline


def test_the_fold_names_an_insert_after_a_tombstone_and_ignores_it():
    reg = make_registry()
    a = make_replica("A", reg)
    e1 = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"x": 1}}, "k1", "t1")
    a.store.append_event("p0", e1)
    a.store.mark_deleted("p0", PROFILE, "t2")
    revive = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"x": 9}}, "k2", "t3")
    a.store.append_event("p0", revive)
    assert a.store.fold_state("p0", PROFILE).resurrections == [str(revive.event_id)]
    state = a.store.rollup("p0", PROFILE)
    assert state.deleted_flag
    assert state.value == {"x": 1}


def test_an_lww_resolution_names_the_fold_s_winner_not_a_resurrection():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    red = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "red"}}, "k-red", "t1")
    a.store.append_event("p0", red)
    green = b.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "green"}}, "k-green", "t2")
    b.store.append_event("p0", green)
    tomb = b.store.mark_deleted("p0", PROFILE, "t3")
    sync(a, b)
    blue = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "blue"}}, "k-blue", "t4")
    a.store.append_event("p0", blue)
    state = a.store.fold_state("p0", PROFILE)
    assert state.resurrections == [str(blue.event_id)]
    assert state.base_winner == green.canonical_key
    assert a.store.rollup("p0", PROFILE).value == {"color": "green"}
    report = resolve_folded(PROFILE, [red, green, tomb, blue], reg.get("profile"))
    assert report.resolution == {"winner": "B:1", "losers": ["A:1"]}


def test_an_lww_resolution_names_no_repeat_of_an_idempotence_key_as_a_loser():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    ea = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "red"}}, "k", "t1")
    a.store.append_event("p0", ea)
    eb = b.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "blue"}}, "k", "t2")
    b.store.append_event("p0", eb)
    a.store.ingest_foreign("p0", eb)
    assert a.store.rollup("p0", PROFILE).value == {"color": "red"}  # the first copy of k folds
    report = resolve_folded(PROFILE, [ea, eb], reg.get("profile"))
    assert report.groups == [["A:1", "B:1"]]
    assert report.resolution == {"winner": "A:1", "losers": []}


def test_an_lww_resolution_reads_a_fold_resumed_from_a_checkpoint():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    red = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "red"}}, "k-red", "t1")
    a.store.append_event("p0", red)
    blue = b.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "blue"}}, "k-blue", "t2")
    b.store.append_event("p0", blue)
    sync(a, b)
    a.store.summarize("p0", PROFILE, a.frontier("p0"))
    green = a.store.make_event(PROFILE, OP_INSERT, {"fields": {"color": "green"}}, "k-green", "t3")
    a.store.append_event("p0", green)
    events = a.store.log("p0").all_events_for(PROFILE)
    spec = reg.get("profile")
    report = resolve(PROFILE, events, spec, a.store.fold_state("p0", PROFILE))
    assert report.resolution == {"winner": "A:2", "losers": ["A:1", "B:1"]}
    assert report.dump() == resolve_folded(PROFILE, events, spec).dump()


def test_every_replica_names_the_lww_winner_its_rollup_shows():
    # random inserts (some repeating an idempotence key) and tombstones on
    # three replicas: after a full sync every replica's report from its
    # kept fold is the one a fold of the events in any order gives, and
    # its winner wrote the value
    spec = make_registry().get("profile")
    for seed in range(40):
        rng = random.Random(seed)
        replicas = [make_replica(r) for r in ("A", "B", "C")]
        for i in range(rng.randint(2, 8)):
            who = rng.choice(replicas)
            if rng.random() < 0.2 and who.store.log("p0").all_events_for(PROFILE):
                who.store.mark_deleted("p0", PROFILE, f"t{i}")
            else:
                key = rng.choice(["k0", "k1", f"k{i}"])
                event = who.store.make_event(PROFILE, OP_INSERT, {"fields": {"n": i}}, key, f"t{i}")
                who.store.append_event("p0", event)
            if rng.random() < 0.5:
                sync(*rng.sample(replicas, 2))
        for x, y in ((0, 1), (1, 2), (0, 1)):
            sync(replicas[x], replicas[y])
        dumps = set()
        for replica in replicas:
            events = replica.store.log("p0").all_events_for(PROFILE)
            state = replica.store.fold_state("p0", PROFILE)
            report = resolve(PROFILE, events, spec, state)
            assert report.dump() == resolve_folded(PROFILE, rng.sample(events, len(events)), spec).dump()
            dumps.add(report.dump())
            if report.resolution:
                winner = next(e for e in events if str(e.event_id) == report.resolution["winner"])
                assert replica.store.rollup("p0", PROFILE).value["n"] == winner.payload["fields"]["n"]
                assert report.resolution["winner"] not in report.resolution["losers"]
                assert not set(report.resolution["losers"]) & set(state.resurrections)
        assert len(dumps) == 1, f"seed {seed}"


def test_custom_merge_without_hook_escalates_on_concurrency():
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    ref = EntityRef("custom_thing", "c1")
    ea = a.store.make_event(ref, OP_INSERT, {"fields": {"x": 1}}, "ka", "t1")
    a.store.append_event("p0", ea)
    eb = b.store.make_event(ref, OP_INSERT, {"fields": {"x": 2}}, "kb", "t2")
    b.store.append_event("p0", eb)
    with pytest.raises(UnmergeableCustom):
        resolve_folded(ref, [ea, eb], reg.get("custom_thing"))
    # sequential writes on a custom type are fine
    resolve_folded(ref, [ea], reg.get("custom_thing"))


# -- concurrency groups ----------------------------------------------------


def pairwise_groups(events):
    """Reference: union-find over every concurrent pair, in canonical order."""
    ordered = canonical_sort(events)
    parent = list(range(len(ordered)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if ordered[i].causal_stamp.concurrent_with(ordered[j].causal_stamp):
                parent[find(i)] = find(j)
    components = {}
    for i, event in enumerate(ordered):
        components.setdefault(find(i), []).append(str(event.event_id))
    return [ids for ids in components.values() if len(ids) > 1]


def gossip_history(replicas, moves, entities):
    """Apply (writer, entity) writes and ("sync", a, b) exchanges in order."""
    for i, move in enumerate(moves):
        if move[0] == "sync":
            sync(replicas[move[1] % len(replicas)], replicas[move[2] % len(replicas)])
        else:
            who = replicas[move[0] % len(replicas)]
            local_delta(who, entities[move[1] % len(entities)], f"{who.replica_id}-w{i}", balance=1)


MOVES = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 3), st.integers(0, 2)),
        st.tuples(st.just("sync"), st.integers(0, 3), st.integers(0, 3)),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=4), MOVES)
def test_concurrent_groups_match_the_pairwise_reference(n_replicas, moves):
    reg = make_registry()
    replicas = [make_replica(r, reg) for r in "ABCD"[:n_replicas]]
    entities = [ACCOUNT, EntityRef("account", "bob"), EntityRef("account", "carol")]
    gossip_history(replicas, moves, entities)
    for replica in replicas:
        for entity in entities:
            events = replica.store.log("p0").all_events_for(entity)
            assert concurrent_groups(canonical_sort(events)) == pairwise_groups(events)


def test_concurrent_groups_work_grows_linearly(monkeypatch):
    calls = [0]
    dominates = VersionVector.dominates

    def counted(self, other):
        calls[0] += 1
        return dominates(self, other)

    monkeypatch.setattr(VersionVector, "dominates", counted)

    def work(n_events):
        rng = random.Random(11)
        reg = make_registry()
        replicas = [make_replica(r, reg) for r in "ABC"]
        moves = []
        for i in range(n_events):
            moves.append((rng.randrange(3), 0))
            if i % 8 == 7:
                moves.append(("sync", *rng.sample(range(3), 2)))
        gossip_history(replicas, moves, [ACCOUNT])
        for i in range(1, 3):
            sync(replicas[0], replicas[i])
        ordered = canonical_sort(replicas[0].store.log("p0").all_events_for(ACCOUNT))
        assert len(ordered) == n_events
        calls[0] = 0
        groups = concurrent_groups(ordered)
        count = calls[0]
        assert groups == pairwise_groups(ordered) and groups
        return count

    small, large = work(500), work(1000)
    assert 0 < large <= 2.2 * small


# -- overbooking -----------------------------------------------------------


def brute_force_losers(events, capacity):
    """Oracle: canonical-order fold, counting reservations past capacity."""
    used = 0
    losers = set()
    for ev in canonical_sort(events):
        q = ev.payload["quantity"]
        if used + q <= capacity:
            used += q
        else:
            losers.add(ev.payload["reservation_id"])
    return losers


def partitioned_reservations(n_a: int, n_b: int):
    reg = make_registry()
    a, b = make_replica("A", reg), make_replica("B", reg)
    events = []
    for i in range(n_a):
        o = execute_step(
            step("res", {"kind": "reserve", "entity": "book/moby", "reservation_id": f"rA{i}", "deadline": 900}),
            ctx_for(a, f"actA{i}"),
        )
        events.extend(o.appended_events)
    for i in range(n_b):
        o = execute_step(
            step("res", {"kind": "reserve", "entity": "book/moby", "reservation_id": f"rB{i}", "deadline": 900}),
            ctx_for(b, f"actB{i}"),
        )
        events.extend(o.appended_events)
    to_a, to_b = sync(a, b)  # the partition heals
    # b also receives the cancels a's merge made
    assert to_a == n_b and to_b == n_a + len(cancelled(a))
    return reg, a, b, events


def cancelled(replica: Replica) -> set[str]:
    view = replica.store.fold_state("p0", BOOK).reservation_view()
    return {rid for rid, entry in view.items() if entry["state"] == "cancelled"}


def test_no_apologies_at_exactly_capacity():
    reg, a, b, events = partitioned_reservations(3, 2)  # 5 accepted, capacity 5
    state = a.store.rollup("p0", BOOK)
    assert detect_overbooking(state.value, reg.get("book")) == []
    assert cancelled(a) == cancelled(b) == set()


def test_partitioned_four_plus_four_yields_three_losers():
    reg, a, b, events = partitioned_reservations(4, 4)
    oracle = brute_force_losers(events, 5)
    assert len(oracle) == max(0, 8 - 5) == 3
    for replica in (a, b):
        # the merge cancelled the oracle's losers, so none is left to find
        assert cancelled(replica) == oracle
        state = replica.store.rollup("p0", BOOK)
        assert detect_overbooking(state.value, reg.get("book")) == []


def test_loser_selection_is_latest_in_canonical_order():
    reg, a, b, events = partitioned_reservations(4, 4)
    ordered = canonical_sort(events)
    keep = {e.payload["reservation_id"] for e in ordered[:5]}
    assert cancelled(a) == cancelled(b) == {e.payload["reservation_id"] for e in ordered} - keep


def test_entities_without_capacity_never_have_losers():
    reg = make_registry()
    a = make_replica("A", reg)
    local_delta(a, ACCOUNT, "d1", balance=-1000)
    state = a.store.rollup("p0", ACCOUNT)
    assert detect_overbooking(state.value, reg.get("account")) == []


# -- compensation ------------------------------------------------------------


def test_compensating_a_deposit_appends_the_inverse_withdrawal():
    reg = make_registry()
    a = make_replica("A", reg)
    outcome = execute_step(
        step("dep", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 100}}),
        ctx_for(a, "act1"),
    )
    plan = compensation_plan(a, outcome.txn_id)
    assert len(plan.event_drafts) == 1
    ref, op, payload, key = plan.event_drafts[0]
    assert op == OP_DELTA and payload["deltas"] == {"balance": -100}
    ev = a.store.make_event(ref, op, payload, key, "comp-txn")
    a.store.append_event("p0", ev)
    assert a.store.rollup("p0", ACCOUNT).value["balance"] == 0


def test_compensation_is_idempotent_per_txn():
    reg = make_registry()
    a = make_replica("A", reg)
    outcome = execute_step(
        step("dep", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 100}}),
        ctx_for(a, "act1"),
    )
    for round_no in range(2):
        plan = compensation_plan(a, outcome.txn_id)
        for i, (ref, op, payload, key) in enumerate(plan.event_drafts):
            batch = CommitBatch(txn_id=f"comp{round_no}:{i}", session="sys")
            batch.events = [a.store.make_event(ref, op, payload, key, batch.txn_id)]
            commit(a, batch)
    # second run appended a duplicate-keyed event; the fold counts it once
    assert a.store.rollup("p0", ACCOUNT).value["balance"] == 0


def test_irreversible_operations_are_uncompensatable():
    reg = make_registry()
    a = make_replica("A", reg)
    outcome = execute_step(
        step(
            "launch",
            {"kind": "delta", "entity": "account/alice", "deltas": {"balance": -1}, "irreversible": True},
        ),
        ctx_for(a, "act1"),
    )
    with pytest.raises(Uncompensatable):
        compensation_plan(a, outcome.txn_id)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8), st.data())
def test_compensation_inverse_property_on_random_histories(amounts, data):
    reg = make_registry()
    a = make_replica("A", reg)
    txns = []
    for i, amount in enumerate(amounts):
        o = execute_step(
            step("dep", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": amount}}),
            ctx_for(a, f"act{i}"),
        )
        txns.append(o.txn_id)
    pick = data.draw(st.integers(min_value=0, max_value=len(amounts) - 1))
    plan = compensation_plan(a, txns[pick])
    for i, (ref, op, payload, key) in enumerate(plan.event_drafts):
        batch = CommitBatch(txn_id=f"c{i}", session="sys")
        batch.events = [a.store.make_event(ref, op, payload, key, batch.txn_id)]
        commit(a, batch)
    expected = sum(amounts) - amounts[pick]
    assert a.store.rollup("p0", ACCOUNT).value["balance"] == expected
