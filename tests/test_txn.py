"""Step execution: one transaction per step, one entity per transaction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventual import store as store_module
from eventual.clocks import VersionVector
from eventual.errors import (
    AlreadyTerminal,
    LockConflict,
    MultiEntityWriteRejected,
    UnknownReservation,
)
from eventual.registry import MergePolicy, ParentConstraint, RollupSpec, SchemaRegistry
from eventual.replica import Record, Replica
from eventual.store import EntityRef, ReplicaStore
from eventual.txn import (
    CommitBatch,
    ProcessStepDef,
    StepContext,
    TriggerSpec,
    apply_pending_actions,
    commit,
    execute_step,
)

ACCOUNT = EntityRef("account", "alice")
TOTAL = EntityRef("invoice_total", "inv1")


def make_registry() -> SchemaRegistry:
    reg = SchemaRegistry()
    reg.register(RollupSpec("account", MergePolicy.COMMUTATIVE_DELTA, {"balance": 0}, ("balance",)))
    reg.register(RollupSpec("invoice_line", MergePolicy.COMMUTATIVE_DELTA))
    reg.register(RollupSpec("invoice_total", MergePolicy.COMMUTATIVE_DELTA, {"total": 0}, ("total",)))
    reg.register(
        RollupSpec("book", MergePolicy.COMMUTATIVE_DELTA, {"on_hand": 5}, ("on_hand",), capacity_field="on_hand")
    )
    reg.register(RollupSpec("customer", MergePolicy.LWW_REGISTER))
    reg.register(
        RollupSpec(
            "opportunity",
            MergePolicy.LWW_REGISTER,
            parents=(ParentConstraint("customer_id", "customer"),),
        )
    )
    reg.register(RollupSpec("employee", MergePolicy.LWW_REGISTER))
    reg.register(RollupSpec("responsibility", MergePolicy.LWW_REGISTER))
    return reg


PLACEMENT = {
    "account": "p0",
    "invoice_line": "p0",
    "invoice_total": "p0",
    "book": "p0",
    "customer": "p0",
    "opportunity": "p0",
    "employee": "p0",
    "responsibility": "p0",
    "_exception": "p0",
    "_apology": "p0",
    "_join": "p0",
}


def make_replica(replica_id: str = "A") -> Replica:
    return Replica(replica_id, make_registry(), ["p0"], PLACEMENT)


def ctx_for(replica: Replica, base: str, session: str = "s1", payload: dict | None = None) -> StepContext:
    return StepContext(replica=replica, now=1, session=session, payload=payload or {}, idempotence_base=base)


def step(step_id: str, handler: dict) -> ProcessStepDef:
    return ProcessStepDef(step_id, TriggerSpec((step_id,)), handler)


def test_minimal_deposit_step_commits_one_event():
    replica = make_replica()
    outcome = execute_step(
        step("deposit", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 100}}),
        ctx_for(replica, "act1"),
    )
    assert outcome.status == "committed"
    assert len(outcome.appended_events) == 1
    assert outcome.enqueued_messages == []
    assert replica.store.rollup("p0", ACCOUNT).value["balance"] == 100


def test_two_entity_write_is_rejected_with_zero_events():
    replica = make_replica()
    with pytest.raises(MultiEntityWriteRejected):
        execute_step(
            step("bad", {"kind": "multi_write", "entities": ["account/alice", "account/bob"]}),
            ctx_for(replica, "act1"),
        )
    assert replica.store.log("p0").events == []


def test_the_one_entity_rule_names_the_refs_as_text():
    replica = make_replica()
    named = r"\['account/alice', 'account/bob'\]"
    with pytest.raises(MultiEntityWriteRejected, match=f"bad plans writes on {named}"):
        execute_step(
            step("bad", {"kind": "multi_write", "entities": ["account/bob", "account/alice"]}),
            ctx_for(replica, "act1"),
        )
    events = [
        replica.store.make_event(ref, "delta", {"deltas": {"balance": 1}}, f"k{i}", "t1")
        for i, ref in enumerate([EntityRef("account", "bob"), ACCOUNT])
    ]
    with pytest.raises(MultiEntityWriteRejected, match=f"^{named}$"):
        commit(replica, CommitBatch(txn_id="t1", session="s1", events=events))
    assert replica.store.log("p0").events == []


def test_a_direct_two_entity_commit_applies_nothing_of_the_batch():
    replica = make_replica()
    commits = []
    replica.on_commit = lambda batch: commits.append(1)
    store = replica.store
    events = [
        store.make_event(ACCOUNT, "delta", {"deltas": {"balance": 1}}, "k0", "t1"),
        store.make_event(ACCOUNT, "delta", {"deltas": {"balance": 2}}, "k1", "t1"),
        store.make_event(EntityRef("account", "bob"), "delta", {"deltas": {"balance": 3}}, "k2", "t1"),
    ]
    batch = CommitBatch(
        txn_id="t1", session="s1", events=events, processed_key="key", lock_scope=[ACCOUNT]
    )
    with pytest.raises(MultiEntityWriteRejected):
        commit(replica, batch)
    assert store.log("p0").events == []
    assert not replica.locks.is_locked(ACCOUNT)
    assert "key" not in replica.processed
    assert replica.commit_times == [] and commits == []
    # two events on one entity are one entity's batch
    commit(replica, CommitBatch(txn_id="t2", session="s1", events=events[:2]))
    assert store.log("p0").events == events[:2] and commits == [1]


def test_one_delta_step_routes_twice_and_copies_the_frontier_once(monkeypatch):
    """Work counters of one local write: ``make_event`` and ``commit`` each
    route the entity once; the stamp is the one version vector built (each
    wraps a fresh copy of the frontier dict); ``canon`` copies the payload
    dict and its one nested dict, not the leaf."""
    replica = make_replica()
    counts = {"route": 0, "vector": 0, "canon": 0}
    route, of, canon = ReplicaStore.route, VersionVector._of.__func__, store_module.canon

    def counted(name, original):
        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    monkeypatch.setattr(ReplicaStore, "route", counted("route", route))
    monkeypatch.setattr(VersionVector, "_of", classmethod(counted("vector", of)))
    monkeypatch.setattr(store_module, "canon", counted("canon", canon))
    outcome = execute_step(
        step("deposit", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 5}}),
        ctx_for(replica, "act1"),
    )
    assert outcome.status == "committed"
    assert counts == {"route": 2, "vector": 1, "canon": 2}


TWO_PARTITIONS = {**PLACEMENT, "customer": "p1"}
_writes = st.tuples(
    st.sampled_from(["local", "foreign"]), st.sampled_from(["account", "customer"]), st.integers(0, 2)
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_writes, max_size=24))
def test_a_local_write_stamps_the_pre_write_frontier_with_its_own_entry_raised(ops):
    """Interleaved local writes on A and ingests of B's writes, on two
    partitions: each local event's stamp is its partition's frontier before
    the write with A's entry raised to the event's sequence number."""
    replica = Replica("A", make_registry(), ["p0", "p1"], TWO_PARTITIONS)
    peer = ReplicaStore("B", make_registry(), ["p0", "p1"], TWO_PARTITIONS)
    for i, (where, entity_type, key) in enumerate(ops):
        ref = EntityRef(entity_type, f"k{key}")
        partition = TWO_PARTITIONS[entity_type]
        if entity_type == "account":
            handler = {"kind": "delta", "entity": str(ref), "deltas": {"balance": i}}
            op, payload = "delta", {"deltas": {"balance": i}}
        else:
            handler = {"kind": "insert", "entity": str(ref), "fields": {"n": i}}
            op, payload = "insert", {"fields": {"n": i}}
        if where == "foreign":
            event = peer.make_event(ref, op, payload, f"b{i}", "tb")
            peer.append_event(partition, event)
            assert replica.store.ingest_foreign(partition, event)
            continue
        before = replica.frontier(partition)
        other = replica.frontier("p1" if partition == "p0" else "p0")
        outcome = execute_step(step("write", handler), ctx_for(replica, f"a{i}"))
        (event,) = outcome.appended_events
        assert event.event_id.seq > before.get("A")
        assert event.causal_stamp == before.with_entry("A", event.event_id.seq)
        assert replica.frontier(partition) == event.causal_stamp
        assert replica.frontier("p1" if partition == "p0" else "p0") == other


def test_guard_rejection_rolls_back_but_its_record_survives():
    replica = make_replica()
    outcome = execute_step(
        step(
            "withdraw",
            {
                "kind": "delta",
                "entity": "account/alice",
                "deltas": {"balance": -50},
                "guard": {"field": "balance", "min": 0},
            },
        ),
        ctx_for(replica, "act1"),
    )
    assert outcome.status == "rolled_back"
    assert outcome.appended_events == []
    assert outcome.enqueued_messages == []
    assert replica.store.log("p0").events == []
    assert len(replica.outbox) == 0
    assert replica.records == [
        Record(1, "guard_failed", {"step": "withdraw", "base": "act1",
                                   "reason": "guard failed: balance would be -50"})
    ]


def test_replaying_a_batch_leaves_the_log_byte_identical():
    replica = make_replica()
    outcome = execute_step(
        step("deposit", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 10}}),
        ctx_for(replica, "act1"),
    )
    before = replica.store.export_partition("p0")
    replay = CommitBatch(txn_id=outcome.txn_id, session="s1", events=list(outcome.appended_events))
    commit(replica, replay)
    assert replica.store.export_partition("p0") == before


def test_deferred_aggregate_lags_then_applies_exactly_once():
    replica = make_replica()
    outcome = execute_step(
        step(
            "line",
            {
                "kind": "delta",
                "entity": "invoice_line/l1",
                "deltas": {"amount": 25},
                "deferred": [{"entity": "invoice_total/inv1", "deltas": {"total": 25}}],
            },
        ),
        ctx_for(replica, "act1"),
    )
    descriptor = outcome.pending_descriptor
    assert descriptor is not None
    # between commit and apply the aggregate is stale
    assert replica.store.rollup("p0", TOTAL).value["total"] == 0
    apply_pending_actions(replica, descriptor)
    assert replica.store.rollup("p0", TOTAL).value["total"] == 25
    apply_pending_actions(replica, descriptor)  # re-invocation is a no-op
    assert replica.store.rollup("p0", TOTAL).value["total"] == 25


def test_logical_lock_blocks_other_sessions_until_actions_complete():
    replica = make_replica()
    outcome = execute_step(
        step(
            "line",
            {
                "kind": "delta",
                "entity": "invoice_line/l1",
                "deltas": {"amount": 25},
                "deferred": [{"entity": "invoice_total/inv1", "deltas": {"total": 25}}],
            },
        ),
        ctx_for(replica, "act1", session="s1"),
    )
    # owner session is never blocked: reads work, and its own step commits
    assert replica.store.rollup("p0", TOTAL).value["total"] == 0
    execute_step(
        step("own", {"kind": "delta", "entity": "invoice_total/inv1", "deltas": {}}),
        ctx_for(replica, "act2", session="s1"),
    )
    # another session is deferred with LockConflict
    with pytest.raises(LockConflict):
        execute_step(
            step("other", {"kind": "delta", "entity": "invoice_total/inv1", "deltas": {"total": 1}}),
            ctx_for(replica, "act3", session="s2"),
        )
    apply_pending_actions(replica, outcome.pending_descriptor)
    # lock released: the other session can now commit
    execute_step(
        step("other", {"kind": "delta", "entity": "invoice_total/inv1", "deltas": {"total": 1}}),
        ctx_for(replica, "act3", session="s2"),
    )
    assert replica.store.rollup("p0", TOTAL).value["total"] == 26


def test_lock_reacquire_by_same_session_is_reentrant():
    replica = make_replica()
    replica.locks.acquire(ACCOUNT, "s1", "t1")
    replica.locks.acquire(ACCOUNT, "s1", "t2")  # no conflict
    with pytest.raises(LockConflict):
        replica.locks.acquire(ACCOUNT, "s2", "t3")
    replica.locks.release_txn("t1")
    assert replica.locks.is_locked(ACCOUNT)  # t2 still holds
    replica.locks.release_txn("t2")
    assert not replica.locks.is_locked(ACCOUNT)


def test_referential_check_opens_exception_only_when_parent_missing():
    replica = make_replica()
    outcome = execute_step(
        step(
            "opp",
            {"kind": "insert", "entity": "opportunity/o1", "fields": {"customer_id": "c9", "value": 10}},
        ),
        ctx_for(replica, "act1"),
    )
    descriptor = outcome.pending_descriptor
    assert descriptor is not None and descriptor.actions[0].kind == "referential_check"
    report = apply_pending_actions(replica, descriptor)
    assert report["exceptions"] == ["refviol:opportunity/o1:customer/c9"]
    state = replica.store.rollup("p0", EntityRef("opportunity", "o1"))
    exc = state.value["exceptions"]["refviol:opportunity/o1:customer/c9"]
    assert exc["kind"] == "referential_violation" and not exc["resolved"]

    # with the parent present, no exception opens
    execute_step(
        step("cust", {"kind": "insert", "entity": "customer/c2", "fields": {"name": "Ada"}}),
        ctx_for(replica, "act2"),
    )
    outcome2 = execute_step(
        step(
            "opp",
            {"kind": "insert", "entity": "opportunity/o2", "fields": {"customer_id": "c2"}},
        ),
        ctx_for(replica, "act3"),
    )
    report2 = apply_pending_actions(replica, outcome2.pending_descriptor)
    assert report2["exceptions"] == []


def test_reserve_then_confirm_lifecycle():
    replica = make_replica()
    execute_step(
        step(
            "reserve",
            {"kind": "reserve", "entity": "book/moby", "reservation_id": "r1", "quantity": 2, "deadline": 50},
        ),
        ctx_for(replica, "act1"),
    )
    view = replica.store.rollup("p0", EntityRef("book", "moby")).value["reservations"]
    assert view["r1"]["state"] == "tentative" and view["r1"]["quantity"] == 2

    execute_step(
        step("confirm", {"kind": "confirm", "entity": "book/moby", "reservation_id": "r1"}),
        ctx_for(replica, "act2"),
    )
    view = replica.store.rollup("p0", EntityRef("book", "moby")).value["reservations"]
    assert view["r1"]["state"] == "confirmed"

    # double confirm: idempotent success, no new events
    before = len(replica.store.log("p0").events)
    outcome = execute_step(
        step("confirm", {"kind": "confirm", "entity": "book/moby", "reservation_id": "r1"}),
        ctx_for(replica, "act3"),
    )
    assert outcome.status == "committed"
    assert len(replica.store.log("p0").events) == before


def test_confirm_unknown_and_terminal_reservations():
    replica = make_replica()
    with pytest.raises(UnknownReservation):
        execute_step(
            step("confirm", {"kind": "confirm", "entity": "book/moby", "reservation_id": "nope"}),
            ctx_for(replica, "act1"),
        )
    execute_step(
        step(
            "reserve",
            {"kind": "reserve", "entity": "book/moby", "reservation_id": "r1", "deadline": 5},
        ),
        ctx_for(replica, "act2"),
    )
    execute_step(
        step("cancel", {"kind": "cancel", "entity": "book/moby", "reservation_id": "r1", "cause": "expired"}),
        ctx_for(replica, "act3"),
    )
    with pytest.raises(AlreadyTerminal) as exc:
        execute_step(
            step("confirm", {"kind": "confirm", "entity": "book/moby", "reservation_id": "r1"}),
            ctx_for(replica, "act4"),
        )
    assert exc.value.state == "expired"


def test_employee_transfer_fans_out_single_entity_steps():
    # the transfer writes one entity and emits one message per responsibility;
    # each downstream step writes exactly one responsibility entity
    replica = make_replica()
    responsibilities = ["resp-1", "resp-2", "resp-3"]
    transfer = execute_step(
        step(
            "transfer",
            {
                "kind": "insert",
                "entity": "employee/e1",
                "fields": {"department": "sales"},
                "emit": [
                    {"type": "reassign_responsibility", "payload": {"resp": r}} for r in responsibilities
                ],
            },
        ),
        ctx_for(replica, "act1"),
    )
    assert len(transfer.enqueued_messages) == len(responsibilities)
    outcomes = [transfer]
    for msg in transfer.enqueued_messages:
        outcomes.append(
            execute_step(
                step(
                    "reassign",
                    {
                        "kind": "insert",
                        "entity_type": "responsibility",
                        "key_from": "resp",
                        "fields_from": "resp_fields",
                    },
                ),
                ctx_for(replica, msg.idempotence_key, payload=dict(msg.payload, resp_fields={"owner": "e2"})),
            )
        )
    for outcome in outcomes:
        written = {str(e.entity_ref) for e in outcome.appended_events}
        assert len(written) == 1  # no transaction ever spans two entities


def test_back_to_back_conflicting_commits_both_succeed():
    # solipsistic commits: no validation against the other session's write;
    # the rollup shows the canonical-order winner
    replica = make_replica()
    for session, color in (("s1", "red"), ("s2", "blue")):
        outcome = execute_step(
            step("set", {"kind": "insert", "entity": "customer/c1", "fields": {"color": color}}),
            ctx_for(replica, f"act-{session}", session=session),
        )
        assert outcome.status == "committed"
    history = replica.store.list_history("p0", EntityRef("customer", "c1"))
    assert len(history) == 2  # both writes are durable
    assert replica.store.rollup("p0", EntityRef("customer", "c1")).value["color"] == "blue"
