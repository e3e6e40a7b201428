"""Step execution: one transaction per step, one entity per transaction."""

from __future__ import annotations

import pytest

from eventual.errors import (
    AlreadyTerminal,
    LockConflict,
    MultiEntityWriteRejected,
    UnknownReservation,
)
from eventual.registry import MergePolicy, ParentConstraint, RollupSpec, SchemaRegistry
from eventual.replica import Replica
from eventual.store import EntityRef
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


def test_guard_rejection_rolls_back_but_audit_survives():
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
    assert replica.audit_log and replica.audit_log[0]["audit"] == "step_rejected"


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
