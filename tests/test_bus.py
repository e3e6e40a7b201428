"""Outbox/inbox queues: transactional enqueue, idempotent consumption."""

from __future__ import annotations

import pytest

from eventual import bus
from eventual.bus import Inbox, Outbox, ProcessedKeySet, QueueMessage
from eventual.errors import OutsideTransaction
from eventual.txn import CommitBatch, ProcessStepDef, StepContext, TriggerSpec, execute_step

from test_txn import ctx_for, make_replica, step


def msg(message_id: str, key: str | None = None, partition: str = "p0") -> QueueMessage:
    return QueueMessage(
        message_id=message_id,
        destination=("A", partition),
        msg_type="thing.happened",
        payload={"n": 1},
        idempotence_key=key or message_id,
        enqueue_stamp=0,
        sender="B",
    )


def test_enqueue_requires_an_open_batch():
    with pytest.raises(OutsideTransaction):
        bus.enqueue(None, [msg("m1")])
    closed = CommitBatch(txn_id="t", session="s", open=False)
    with pytest.raises(OutsideTransaction):
        bus.enqueue(closed, [msg("m1")])


def test_committed_step_lands_messages_in_outbox():
    replica = make_replica()
    outcome = execute_step(
        step(
            "ping",
            {
                "kind": "delta",
                "entity": "account/alice",
                "deltas": {"balance": 1},
                "emit": [
                    {"type": "a.happened", "payload": {}},
                    {"type": "b.happened", "payload": {}},
                ],
            },
        ),
        ctx_for(replica, "act1"),
    )
    assert outcome.status == "committed"
    assert len(replica.outbox) == 2


def test_rolled_back_step_leaves_outbox_unchanged():
    replica = make_replica()
    outcome = execute_step(
        step(
            "guarded",
            {
                "kind": "delta",
                "entity": "account/alice",
                "deltas": {"balance": -5},
                "guard": {"field": "balance", "min": 0},
                "emit": [{"type": "a.happened", "payload": {}}],
            },
        ),
        ctx_for(replica, "act1"),
    )
    assert outcome.status == "rolled_back"
    assert len(replica.outbox) == 0


def test_consume_next_empty_inbox_is_none():
    assert bus.consume_next(make_replica(), "p0") is None


def test_consume_next_skips_processed_duplicates_silently():
    replica = make_replica()
    replica.inbox.add(msg("m1", key="K"))
    first = bus.consume_next(replica, "p0")
    assert first is not None and first.message_id == "m1"
    replica.processed.add("K")
    replica.inbox.remove("m1")
    # redelivery of the same key: acknowledged, never handed out again
    replica.inbox.add(msg("m1-redelivery", key="K"))
    assert bus.consume_next(replica, "p0") is None
    assert len(replica.inbox) == 0


def test_consume_next_is_partition_scoped():
    replica = make_replica()
    replica.inbox.add(msg("m1", partition="p1"))
    assert bus.consume_next(replica, "p0") is None
    got = bus.consume_next(replica, "p1")
    assert got is not None and got.message_id == "m1"


def test_inbox_may_hold_duplicate_copies():
    inbox = Inbox()
    original = msg("m1")
    first = inbox.add(original)
    second = inbox.add(original)
    assert first.delivery_count == 1
    assert second.delivery_count == 2
    assert len(inbox) == 2
    inbox.remove("m1")
    assert len(inbox) == 0


def test_a_message_is_an_immutable_record():
    original = msg("m1")
    with pytest.raises(AttributeError):
        original.delivery_count = 3
    assert msg("m1") == original != msg("m2")
    copy = original.delivered(2)
    assert copy.delivery_count == 2 and original.delivery_count == 0
    assert copy._replace(delivery_count=0) == original


def test_outbox_collapses_reemissions_of_the_same_logical_send():
    replica = make_replica()
    batch1 = CommitBatch(txn_id="t1", session="s")
    bus.enqueue(batch1, [msg("t1:m0", key="K")])
    from eventual.txn import commit

    commit(replica, batch1)
    batch2 = CommitBatch(txn_id="t2", session="s")
    bus.enqueue(batch2, [msg("t2:m0", key="K")])  # crash-replay re-emission
    commit(replica, batch2)
    assert len(replica.outbox) == 1


def test_acking_one_of_two_messages_marks_only_that_one():
    outbox = Outbox()
    first, second = msg("t1:m0"), msg("t1:m1")
    outbox.add(first)
    outbox.add(second)
    outbox.mark_acked("t1:m1")
    assert [entry.acked for entry in outbox.entries] == [False, True]
    assert outbox.get("t1:m1") is outbox.entries[1]
    assert [entry.message for entry in outbox.pending()] == [first]


def test_acking_an_unknown_message_id_changes_nothing():
    outbox = Outbox()
    outbox.add(msg("t1:m0"))
    outbox.mark_acked("t9:m0")
    assert outbox.get("t9:m0") is None
    assert [entry.acked for entry in outbox.entries] == [False]


def test_crash_between_dequeue_and_commit_redelivers_for_one_net_effect():
    # the dequeue is only a durable-inbox read; removal and key marking ride
    # the consuming step's commit batch, so a crash in between re-exposes it
    replica = make_replica()
    incoming = msg("m1", key="K")
    replica.inbox.add(incoming)

    selected = bus.consume_next(replica, "p0")
    assert selected is not None
    replica.crash()  # in-flight selection is volatile and vanishes
    replica.recover()

    redelivered = bus.consume_next(replica, "p0")
    assert redelivered is not None and redelivered.message_id == "m1"
    from eventual.txn import execute_step
    from test_txn import ctx_for, step

    ctx = ctx_for(replica, redelivered.idempotence_key)
    ctx.consume_marker = (redelivered.message_id, redelivered.idempotence_key)
    outcome = execute_step(
        step("apply", {"kind": "delta", "entity": "account/alice", "deltas": {"balance": 1}}), ctx
    )
    assert outcome.status == "committed"
    assert bus.consume_next(replica, "p0") is None
    from eventual.store import EntityRef

    assert replica.store.rollup("p0", EntityRef("account", "alice")).value["balance"] == 1
