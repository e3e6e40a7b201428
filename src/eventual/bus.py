"""Transactional local queues connecting process steps.

The outbox is written only inside a commit batch; the inbox is drained
only by the owning replica. Transport between them is at-least-once (the
sending node retries until acknowledged), so messages are deduplicated by
idempotence key on arrival: the inbox holds one message per key, and a
key already processed is not queued again. At-least-once delivery plus
that idempotent consumer yields exactly-once effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutsideTransaction


class QueueMessage(NamedTuple):
    """One message: a trigger notification or an event hand-off; an
    immutable tuple."""

    message_id: str
    destination: tuple[str, str]  # (replica_id, partition_id)
    msg_type: str
    payload: dict
    idempotence_key: str
    enqueue_stamp: int
    sender: str = ""


@dataclass
class OutboxEntry:
    message: QueueMessage
    acked: bool = False
    attempts: int = 0


class Outbox:
    """Durable send queue; an entry exists iff its producing batch committed.

    ``entries`` keeps the order of addition. Entries are also indexed by
    idempotence key and by message id; a message id is unique, since it is
    made from a transaction id, which a replica never reuses. The unacked
    entries are kept apart, in the order of addition, so ``pending`` costs
    what is unacked; every ack goes through ``mark_acked``.
    """

    def __init__(self) -> None:
        self.entries: list[OutboxEntry] = []
        self._by_key: dict[str, OutboxEntry] = {}
        self._by_id: dict[str, OutboxEntry] = {}
        self._unacked: dict[str, OutboxEntry] = {}  # message id -> entry

    def add(self, message: QueueMessage) -> bool:
        """Add one message; re-emissions of the same logical send collapse."""
        if message.idempotence_key in self._by_key:
            return False
        entry = OutboxEntry(message)
        self.entries.append(entry)
        self._by_key[message.idempotence_key] = entry
        self._by_id[message.message_id] = entry
        self._unacked[message.message_id] = entry
        return True

    def get(self, message_id: str) -> OutboxEntry | None:
        return self._by_id.get(message_id)

    def mark_acked(self, message_id: str) -> None:
        entry = self._unacked.pop(message_id, None)
        if entry is not None:
            entry.acked = True

    def pending(self) -> list[OutboxEntry]:
        """The unacked entries, in the order of addition."""
        return list(self._unacked.values())

    def for_txn(self, txn_id: str) -> list[QueueMessage]:
        return [e.message for e in self.entries if e.message.message_id.startswith(f"{txn_id}:")]

    def __len__(self) -> int:
        return len(self.entries)


class Inbox:
    """Durable arrival queue: one message per idempotence key, in arrival
    order (``arrivals``, key -> message)."""

    def __init__(self) -> None:
        self.arrivals: dict[str, QueueMessage] = {}

    def add(self, message: QueueMessage) -> bool:
        """Queue one message; a second one with a queued key is dropped."""
        if message.idempotence_key in self.arrivals:
            return False
        self.arrivals[message.idempotence_key] = message
        return True

    def remove(self, key: str) -> None:
        """Drop the message of this idempotence key (it has been consumed)."""
        self.arrivals.pop(key, None)

    def __len__(self) -> int:
        return len(self.arrivals)


class ProcessedKeySet(dict):
    """Consumed idempotence keys for one replica, each mapped to the txn id
    that consumed it (None: acknowledged without a transaction).

    A key in the set means redeliveries are acknowledged and not queued,
    so the handler never runs twice. Never pruned at desk scale; pruning
    would be a retention-watermark knob.
    """

    def add(self, key: str, txn_id: str | None = None) -> None:
        self[key] = txn_id


def enqueue(batch, messages: list[QueueMessage]) -> None:
    """Stage messages on an open commit batch.

    They become durable in the outbox iff the batch commits.
    """
    if batch is None or not getattr(batch, "open", False):
        raise OutsideTransaction("enqueue requires an open commit batch")
    batch.messages.extend(messages)


def consume_next(replica, partition_id: str) -> QueueMessage | None:
    """The first queued inbox message for (replica, partition), or None.

    It stays in the inbox until the commit batch that marks its key
    processed removes it, so a crash before that commit re-exposes it.
    """
    return next((m for m in replica.inbox.arrivals.values() if m.destination[1] == partition_id), None)
