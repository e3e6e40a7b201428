"""Transactional local queues connecting process steps.

The outbox is written only inside a commit batch; the inbox is drained
only by the owning replica. Transport between them is at-least-once (the
simulator's network retries until acknowledged), so consumers deduplicate
by idempotence key: at-least-once delivery plus an idempotent consumer
yields exactly-once effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutsideTransaction


class QueueMessage(NamedTuple):
    """One message: a trigger notification or an event hand-off.

    An immutable tuple; ``delivered`` returns a copy.
    """

    message_id: str
    destination: tuple[str, str]  # (replica_id, partition_id)
    msg_type: str
    payload: dict
    idempotence_key: str
    enqueue_stamp: int
    sender: str = ""
    delivery_count: int = 0

    def delivered(self, count: int) -> QueueMessage:
        return self._replace(delivery_count=count)


@dataclass
class OutboxEntry:
    message: QueueMessage
    acked: bool = False
    attempts: int = 0


class Outbox:
    """Durable send queue; an entry exists iff its producing batch committed.

    ``entries`` keeps the order of addition. Entries are also indexed by
    idempotence key and by message id; a message id is unique, since it is
    made from a transaction id, which a replica never reuses.
    """

    def __init__(self) -> None:
        self.entries: list[OutboxEntry] = []
        self._by_key: dict[str, OutboxEntry] = {}
        self._by_id: dict[str, OutboxEntry] = {}

    def add(self, message: QueueMessage) -> bool:
        """Add one message; re-emissions of the same logical send collapse."""
        if message.idempotence_key in self._by_key:
            return False
        entry = OutboxEntry(message)
        self.entries.append(entry)
        self._by_key[message.idempotence_key] = entry
        self._by_id[message.message_id] = entry
        return True

    def get(self, message_id: str) -> OutboxEntry | None:
        return self._by_id.get(message_id)

    def mark_acked(self, message_id: str) -> None:
        entry = self._by_id.get(message_id)
        if entry is not None:
            entry.acked = True

    def pending(self) -> list[OutboxEntry]:
        return [e for e in self.entries if not e.acked]

    def for_txn(self, txn_id: str) -> list[QueueMessage]:
        return [e.message for e in self.entries if e.message.message_id.startswith(f"{txn_id}:")]

    def __len__(self) -> int:
        return len(self.entries)


class Inbox:
    """Durable arrival queue; may hold duplicate copies of one message."""

    def __init__(self) -> None:
        self.arrivals: list[QueueMessage] = []
        self._arrival_counts: dict[str, int] = {}

    def add(self, message: QueueMessage) -> QueueMessage:
        count = self._arrival_counts.get(message.message_id, 0) + 1
        self._arrival_counts[message.message_id] = count
        copy = message.delivered(count)
        self.arrivals.append(copy)
        return copy

    def remove(self, message_id: str) -> None:
        """Drop every copy of the message (it has been fully consumed)."""
        self.arrivals = [m for m in self.arrivals if m.message_id != message_id]

    def __len__(self) -> int:
        return len(self.arrivals)


class ProcessedKeySet:
    """Consumed idempotence keys for one replica.

    A key in the set means redeliveries are acknowledged silently with no
    second handler execution. Never pruned at desk scale; pruning would be
    a retention-watermark knob.
    """

    def __init__(self) -> None:
        self.keys: set[str] = set()

    def __contains__(self, key: str) -> bool:
        return key in self.keys

    def add(self, key: str) -> None:
        self.keys.add(key)

    def __len__(self) -> int:
        return len(self.keys)


def enqueue(batch, messages: list[QueueMessage]) -> None:
    """Stage messages on an open commit batch.

    They become durable in the outbox iff the batch commits.
    """
    if batch is None or not getattr(batch, "open", False):
        raise OutsideTransaction("enqueue requires an open commit batch")
    batch.messages.extend(messages)


def consume_next(replica, partition_id: str) -> QueueMessage | None:
    """Next unprocessed inbox message for (replica, partition), or None.

    Duplicates of already-processed keys are acknowledged and dropped here;
    the returned message stays in the inbox until the consuming step's
    commit batch removes it and marks the key, so a crash before that
    commit re-exposes the message.
    """
    inbox: Inbox = replica.inbox
    processed: ProcessedKeySet = replica.processed
    while True:
        candidate = None
        for message in inbox.arrivals:
            if message.destination[1] == partition_id:
                candidate = message
                break
        if candidate is None:
            return None
        if candidate.idempotence_key in processed:
            inbox.remove(candidate.message_id)
            continue
        return candidate
