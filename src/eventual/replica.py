"""Replica state: one node's durable storage plus volatile execution state.

Durable (survives a crash): partition logs, outbox, inbox, processed-key
set, pending-action descriptors and their completion marks, and the
records of what the engine decided here.
Volatile (lost on crash): the logical lock table, the store's fold cache
and anything scheduled; locks are re-derived from unapplied descriptors
during recovery, folds on the next read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bus import Inbox, Outbox, ProcessedKeySet
from .errors import LockConflict
from .registry import SchemaRegistry
from .store import EntityRef, ReplicaStore


@dataclass
class LogicalLock:
    entity_ref: EntityRef
    owner_session: str
    holding_txn_id: str


class LockTable:
    """Replica-local logical locks; never replicated.

    A held lock blocks other sessions, never the owning session.
    """

    def __init__(self) -> None:
        self._held: dict[EntityRef, list[LogicalLock]] = {}

    def acquire(self, entity_ref: EntityRef, session: str, txn_id: str) -> LogicalLock:
        for lock in self._held.get(entity_ref, []):
            if lock.owner_session != session:
                raise LockConflict(f"{entity_ref} held by session {lock.owner_session}")
        lock = LogicalLock(entity_ref, session, txn_id)
        self._held.setdefault(entity_ref, []).append(lock)
        return lock

    def blocked(self, entity_ref: EntityRef, session: str) -> bool:
        locks = self._held.get(entity_ref)
        return locks is not None and any(l.owner_session != session for l in locks)

    def is_locked(self, entity_ref: EntityRef) -> bool:
        return bool(self._held.get(entity_ref))

    def release_txn(self, txn_id: str) -> None:
        for ref in list(self._held):
            remaining = [l for l in self._held[ref] if l.holding_txn_id != txn_id]
            if remaining:
                self._held[ref] = remaining
            else:
                del self._held[ref]

    def clear(self) -> None:
        self._held.clear()

    def holders(self) -> list[LogicalLock]:
        return [l for locks in self._held.values() for l in locks]


class Record(NamedTuple):
    """One decision the engine took on a replica at ``tick`` that no event
    shows: a refused or rejected step, a skipped action, an unmatched
    message, a compensation that could not run in full. ``detail`` maps
    names to JSON values."""

    tick: int
    kind: str
    detail: dict


class Replica:
    """One node: hosts a set of partitions and executes steps serially."""

    def __init__(
        self,
        replica_id: str,
        registry: SchemaRegistry,
        partitions: list[str],
        placement: dict[str, str],
    ):
        self.replica_id = replica_id
        self.registry = registry
        self.store = ReplicaStore(replica_id, registry, partitions, placement)
        self.outbox = Outbox()
        self.inbox = Inbox()
        self.processed = ProcessedKeySet()
        self.descriptors: dict[str, object] = {}
        self.action_completions: set[str] = set()
        self.descriptors_done: set[str] = set()
        self.records: list[Record] = []
        self.locks = LockTable()
        self.store.lock_guard = self.locks.is_locked

        self.alive = True
        self.epoch = 0  # bumped on crash; stale scheduled work is skipped
        self._txn_counter = 0
        self.commit_times: list[int] = []
        # gets each durable batch; the replica's node records it for its
        # reactions (a simulator's crash point records it, then raises)
        self.on_commit: Callable[[object], None] | None = None

    def next_txn_id(self, session: str) -> str:
        self._txn_counter += 1
        return f"{self.replica_id}:{session}:{self._txn_counter}"

    def record(self, tick: int, kind: str, **detail) -> None:
        """Write down a decision taken here; records are durable."""
        self.records.append(Record(tick, kind, detail))

    def crash(self) -> None:
        """Lose volatile state. Durable structures stay intact."""
        self.alive = False
        self.epoch += 1
        self.locks.clear()
        self.store.clear_fold_cache()

    def recover(self) -> None:
        self.alive = True

    def unapplied_descriptors(self) -> list:
        return [
            d for txn_id, d in sorted(self.descriptors.items())
            if txn_id not in self.descriptors_done
        ]

    def partitions_hosted(self) -> list[str]:
        return sorted(self.store.partitions)

    def frontier(self, partition_id: str):
        return self.store.log(partition_id).frontier()
