"""Per-replica, per-partition insert-only event logs with rollup-as-read.

Nothing in the engine ever stores current state as authoritative data:
every write is an immutable event describing an operation, and reads fold
an entity's events (in a canonical, replica-independent order) into a
value. Deletes are tombstones, history survives everything, and
summarization produces checkpoints that reproduce the full-log rollup
exactly.

Canonical fold order is (lww_hint, origin_replica, sequence). The lww
hint is maintained as a Lamport clock (bumped past every hint a replica
observes), so a causal predecessor always carries a smaller hint and the
sort is a topological extension of the causal partial order. Concurrent
events land in a deterministic, replica-independent position.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .clocks import VersionVector
from .errors import (
    DuplicateEventId,
    FutureVersion,
    LockedEntity,
    SequenceGap,
    UnknownEntity,
    WrongPartition,
)
from .registry import MergePolicy, RollupSpec, SchemaRegistry

OP_INSERT = "insert"
OP_DELTA = "delta"
OP_TOMBSTONE = "tombstone"
OP_TENTATIVE = "tentative"
OP_CONFIRM = "confirm"
OP_CANCEL = "cancel"
OP_APOLOGY = "apology"
OP_DISCREPANCY = "discrepancy"

# Reservation states, weakest to strongest. When concurrent lifecycle
# events disagree, the strongest state wins, which makes the derived
# state a join-semilattice: insensitive to fold order and checkpoint cuts.
# Confirmed outranks expired: an expiry is only ever issued by a replica
# that has not seen the confirm, and a promise confirmed by the deadline
# is honored.
RESERVATION_PRECEDENCE = ("tentative", "expired", "confirmed", "cancelled", "abrogated")

# cancel-event cause -> derived reservation state
_CANCEL_STATE = {
    "expired": "expired",
    "disaster": "abrogated",
    "lost_promise": "abrogated",
}


def canon(obj):
    """Recursively sort dict keys so serialized forms are byte-stable."""
    if isinstance(obj, dict):
        return {k: canon(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


@dataclass(frozen=True)
class EventId:
    replica: str
    seq: int

    def __str__(self) -> str:
        return f"{self.replica}:{self.seq}"

    @classmethod
    def parse(cls, text: str) -> EventId:
        replica, _, seq = text.rpartition(":")
        return cls(replica, int(seq))


@dataclass(frozen=True)
class EntityRef:
    entity_type: str
    key: str

    def __str__(self) -> str:
        return f"{self.entity_type}/{self.key}"

    @classmethod
    def parse(cls, text: str) -> EntityRef:
        entity_type, _, key = text.partition("/")
        return cls(entity_type, key)


@dataclass(frozen=True, eq=False)
class EventRecord:
    """Immutable description of one operation.

    The payload holds the parameters of the business action (the deposit
    amount, the reserved quantity), never the resulting state.
    """

    event_id: EventId
    entity_ref: EntityRef
    op_kind: str
    payload: dict
    causal_stamp: VersionVector
    lww_hint: int
    idempotence_key: str
    origin_txn_id: str

    @property
    def canonical_key(self) -> tuple[int, str, int]:
        return (self.lww_hint, self.event_id.replica, self.event_id.seq)

    def to_line(self) -> str:
        """One-line archival form, fields in fixed canonical order."""
        return json.dumps(
            {
                "event_id": str(self.event_id),
                "entity_ref": str(self.entity_ref),
                "op_kind": self.op_kind,
                "payload": canon(self.payload),
                "causal_stamp": self.causal_stamp.to_dict(),
                "lww_hint": self.lww_hint,
                "idempotence_key": self.idempotence_key,
                "origin_txn_id": self.origin_txn_id,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_line(cls, line: str) -> EventRecord:
        raw = json.loads(line)
        return cls(
            event_id=EventId.parse(raw["event_id"]),
            entity_ref=EntityRef.parse(raw["entity_ref"]),
            op_kind=raw["op_kind"],
            payload=canon(raw["payload"]),
            causal_stamp=VersionVector.from_dict(raw["causal_stamp"]),
            lww_hint=raw["lww_hint"],
            idempotence_key=raw["idempotence_key"],
            origin_txn_id=raw["origin_txn_id"],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventRecord):
            return NotImplemented
        return self.to_line() == other.to_line()


def canonical_sort(events: list[EventRecord]) -> list[EventRecord]:
    return sorted(events, key=lambda e: e.canonical_key)


@dataclass
class EntityState:
    """Derived value: a pure function of (rollup spec, event set)."""

    entity_ref: EntityRef
    value: dict
    version: VersionVector
    deleted_flag: bool = False

    def canonical_dump(self) -> str:
        return json.dumps(
            {
                "entity": str(self.entity_ref),
                "value": canon(self.value),
                "version": self.version.to_dict(),
                "deleted": self.deleted_flag,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass
class Checkpoint:
    """Summarized prefix of an entity's log.

    Folding the live events on top of ``summarized_value`` reproduces
    the full-log rollup exactly; the covered events become eligible for
    archival export.
    """

    entity_ref: EntityRef
    summarized_value: dict  # FoldState snapshot, not a bare value
    covers_up_to: VersionVector


class FoldState:
    """Incremental fold accumulator for one entity.

    Every rule here is insensitive to the order events are folded in
    beyond the canonical sort of each batch, and a snapshot taken at any
    version-vector cut resumes exactly. That is what makes checkpoints
    lossless and replicas convergent.
    """

    def __init__(self) -> None:
        self.version = VersionVector()
        self.seen_keys: set[str] = set()
        self.deleted = False
        self.tombstone_stamps: list[VersionVector] = []
        self.base_winner: tuple[int, str, int] | None = None
        self.base_fields: dict = {}
        self.sums: dict[str, float] = {}
        self.reservations: dict[str, dict] = {}
        self.exceptions: dict[str, dict] = {}
        self.apologies: dict[str, dict] = {}
        self.resurrections: list[str] = []
        self.custom_value: dict | None = None
        self.folded_count = 0

    # -- folding ---------------------------------------------------------

    def fold(self, event: EventRecord, spec: RollupSpec) -> None:
        self.version = self.version.with_entry(event.event_id.replica, event.event_id.seq)
        if event.idempotence_key in self.seen_keys:
            return  # redelivered logical action: effect applies once
        self.seen_keys.add(event.idempotence_key)
        self.folded_count += 1

        if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is not None:
            if self.custom_value is None:
                self.custom_value = dict(spec.initial_value)
            self.custom_value = spec.fold(self.custom_value, event)
            return

        op = event.op_kind
        if op == OP_TOMBSTONE:
            self.deleted = True
            self.tombstone_stamps.append(event.causal_stamp)
        elif op == OP_INSERT:
            if self._is_resurrection(event):
                self.resurrections.append(event.idempotence_key)
                return
            self._take_base(event, arrival_wins=spec.merge_policy is MergePolicy.ARRIVAL_LWW)
        elif op == OP_DELTA:
            for f, d in event.payload.get("deltas", {}).items():
                self.sums[f] = self.sums.get(f, 0) + d
            resolves = event.payload.get("resolves")
            if resolves is not None:
                entry = self.exceptions.setdefault(resolves, {"kind": "unknown", "detail": {}})
                entry["resolved"] = True
        elif op == OP_TENTATIVE:
            self._fold_tentative(event)
        elif op in (OP_CONFIRM, OP_CANCEL):
            self._fold_lifecycle(event)
        elif op == OP_APOLOGY:
            aid = event.payload["apology_id"]
            if aid not in self.apologies:
                self.apologies[aid] = dict(event.payload)
        elif op == OP_DISCREPANCY:
            exc = event.payload["exception_id"]
            entry = self.exceptions.setdefault(exc, {"resolved": False})
            entry["kind"] = event.payload.get("kind", "discrepancy")
            entry["detail"] = event.payload.get("detail", {})
            entry["observed"] = event.payload.get("observed", {})
            entry["expected"] = event.payload.get("expected", {})

    def _is_resurrection(self, event: EventRecord) -> bool:
        return any(event.causal_stamp.strictly_dominates(t) for t in self.tombstone_stamps)

    def _take_base(self, event: EventRecord, arrival_wins: bool = False) -> None:
        key = event.canonical_key
        if arrival_wins or self.base_winner is None or key > self.base_winner:
            self.base_winner = key
            self.base_fields = dict(event.payload.get("fields", {}))

    def _fold_tentative(self, event: EventRecord) -> None:
        rid = event.payload["reservation_id"]
        entry = self.reservations.setdefault(rid, {"ops": {}})
        entry.setdefault("quantity", event.payload.get("quantity", 1))
        entry.setdefault("deadline", event.payload.get("deadline"))
        entry.setdefault("terms", event.payload.get("terms", {}))
        order = list(event.canonical_key)
        if "order" not in entry or order < entry["order"]:
            entry["order"] = order
        entry["ops"].setdefault("tentative", order)

    def _fold_lifecycle(self, event: EventRecord) -> None:
        rid = event.payload["reservation_id"]
        entry = self.reservations.setdefault(rid, {"ops": {}})
        key = list(event.canonical_key)
        if event.op_kind == OP_CONFIRM:
            entry["ops"].setdefault("confirm", key)
            return
        cause = event.payload.get("cause", "cancelled")
        state = _CANCEL_STATE.get(cause, "cancelled")
        existing = entry["ops"].get(state)
        if existing is None or key < existing:
            entry["ops"][state] = key
            entry.setdefault("causes", {})[state] = cause

    # -- finalization ----------------------------------------------------

    @staticmethod
    def reservation_state(entry: dict) -> str:
        state = "tentative" if "tentative" in entry["ops"] else "unknown"
        for candidate in RESERVATION_PRECEDENCE[1:]:
            op = "confirm" if candidate == "confirmed" else candidate
            if op in entry["ops"]:
                state = candidate
        return state

    def reservation_view(self) -> dict:
        view = {}
        for rid in sorted(self.reservations):
            entry = self.reservations[rid]
            state = self.reservation_state(entry)
            causes = entry.get("causes", {})
            view[rid] = {
                "quantity": entry.get("quantity", 1),
                "deadline": entry.get("deadline"),
                "state": state,
                "order": entry.get("order"),
                "cause": causes.get(state),
            }
        return view

    def finalize(self, spec: RollupSpec) -> dict:
        if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is not None:
            value = dict(self.custom_value if self.custom_value is not None else spec.initial_value)
        elif spec.merge_policy in (MergePolicy.LWW_REGISTER, MergePolicy.ARRIVAL_LWW):
            value = dict(spec.initial_value)
            value.update(self.base_fields)
        else:
            value = dict(spec.initial_value)
            value.update(self.base_fields)
            for f, d in self.sums.items():
                value[f] = value.get(f, 0) + d
        if self.reservations:
            value["reservations"] = self.reservation_view()
        if self.exceptions:
            value["exceptions"] = {k: dict(v) for k, v in sorted(self.exceptions.items())}
        if self.apologies:
            value["apologies"] = {k: dict(v) for k, v in sorted(self.apologies.items())}
        return value

    # -- snapshots (checkpoint payload) -----------------------------------

    def to_snapshot(self) -> dict:
        return canon(
            {
                "version": self.version.to_dict(),
                "seen_keys": sorted(self.seen_keys),
                "deleted": self.deleted,
                "tombstone_stamps": [t.to_dict() for t in self.tombstone_stamps],
                "base_winner": list(self.base_winner) if self.base_winner else None,
                "base_fields": self.base_fields,
                "sums": self.sums,
                "reservations": self.reservations,
                "exceptions": self.exceptions,
                "apologies": self.apologies,
                "resurrections": self.resurrections,
                "custom_value": self.custom_value,
                "folded_count": self.folded_count,
            }
        )

    @classmethod
    def from_snapshot(cls, snap: dict) -> FoldState:
        st = cls()
        st.version = VersionVector.from_dict(snap["version"])
        st.seen_keys = set(snap["seen_keys"])
        st.deleted = snap["deleted"]
        st.tombstone_stamps = [VersionVector.from_dict(t) for t in snap["tombstone_stamps"]]
        bw = snap["base_winner"]
        st.base_winner = (bw[0], bw[1], bw[2]) if bw else None
        st.base_fields = dict(snap["base_fields"])
        st.sums = dict(snap["sums"])
        st.reservations = {
            rid: {
                **{k: v for k, v in entry.items() if k != "ops"},
                "ops": {k: list(v) for k, v in entry["ops"].items()},
            }
            for rid, entry in snap["reservations"].items()
        }
        st.exceptions = {k: dict(v) for k, v in snap["exceptions"].items()}
        st.apologies = {k: dict(v) for k, v in snap["apologies"].items()}
        st.resurrections = list(snap["resurrections"])
        st.custom_value = dict(snap["custom_value"]) if snap["custom_value"] else None
        st.folded_count = snap["folded_count"]
        return st


class PartitionLog:
    """Insert-only event log for one partition on one replica."""

    def __init__(self, partition_id: str):
        self.partition_id = partition_id
        self.events: list[EventRecord] = []
        self._by_id: dict[EventId, EventRecord] = {}
        self._live_by_entity: dict[EntityRef, list[EventRecord]] = {}
        self._max_seq: dict[str, int] = {}
        self.checkpoints: dict[EntityRef, Checkpoint] = {}
        self.archived: dict[EntityRef, list[EventRecord]] = {}

    def __contains__(self, event_id: EventId) -> bool:
        return event_id in self._by_id

    def append(self, event: EventRecord) -> int:
        """Append one event; returns its position in arrival order."""
        origin = event.event_id.replica
        seq = event.event_id.seq
        if event.event_id in self._by_id:
            raise DuplicateEventId(str(event.event_id))
        if seq <= self._max_seq.get(origin, 0):
            raise SequenceGap(f"{event.event_id} arrived after {origin}:{self._max_seq[origin]}")
        self._max_seq[origin] = seq
        self.events.append(event)
        self._by_id[event.event_id] = event
        self._live_by_entity.setdefault(event.entity_ref, []).append(event)
        return len(self.events) - 1

    def frontier(self) -> VersionVector:
        return VersionVector(dict(self._max_seq))

    def get(self, event_id: EventId) -> EventRecord:
        return self._by_id[event_id]

    def live_events_for(self, entity_ref: EntityRef) -> list[EventRecord]:
        return list(self._live_by_entity.get(entity_ref, []))

    def all_events_for(self, entity_ref: EntityRef) -> list[EventRecord]:
        return self.archived.get(entity_ref, []) + self.live_events_for(entity_ref)

    def entity_refs(self) -> list[EntityRef]:
        refs = set(self._live_by_entity) | set(self.archived)
        return sorted(refs, key=str)

    def missing_for(self, remote_frontier: VersionVector) -> list[EventRecord]:
        """Events the remote lacks, in per-origin sequence order."""
        out = [
            e
            for e in self.events
            if e.event_id.seq > remote_frontier.get(e.event_id.replica)
        ]
        out.sort(key=lambda e: (e.event_id.replica, e.event_id.seq))
        return out

    def archive_covered(self, entity_ref: EntityRef, up_to: VersionVector) -> list[EventRecord]:
        """Move live events covered by up_to into the archive for entity_ref."""
        live = self._live_by_entity.get(entity_ref, [])
        covered = [e for e in live if up_to.covers(e.event_id.replica, e.event_id.seq)]
        if covered:
            retained = [e for e in live if not up_to.covers(e.event_id.replica, e.event_id.seq)]
            self._live_by_entity[entity_ref] = retained
            self.archived.setdefault(entity_ref, []).extend(covered)
        return covered


class EventFactory:
    """Allocates event identity for one replica.

    Sequence numbers are a single monotone counter per replica; lww hints
    are a Lamport clock bumped past every observed hint.
    """

    def __init__(self, replica_id: str):
        self.replica_id = replica_id
        self.seq = 0
        self.lamport = 0

    def observe(self, lww_hint: int) -> None:
        self.lamport = max(self.lamport, lww_hint)

    def make_event(
        self,
        frontier: VersionVector,
        entity_ref: EntityRef,
        op_kind: str,
        payload: dict,
        idempotence_key: str,
        origin_txn_id: str,
    ) -> EventRecord:
        self.seq += 1
        self.lamport += 1
        return EventRecord(
            event_id=EventId(self.replica_id, self.seq),
            entity_ref=entity_ref,
            op_kind=op_kind,
            payload=canon(payload),
            causal_stamp=frontier.with_entry(self.replica_id, self.seq),
            lww_hint=self.lamport,
            idempotence_key=idempotence_key,
            origin_txn_id=origin_txn_id,
        )


class ReplicaStore:
    """All partition logs hosted by one replica, plus the read machinery."""

    def __init__(
        self,
        replica_id: str,
        registry: SchemaRegistry,
        partitions: list[str],
        placement: dict[str, str],
    ):
        self.replica_id = replica_id
        self.registry = registry
        self.partitions: dict[str, PartitionLog] = {p: PartitionLog(p) for p in partitions}
        self.placement = dict(placement)
        self.factory = EventFactory(replica_id)
        self.lock_guard = None  # set by the txn engine; callable(entity_ref) -> bool

    # -- routing ---------------------------------------------------------

    def route(self, entity_ref: EntityRef) -> str:
        try:
            partition = self.placement[entity_ref.entity_type]
        except KeyError:
            raise WrongPartition(f"no placement for entity type {entity_ref.entity_type!r}") from None
        if partition not in self.partitions:
            raise WrongPartition(f"replica {self.replica_id} does not host partition {partition!r}")
        return partition

    def log(self, partition_id: str) -> PartitionLog:
        try:
            return self.partitions[partition_id]
        except KeyError:
            raise WrongPartition(f"replica {self.replica_id} does not host {partition_id!r}") from None

    # -- writes ----------------------------------------------------------

    def make_event(
        self,
        entity_ref: EntityRef,
        op_kind: str,
        payload: dict,
        idempotence_key: str,
        origin_txn_id: str,
    ) -> EventRecord:
        partition = self.route(entity_ref)
        self.registry.validate_payload(entity_ref.entity_type, payload)
        return self.factory.make_event(
            self.log(partition).frontier(), entity_ref, op_kind, payload, idempotence_key, origin_txn_id
        )

    def append_event(self, partition_id: str, event: EventRecord) -> int:
        """Append to the addressed partition; raises on misrouting."""
        if self.route(event.entity_ref) != partition_id:
            raise WrongPartition(
                f"{event.entity_ref} does not belong to partition {partition_id!r}"
            )
        position = self.log(partition_id).append(event)
        self.factory.observe(event.lww_hint)
        return position

    def ingest_foreign(self, partition_id: str, event: EventRecord) -> bool:
        """Append an event learned from a peer; duplicate ids are fine."""
        try:
            self.append_event(partition_id, event)
            return True
        except DuplicateEventId:
            return False

    def mark_deleted(self, partition_id: str, entity_ref: EntityRef, txn_id: str,
                     idempotence_key: str | None = None) -> EventRecord:
        """Append a tombstone; history remains fully readable."""
        log = self.log(partition_id)
        if not log.all_events_for(entity_ref):
            raise UnknownEntity(str(entity_ref))
        event = self.make_event(
            entity_ref,
            OP_TOMBSTONE,
            {},
            idempotence_key or f"{txn_id}:tombstone",
            txn_id,
        )
        self.append_event(partition_id, event)
        return event

    # -- reads -----------------------------------------------------------

    def rollup(
        self,
        partition_id: str,
        entity_ref: EntityRef,
        as_of: VersionVector | None = None,
    ) -> EntityState:
        """Fold the entity's events (<= as_of, or all) into its state."""
        spec = self.registry.get(entity_ref.entity_type)
        state = self.fold_state(partition_id, entity_ref, as_of)
        return EntityState(entity_ref, state.finalize(spec), state.version, state.deleted)

    def read_version(
        self,
        partition_id: str,
        entity_ref: EntityRef,
        version: VersionVector,
    ) -> EntityState:
        """Pure historical read at an explicit version vector."""
        frontier = self.log(partition_id).frontier()
        if not frontier.dominates(version):
            raise FutureVersion(f"requested {version!r} beyond frontier {frontier!r}")
        return self.rollup(partition_id, entity_ref, as_of=version)

    def fold_state(
        self,
        partition_id: str,
        entity_ref: EntityRef,
        as_of: VersionVector | None = None,
    ) -> FoldState:
        """The one fold: reads, checkpoints and scans all come through here.

        Resumes from the checkpoint when as_of reaches it, keeps the events
        <= as_of (or all), and folds them in canonical order. The
        ARRIVAL_LWW negative control folds in arrival order instead, which
        diverges across replicas by construction, and never resumes.
        """
        spec = self.registry.get(entity_ref.entity_type)
        log = self.log(partition_id)
        arrival_order = spec.merge_policy is MergePolicy.ARRIVAL_LWW
        checkpoint = None if arrival_order else log.checkpoints.get(entity_ref)
        if checkpoint is not None and (as_of is None or as_of.dominates(checkpoint.covers_up_to)):
            state = FoldState.from_snapshot(checkpoint.summarized_value)
            events = log.live_events_for(entity_ref)
        else:
            state = FoldState()
            events = log.all_events_for(entity_ref)
        if as_of is not None:
            events = [e for e in events if as_of.covers(e.event_id.replica, e.event_id.seq)]
        for event in events if arrival_order else canonical_sort(events):
            state.fold(event, spec)
        return state

    def list_history(self, partition_id: str, entity_ref: EntityRef) -> list[EventRecord]:
        """All events for the entity in canonical order (archived included)."""
        return canonical_sort(self.log(partition_id).all_events_for(entity_ref))

    # -- summarization and archival ---------------------------------------

    def summarize(
        self,
        partition_id: str,
        entity_ref: EntityRef,
        up_to: VersionVector,
    ) -> Checkpoint:
        """Checkpoint the entity's log prefix; rollup output is unchanged."""
        log = self.log(partition_id)
        if not log.frontier().dominates(up_to):
            raise FutureVersion(f"summarize beyond frontier: {up_to!r}")
        if self.lock_guard is not None and self.lock_guard(entity_ref):
            raise LockedEntity(str(entity_ref))
        previous = log.checkpoints.get(entity_ref)
        if previous is not None:
            # a checkpoint only moves forward: events it archived stay covered
            up_to = up_to.merge(previous.covers_up_to)
        state = self.fold_state(partition_id, entity_ref, as_of=up_to)
        checkpoint = Checkpoint(entity_ref, state.to_snapshot(), up_to)
        log.checkpoints[entity_ref] = checkpoint
        log.archive_covered(entity_ref, up_to)
        return checkpoint

    def export_partition(self, partition_id: str) -> list[str]:
        """Archival export: one event per line, re-ingestable losslessly."""
        log = self.log(partition_id)
        events = sorted(log.events, key=lambda e: (e.event_id.replica, e.event_id.seq))
        return [e.to_line() for e in events]

    def import_partition(self, partition_id: str, lines: list[str]) -> int:
        """Re-ingest an archival export (e.g. into a fresh replica)."""
        events = [EventRecord.from_line(line) for line in lines]
        events.sort(key=lambda e: (e.event_id.replica, e.event_id.seq))
        appended = 0
        for event in events:
            if self.ingest_foreign(partition_id, event):
                appended += 1
        return appended
