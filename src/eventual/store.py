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

The fold of an entity's whole log is kept, not recomputed: the store
holds one FoldState per entity that has been read, and advances it
lazily on the next read. Events past the greatest folded canonical key
(every local commit, whose Lamport hint is maximal) are folded onto it.
So is a late foreign event that sorts earlier, when its rule commutes
with what is folded (``FoldState.folds_late``): an integer delta onto
integer sums, an insert that resurrects nothing, a reservation's first
tentative, a confirm or cancel, a new apology or discrepancy. A late
tombstone, a second copy of an idempotence key, a float delta, a
resurrection or a custom fold makes that read rebuild from the
checkpoint. A read of one new event, most often a local commit, folds
it without a sort. The cache is derived, volatile state: summarizing an
entity drops its entry, and a crash drops them all. Reads at an
``as_of`` cut and the arrival-order negative control are never cached.

Each kept fold also keeps its finalized value until an event that takes
effect drops it, and its reservation view until a reservation event
folds onto it. A reread of an unchanged entity copies nothing. A drop
never edits a handed-out dict, so every value read earlier stays an
unchanged, read-only snapshot.

Records are immutable tuples (``typing.NamedTuple``): the fields of an
event, its id and its entity ref are read and compared in C, ids and refs
hash in C, and a record's payload is made canonical once, where the
record is made or decoded; an event's only serial form is its archival
line. A checkpoint's cut must be causally closed over the entity's
events (``summarize`` raises ``CutNotClosed`` otherwise).

Anti-entropy costs what the merge changed. A partition log indexes its
events by origin in sequence order, so ``missing_for`` bisects each
origin at the remote frontier, and the log encodes each event's line
once (``PartitionLog.line``). A receiver reads a line's id with
``EventRecord.peek_id`` and skips the ids it holds without decoding.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .clocks import VersionVector
from .errors import (
    CutNotClosed,
    DuplicateEventId,
    FutureVersion,
    LockedEntity,
    MalformedEvent,
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

# One encoder per JSON form, built once: ``json.dumps`` with keyword
# arguments builds a new ``JSONEncoder`` on every call.
_line_json = json.JSONEncoder(separators=(",", ":")).encode
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# how every ``EventRecord.to_line`` line starts, and its last field
_LINE_HEAD = '{"event_id":"'
_LINE_LAST = ',"origin_txn_id":"'


def canon(obj):
    """Recursively sort dict keys so serialized forms are byte-stable."""
    if isinstance(obj, dict):
        return {k: canon(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


class EventId(NamedTuple):
    replica: str
    seq: int

    def __str__(self) -> str:
        return f"{self.replica}:{self.seq}"

    @classmethod
    def parse(cls, text: str) -> EventId:
        replica, _, seq = text.rpartition(":")
        return cls(replica, int(seq))


class EntityRef(NamedTuple):
    entity_type: str
    key: str

    def __str__(self) -> str:
        return f"{self.entity_type}/{self.key}"

    @classmethod
    def parse(cls, text: str) -> EntityRef:
        entity_type, _, key = text.partition("/")
        return cls(entity_type, key)


class EventRecord(NamedTuple):
    """Immutable description of one operation; equal when every field is.

    A tuple: its fields are read and compared in C. ``to_line`` and
    ``from_line`` are its only serial form. The payload holds the
    parameters of the business action (the deposit amount, the reserved
    quantity), never the resulting state. It becomes canonical (``canon``:
    keys sorted at every depth) where a record is made, in
    ``EventFactory.make_event`` and ``from_line``, so ``to_line`` writes
    it as it is.
    """

    event_id: EventId
    entity_ref: EntityRef
    op_kind: str
    payload: dict
    causal_stamp: VersionVector
    lww_hint: int
    idempotence_key: str
    origin_txn_id: str

    # bound in the class body, so the per-layer tracer can wrap it by name
    __eq__ = tuple.__eq__

    @property
    def canonical_key(self) -> tuple[int, str, int]:
        return (self.lww_hint, self.event_id.replica, self.event_id.seq)

    def to_line(self) -> str:
        """One-line archival form, fields in fixed canonical order."""
        return _line_json(
            {
                "event_id": str(self.event_id),
                "entity_ref": str(self.entity_ref),
                "op_kind": self.op_kind,
                "payload": self.payload,
                "causal_stamp": self.causal_stamp.to_dict(),
                "lww_hint": self.lww_hint,
                "idempotence_key": self.idempotence_key,
                "origin_txn_id": self.origin_txn_id,
            }
        )

    @classmethod
    def from_line(cls, line: str) -> EventRecord:
        """Inverse of ``to_line``; raises MalformedEvent naming a bad line."""
        try:
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
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedEvent(line, exc) from exc

    @staticmethod
    def peek_id(line: str) -> EventId | None:
        """The event id of a whole ``to_line`` line, read without decoding it.

        None when the line does not start and end as ``to_line`` writes
        them (cut short, not JSON, another field order, escapes in the id
        or the last field): decode such a line with ``from_line``, which
        raises MalformedEvent on a bad one.
        """
        if not (line.startswith(_LINE_HEAD) and line.endswith('"}')):
            return None
        last = line.rfind(_LINE_LAST)
        if last < 0 or line.find('"', last + len(_LINE_LAST)) != len(line) - 2:
            return None
        text = line[len(_LINE_HEAD) : line.find('"', len(_LINE_HEAD))]
        replica, _, seq = text.rpartition(":")
        if not (replica and seq.isascii() and seq.isdigit()):
            return None
        return EventId(replica, int(seq))


def canonical_sort(events: list[EventRecord]) -> list[EventRecord]:
    return sorted(events, key=lambda e: e.canonical_key)


@dataclass
class EntityState:
    """Derived value: a pure function of (rollup spec, event set).

    ``value`` is the fold's kept finalized value (``FoldState.finalize``):
    every read of the entity until its next effective event returns the
    same dict, and it stays unchanged after later folds. It is shared, so
    read it and never mutate it, its sections included.
    """

    entity_ref: EntityRef
    value: dict
    version: VersionVector
    deleted_flag: bool = False

    def canonical_dump(self) -> str:
        return canonical_json(
            {
                "entity": str(self.entity_ref),
                "value": self.value,
                "version": self.version.to_dict(),
                "deleted": self.deleted_flag,
            }
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
    lossless and replicas convergent. ``folds_late`` names the events
    whose rule does not care about that sort either.

    The state keeps its finalized value (``finalize``) and its reservation
    view (``reservation_view``) once they are built, and a fold drops them,
    never edits them. An event whose idempotence key is seen drops
    nothing; every other event drops the value. The tentative and
    lifecycle rules, the only writers of ``reservations``, also drop the
    reservation view. A state made by ``from_snapshot`` or a rebuild
    starts with neither.
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
        # ids of inserts causally after a folded tombstone, which the rollup
        # ignores: the engine's only resurrection rule
        self.resurrections: list[str] = []
        self.custom_value: dict | None = None
        self.folded_count = 0
        # kept derived dicts, each None until built and after a fold drops it
        self._value: dict | None = None
        self._view: dict | None = None

    # -- folding ---------------------------------------------------------

    def fold(self, event: EventRecord, spec: RollupSpec) -> None:
        self.version = self.version.with_entry(event.event_id.replica, event.event_id.seq)
        if event.idempotence_key in self.seen_keys:
            return  # redelivered logical action: effect applies once
        self.seen_keys.add(event.idempotence_key)
        self.folded_count += 1
        self._value = None

        if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is not None:
            if self.custom_value is None:
                self.custom_value = dict(spec.initial_value)
            self.custom_value = spec.fold(self.custom_value, event)
            return

        # the rules are disjoint; the most frequent one is tested first
        op = event.op_kind
        if op == OP_DELTA:
            for f, d in event.payload.get("deltas", {}).items():
                self.sums[f] = self.sums.get(f, 0) + d
            resolves = event.payload.get("resolves")
            if resolves is not None:
                entry = self.exceptions.setdefault(resolves, {"kind": "unknown", "detail": {}})
                entry["resolved"] = True
        elif op == OP_TOMBSTONE:
            self.deleted = True
            self.tombstone_stamps.append(event.causal_stamp)
        elif op == OP_INSERT:
            if self._is_resurrection(event):
                self.resurrections.append(str(event.event_id))
                return
            self._take_base(event, arrival_wins=spec.merge_policy is MergePolicy.ARRIVAL_LWW)
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

    def folds_late(self, event: EventRecord, spec: RollupSpec) -> bool:
        """Whether folding ``event`` after folded events that sort past it
        leaves the state a fold in canonical order would.

        True for an unseen idempotence key whose rule commutes with every
        folded event: a delta whose deltas and current sums are all int
        (float addition does not commute bit-for-bit), an insert that is
        not a resurrection (a tombstone it dominates sorts earlier, by the
        Lamport hint), the first tentative of a reservation, a confirm or
        cancel (each keeps its minimum key), and an apology or discrepancy
        whose id is new. A seen key, a tombstone, a resurrection and a
        custom fold depend on order, and so does any other event.
        """
        if event.idempotence_key in self.seen_keys:
            return False
        if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is not None:
            return False
        op, payload = event.op_kind, event.payload
        if op == OP_DELTA:
            return all(
                isinstance(d, int) and isinstance(self.sums.get(f, 0), int)
                for f, d in payload.get("deltas", {}).items()
            )
        if op == OP_INSERT:
            return not self._is_resurrection(event)
        if op == OP_TENTATIVE:
            entry = self.reservations.get(payload["reservation_id"])
            return entry is None or "tentative" not in entry["ops"]
        if op == OP_APOLOGY:
            return payload["apology_id"] not in self.apologies
        if op == OP_DISCREPANCY:
            return payload["exception_id"] not in self.exceptions
        return op in (OP_CONFIRM, OP_CANCEL)

    def _is_resurrection(self, event: EventRecord) -> bool:
        return any(event.causal_stamp.strictly_dominates(t) for t in self.tombstone_stamps)

    def _take_base(self, event: EventRecord, arrival_wins: bool = False) -> None:
        key = event.canonical_key
        if arrival_wins or self.base_winner is None or key > self.base_winner:
            self.base_winner = key
            self.base_fields = dict(event.payload.get("fields", {}))

    def _fold_tentative(self, event: EventRecord) -> None:
        self._view = None
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
        self._view = None
        rid = event.payload["reservation_id"]
        entry = self.reservations.setdefault(rid, {"ops": {}})
        key = list(event.canonical_key)
        if event.op_kind == OP_CONFIRM:
            state, cause = "confirm", None
        else:
            cause = event.payload.get("cause", "cancelled")
            state = _CANCEL_STATE.get(cause, "cancelled")
        existing = entry["ops"].get(state)
        if existing is None or key < existing:
            entry["ops"][state] = key
            if cause is not None:
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
        """Each reservation's quantity, deadline, state, order and cause, by id.

        Built on the first read, and again on the first read after a
        reservation rule folds; every read in between returns the same
        dict, so callers must not mutate it.
        """
        if self._view is None:
            self._view = self._build_reservation_view()
        return self._view

    def _build_reservation_view(self) -> dict:
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
        """The entity's value: its fields, then its non-empty reservation,
        exception and apology sections.

        Built on the first call, and again on the first call after an
        event takes effect; every call in between returns the same dict.
        A rebuild reuses the kept reservation view and copies the
        exception and apology entries. A state is the fold of one entity,
        so ``spec`` is always that entity's. Callers must not mutate the
        value or its sections.
        """
        if self._value is None:
            self._value = self._build_value(spec)
        return self._value

    def _build_value(self, spec: RollupSpec) -> dict:
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
        custom = snap["custom_value"]
        st.custom_value = dict(custom) if custom is not None else None
        st.folded_count = snap["folded_count"]
        return st


class PartitionLog:
    """Insert-only event log for one partition on one replica.

    Beside each entity's live events, ``append`` indexes the events of
    each origin, in sequence order (which ``missing_for`` bisects), and
    the entities whose discrepancy events name a parent
    (``payload["detail"]["parent"]``), the ref a referential violation
    waits on. The indexes only grow, like the log, and survive a crash
    with it, so they need no rebuild; summarizing archives an entity's
    events but keeps its entries. ``line`` keeps each event's archival
    line once it is first encoded.
    """

    def __init__(self, partition_id: str):
        self.partition_id = partition_id
        self.events: list[EventRecord] = []
        self._by_id: dict[EventId, EventRecord] = {}
        self._live_by_entity: dict[EntityRef, list[EventRecord]] = {}
        self._by_origin: dict[str, list[EventRecord]] = {}
        self._by_parent: dict[str, set[EntityRef]] = {}
        # the last seq of each origin's list, kept apart: the frontier copies it per event made
        self._max_seq: dict[str, int] = {}
        self._lines: dict[EventId, str] = {}
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
        self._by_origin.setdefault(origin, []).append(event)
        self.events.append(event)
        self._by_id[event.event_id] = event
        self._live_by_entity.setdefault(event.entity_ref, []).append(event)
        if event.op_kind == OP_DISCREPANCY:
            detail = event.payload.get("detail")
            if isinstance(detail, dict) and isinstance(detail.get("parent"), str):
                self._by_parent.setdefault(detail["parent"], set()).add(event.entity_ref)
        return len(self.events) - 1

    def frontier(self) -> VersionVector:
        return VersionVector._of(dict(self._max_seq))

    def get(self, event_id: EventId) -> EventRecord:
        return self._by_id[event_id]

    def line(self, event: EventRecord) -> str:
        """The event's archival line (``to_line``), encoded on first use only."""
        line = self._lines.get(event.event_id)
        if line is None:
            line = self._lines[event.event_id] = event.to_line()
        return line

    def live_events_for(self, entity_ref: EntityRef) -> list[EventRecord]:
        return list(self._live_by_entity.get(entity_ref, []))

    def all_events_for(self, entity_ref: EntityRef) -> list[EventRecord]:
        return self.archived.get(entity_ref, []) + self.live_events_for(entity_ref)

    def refs_naming_parent(self, parent: str) -> list[EntityRef]:
        """Entities with a discrepancy naming ``parent`` (a ref's text), sorted."""
        return sorted(self._by_parent.get(parent, ()), key=str)

    def entity_refs(self) -> list[EntityRef]:
        refs = set(self._live_by_entity) | set(self.archived)
        return sorted(refs, key=str)

    def missing_for(self, remote_frontier: VersionVector) -> list[EventRecord]:
        """Events the remote lacks, in per-origin sequence order."""
        out: list[EventRecord] = []
        for origin in sorted(self._by_origin):
            held = self._by_origin[origin]
            start = bisect_right(held, remote_frontier.get(origin), key=lambda e: e.event_id.seq)
            out += held[start:]
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
        # partition -> ref -> (state, live events folded, greatest canonical key among them)
        self._folds: dict[str, dict[EntityRef, tuple[FoldState, int, tuple | None]]] = {
            p: {} for p in partitions
        }

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
        """Fold the entity's events (<= as_of, or all) into its state.

        A whole-log read returns the cached fold's kept value
        (``FoldState.finalize``), shared with every read until the entity's
        next effective event and unchanged after it: ``value`` is read-only.
        """
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

        A read of the whole log (as_of None) returns the entity's cached
        state, advanced by the live events appended since the last read, in
        canonical order. Each one that sorts past the greatest folded
        canonical key is folded onto it, and so is a late one that
        ``FoldState.folds_late`` allows; any other late event makes the
        read rebuild the state from the checkpoint. A single new event, the
        tail of a read after one commit, is not sorted. The returned state
        is shared with the cache and later reads: callers must not mutate
        it. Reads at a cut and the ARRIVAL_LWW control build a fresh state
        every time.
        """
        spec = self.registry.get(entity_ref.entity_type)
        log = self.log(partition_id)
        arrival_order = spec.merge_policy is MergePolicy.ARRIVAL_LWW
        cached = as_of is None and not arrival_order
        folds = self._folds[partition_id]
        entry = folds.get(entity_ref) if cached else None
        if entry is not None:
            state, done, top = entry
            # a checkpoint may exist before the entity has any live events here
            live = log._live_by_entity.get(entity_ref, ())
            if len(live) == done:
                return state
            # one new event, most often a local commit, needs no sort
            tail = live[done:] if len(live) == done + 1 else canonical_sort(live[done:])
            # whether the tail starts with late events, sorting before the greatest folded key
            late = top is not None and tail[0].canonical_key < top
            for event in tail:
                # each fold keeps the state a canonical fold of what it holds
                if late and event.canonical_key < top and not state.folds_late(event, spec):
                    break
                state.fold(event, spec)
            else:
                last = tail[-1].canonical_key
                folds[entity_ref] = (state, len(live), last if top is None or last > top else top)
                return state
        checkpoint = None if arrival_order else log.checkpoints.get(entity_ref)
        if checkpoint is not None and (as_of is None or as_of.dominates(checkpoint.covers_up_to)):
            state = FoldState.from_snapshot(checkpoint.summarized_value)
            events = log.live_events_for(entity_ref)
        else:
            state = FoldState()
            events = log.all_events_for(entity_ref)
        if as_of is not None:
            events = [e for e in events if as_of.covers(e.event_id.replica, e.event_id.seq)]
        if not arrival_order:
            events = canonical_sort(events)
        for event in events:
            state.fold(event, spec)
        if cached and (events or checkpoint is not None):
            # without a checkpoint nothing is archived: events are the live list
            folds[entity_ref] = (state, len(events), events[-1].canonical_key if events else None)
        return state

    def clear_fold_cache(self) -> None:
        """Forget every cached fold; the next read of each entity rebuilds."""
        for folds in self._folds.values():
            folds.clear()

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
        """Checkpoint the entity's log prefix; rollup output is unchanged.

        The cut must be causally closed over the entity's events: one that
        covers an event but not its causal stamp raises CutNotClosed, since
        the checkpoint would fold the event without a predecessor it
        depends on.
        """
        log = self.log(partition_id)
        if not log.frontier().dominates(up_to):
            raise FutureVersion(f"summarize beyond frontier: {up_to!r}")
        if self.lock_guard is not None and self.lock_guard(entity_ref):
            raise LockedEntity(str(entity_ref))
        previous = log.checkpoints.get(entity_ref)
        if previous is not None:
            # a checkpoint only moves forward: events it archived stay covered
            up_to = up_to.merge(previous.covers_up_to)
        # archived events were checked by the cut that archived them
        for event in log._live_by_entity.get(entity_ref, ()):
            covered = up_to.covers(event.event_id.replica, event.event_id.seq)
            if covered and not up_to.dominates(event.causal_stamp):
                raise CutNotClosed(up_to, event.event_id, event.causal_stamp)
        state = self.fold_state(partition_id, entity_ref, as_of=up_to)
        checkpoint = Checkpoint(entity_ref, state.to_snapshot(), up_to)
        log.checkpoints[entity_ref] = checkpoint
        log.archive_covered(entity_ref, up_to)
        self._folds[partition_id].pop(entity_ref, None)
        return checkpoint

    def export_partition(self, partition_id: str) -> list[str]:
        """Archival export: one event per line, re-ingestable losslessly."""
        return [e.to_line() for e in self.log(partition_id).missing_for(VersionVector())]

    def import_partition(self, partition_id: str, lines: list[str]) -> int:
        """Re-ingest an archival export (e.g. into a fresh replica).

        A line that is not an event record raises MalformedEvent before
        anything is appended.
        """
        events = [EventRecord.from_line(line) for line in lines]
        events.sort(key=lambda e: (e.event_id.replica, e.event_id.seq))
        appended = 0
        for event in events:
            if self.ingest_foreign(partition_id, event):
                appended += 1
        return appended
