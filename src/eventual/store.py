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
events by origin in sequence order, so ``missing_for`` skips each origin
the remote frontier covers and bisects the others at it. Each event
crosses the wire as the record its sender's log holds, so within a run
no line is encoded or decoded, and every receiver holds that one
read-only record. That is sound because ``make_event`` accepts only what
``from_line`` accepts (``canon`` refuses a payload that is not JSON, with
InvalidRecord), so ``from_line(e.to_line()) == e`` for every record the
engine makes: a shipped record is what its line would decode to. A log
keeps no line: an archival export encodes each event (``to_line``), so an
imported line that is valid but not canonical is exported as its record's
canonical line.

A line costs one JSON call each way, plus the checks. ``to_line`` writes
the eight fields in their fixed order itself: each string through the
escape ``json`` applies, the payload through the line encoder, and the
stamp from its sorted entries, so the bytes are those of ``json.dumps``
on the record's dict. ``from_line`` reads a line with one call of the
JSON scanner, and hands a line the scanner does not end at its end
(whitespace around it, trailing data) to ``json.loads``, which accepts
or refuses it as before. An import decodes every line and checks every
event's route before it appends any.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .clocks import VersionVector
from .errors import (
    CutNotClosed,
    DuplicateEventId,
    FutureVersion,
    InvalidRecord,
    LockConflict,
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
OP_KINDS = frozenset(
    (OP_INSERT, OP_DELTA, OP_TOMBSTONE, OP_TENTATIVE, OP_CONFIRM, OP_CANCEL, OP_APOLOGY, OP_DISCREPANCY)
)
# the op kinds that name a reservation; the id they name is a string
_RESERVATION_OPS = frozenset((OP_TENTATIVE, OP_CONFIRM, OP_CANCEL))

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
# the string escape ``_line_json`` applies, and the scanner ``json.loads`` calls
_quoted = json.encoder.encode_basestring_ascii
_scan_value = json.JSONDecoder().scan_once
_tuple_new = tuple.__new__


_CONTAINERS = (dict, list, tuple)
# the leaf types a JSON line gives back as they are, tested by exact type
JSON_LEAVES = frozenset((str, int, float, bool, type(None)))

# each field whose type ``EventRecord.from_line`` checks: the type, and how an error words it
_FIELD_TYPES = (
    ("op_kind", str, "a string"),
    ("payload", dict, "a JSON object"),
    ("causal_stamp", dict, "a JSON object"),
    ("lww_hint", int, "an int"),
    ("idempotence_key", str, "a string"),
    ("origin_txn_id", str, "a string"),
)


# a high surrogate then a low one: a line writes them as two ``\u`` escapes,
# which decode to one astral character, so no line gives such a string back
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _refuse_surrogate_pairs(obj) -> None:
    """Raise InvalidRecord on the first string in ``obj`` (a str, or dicts,
    lists and tuples of them, keys included) holding a surrogate pair.
    Callers skip an ASCII string, which cannot hold one."""
    if type(obj) is str:
        if _SURROGATE_PAIR.search(obj):
            raise InvalidRecord(f"{obj!r} holds a surrogate pair: its line would decode to another string")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _refuse_surrogate_pairs(k)
            _refuse_surrogate_pairs(v)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _refuse_surrogate_pairs(item)


def _wrong_field_type(raw: dict) -> TypeError:
    """The error naming the first field of ``raw`` of the wrong type."""
    name, _, text = next(field for field in _FIELD_TYPES if type(raw[field[0]]) is not field[1])
    return TypeError(f"{name} is not {text}: {raw[name]!r}")


def canon(obj):
    """A payload with dict keys sorted at every depth, so its line is
    byte-stable; called where a record is made (``make_event``, ``from_line``).

    Dicts come back as new dicts with their keys sorted, lists and tuples
    as new lists, and leaves (str, int, float, bool, None) as they are;
    a leaf is copied without a recursive call. A key that is not a str, a
    leaf of any other type, or a string key or leaf holding a surrogate
    pair raises InvalidRecord: its JSON line would not decode to it.
    Floats pass, inf and nan included: ``json`` writes and reads them back.
    """
    if isinstance(obj, dict):
        try:
            keys = sorted(obj)
        except TypeError:  # keys of mixed types: the loop names the first that is not a str
            keys = obj
        out = {}
        for k in keys:
            if type(k) is not str:
                raise InvalidRecord(f"key {k!r} is not a string")
            if not k.isascii():
                _refuse_surrogate_pairs(k)
            v = obj[k]
            t = type(v)
            if t in JSON_LEAVES:
                if t is str and not v.isascii():
                    _refuse_surrogate_pairs(v)
                out[k] = v
            elif isinstance(v, _CONTAINERS):
                out[k] = canon(v)
            else:
                raise InvalidRecord(f"value of {k!r} is not JSON: {v!r}")
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for v in obj:
            t = type(v)
            if t in JSON_LEAVES:
                if t is str and not v.isascii():
                    _refuse_surrogate_pairs(v)
                out.append(v)
            elif isinstance(v, _CONTAINERS):
                out.append(canon(v))
            else:
                raise InvalidRecord(f"list item is not JSON: {v!r}")
        return out
    if type(obj) in JSON_LEAVES:
        if type(obj) is str and not obj.isascii():
            _refuse_surrogate_pairs(obj)
        return obj
    raise InvalidRecord(f"value is not JSON: {obj!r}")


def sorted_copy(obj):
    """A copy of engine state (a fold snapshot, a probed value) with dict
    keys sorted: dicts as new dicts, lists and tuples as new lists, any
    other value as it is. Unlike ``canon`` it checks nothing, since state
    is not a payload."""
    if isinstance(obj, dict):
        out = {}
        for k in sorted(obj):
            v = obj[k]
            out[k] = sorted_copy(v) if isinstance(v, _CONTAINERS) else v
        return out
    if isinstance(obj, (list, tuple)):
        return [sorted_copy(x) if isinstance(x, _CONTAINERS) else x for x in obj]
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
    ``ReplicaStore.make_event`` and ``from_line``, so ``to_line`` writes
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
        """One-line archival form, fields in fixed canonical order: the
        bytes ``_line_json`` writes for the record's eight-field dict, with
        the stamp's origins sorted. The fields are written in place; only
        the payload goes through the encoder.

        A string holding a surrogate pair raises InvalidRecord: the line
        writes it as two ``\\u`` escapes, which decode to one character.
        Only a line holding an escape is searched for one."""
        (replica, seq), (entity_type, key), op_kind, payload, stamp, lww_hint, ikey, txn_id = self
        entries = ",".join([f"{_quoted(origin)}:{n}" for origin, n in stamp.items()])
        line = (
            f'{{"event_id":{_quoted(f"{replica}:{seq}")},"entity_ref":{_quoted(f"{entity_type}/{key}")},'
            f'"op_kind":{_quoted(op_kind)},"payload":{_line_json(payload)},"causal_stamp":{{{entries}}},'
            f'"lww_hint":{lww_hint},"idempotence_key":{_quoted(ikey)},"origin_txn_id":{_quoted(txn_id)}}}'
        )
        if "\\" in line:
            fields = (replica, entity_type, key, op_kind, payload, stamp.to_dict(), ikey, txn_id)
            _refuse_surrogate_pairs(fields)
        return line

    @classmethod
    def from_line(cls, line: str) -> EventRecord:
        """Inverse of ``to_line``; raises MalformedEvent naming a bad line:
        one that is not a JSON object of the eight fields, has an event id
        whose sequence is not a positive decimal or an unknown op kind, or
        has a field of the wrong type (the error names the field). The lww
        hint and each causal-stamp entry must be ints (not bools), the
        entries positive; the op kind, idempotence key and txn id strings;
        the payload and causal stamp objects; the ``reservation_id`` of a
        tentative, confirm or cancel, where it has one, a string. A line
        that is not ASCII may hold a raw surrogate pair, which ``to_line``
        would not write back: one that does is malformed.

        A line is one scan of the JSON scanner from its first character;
        a line whose value does not end at its end (whitespace around it,
        trailing data) goes through ``json.loads``, which accepts or
        rejects it as it always has."""
        try:
            try:
                raw, end = _scan_value(line, 0)
            except (StopIteration, TypeError):  # leading whitespace, nothing, or not a str
                end = -1
            if end != len(line):
                raw = json.loads(line)
            replica, _, seq = raw["event_id"].rpartition(":")
            if not (seq.isascii() and seq.isdigit() and seq[0] != "0"):  # as to_line writes it: [1-9][0-9]*
                raise ValueError(f"sequence {seq!r} is not a positive decimal")
            op_kind, payload, stamp = raw["op_kind"], raw["payload"], raw["causal_stamp"]
            lww_hint, key, txn_id = raw["lww_hint"], raw["idempotence_key"], raw["origin_txn_id"]
            if not (type(op_kind) is str and type(payload) is dict and type(stamp) is dict
                    and type(lww_hint) is int and type(key) is str and type(txn_id) is str):
                raise _wrong_field_type(raw)
            if op_kind not in OP_KINDS:
                raise ValueError(f"unknown op kind {op_kind!r}")
            if op_kind in _RESERVATION_OPS and type(payload.get("reservation_id", "")) is not str:
                raise TypeError(f"reservation_id is not a string: {payload['reservation_id']!r}")
            for origin, n in stamp.items():
                if type(n) is not int or n < 1:
                    raise TypeError(f"causal_stamp entry {origin!r} is not a positive int: {n!r}")
            if not line.isascii():
                _refuse_surrogate_pairs(raw)
            entity_type, _, ref_key = raw["entity_ref"].partition("/")
        except (ValueError, KeyError, TypeError, AttributeError, InvalidRecord) as exc:
            raise MalformedEvent(line, exc) from exc
        # every entry is checked positive, so the stamp is wrapped as it is
        return _tuple_new(cls, (
            _tuple_new(EventId, (replica, int(seq))), _tuple_new(EntityRef, (entity_type, ref_key)), op_kind,
            canon(payload), VersionVector._of(stamp), lww_hint, key, txn_id,
        ))


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
        # kept derived dicts, each None until built and after a fold drops it
        self._value: dict | None = None
        self._view: dict | None = None

    # -- folding ---------------------------------------------------------

    def fold(self, event: EventRecord, spec: RollupSpec) -> None:
        self.version = self.version.with_entry(event.event_id.replica, event.event_id.seq)
        if event.idempotence_key in self.seen_keys:
            return  # redelivered logical action: effect applies once
        self.seen_keys.add(event.idempotence_key)
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
        return sorted_copy(
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
        return st


class PartitionLog:
    """Insert-only event log for one partition on one replica.

    Beside each entity's live events, ``append`` indexes the events of
    each origin and their sequence numbers, in sequence order (which
    ``missing_for`` bisects), and
    the entities whose discrepancy events name a parent
    (``payload["detail"]["parent"]``), the ref a referential violation
    waits on. The indexes only grow, like the log, and survive a crash
    with it, so they need no rebuild; summarizing archives an entity's
    events but keeps its entries.
    """

    def __init__(self, partition_id: str):
        self.partition_id = partition_id
        self.events: list[EventRecord] = []
        self._by_id: dict[EventId, EventRecord] = {}
        self._live_by_entity: dict[EntityRef, list[EventRecord]] = {}
        self._by_origin: dict[str, list[EventRecord]] = {}
        self._seqs: dict[str, list[int]] = {}  # each origin's sequence numbers, as in _by_origin
        self._by_parent: dict[str, set[EntityRef]] = {}
        # the last seq of each origin's list, kept apart: the frontier, and
        # each event made here (``ReplicaStore.make_event``) copies it
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
            raise SequenceGap(f"{event.event_id} arrived after {origin}:{self._max_seq.get(origin, 0)}")
        self._max_seq[origin] = seq
        self._by_origin.setdefault(origin, []).append(event)
        self._seqs.setdefault(origin, []).append(seq)
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
        """Events the remote lacks, in per-origin sequence order: an origin
        the remote covers is skipped, the others bisected at its entry."""
        out: list[EventRecord] = []
        max_seq = self._max_seq
        for origin in sorted(max_seq):
            seen = remote_frontier.get(origin)
            if seen < max_seq[origin]:
                out += self._by_origin[origin][bisect_right(self._seqs[origin], seen):]
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
        # event identity: one monotone sequence for all the replica's
        # partitions, and a Lamport clock bumped past every hint appended
        self.seq = 0
        self.lamport = 0
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
        """A new local event on ``entity_ref``, made but not appended.

        Routes the entity (WrongPartition if no hosted partition takes its
        type) and validates the payload first. An op kind ``from_line``
        does not know, an idempotence key or txn id that is not a str, a
        payload that is not a dict of JSON values (``canon``), a reservation
        event whose ``reservation_id`` is not a str, or a string holding a
        surrogate pair raises InvalidRecord, so
        ``from_line(event.to_line()) == event`` for every event made here.
        The event takes the next sequence number and Lamport hint, a
        canonical copy of the payload (``canon``), and as causal stamp its
        partition log's frontier with this replica's entry raised to the new
        sequence number, never lowered: one copy of the frontier.
        """
        log = self.partitions[self.route(entity_ref)]
        if op_kind not in OP_KINDS:
            raise InvalidRecord(f"unknown op kind {op_kind!r}")
        if type(idempotence_key) is not str or type(origin_txn_id) is not str:
            raise InvalidRecord(
                f"idempotence key {idempotence_key!r} or txn id {origin_txn_id!r} is not a string"
            )
        if not isinstance(payload, dict):
            raise InvalidRecord(f"payload is not a dict: {payload!r}")
        if not (idempotence_key.isascii() and origin_txn_id.isascii()
                and entity_ref.entity_type.isascii() and entity_ref.key.isascii()):
            _refuse_surrogate_pairs((idempotence_key, origin_txn_id, entity_ref))
        if op_kind in _RESERVATION_OPS and type(payload.get("reservation_id", "")) is not str:
            raise InvalidRecord(f"reservation id {payload['reservation_id']!r} is not a string")
        self.registry.validate_payload(entity_ref.entity_type, payload)
        payload = canon(payload)
        self.seq = seq = self.seq + 1
        self.lamport += 1
        stamp = dict(log._max_seq)
        if seq > stamp.get(self.replica_id, 0):
            stamp[self.replica_id] = seq
        return EventRecord(
            EventId(self.replica_id, seq),
            entity_ref,
            op_kind,
            payload,
            VersionVector._of(stamp),
            self.lamport,
            idempotence_key,
            origin_txn_id,
        )

    def _check_route(self, partition_id: str, entity_ref: EntityRef) -> None:
        if self.route(entity_ref) != partition_id:
            raise WrongPartition(f"{entity_ref} does not belong to partition {partition_id!r}")

    def append_event(self, partition_id: str, event: EventRecord) -> int:
        """Append to the addressed partition; raises on misrouting."""
        self._check_route(partition_id, event.entity_ref)
        position = self.log(partition_id).append(event)
        self.observe(event.lww_hint)
        return position

    def observe(self, lww_hint: int) -> None:
        """Bump the Lamport clock past an appended event's hint."""
        if lww_hint > self.lamport:
            self.lamport = lww_hint

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
        depends on. While a logical lock is open on the entity (a pending
        action's), it raises LockConflict.
        """
        log = self.log(partition_id)
        if not log.frontier().dominates(up_to):
            raise FutureVersion(f"summarize beyond frontier: {up_to!r}")
        if self.lock_guard is not None and self.lock_guard(entity_ref):
            raise LockConflict(str(entity_ref))
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
        """Archival export: each event's line (``to_line``), re-ingestable
        losslessly."""
        return [e.to_line() for e in self.log(partition_id).missing_for(VersionVector())]

    def import_partition(self, partition_id: str, lines: list[str]) -> int:
        """Re-ingest an archival export (e.g. into a fresh replica).

        A line that is not an event record raises MalformedEvent, an event
        of an entity type the partition does not take WrongPartition
        (naming the first such event by id), and an origin's first event
        that the log does not hold but sorts at or below its last one
        SequenceGap, before anything is appended. Events are appended in
        event-id order; one whose id the log holds is skipped, as
        ``ingest_foreign`` skips it. Returns how many were appended.
        """
        # by event id, a record's first field; the sort is stable, so of two lines with one id the first is kept
        records = sorted(map(EventRecord.from_line, lines), key=itemgetter(0))
        if not records:
            return 0
        # on a hosted partition, an entity type routes here exactly when it is placed here
        types = {event.entity_ref.entity_type for event in records}
        if partition_id not in self.partitions or any(self.placement.get(t) != partition_id for t in types):
            for event in records:  # raises at the first misrouted event
                self._check_route(partition_id, event.entity_ref)
        log = self.partitions[partition_id]
        held, append, last = log._by_id, log.append, log._max_seq
        fresh = [event for event in records if event.event_id not in held]
        # each origin's first fresh event, which the rest of its events sort after
        for first in {event.event_id.replica: event.event_id for event in reversed(fresh)}.values():
            if first.seq <= last.get(first.replica, 0):
                raise SequenceGap(f"{first} arrived after {first.replica}:{last[first.replica]}")
        appended, lamport = 0, self.lamport
        for event in fresh:
            if event.event_id not in held:  # not a second line with one id
                append(event)
                appended += 1
                if event.lww_hint > lamport:
                    lamport = event.lww_hint
        self.observe(lamport)
        return appended
