"""Process definitions, event-driven dispatch, managed exceptions, and the
tentative-operation lifecycle.

Processes are step graphs wired by event types. Multi-event (join)
triggers persist their partial-match state as ordinary events on a
correlation entity, so even the dispatcher's own bookkeeping obeys the
one-transaction-one-entity rule and replicates like any other data.

Integrity violations never block writes: they become managed exceptions —
durable, queryable records that a later event resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidWiring, WrongPartition
from .registry import APOLOGY_TYPE, JOIN_TYPE
from .replica import Replica
from .store import EntityRef, canonical_sort
from .txn import ProcessStepDef, TriggerSpec

@dataclass
class ProcessDef:
    """A step graph: steps plus wiring from emitted event types to steps."""

    process_id: str
    steps: list[ProcessStepDef]
    wiring: dict[str, str] = field(default_factory=dict)  # event type -> step_id

    def validate(self) -> None:
        declared = {s.step_id for s in self.steps}
        for event_type, target in sorted(self.wiring.items()):
            if target not in declared:
                raise InvalidWiring(f"{event_type!r} wires to undeclared step {target!r}")
        for s in self.steps:
            for t in s.trigger.types:
                if self.wiring.get(t) == s.step_id and len(s.trigger.types) == 1:
                    # a step directly triggered by its own sole output would
                    # never make progress; catch the trivial cycle only
                    for emit in (s.handler.get("emit", []) if isinstance(s.handler, dict) else []):
                        if emit["type"] == t:
                            raise InvalidWiring(f"step {s.step_id!r} is its own unconditional successor")


@dataclass
class ManagedException:
    """An integrity violation turned into a tracked, resolvable record."""

    exception_id: str
    kind: str
    entity_ref: EntityRef
    detail: dict
    status: str  # "open" | "resolved"
    resolving_event_id: str | None = None


@dataclass
class Reservation:
    """Derived view of one tentative operation's lifecycle."""

    reservation_id: str
    entity_ref: EntityRef
    quantity: int
    deadline: int | None
    state: str  # tentative | confirmed | cancelled | expired | abrogated
    cause: str | None = None


@dataclass
class ApologyRecord:
    apology_id: str
    subject: str
    cause: str  # overbooking | disaster | lost_promise
    compensation_keys: list[str] = field(default_factory=list)


class ProcessManager:
    """Holds registered processes and matches messages to steps."""

    def __init__(self) -> None:
        self.processes: dict[str, ProcessDef] = {}

    def register_process(self, definition: ProcessDef) -> None:
        definition.validate()
        self.processes[definition.process_id] = definition

    def matching_steps(self, msg_type: str) -> list[tuple[ProcessDef, ProcessStepDef]]:
        matches = []
        for pid in sorted(self.processes):
            proc = self.processes[pid]
            for s in proc.steps:
                if s.trigger.matches(msg_type):
                    matches.append((proc, s))
        return matches


# -- join triggers -----------------------------------------------------------


def join_entity(process_id: str, step_id: str, correlation: str) -> EntityRef:
    return EntityRef(JOIN_TYPE, f"{process_id}.{step_id}.{correlation}")


def join_record_template(msg_type: str, payload: dict, ref: EntityRef) -> dict:
    """Template persisting one partial match as a join-entity event."""
    return {
        "kind": "delta",
        "entity": str(ref),
        "deltas": {f"seen {msg_type}": 1},
        "args": payload,
    }


def join_ready(replica: Replica, ref: EntityRef, trigger: TriggerSpec) -> bool:
    """All member event types recorded, and the step not fired yet."""
    partition = replica.store.route(ref)
    value = replica.store.rollup(partition, ref).value
    if value.get("fired", 0) >= 1:
        return False
    return all(value.get(f"seen {t}", 0) >= 1 for t in trigger.types)


def join_fire_template(ref: EntityRef) -> dict:
    return {"kind": "delta", "entity": str(ref), "deltas": {"fired": 1}}


def join_merged_payload(replica: Replica, ref: EntityRef, trigger: TriggerSpec) -> dict:
    """Merge the stored args of every member event, earliest first."""
    partition = replica.store.route(ref)
    merged: dict = {}
    for event in canonical_sort(replica.store.log(partition).all_events_for(ref)):
        args = event.payload.get("args")
        if args:
            merged.update(args)
    if trigger.correlate:
        merged.setdefault(trigger.correlate, ref.key.rsplit(".", 1)[-1])
    return merged


# -- derived views ------------------------------------------------------------


def _hosted_values(replica: Replica, entity_type: str | None = None):
    """(ref, rolled-up value) of every hosted entity, optionally one type."""
    for partition_id in replica.partitions_hosted():
        for ref in replica.store.log(partition_id).entity_refs():
            if entity_type is None or ref.entity_type == entity_type:
                yield ref, replica.store.rollup(partition_id, ref).value


def scan_exceptions(replica: Replica) -> list[ManagedException]:
    """All managed exceptions visible in this replica's rollups."""
    out = []
    for ref, value in _hosted_values(replica):
        for exc_id, entry in value.get("exceptions", {}).items():
            out.append(
                ManagedException(
                    exception_id=exc_id,
                    kind=entry.get("kind", "discrepancy"),
                    entity_ref=ref,
                    detail=entry.get("detail", {}),
                    status="resolved" if entry.get("resolved") else "open",
                )
            )
    out.sort(key=lambda e: e.exception_id)
    return out


def scan_reservations(replica: Replica) -> list[Reservation]:
    out = []
    for ref, value in _hosted_values(replica):
        for rid, entry in value.get("reservations", {}).items():
            out.append(
                Reservation(
                    reservation_id=rid,
                    entity_ref=ref,
                    quantity=entry["quantity"],
                    deadline=entry["deadline"],
                    state=entry["state"],
                    cause=entry.get("cause"),
                )
            )
    out.sort(key=lambda r: r.reservation_id)
    return out


def scan_apologies(replica: Replica) -> list[ApologyRecord]:
    out = []
    for ref, value in _hosted_values(replica, APOLOGY_TYPE):
        for apology_id, entry in value.get("apologies", {}).items():
            out.append(
                ApologyRecord(
                    apology_id=apology_id,
                    subject=entry.get("subject", ref.key),
                    cause=entry.get("cause", "overbooking"),
                    compensation_keys=list(entry.get("compensation_keys", [])),
                )
            )
    out.sort(key=lambda a: a.apology_id)
    return out


def check_referential(replica: Replica, entity_ref: EntityRef, parent_ref: EntityRef) -> dict | None:
    """Report (not raise) a missing parent; the write has already committed."""
    try:
        partition = replica.store.route(parent_ref)
    except WrongPartition:
        return None
    if replica.store.log(partition).all_events_for(parent_ref):
        return None
    return {
        "exception_id": f"refviol:{entity_ref}:{parent_ref}",
        "kind": "referential_violation",
        "detail": {"parent": str(parent_ref)},
    }


def plan_referential_resolutions(replica: Replica, parent_ref: EntityRef) -> list[tuple[EntityRef, dict]]:
    """Resolution steps for open violations waiting on this parent."""
    plans = []
    suffix = f":{parent_ref}"
    for exc in scan_exceptions(replica):
        if exc.kind != "referential_violation" or exc.status != "open":
            continue
        if exc.detail.get("parent") == str(parent_ref) or exc.exception_id.endswith(suffix):
            plans.append(
                (
                    exc.entity_ref,
                    {
                        "kind": "resolve_exception",
                        "entity": str(exc.entity_ref),
                        "exception_id": exc.exception_id,
                    },
                )
            )
    return plans


def plan_cleansing(replica: Replica, entity_ref: EntityRef) -> list[dict]:
    """Adjustment steps reconciling rollup to observed reality.

    One commutative delta per open discrepancy, tagged with the exception
    it resolves; the cleansing itself is just another event.
    """
    partition = replica.store.route(entity_ref)
    value = replica.store.rollup(partition, entity_ref).value
    plans = []
    for exc_id, entry in sorted(value.get("exceptions", {}).items()):
        if entry.get("kind") != "discrepancy" or entry.get("resolved"):
            continue
        observed = entry.get("observed", {})
        adjustment = {f: v - value.get(f, 0) for f, v in observed.items() if value.get(f, 0) != v}
        plans.append(
            {
                "kind": "delta",
                "entity": str(entity_ref),
                "deltas": adjustment,
                "resolves": exc_id,
            }
        )
    return plans
