"""Anti-entropy sync and the single end-to-end conflict mechanism.

Every conflict — two sessions on one replica or two replicas on two sides
of a partition — is handled the same way: commit locally without
validation, exchange events, and resolve deterministically from the event
set. Resolution composes commutative deltas, picks last-writer-wins
winners with a fixed (lww_hint, replica_id) tiebreak, detects overbooked
capacity and selects losers (latest canonical order loses), and drafts
compensations from recorded operation payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ResurrectionAfterTombstone, Uncompensatable, UnmergeableCustom
from .registry import MergePolicy, RollupSpec
from .replica import Replica
from .store import (
    OP_CANCEL,
    OP_CONFIRM,
    OP_DELTA,
    OP_INSERT,
    OP_TENTATIVE,
    OP_TOMBSTONE,
    EntityRef,
    EventRecord,
    canonical_sort,
)


@dataclass
class ConflictReport:
    """Deterministic description of concurrency on one entity.

    A pure function of the event set: every replica holding the same
    events produces a byte-identical report.
    """

    entity_ref: EntityRef
    policy: str
    groups: list[list[str]] = field(default_factory=list)  # concurrent event ids
    resolution: dict = field(default_factory=dict)
    compensations: list[str] = field(default_factory=list)

    def dump(self) -> str:
        import json

        return json.dumps(
            {
                "entity": str(self.entity_ref),
                "policy": self.policy,
                "groups": self.groups,
                "resolution": self.resolution,
                "compensations": self.compensations,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


# -- anti-entropy ----------------------------------------------------------


def shared_partitions(a: Replica, b: Replica) -> list[str]:
    return sorted(set(a.partitions_hosted()) & set(b.partitions_hosted()))


def sync(a: Replica, b: Replica) -> tuple[int, int]:
    """Direct pairwise exchange: both replicas end with the event union.

    This is the offline form; the simulator performs the same exchange as
    messages over its simulated network so faults apply uniformly.

    Returns (events a received, events b received).
    """
    to_a = 0
    to_b = 0
    for partition_id in shared_partitions(a, b):
        log_a = a.store.log(partition_id)
        log_b = b.store.log(partition_id)
        for event in log_a.missing_for(log_b.frontier()):
            if b.store.ingest_foreign(partition_id, event):
                to_b += 1
        for event in log_b.missing_for(log_a.frontier()):
            if a.store.ingest_foreign(partition_id, event):
                to_a += 1
    return to_a, to_b


# -- conflict resolution -----------------------------------------------------


def concurrent_groups(events: list[EventRecord]) -> list[list[str]]:
    """Connected components of the pairwise-concurrency graph (size >= 2)."""
    ordered = canonical_sort(events)
    parent = list(range(len(ordered)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if ordered[i].causal_stamp.concurrent_with(ordered[j].causal_stamp):
                parent[find(i)] = find(j)
    components: dict[int, list[str]] = {}
    for i, event in enumerate(ordered):
        components.setdefault(find(i), []).append(str(event.event_id))
    return [ids for ids in components.values() if len(ids) > 1]


def resolve(entity_ref: EntityRef, events: list[EventRecord], spec: RollupSpec) -> ConflictReport:
    """Resolve concurrency for one entity's event set.

    Raises ResurrectionAfterTombstone for inserts causally after a
    tombstone, and UnmergeableCustom when a custom policy has no merge
    hook to offer; callers escalate both to managed exceptions.
    """
    ordered = canonical_sort(events)
    report = ConflictReport(entity_ref=entity_ref, policy=spec.merge_policy.value)
    report.groups = concurrent_groups(ordered)

    tombstones = [e for e in ordered if e.op_kind == OP_TOMBSTONE]
    for event in ordered:
        if event.op_kind == OP_INSERT and any(
            event.causal_stamp.strictly_dominates(t.causal_stamp) for t in tombstones
        ):
            raise ResurrectionAfterTombstone(str(event.event_id))

    if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is None and report.groups:
        raise UnmergeableCustom(str(entity_ref))

    if spec.merge_policy in (MergePolicy.LWW_REGISTER, MergePolicy.ARRIVAL_LWW):
        writes = [e for e in ordered if e.op_kind == OP_INSERT]
        if writes:
            winner = writes[-1]  # canonical order already applies the tiebreak
            report.resolution = {
                "winner": str(winner.event_id),
                "losers": [str(e.event_id) for e in writes[:-1]],
            }
    elif spec.merge_policy is MergePolicy.COMMUTATIVE_DELTA:
        composed: dict[str, float] = {}
        for event in ordered:
            if event.op_kind == OP_DELTA:
                for f, d in event.payload.get("deltas", {}).items():
                    composed[f] = composed.get(f, 0) + d
        report.resolution = {"composed": composed}
    return report


# -- overbooking -------------------------------------------------------------


def detect_overbooking(value: dict, spec: RollupSpec) -> list[dict]:
    """Losers of a capacity constraint, deterministically selected.

    Active reservations are ranked by the canonical order of their
    tentative events; the earliest fill the capacity, the latest lose.
    Entities without a capacity declaration never have losers.
    """
    if not spec.has_capacity:
        return []
    capacity = value.get(spec.capacity_field, 0)
    reservations = value.get("reservations", {})
    active = [
        (tuple(entry["order"]), rid, entry)
        for rid, entry in reservations.items()
        if entry["state"] in ("tentative", "confirmed")
    ]
    active.sort()
    losers = []
    used = 0
    for _order, rid, entry in active:
        if used + entry["quantity"] <= capacity:
            used += entry["quantity"]
        else:
            losers.append(
                {"reservation_id": rid, "quantity": entry["quantity"], "state": entry["state"]}
            )
    return losers


# -- compensation ------------------------------------------------------------


@dataclass
class CompensationPlan:
    """Drafted reversing work for one transaction.

    ``event_drafts`` is a list of (entity_ref, op_kind, payload, key)
    tuples, grouped per entity by the engine into single-entity steps;
    ``message_drafts`` mirrors messages the transaction sent.
    """

    txn_id: str
    event_drafts: list[tuple[EntityRef, str, dict, str]] = field(default_factory=list)
    message_drafts: list[dict] = field(default_factory=list)
    apologies: list[dict] = field(default_factory=list)


def compensation_plan(replica: Replica, txn_id: str) -> CompensationPlan:
    """Derive reversing events from the recorded operation payloads.

    Possible precisely because payloads describe operations, not
    consequences. Idempotent per txn: the drafted keys are deterministic,
    so replaying the plan has a single net effect.
    """
    plan = CompensationPlan(txn_id=txn_id)
    originals: list[tuple[str, EventRecord]] = []
    for partition_id in replica.partitions_hosted():
        log = replica.store.log(partition_id)
        for event in log.events:
            if event.origin_txn_id == txn_id:
                originals.append((partition_id, event))
    originals.sort(key=lambda pair: pair[1].event_id.seq)

    for i, (partition_id, event) in enumerate(originals):
        if event.payload.get("irreversible"):
            raise Uncompensatable(str(event.event_id))
        key = f"comp:{txn_id}:{i}"
        if event.op_kind == OP_DELTA:
            inverted = {f: -d for f, d in event.payload.get("deltas", {}).items()}
            plan.event_drafts.append(
                (event.entity_ref, OP_DELTA, {"deltas": inverted, "compensates": txn_id}, key)
            )
        elif event.op_kind == OP_TENTATIVE:
            rid = event.payload["reservation_id"]
            state = replica.store.fold_state(partition_id, event.entity_ref).reservation_view()
            current = state.get(rid, {}).get("state", "tentative")
            cause = "lost_promise" if current == "confirmed" else "compensated"
            plan.event_drafts.append(
                (
                    event.entity_ref,
                    OP_CANCEL,
                    {"reservation_id": rid, "cause": cause, "compensates": txn_id},
                    key,
                )
            )
            if current == "confirmed":
                plan.apologies.append(
                    {
                        "apology_id": f"apology:{rid}",
                        "subject": rid,
                        "cause": "lost_promise",
                        "entity": str(event.entity_ref),
                        "compensation_keys": [key],
                    }
                )
        elif event.op_kind == OP_CONFIRM:
            rid = event.payload["reservation_id"]
            plan.event_drafts.append(
                (
                    event.entity_ref,
                    OP_CANCEL,
                    {"reservation_id": rid, "cause": "compensated", "compensates": txn_id},
                    key,
                )
            )
        elif event.op_kind == OP_INSERT:
            plan.event_drafts.append(
                (event.entity_ref, OP_TOMBSTONE, {"compensates": txn_id}, key)
            )
        # tombstones, apologies, and discrepancy records are not reversed

    for message in replica.outbox.for_txn(txn_id):
        plan.message_drafts.append(
            {
                "destination": message.destination,
                "msg_type": f"{message.msg_type}.compensate",
                "payload": {"original": message.payload, "compensates": txn_id},
                "idempotence_key": f"comp:{message.idempotence_key}",
            }
        )
    return plan
