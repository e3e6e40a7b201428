"""Anti-entropy sync and the single end-to-end conflict mechanism.

Every conflict — two sessions on one replica or two replicas on two sides
of a partition — is handled the same way: commit locally without
validation, exchange events, and let the fold (``store.FoldState``)
resolve the event set deterministically. This module ships the events,
reports how the fold settled concurrency, detects overbooked capacity
and selects losers (latest canonical order loses), and drafts
compensations from recorded operation payloads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import Uncompensatable, UnmergeableCustom
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
    FoldState,
    canonical_json,
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
        return canonical_json(
            {
                "entity": str(self.entity_ref),
                "policy": self.policy,
                "groups": self.groups,
                "resolution": self.resolution,
                "compensations": self.compensations,
            }
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


def concurrent_groups(ordered: list[EventRecord]) -> list[list[str]]:
    """Connected components of the pairwise-concurrency graph (size >= 2).

    ``ordered`` must be in canonical order. Components come back in that
    order, ids inside each in that order. One sweep, O(n·R) for R
    origins, rests on three premises the store maintains:

    1. The sort key (lww_hint, origin, seq) uses a Lamport hint, so
       canonical order is a linear extension of causality.
    2. Stamps are causally closed: per partition a replica holds a prefix
       of each origin's events (``append`` rejects seq <= max, and a sync
       ships whole diffs in per-origin sequence order). So for i < j the
       two events are concurrent iff stamp_j does not cover e_i.
    3. Components are contiguous runs of a linear extension: for
       i < k < j with i ∥ j, a k concurrent with neither would give
       i → k → j.

    So event k needs one candidate per origin, the earliest event of that
    origin its stamp does not cover, confirmed by ``concurrent_with``.
    lo[k] is the smallest confirmed position, and a run ends at p iff no
    k > p has lo[k] <= p.
    """
    n = len(ordered)
    seqs: dict[str, list[int]] = {}
    positions: dict[str, list[int]] = {}
    for pos, event in enumerate(ordered):
        seqs.setdefault(event.event_id.replica, []).append(event.event_id.seq)
        positions.setdefault(event.event_id.replica, []).append(pos)

    lo = list(range(n))
    for k, event in enumerate(ordered):
        stamp = event.causal_stamp
        for origin, origin_seqs in seqs.items():
            first = bisect_right(origin_seqs, stamp.get(origin))
            if first < len(origin_seqs):
                i = positions[origin][first]
                if i < lo[k] and ordered[i].causal_stamp.concurrent_with(stamp):
                    lo[k] = i

    reach = lo + [n]  # reach[p] = min lo[k] over k >= p
    for p in range(n - 1, -1, -1):
        reach[p] = min(reach[p], reach[p + 1])
    groups: list[list[str]] = []
    start = 0
    for p in range(n):
        if reach[p + 1] > p:  # no concurrent pair spans p | p+1
            if p > start:
                groups.append([str(e.event_id) for e in ordered[start:p + 1]])
            start = p + 1
    return groups


def resolve(entity_ref: EntityRef, events: list[EventRecord], spec: RollupSpec,
            state: FoldState) -> ConflictReport:
    """Report the concurrency on one entity and how its fold ``state`` of
    ``events`` settled it: composed deltas are the fold's sums; groups, LWW
    winner and losers come from canonical order. Raises UnmergeableCustom
    when a custom policy has no merge hook for concurrent writes; callers
    escalate it to a managed exception."""
    ordered = canonical_sort(events)
    report = ConflictReport(entity_ref=entity_ref, policy=spec.merge_policy.value)
    report.groups = concurrent_groups(ordered)

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
        report.resolution = {"composed": dict(state.sums)}
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


# -- apologies and compensation ------------------------------------------------


def apology_payload(subject: str, cause: str, entity: str, compensation_keys: list[str]) -> dict:
    """Body of the ``_apology.record`` message for one broken promise.

    The apology id derives from the subject alone, so every replica that
    decides the same apology produces the same idempotence key.
    """
    return {
        "apology_id": f"apology:{subject}",
        "subject": subject,
        "cause": cause,
        "entity": entity,
        "compensation_keys": compensation_keys,
    }


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
                entity = str(event.entity_ref)
                plan.apologies.append(apology_payload(rid, "lost_promise", entity, [key]))
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
