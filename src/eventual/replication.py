"""Anti-entropy sync and the single end-to-end conflict mechanism.

Every conflict — two sessions on one replica or two replicas on two sides
of a partition — is handled the same way: commit locally without
validation, exchange events, and let the fold (``store.FoldState``)
resolve the event set deterministically. This module reports how the fold
settled concurrency, detects overbooked capacity and selects losers
(latest canonical order loses), and drafts compensations from recorded
operation payloads. The exchange itself, and what a merge obliges, is
``node.Node``'s anti-entropy protocol; ``sync`` runs it offline between
two replicas.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
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
    EventId,
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


class _Offline:
    """One node's host in an offline ``sync``: tick 0, and one queue, in
    order, of the envelopes for the exchange's other node and the tasks
    due at tick 0. A task due later is dropped, as a crash drops the
    volatile work it would run."""

    now = 0

    def __init__(self, src: str, queue: deque):
        self._src = src
        self._queue = queue

    def schedule(self, at: int, kind: str, detail: str, **fields) -> None:
        if at <= self.now:
            self._queue.append((self._src, self._src, None, {"kind": kind, "detail": detail, **fields}))

    def rearm_syncs(self) -> None:
        pass

    def send(self, dst: str, kind: str, body: dict, env_id: str) -> None:
        self._queue.append((self._src, dst, kind, body))


def sync(a: Replica, b: Replica) -> tuple[int, int]:
    """Direct pairwise exchange of the partitions two replicas share.

    Two ``node.Node``s run the anti-entropy protocol over an in-memory
    network that delivers each envelope in order until none is left: ``a``
    asks, ``b`` ships what ``a`` lacks, ``a`` merges it and ships back
    what ``b`` lacks. Each event crosses as the record its sender's log
    holds, so the exchange encodes and decodes no line, and each replica
    ends holding the other's record. Each merge reconciles and remediates
    as in a simulated run: it opens resurrection and unmergeable
    exceptions, and cancels overbooked reservations, each cancel's batch
    carrying its apology. Those commits are durable. A task due at the
    exchange's tick runs in queue order: with the default ``NodeConfig``
    that is the consume of a message a node sends itself, such as an
    apology to its own notify partition. The tasks due later (expiry,
    cleansing, retries, pending actions, lock backoffs) are dropped, as a
    crash drops them, and ``Node.recover`` re-derives them once the
    replica recovers from a crash. A ``queue_msg`` the exchange delivers
    is consumed on arrival, as in a simulated run.

    Returns (events a received, events b received).
    """
    from .node import Node, NodeConfig, notify_destination  # the node builds on this module

    hosts: dict[str, list[str]] = {}
    for replica in (a, b):
        for partition_id in replica.partitions_hosted():
            hosts.setdefault(partition_id, []).append(replica.replica_id)
    notify = notify_destination(hosts)
    queue: deque = deque()
    nodes = {}
    for replica in (a, b):
        host = _Offline(replica.replica_id, queue)
        nodes[replica.replica_id] = Node(replica, NodeConfig(), host, notify=notify)
    try:
        nodes[a.replica_id].start_sync(b.replica_id, shared_partitions(a, b))
        while queue:
            src, dst, kind, body = queue.popleft()
            if kind is None:  # a task due now
                nodes[dst].on_timer(body)
            elif dst in nodes:
                nodes[dst].receive(src, kind, body)
    finally:
        for node in nodes.values():
            node.detach()
    return nodes[a.replica_id].ingested, nodes[b.replica_id].ingested


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
    ``events`` settled it: groups come from canonical order, composed deltas
    are the fold's sums, and the LWW winner is the fold's ``base_winner``,
    with the other inserts the fold took as losers (neither a resurrection
    nor a repeat of an idempotence key is one). Raises UnmergeableCustom
    when a custom policy has no merge hook for concurrent writes; callers
    escalate it to a managed exception."""
    ordered = canonical_sort(events)
    report = ConflictReport(entity_ref=entity_ref, policy=spec.merge_policy.value)
    report.groups = concurrent_groups(ordered)

    if spec.merge_policy is MergePolicy.CUSTOM_MERGE and spec.fold is None and report.groups:
        raise UnmergeableCustom(str(entity_ref))

    if spec.merge_policy is MergePolicy.LWW_REGISTER and state.base_winner is not None:
        first: dict[str, EventRecord] = {}  # each idempotence key's first event: the one the fold applied
        for event in ordered:
            first.setdefault(event.idempotence_key, event)
        losers = [
            str(e.event_id) for e in first.values()
            if e.op_kind == OP_INSERT and e.canonical_key != state.base_winner
            and str(e.event_id) not in state.resurrections
        ]
        report.resolution = {"winner": str(EventId(*state.base_winner[1:])), "losers": losers}
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
    ``message_drafts`` mirrors messages the transaction sent;
    ``unhosted`` names, in order, the partitions holding events of the
    transaction that the compensating replica does not host, so nothing
    was drafted for them.
    """

    txn_id: str
    event_drafts: list[tuple[EntityRef, str, dict, str]] = field(default_factory=list)
    message_drafts: list[dict] = field(default_factory=list)
    apologies: list[dict] = field(default_factory=list)
    unhosted: list[str] = field(default_factory=list)


def compensation_plan(replica: Replica, txn_id: str, origin: Replica | None = None) -> CompensationPlan:
    """Derive reversing events from the recorded operation payloads.

    Possible precisely because payloads describe operations, not
    consequences. Idempotent per txn: the drafted keys are deterministic,
    so replaying the plan has a single net effect. The events come from
    the logs of ``origin``, the replica the transaction ran on (by default
    ``replica``), which holds every event of its own transaction before
    anti-entropy brings them to any other; the messages from its outbox,
    since outboxes do not replicate. Events are drafted only for the
    partitions ``replica``, the compensating replica, hosts. A reversed
    confirm was a promise, and so was a reversed reservation if either
    replica's fold shows it confirmed: its cancel breaks the promise, with
    an apology.
    """
    origin = origin or replica
    hosted = set(replica.partitions_hosted())
    plan = CompensationPlan(txn_id=txn_id)
    originals: list[tuple[str, EventRecord]] = []
    for partition_id in origin.partitions_hosted():
        log = origin.store.log(partition_id)
        events = [event for event in log.events if event.origin_txn_id == txn_id]
        if partition_id not in hosted:
            if events:
                plan.unhosted.append(partition_id)
            continue
        originals += ((partition_id, event) for event in events)
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
        elif event.op_kind in (OP_TENTATIVE, OP_CONFIRM):
            rid = event.payload["reservation_id"]
            # a confirm made the promise; a reservation's promise was made if
            # either replica has seen it confirmed
            confirmed = event.op_kind == OP_CONFIRM or any(
                r.store.fold_state(partition_id, event.entity_ref).reservation_view()
                .get(rid, {}).get("state") == "confirmed"
                for r in (replica, origin)
            )
            cause = "lost_promise" if confirmed else "compensated"
            plan.event_drafts.append(
                (
                    event.entity_ref,
                    OP_CANCEL,
                    {"reservation_id": rid, "cause": cause, "compensates": txn_id},
                    key,
                )
            )
            if confirmed:
                entity = str(event.entity_ref)
                plan.apologies.append(apology_payload(rid, "lost_promise", entity, [key]))
        elif event.op_kind == OP_INSERT:
            plan.event_drafts.append(
                (event.entity_ref, OP_TOMBSTONE, {"compensates": txn_id}, key)
            )
        # tombstones, apologies, and discrepancy records are not reversed

    for message in origin.outbox.for_txn(txn_id):
        plan.message_drafts.append(
            {
                "destination": message.destination,
                "msg_type": f"{message.msg_type}.compensate",
                "payload": {"original": message.payload, "compensates": txn_id},
                "idempotence_key": f"comp:{message.idempotence_key}",
            }
        )
    return plan
