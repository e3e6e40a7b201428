"""Deterministic seeded discrete-event simulator.

One global priority queue of (time, sequence, task); every random choice
comes from a single seeded generator in a fixed draw order, so identical
(seed, config, scenario) always produces an identical trace. Replicas,
the network (delays, drops, duplicates, reordering), partitions,
crash/recovery, and disasters are all simulated; quiescence is detected
structurally, never by timeout.

Crash model: durable state is the logs, outbox, inbox, processed keys,
descriptors, and audit log. Scheduled work, retry timers, and logical
locks are volatile; recovery re-derives them from durable state. A
replica crashes at a tick (a ``crash`` fault, between tasks) or right
after one of its commits (``Simulator.crash_after_commit``): then the rest
of the running task is lost, and the replica recovers
``CRASH_RECOVERY_GAP`` ticks later.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import bus
from .clocks import VersionVector
from .errors import (
    AlreadyTerminal,
    LockConflict,
    MultiEntityWriteRejected,
    UnknownReservation,
    UnknownTarget,
    UnmergeableCustom,
)
from .bus import QueueMessage
from .process import (
    ProcessDef,
    ProcessManager,
    join_entity,
    join_fire_template,
    join_merged_payload,
    join_ready,
    join_record_template,
    plan_cleansing,
    plan_referential_resolutions,
    scan_apologies,
    scan_exceptions,
    scan_reservations,
)
from .registry import SchemaRegistry
from .replica import Replica
from .replication import compensation_plan, detect_overbooking, resolve, shared_partitions
from .store import (
    OP_DISCREPANCY,
    OP_INSERT,
    OP_TENTATIVE,
    EntityRef,
    EventRecord,
    canon,
)
from .txn import (
    CommitBatch,
    ProcessStepDef,
    StepContext,
    TriggerSpec,
    apply_pending_actions,
    commit as txn_commit,
    execute_step,
)

CRASH_RECOVERY_GAP = 5


class _CrashedAfterCommit(Exception):
    """Unwinds the task of a replica that crashed right after a commit."""


@dataclass
class SimConfig:
    seed: int = 0
    partitions: dict[str, list[str]] = field(default_factory=dict)  # partition -> replicas
    placement: dict[str, str] = field(default_factory=dict)  # entity type -> partition
    notify_partition: str | None = None
    delay_min: int = 1
    delay_max: int = 4
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: bool = True
    sync_interval: int = 5
    retry_base: int = 2
    retry_cap: int = 16
    pending_lag: int = 2
    cleanse_lag: int = 2
    lock_backoff: int = 2
    max_time: int = 10_000

    def fingerprint(self) -> str:
        return json.dumps(canon(self.__dict__), sort_keys=True, separators=(",", ":"))


@dataclass
class Fault:
    kind: str  # partition | heal | crash | recover | disaster
    at: int
    target: str | None = None  # replica id, or reservation id for disasters
    groups: list[list[str]] | None = None
    entity: str | None = None


@dataclass
class ClientAction:
    at: int
    replica: str
    do: str
    params: dict = field(default_factory=dict)
    action_id: str = ""
    session: str | None = None


@dataclass
class Scenario:
    registry: SchemaRegistry
    config: SimConfig
    actions: list[ClientAction] = field(default_factory=list)
    faults: list[Fault] = field(default_factory=list)
    processes: list[ProcessDef] = field(default_factory=list)


@dataclass
class RunReport:
    trace_hash: str = ""
    quiescent: bool = False
    max_time_exceeded: bool = False
    end_time: int = 0
    commits: dict[str, int] = field(default_factory=dict)
    commit_times: dict[str, list[int]] = field(default_factory=dict)
    messages: dict[str, float] = field(default_factory=dict)
    handler_effects: dict[str, int] = field(default_factory=dict)
    commit_path_sends: int = 0
    multi_entity_rejections: int = 0
    locks_held_at_end: int = 0
    conflicts: list[str] = field(default_factory=list)
    apologies: list[dict] = field(default_factory=list)
    exceptions: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    reservations: dict[str, dict[str, str]] = field(default_factory=dict)
    rollups: dict[str, dict[str, str]] = field(default_factory=dict)
    probes: dict[str, object] = field(default_factory=dict)
    partition_windows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def _scrub_timing(value):
        """Strip per-run timing metadata (canonical-order keys, clock
        stamps) that legitimately shifts when a crash delays processing."""
        if isinstance(value, dict):
            return {
                k: RunReport._scrub_timing(v)
                for k, v in value.items()
                if k not in ("order", "recorded_at")
            }
        if isinstance(value, list):
            return [RunReport._scrub_timing(v) for v in value]
        return value

    def semantic_digest(self) -> str:
        """Business state only — stable across replayed duplicates and
        timing shifts, so a crash run can be compared against its
        no-crash twin."""
        body = {
            "values": {
                replica: {
                    entity: self._scrub_timing(json.loads(dump)["value"])
                    for entity, dump in sorted(entities.items())
                }
                for replica, entities in sorted(self.rollups.items())
            },
            "deleted": {
                replica: {
                    entity: json.loads(dump)["deleted"]
                    for entity, dump in sorted(entities.items())
                }
                for replica, entities in sorted(self.rollups.items())
            },
            "apologies": sorted(a["apology_id"] for a in self.apologies),
            "exceptions": self.exceptions,
            "reservations": self.reservations,
        }
        return json.dumps(canon(body), sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = [
            "schema: eventual-report/1",
            f"trace_hash: {self.trace_hash}",
            f"quiescent: {str(self.quiescent).lower()}",
            f"max_time_exceeded: {str(self.max_time_exceeded).lower()}",
            f"end_time: {self.end_time}",
            f"commit_path_sends: {self.commit_path_sends}",
            f"multi_entity_rejections: {self.multi_entity_rejections}",
            "commits: " + json.dumps(canon(self.commits), sort_keys=True),
            "messages: " + json.dumps(canon(self.messages), sort_keys=True),
            f"apology_count: {len(self.apologies)}",
        ]
        for apology in self.apologies:
            lines.append("apology: " + json.dumps(canon(apology), sort_keys=True))
        for replica in sorted(self.exceptions):
            lines.append(
                f"exceptions {replica}: " + json.dumps(canon(self.exceptions[replica]), sort_keys=True)
            )
        for replica in sorted(self.reservations):
            lines.append(
                f"reservations {replica}: "
                + json.dumps(canon(self.reservations[replica]), sort_keys=True)
            )
        for label in sorted(self.probes):
            lines.append(f"probe {label}: " + json.dumps(canon(self.probes[label]), sort_keys=True))
        for replica in sorted(self.rollups):
            for entity in sorted(self.rollups[replica]):
                lines.append(f"rollup {replica} {entity}: {self.rollups[replica][entity]}")
        for report in self.conflicts:
            lines.append(f"conflict: {report}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


class Simulator:
    """Executes one scenario under one seed."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = scenario.config
        self.registry = scenario.registry
        self.rng = random.Random(self.config.seed)
        self.now = 0
        # (time, seq, task): seq is unique, so ties never compare tasks
        self._heap: list[tuple[int, int, dict]] = []
        self._seq = 0
        self._trace = hashlib.sha256()
        self._trace.update(self.config.fingerprint().encode())

        hosted: dict[str, list[str]] = {}
        for partition_id, replica_ids in sorted(self.config.partitions.items()):
            for rid in replica_ids:
                hosted.setdefault(rid, []).append(partition_id)
        self.replicas: dict[str, Replica] = {
            rid: Replica(rid, self.registry, sorted(parts), self.config.placement)
            for rid, parts in sorted(hosted.items())
        }

        # each replica's sync peers, in id order, with the partitions it
        # shares with each: the topology never changes during a run
        self._sync_peers: dict[str, list[tuple[str, list[str]]]] = {
            rid: [
                (other, shared)
                for other, peer in self.replicas.items()
                if other != rid and (shared := shared_partitions(replica, peer))
            ]
            for rid, replica in self.replicas.items()
        }

        self.manager = ProcessManager()
        for proc in scenario.processes:
            self.manager.register_process(proc)

        self.partition_groups: list[frozenset[str]] | None = None
        self._fifo_floor: dict[tuple[str, str], int] = {}
        self._in_flight = 0  # application messages and acks
        self._in_flight_sync = 0  # anti-entropy traffic, tracked separately
        self._client_pending = 0
        self._sync_armed: dict[str, bool] = {rid: False for rid in self.replicas}
        self._in_commit = False
        # batches committed in the running commit path; hooked as the list's
        # own append, so no replica refers back to the simulator
        self._committed: list[CommitBatch] = []
        for replica in self.replicas.values():
            replica.on_commit = self._committed.append

        self.counters = {
            "sent": 0,
            "delivered": 0,
            "duplicates": 0,
            "dropped": 0,
            "client_requests": 0,
        }
        self._delivered_ids: set[str] = set()
        # every sync line decoded in this run -> its record, shared by all receivers
        self._decoded: dict[str, EventRecord] = {}
        self.handler_effects: dict[str, int] = {}
        self.commit_path_sends = 0
        self.multi_entity_rejections = 0
        self.conflict_reports: dict[str, str] = {}
        self.probes: dict[str, object] = {}
        self.notes: list[str] = []
        self.partition_windows: list[dict] = []

    def crash_after_commit(self, replica_id: str, k: int) -> None:
        """Crash the replica right after its k-th commit: the batch is
        durable, the rest of the task is lost, and the replica recovers
        CRASH_RECOVERY_GAP ticks later."""
        replica = self.replicas[replica_id]

        def crash_point(batch: CommitBatch) -> None:
            self._committed.append(batch)
            if len(replica.commit_times) != k:
                return
            self._crash(replica_id)
            recover = Fault(kind="recover", at=self.now + CRASH_RECOVERY_GAP, target=replica_id)
            detail = f"{recover.kind}:{replica_id}"
            self._schedule(recover.at, {"kind": "fault", "fault": recover, "detail": detail})
            raise _CrashedAfterCommit(replica_id)

        replica.on_commit = crash_point

    # -- scheduling --------------------------------------------------------

    def _schedule(self, at: int, task: dict) -> None:
        self._seq += 1
        if task.get("volatile"):
            task["epoch"] = self.replicas[task["replica"]].epoch
        heapq.heappush(self._heap, (max(at, self.now), self._seq, task))

    def _schedule_task(self, at: int, kind: str, replica_id: str, detail: str, **fields) -> None:
        """Schedule work of one replica; it is volatile, so a crash drops it."""
        self._schedule(
            at, {"kind": kind, "replica": replica_id, "volatile": True, "detail": detail, **fields}
        )

    def _schedule_consume(self, rid: str, partition: str) -> None:
        """Drain (rid, partition)'s inbox now."""
        self._schedule_task(self.now, "consume", rid, f"{rid}:{partition}", partition=partition)

    def _schedule_retry(self, rid: str, message_id: str, at: int) -> None:
        self._schedule_task(at, "retry", rid, message_id, message_id=message_id)

    def _schedule_pending(self, rid: str, txn_id: str) -> None:
        at = self.now + self.config.pending_lag
        self._schedule_task(at, "pending", rid, txn_id, txn_id=txn_id)

    def _schedule_expiry(self, rid: str, ref: EntityRef, reservation_id: str, deadline: int) -> None:
        at = max(deadline, self.now + 1)
        fields = {"entity": str(ref), "reservation_id": reservation_id}
        self._schedule_task(at, "expiry", rid, reservation_id, **fields)

    def _schedule_cleanse(self, rid: str, ref: EntityRef) -> None:
        at = self.now + self.config.cleanse_lag
        self._schedule_task(at, "cleanse", rid, str(ref), entity=str(ref))

    @contextmanager
    def _commit_path(self, replica: Replica):
        """Mark the commit path: a network send inside it breaks availability.
        On a normal exit each batch committed inside gets its ``_react``; a
        crash point drops them, and recovery re-derives what they oblige."""
        self._in_commit = True
        try:
            yield
        finally:
            self._in_commit = False
            committed = self._committed[:]
            self._committed.clear()
        for batch in committed:
            self._react(replica, batch)

    def _trace_task(self, task: dict) -> None:
        detail = task.get("detail", "")
        self._trace.update(f"{self.now}|{task['kind']}|{detail}\n".encode())

    # -- network -----------------------------------------------------------

    def _reachable(self, a: str, b: str) -> bool:
        if a == b:
            return True
        if self.partition_groups is None:
            return True
        for group in self.partition_groups:
            if a in group and b in group:
                return True
        return False

    def _send(self, src: str, dst: str, env_kind: str, body: dict, env_id: str) -> None:
        if self._in_commit:
            self.commit_path_sends += 1
        self.counters["sent"] += 1
        delay = self.rng.randint(self.config.delay_min, self.config.delay_max)
        dropped = self.rng.random() < self.config.drop
        duplicated = self.rng.random() < self.config.duplicate
        deliver_at = self.now + delay
        if not self.config.reorder:
            floor = self._fifo_floor.get((src, dst), 0)
            deliver_at = max(deliver_at, floor)
            self._fifo_floor[(src, dst)] = deliver_at
        legs = []
        if not dropped:
            legs.append(deliver_at)
        else:
            self.counters["dropped"] += 1
        if duplicated:
            legs.append(deliver_at + self.rng.randint(1, max(1, self.config.delay_max)))
        for at in legs:
            if env_kind.startswith("sync"):
                self._in_flight_sync += 1
            else:
                self._in_flight += 1
            self._schedule(
                at,
                {
                    "kind": "deliver",
                    "src": src,
                    "dst": dst,
                    "env_kind": env_kind,
                    "body": body,
                    "detail": f"{env_kind}:{src}->{dst}:{env_id}",
                },
            )

    # -- run loop ------------------------------------------------------------

    def run(self) -> RunReport:
        for action in self.scenario.actions:
            self._client_pending += 1
            self._schedule(action.at, {"kind": "client", "action": action, "detail": action.action_id})
        for fault in self.scenario.faults:
            self._schedule(fault.at, {"kind": "fault", "fault": fault, "detail": f"{fault.kind}:{fault.target}"})
        for rid in sorted(self.replicas):
            self._arm_sync(rid, self.config.sync_interval)

        max_time_exceeded = False
        while self._heap:
            at, _, task = heapq.heappop(self._heap)
            if at > self.config.max_time:
                max_time_exceeded = True
                break
            self.now = at
            if task.get("volatile"):
                replica = self.replicas[task["replica"]]
                if task.get("epoch", 0) != replica.epoch or not replica.alive:
                    continue  # scheduled before a crash: volatile state is gone
            self._trace_task(task)
            handler = getattr(self, f"_task_{task['kind']}")
            try:
                handler(task)
            except _CrashedAfterCommit:
                pass  # the replica is down: the rest of its task is lost
        for replica in self.replicas.values():
            replica.on_commit = None  # a later commit outside the run records nothing
        return self._build_report(max_time_exceeded)

    # -- quiescence ----------------------------------------------------------

    def quiesce(self) -> bool:
        """Structural check: nothing in flight, pending, or scheduled."""
        return self._app_quiet() and self._in_flight_sync == 0

    def _app_quiet(self) -> bool:
        """Application-level quiescence, ignoring anti-entropy traffic.

        Safe for gating sync timers: an in-flight sync response either
        carries events (its merge rearms the timers) or changes nothing.
        """
        if self.partition_groups is not None:
            return False
        if self._in_flight > 0 or self._client_pending > 0:
            return False
        for replica in self.replicas.values():
            if not replica.alive:
                return False
            if any(not entry.acked for entry in replica.outbox.entries):
                return False
            if len(replica.inbox) > 0:
                return False
            if any(txn_id not in replica.descriptors_done for txn_id in replica.descriptors):
                return False
        return True

    def _frontiers_converged(self) -> bool:
        for partition_id, replica_ids in sorted(self.config.partitions.items()):
            fronts = {self.replicas[r].frontier(partition_id).key() for r in replica_ids}
            if len(fronts) > 1:
                return False
        return True

    def _arm_sync(self, rid: str, delay: int) -> None:
        if not self._sync_armed.get(rid) and self.replicas[rid].alive:
            self._sync_armed[rid] = True
            self._schedule_task(self.now + delay, "sync", rid, rid)

    def _rearm_all_syncs(self) -> None:
        for rid in sorted(self.replicas):
            self._arm_sync(rid, self.config.sync_interval)

    # -- task handlers ---------------------------------------------------------

    def _task_client(self, task: dict) -> None:
        action: ClientAction = task["action"]
        self._client_pending -= 1
        replica = self.replicas.get(action.replica)
        if replica is None:
            raise UnknownTarget(action.replica)
        if action.do == "read":
            self._probe(replica, action)
            return
        if action.do == "compensate":
            self._compensate(replica, action)
            return
        if action.do == "summarize":
            ref = EntityRef.parse(action.params["entity"])
            partition = replica.store.route(ref)
            replica.store.summarize(partition, ref, replica.frontier(partition))
            return
        self.counters["client_requests"] += 1
        if action.do == "emit":
            msg_type = action.params["type"]
            payload = dict(action.params.get("payload", {}))
            partition = action.params.get("partition") or self._default_partition(replica)
        else:
            msg_type = f"client.{action.do}"
            payload = {"template": dict(action.params, kind=action.do)}
            if action.session:
                payload["session"] = action.session
            partition = self._partition_for_template(replica, action.params)
        message = QueueMessage(
            message_id=f"client:{action.action_id}",
            destination=(replica.replica_id, partition),
            msg_type=msg_type,
            payload=payload,
            idempotence_key=f"client:{action.action_id}",
            enqueue_stamp=self.now,
            sender="client",
        )
        # client requests land in the durable inbox even across a crash
        replica.inbox.add(message)
        self._schedule_consume(replica.replica_id, partition)

    def _default_partition(self, replica: Replica) -> str:
        return replica.partitions_hosted()[0]

    def _partition_for_template(self, replica: Replica, params: dict) -> str:
        if "entity" in params:
            return replica.store.route(EntityRef.parse(params["entity"]))
        if "entity_type" in params:
            return replica.store.route(EntityRef(params["entity_type"], "?"))
        return self._default_partition(replica)

    def _probe(self, replica: Replica, action: ClientAction) -> None:
        label = action.params.get("label", action.action_id)
        if not replica.alive:
            self.probes[label] = {"down": True}
            return
        ref = EntityRef.parse(action.params["entity"])
        partition = replica.store.route(ref)
        state = replica.store.rollup(partition, ref)
        self.probes[label] = {"value": canon(state.value), "deleted": state.deleted_flag}

    def _compensate(self, replica: Replica, action: ClientAction) -> None:
        target = action.params["action"]
        # the transaction that consumed the action's message where it ran
        ran_on = next((a.replica for a in self.scenario.actions if a.action_id == target), None)
        txn_id = ran_on in self.replicas and self.replicas[ran_on].processed.get(f"client:{target}")
        if not txn_id:
            self.notes.append(f"compensate: no transaction recorded for {target}")
            return
        plan = compensation_plan(replica, txn_id)

        def compensating_messages(comp_txn: str) -> list[QueueMessage]:
            return [
                QueueMessage(
                    message_id=f"{comp_txn}:m{i}",
                    destination=tuple(draft["destination"]),
                    msg_type=draft["msg_type"],
                    payload=draft["payload"],
                    idempotence_key=draft["idempotence_key"],
                    enqueue_stamp=self.now,
                    sender=replica.replica_id,
                )
                for i, draft in enumerate(plan.message_drafts)
            ]

        by_entity: dict[str, list] = {}
        for ref, op_kind, payload, key in plan.event_drafts:
            by_entity.setdefault(str(ref), []).append((ref, op_kind, payload, key))
        messages_sent = not plan.message_drafts
        for entity_text in sorted(by_entity):
            comp_txn = replica.next_txn_id("sys")
            events = [
                replica.store.make_event(ref, op_kind, payload, key, comp_txn)
                for ref, op_kind, payload, key in by_entity[entity_text]
            ]
            batch = CommitBatch(txn_id=comp_txn, session="sys", events=events)
            # each broken promise's apology rides in the batch of its cancel
            apologies = [a for a in plan.apologies if a["entity"] == entity_text]
            bus.enqueue(batch, [
                self._apology_message(replica, f"{comp_txn}:a{j}", apology)
                for j, apology in enumerate(apologies)
            ])
            if not messages_sent:
                # the compensating messages ride in the first batch, so a
                # crash after the compensation's first commit cannot lose them
                bus.enqueue(batch, compensating_messages(comp_txn))
                messages_sent = True
            self._commit_batch(replica, batch)
        if not messages_sent:
            # a plan with no events sends its messages in a batch of their own
            batch = CommitBatch(txn_id=replica.next_txn_id("sys"), session="sys")
            bus.enqueue(batch, compensating_messages(batch.txn_id))
            self._commit_batch(replica, batch)

    def _task_fault(self, task: dict) -> None:
        fault: Fault = task["fault"]
        if fault.kind == "partition":
            groups = [frozenset(g) for g in fault.groups or []]
            named = {r for g in groups for r in g}
            for rid in self.replicas:
                if rid not in named:
                    groups.append(frozenset([rid]))
            self.partition_groups = groups
            self.partition_windows.append(
                {"start": self.now, "end": None, "groups": [sorted(g) for g in groups]}
            )
        elif fault.kind == "heal":
            self.partition_groups = None
            for window in self.partition_windows:
                if window["end"] is None:
                    window["end"] = self.now
            self._rearm_all_syncs()
        elif fault.kind == "crash":
            if fault.target not in self.replicas:
                raise UnknownTarget(str(fault.target))
            self._crash(fault.target)
        elif fault.kind == "recover":
            if fault.target not in self.replicas:
                raise UnknownTarget(str(fault.target))
            self._recover(self.replicas[fault.target])
        elif fault.kind == "disaster":
            self._disaster(fault)
        else:
            raise UnknownTarget(f"unknown fault kind {fault.kind!r}")

    def _crash(self, rid: str) -> None:
        self.replicas[rid].crash()
        self._sync_armed[rid] = False

    def _recover(self, replica: Replica) -> None:
        replica.recover()
        rid = replica.replica_id
        for partition_id in replica.partitions_hosted():
            if any(m.destination[1] == partition_id for m in replica.inbox.arrivals):
                self._schedule_consume(rid, partition_id)
        for entry in replica.outbox.pending():
            self._schedule_retry(rid, entry.message.message_id, self.now + 1)
        for descriptor in replica.unapplied_descriptors():
            # recovery owns incomplete deferred work: re-derive its locks, re-run
            for ref in descriptor.lock_scope:
                try:
                    replica.locks.acquire(ref, descriptor.owner_session, descriptor.txn_id)
                except LockConflict:
                    pass
            self._schedule_pending(rid, descriptor.txn_id)
        for partition_id in replica.partitions_hosted():
            log = replica.store.log(partition_id)
            for ref in log.entity_refs():
                self._follow_up(replica, ref, log.all_events_for(ref))
        self._arm_sync(rid, self.config.sync_interval)

    def _disaster(self, fault: Fault) -> None:
        """A real-world failure abrogates a fulfillment promise."""
        ref = EntityRef.parse(fault.entity)
        partition = self.config.placement.get(ref.entity_type)
        hosts = [r for r in self.config.partitions.get(partition, []) if self.replicas[r].alive]
        if not hosts:
            self._schedule(self.now + 1, {"kind": "fault", "fault": fault, "detail": "disaster-retry"})
            return
        replica = self.replicas[sorted(hosts)[0]]
        rid = fault.target
        try:
            self._cancel_reservation(replica, ref, rid, "disaster", f"disaster.{rid}", f"disaster:{rid}")
        except LockConflict:
            retry = {"kind": "fault", "fault": fault, "detail": "disaster-retry"}
            self._schedule(self.now + self.config.lock_backoff, retry)

    # -- message flow -----------------------------------------------------------

    def _task_deliver(self, task: dict) -> None:
        if task["env_kind"].startswith("sync"):
            self._in_flight_sync -= 1
        else:
            self._in_flight -= 1
        src, dst = task["src"], task["dst"]
        if not self._reachable(src, dst) or not self.replicas[dst].alive:
            self.counters["dropped"] += 1
            return
        env_kind = task["env_kind"]
        body = task["body"]
        replica = self.replicas[dst]
        if env_kind == "queue_msg":
            message = QueueMessage(**body)
            self.counters["delivered"] += 1
            if message.message_id in self._delivered_ids:
                self.counters["duplicates"] += 1
            self._delivered_ids.add(message.message_id)
            replica.inbox.add(message)
            self._send(dst, src, "ack", {"message_id": message.message_id}, message.message_id)
            self._schedule_consume(dst, message.destination[1])
        elif env_kind == "ack":
            replica.outbox.mark_acked(body["message_id"])
        elif env_kind == "sync_req":
            self._answer_sync(src, dst, body)
        elif env_kind == "sync_resp":
            self._finish_sync(src, dst, body)
        elif env_kind == "sync_back":
            self._merge_remote_events(replica, body["events"])

    def _task_retry(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        entry = replica.outbox.get(task["message_id"])
        if entry is None or entry.acked:
            return
        entry.attempts += 1
        self._transmit(replica, entry)

    def _transmit(self, replica: Replica, entry) -> None:
        message = entry.message
        dst = message.destination[0]
        if dst == replica.replica_id:
            # local destination: enqueue/dequeue are local, no network at all
            replica.inbox.add(message)
            entry.acked = True
            self._schedule_consume(dst, message.destination[1])
            return
        self._send(
            replica.replica_id,
            dst,
            "queue_msg",
            {
                "message_id": message.message_id,
                "destination": tuple(message.destination),
                "msg_type": message.msg_type,
                "payload": dict(message.payload),
                "idempotence_key": message.idempotence_key,
                "enqueue_stamp": message.enqueue_stamp,
                "sender": message.sender,
            },
            message.message_id,
        )
        backoff = min(
            self.config.retry_base * (2 ** min(entry.attempts - 1, 10)), self.config.retry_cap
        )
        self._schedule_retry(replica.replica_id, message.message_id, self.now + backoff)

    def _task_consume(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        partition = task["partition"]
        message = bus.consume_next(replica, partition)
        if message is None:
            return
        self._schedule_task(
            self.now, "exec", replica.replica_id, f"{replica.replica_id}:{message.message_id}",
            partition=partition, message_id=message.message_id,
        )

    def _task_exec(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        partition = task["partition"]
        message = next(
            (m for m in replica.inbox.arrivals if m.message_id == task["message_id"]), None
        )
        if message is None or message.idempotence_key in replica.processed:
            self._reconsume(replica, partition)
            return
        steps = self._matched_steps(replica, message)
        if not steps:
            self.notes.append(f"unmatched event type {message.msg_type!r} recorded and ignored")
        try:
            for i, (step_def, payload, session) in enumerate(steps):
                marker = None
                if i == len(steps) - 1:
                    marker = (message.message_id, message.idempotence_key)
                ctx = StepContext(
                    replica=replica,
                    now=self.now,
                    session=session,
                    payload=payload,
                    idempotence_base=message.idempotence_key,
                    consume_marker=marker,
                    route_message=self._router(replica, partition),
                )
                self._execute_guarded(step_def, ctx)
        except LockConflict:
            self._schedule_task(
                self.now + self.config.lock_backoff, "exec", replica.replica_id,
                f"defer:{message.message_id}", partition=partition, message_id=message.message_id,
            )
            return
        if message.idempotence_key not in replica.processed:
            # zero matches, a rejection, or a rolled-back step: acknowledge via
            # a degenerate batch so the message is not redelivered forever
            batch = CommitBatch(
                txn_id=replica.next_txn_id("sys"),
                session="sys",
                processed_key=message.idempotence_key,
                ack_only=True,
                inbox_remove=message.message_id,
            )
            self._commit_batch(replica, batch)
        self.handler_effects[message.idempotence_key] = (
            self.handler_effects.get(message.idempotence_key, 0) + 1
        )
        self._reconsume(replica, partition)

    def _reconsume(self, replica: Replica, partition: str) -> None:
        if any(m.destination[1] == partition for m in replica.inbox.arrivals):
            self._schedule_consume(replica.replica_id, partition)

    def _execute_guarded(self, step_def: ProcessStepDef, ctx: StepContext) -> None:
        """Run one step; commit is instrumented to prove it never touches
        the network."""
        with self._commit_path(ctx.replica):
            try:
                execute_step(step_def, ctx)
            except MultiEntityWriteRejected as exc:
                self.multi_entity_rejections += 1
                ctx.replica.audit_log.append({"audit": "multi_entity_rejected", "detail": str(exc)})
            except (UnknownReservation, AlreadyTerminal) as exc:
                self.notes.append(f"{type(exc).__name__}: {exc}")

    def _commit_batch(self, replica: Replica, batch: CommitBatch) -> None:
        with self._commit_path(replica):
            txn_commit(replica, batch, self.now)

    def _router(self, replica: Replica, trigger_partition: str):
        def route(to, written):
            if to == "notify":
                return self._notify_destination()
            partition = trigger_partition
            if written is not None:
                partition = replica.store.route(written)
            return (replica.replica_id, partition)

        return route

    def _notify_destination(self) -> tuple[str, str]:
        partition = self.config.notify_partition
        if partition is None:
            partition = sorted(self.config.partitions)[0]
        return (sorted(self.config.partitions[partition])[0], partition)

    def _matched_steps(self, replica: Replica, message: QueueMessage):
        """Builtin client templates, the apology recorder, and registered
        process steps (running joins through their correlation entities)."""
        matches: list[tuple[ProcessStepDef, dict, str]] = []
        msg_type = message.msg_type
        if msg_type.startswith("client."):
            template = dict(message.payload["template"])
            session = message.payload.get("session") or message.idempotence_key
            step_def = ProcessStepDef(msg_type, TriggerSpec((msg_type,)), template)
            matches.append((step_def, dict(message.payload), session))
            return matches
        if msg_type == "_apology.record":
            step_def = ProcessStepDef(
                "_apology.record", TriggerSpec((msg_type,)), {"kind": "apology_record"}
            )
            matches.append((step_def, dict(message.payload), "sys"))
            return matches
        for proc, step_def in self.manager.matching_steps(msg_type):
            session = f"proc:{proc.process_id}"
            if not step_def.trigger.is_join:
                matches.append((step_def, dict(message.payload), session))
                continue
            correlation = str(message.payload.get(step_def.trigger.correlate))
            ref = join_entity(proc.process_id, step_def.step_id, correlation)
            record = join_record_template(msg_type, dict(message.payload), ref)
            self._run_infra_step(
                replica,
                f"join.{step_def.step_id}",
                record,
                f"join:{ref.key}:{msg_type}",
            )
            if join_ready(replica, ref, step_def.trigger):
                merged = join_merged_payload(replica, ref, step_def.trigger)
                self._run_infra_step(
                    replica, f"joinfire.{step_def.step_id}", join_fire_template(ref), f"fire:{ref.key}"
                )
                matches.append((step_def, merged, session))
        return matches

    def _run_infra_step(self, replica: Replica, step_id: str, template: dict, base: str) -> None:
        step_def = ProcessStepDef(step_id, TriggerSpec((step_id,)), template)
        ctx = StepContext(
            replica=replica,
            now=self.now,
            session="sys",
            payload={},
            idempotence_base=base,
            route_message=self._router(replica, self._default_partition(replica)),
        )
        self._execute_guarded(step_def, ctx)

    # -- commit reactions --------------------------------------------------------

    def _react(self, replica: Replica, batch: CommitBatch) -> None:
        """What a committed batch obliges, once its commit path returned."""
        if batch.events:
            self._follow_up(replica, batch.events[0].entity_ref, batch.events)
        if batch.descriptor is not None:
            self._schedule_pending(replica.replica_id, batch.descriptor.txn_id)
        if batch.messages:  # launch the outbox
            for entry in replica.outbox.pending():
                if entry.attempts == 0:
                    entry.attempts = 1
                    self._transmit(replica, entry)
        if batch.events or batch.messages:
            self._rearm_all_syncs()

    def _follow_up(self, replica: Replica, ref: EntityRef, events: list[EventRecord]) -> None:
        """What a change to ``ref`` obliges this replica to do, given the
        events that made it (a commit's, a merge's, or on recovery all of
        them): an expiry for each of its own reservations still tentative
        with a deadline, a cleansing for each of its own open discrepancies,
        the resolution of references waiting on an inserted parent, and the
        remediation of a capacity entity. A remediation that a pending
        descriptor's lock refuses waits for that descriptor's pending task,
        which follows up every entity of its lock scope once it releases
        the locks."""
        rid = replica.replica_id
        inserted = False
        for event in events:
            op = event.op_kind
            if op == OP_INSERT:
                inserted = True
            elif event.event_id.replica != rid:
                continue
            elif op == OP_TENTATIVE and event.payload.get("deadline") is not None:
                reservation_id = event.payload["reservation_id"]
                view = replica.store.fold_state(replica.store.route(ref), ref).reservation_view()
                if view.get(reservation_id, {}).get("state") == "tentative":
                    self._schedule_expiry(rid, ref, reservation_id, event.payload["deadline"])
            elif op == OP_DISCREPANCY and event.payload.get("kind") == "discrepancy":
                exceptions = replica.store.fold_state(replica.store.route(ref), ref).exceptions
                if not exceptions.get(event.payload["exception_id"], {}).get("resolved"):
                    self._schedule_cleanse(rid, ref)
        if inserted:
            self._resolve_references(replica, ref)
        spec = self.registry.get(ref.entity_type)
        if spec.has_capacity:
            partition = replica.store.route(ref)
            value = replica.store.rollup(partition, ref).value
            for loser in detect_overbooking(value, spec):
                reservation_id = loser["reservation_id"]
                view = replica.store.fold_state(partition, ref).reservation_view()
                if view[reservation_id]["state"] not in ("tentative", "confirmed"):
                    continue  # the follow-up of an earlier loser's cancel cancelled it
                cause = "lost_promise" if loser["state"] == "confirmed" else "overbooking"
                try:
                    self._cancel_reservation(
                        replica, ref, reservation_id, cause, "overbook", f"overbook:{reservation_id}"
                    )
                except LockConflict:
                    return  # the pending task that releases the lock follows up again

    def _resolve_references(self, replica: Replica, parent: EntityRef) -> None:
        """Resolve the references waiting on an inserted parent. If a pending
        descriptor's lock refuses one, a volatile task runs them all again
        ``lock_backoff`` ticks later."""
        try:
            for template in plan_referential_resolutions(replica, parent):
                self._run_infra_step(
                    replica, "refresolve", template, f"resolve:{template['exception_id']}"
                )
        except LockConflict:
            at = self.now + self.config.lock_backoff
            self._schedule_task(at, "resolve", replica.replica_id, str(parent), entity=str(parent))

    def _task_resolve(self, task: dict) -> None:
        self._resolve_references(self.replicas[task["replica"]], EntityRef.parse(task["entity"]))

    def _task_pending(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        descriptor = replica.descriptors.get(task["txn_id"])
        if descriptor is None or task["txn_id"] in replica.descriptors_done:
            return
        with self._commit_path(replica):
            apply_pending_actions(replica, descriptor, self.now)
        # the locks are released now: following up every entity they held
        # also runs a remediation they refused
        for ref in descriptor.lock_scope:
            self._follow_up(replica, ref, [])

    def _task_expiry(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        ref = EntityRef.parse(task["entity"])
        partition = replica.store.route(ref)
        view = replica.store.fold_state(partition, ref).reservation_view()
        reservation_id = task["reservation_id"]
        entry = view.get(reservation_id)
        if entry is None or entry["state"] != "tentative":
            return
        if entry["deadline"] is not None and entry["deadline"] > self.now:
            self._schedule(entry["deadline"], dict(task))
            return
        try:
            self._cancel_reservation(
                replica, ref, reservation_id, "expired", "expire", f"expire:{reservation_id}"
            )
        except LockConflict:
            self._wait_for_lock(task)

    def _task_cleanse(self, task: dict) -> None:
        replica = self.replicas[task["replica"]]
        ref = EntityRef.parse(task["entity"])
        try:
            for template in plan_cleansing(replica, ref):
                exc_id = template["resolves"]
                self._run_infra_step(replica, "cleanse", template, f"adjust:{exc_id}")
        except LockConflict:
            self._wait_for_lock(task)

    def _wait_for_lock(self, task: dict) -> None:
        """A pending descriptor's lock refused this volatile task's step: run
        the task again ``lock_backoff`` ticks later, as ``_task_exec`` defers a
        message. A crash drops it, and recovery's follow-up re-derives it."""
        self._schedule(self.now + self.config.lock_backoff, dict(task))

    def _cancel_reservation(self, replica: Replica, ref: EntityRef, reservation_id: str,
                            cause: str, step_id: str, base: str) -> None:
        """Cancel a reservation as the infrastructure. A cancel is a broken
        promise, and its batch carries the apology, except an expiry: that is
        the agreed deal."""
        template = {
            "kind": "cancel",
            "entity": str(ref),
            "reservation_id": reservation_id,
            "cause": cause,
            "apologize": cause != "expired",
        }
        self._run_infra_step(replica, step_id, template, base)

    def _apology_message(self, replica: Replica, message_id: str, payload: dict) -> QueueMessage:
        return QueueMessage(
            message_id=message_id,
            destination=self._notify_destination(),
            msg_type="_apology.record",
            payload=payload,
            idempotence_key=payload["apology_id"],
            enqueue_stamp=self.now,
            sender=replica.replica_id,
        )

    # -- anti-entropy ----------------------------------------------------------

    def _task_sync(self, task: dict) -> None:
        rid = task["replica"]
        self._sync_armed[rid] = False
        if self._app_quiet() and self._frontiers_converged():
            return  # nothing left to reconcile; timers stay disarmed
        replica = self.replicas[rid]
        peers = self._sync_peers[rid]
        if peers:
            peer, shared = peers[self.rng.randrange(len(peers))] if len(peers) > 1 else peers[0]
            if self._reachable(rid, peer) and self.replicas[peer].alive:
                frontiers = {pid: replica.frontier(pid).to_dict() for pid in shared}
                self._send(rid, peer, "sync_req", {"frontiers": frontiers}, f"sync:{rid}->{peer}")
        self._arm_sync(rid, self.config.sync_interval)

    def _answer_sync(self, src: str, dst: str, body: dict) -> None:
        """dst received a frontier request from src: ship what src lacks."""
        replica = self.replicas[dst]
        events = self._missing_lines(replica, body["frontiers"])
        my_frontiers = {pid: replica.frontier(pid).to_dict() for pid in sorted(body["frontiers"])}
        self._send(dst, src, "sync_resp", {"events": events, "frontiers": my_frontiers},
                   f"resp:{dst}->{src}")

    def _finish_sync(self, src: str, dst: str, body: dict) -> None:
        """dst (the initiator) merges the diff and returns the peer's gap."""
        replica = self.replicas[dst]
        self._merge_remote_events(replica, body["events"])
        back = self._missing_lines(replica, body["frontiers"])
        if back:
            self._send(dst, src, "sync_back", {"events": back}, f"back:{dst}->{src}")

    def _missing_lines(self, replica: Replica, frontiers: dict[str, dict]) -> dict[str, list[str]]:
        """Archival lines of the events the replica holds beyond each partition frontier."""
        lines = {}
        for pid, frontier in sorted(frontiers.items()):
            log = replica.store.log(pid)
            missing = log.missing_for(VersionVector.from_dict(frontier))
            if missing:
                lines[pid] = [log.line(e) for e in missing]
        return lines

    def _merge_remote_events(self, replica: Replica, events_by_partition: dict) -> None:
        """Ingest the shipped lines the replica lacks, then reconcile.

        Each distinct line is decoded once per run: every receiver gets the
        same read-only record, and keeps the line as the event's archival
        line, so relaying it later encodes nothing. A line not decoded yet
        is skipped unread when its id is held (``peek_id``; None for a line
        it cannot read), and otherwise decoded, so a malformed one raises
        MalformedEvent.
        """
        touched: dict[EntityRef, list[EventRecord]] = defaultdict(list)  # ref -> the events added
        decoded = self._decoded
        for pid, lines in sorted(events_by_partition.items()):
            log = replica.store.log(pid)
            for line in lines:
                event = decoded.get(line)
                if event is None:
                    if EventRecord.peek_id(line) in log:
                        continue
                    event = decoded[line] = EventRecord.from_line(line)
                elif event.event_id in log:
                    continue
                if replica.store.ingest_foreign(pid, event, line):
                    touched[event.entity_ref].append(event)
        if touched:
            self._reconcile(replica, touched)
            self._rearm_all_syncs()

    def _reconcile(self, replica: Replica, touched: dict[EntityRef, list[EventRecord]]) -> None:
        """For each touched entity (mapped to the events the merge added):
        read its fold once, escalate a resurrection it recorded or else
        report conflicts until one report per replica and entity is kept,
        then run the follow-up of the added events."""
        for ref in sorted(touched, key=str):
            spec = self.registry.get(ref.entity_type)
            partition = replica.store.route(ref)
            state = replica.store.fold_state(partition, ref)
            report_key = f"{replica.replica_id}:{ref}"
            if state.resurrections:
                self._open_reconcile_exception(replica, ref, "resurrection", state.resurrections[0])
            elif report_key not in self.conflict_reports:
                events = replica.store.log(partition).all_events_for(ref)
                try:
                    report = resolve(ref, events, spec, state)
                    if report.groups:
                        self.conflict_reports[report_key] = report.dump()
                except UnmergeableCustom:
                    self._open_reconcile_exception(replica, ref, "unmergeable", str(ref))
            self._follow_up(replica, ref, touched[ref])

    def _open_reconcile_exception(self, replica: Replica, ref: EntityRef, kind: str, detail: str) -> None:
        exc_id = f"{kind}:{ref}"
        partition = replica.store.route(ref)
        if exc_id in replica.store.fold_state(partition, ref).exceptions:
            return
        txn_id = replica.next_txn_id("sys")
        event = replica.store.make_event(
            ref,
            OP_DISCREPANCY,
            {"exception_id": exc_id, "kind": kind, "detail": {"info": detail}},
            exc_id,
            txn_id,
        )
        self._commit_batch(replica, CommitBatch(txn_id=txn_id, session="sys", events=[event]))

    # -- report -------------------------------------------------------------------

    def _build_report(self, max_time_exceeded: bool) -> RunReport:
        report = RunReport()
        report.trace_hash = self._trace.hexdigest()
        report.max_time_exceeded = max_time_exceeded
        report.quiescent = self.quiesce() and not max_time_exceeded
        report.end_time = self.now
        report.commit_path_sends = self.commit_path_sends
        report.multi_entity_rejections = self.multi_entity_rejections
        report.locks_held_at_end = sum(
            len(r.locks.holders()) for r in self.replicas.values()
        )
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            report.commits[rid] = len(replica.commit_times)
            report.commit_times[rid] = list(replica.commit_times)
        delivered = self.counters["delivered"]
        distinct = len(self._delivered_ids)
        report.messages = dict(self.counters)
        report.messages["avg_redeliveries"] = (
            round((delivered - distinct) / distinct, 4) if distinct else 0.0
        )
        report.handler_effects = dict(sorted(self.handler_effects.items()))
        report.conflicts = [self.conflict_reports[k] for k in sorted(self.conflict_reports)]
        report.probes = dict(sorted(self.probes.items()))
        report.partition_windows = list(self.partition_windows)
        report.notes = list(self.notes)

        apologies_seen: dict[str, dict] = {}
        for rid in sorted(self.replicas):
            replica = self.replicas[rid]
            for apology in scan_apologies(replica):
                apologies_seen.setdefault(
                    apology.apology_id,
                    {
                        "apology_id": apology.apology_id,
                        "subject": apology.subject,
                        "cause": apology.cause,
                        "compensation_keys": apology.compensation_keys,
                    },
                )
            exceptions = scan_exceptions(replica)
            report.exceptions[rid] = {
                "open": sorted(e.exception_id for e in exceptions if e.status == "open"),
                "resolved": sorted(e.exception_id for e in exceptions if e.status == "resolved"),
            }
            report.reservations[rid] = {
                r.reservation_id: r.state for r in scan_reservations(replica)
            }
            rollups: dict[str, str] = {}
            for partition_id in replica.partitions_hosted():
                log = replica.store.log(partition_id)
                for ref in log.entity_refs():
                    rollups[str(ref)] = replica.store.rollup(partition_id, ref).canonical_dump()
            report.rollups[rid] = dict(sorted(rollups.items()))
        report.apologies = [apologies_seen[k] for k in sorted(apologies_seen)]
        return report


def run(scenario: Scenario, seed: int | None = None) -> RunReport:
    """Execute a scenario; a seed override replaces the config seed."""
    if seed is not None:
        scenario.config.seed = seed
    return Simulator(scenario).run()
