"""Deterministic seeded discrete-event simulator.

One global priority queue of (time, sequence, task); every random choice
comes from a single seeded generator in a fixed draw order, so identical
(seed, config, scenario) always produces an identical trace. The engine's
reactions run in one ``node.Node`` per replica; the simulator is each
node's host (timers and network), and owns only time, the network's delays,
drops, duplicates and reordering, partitions, crash/recovery, disasters,
client injection and probes, the choice of sync peer, and the report.
Quiescence is detected structurally, never by timeout.

Crash model: durable state is the logs, outbox, inbox, processed keys,
descriptors, and records. Scheduled work, retry timers, and logical
locks are volatile; recovery re-derives them from durable state. A
replica crashes at a tick (a ``crash`` fault, between tasks) or right
after one of its commits (``Simulator.crash_after_commit``): then the rest
of the running task is lost, and the replica recovers
``CRASH_RECOVERY_GAP`` ticks later. A client request reaches a down
replica's durable inbox; a compensate or summarize aimed at a down
replica waits for it, running again each tick until it is back.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter

from .bus import QueueMessage
from .errors import LockConflict, UnknownTarget
from .node import Node, NodeConfig, notify_destination
from .process import ProcessDef, ProcessManager, scan_apologies, scan_exceptions, scan_reservations
from .registry import SchemaRegistry
from .replica import Record, Replica
from .replication import resolve, shared_partitions
from .store import EntityRef, sorted_copy
from .txn import CommitBatch

# ``resolve`` stays bound here, where the benchmark's tracer test looks for it
__all__ = [
    "CRASH_RECOVERY_GAP",
    "ClientAction",
    "Fault",
    "RunReport",
    "Scenario",
    "SimConfig",
    "Simulator",
    "resolve",
    "run",
]

CRASH_RECOVERY_GAP = 5


class _CrashedAfterCommit(Exception):
    """Unwinds the task of a replica that crashed right after a commit."""


@dataclass
class SimConfig(NodeConfig):
    """A node's timings plus the topology, the network and the run's bounds."""

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
    max_time: int = 10_000

    def fingerprint(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, separators=(",", ":"))


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
    locks_held_at_end: int = 0
    conflicts: list[str] = field(default_factory=list)
    apologies: list[dict] = field(default_factory=list)
    exceptions: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    reservations: dict[str, dict[str, str]] = field(default_factory=dict)
    rollups: dict[str, dict[str, str]] = field(default_factory=dict)
    probes: dict[str, object] = field(default_factory=dict)
    partition_windows: list[dict] = field(default_factory=list)
    records: dict[str, list[Record]] = field(default_factory=dict)  # replica -> its records

    @property
    def multi_entity_rejections(self) -> int:
        return sum(r.kind == "multi_entity_rejected" for rs in self.records.values() for r in rs)

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
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = [
            "schema: eventual-report/1",
            f"trace_hash: {self.trace_hash}",
            f"quiescent: {str(self.quiescent).lower()}",
            f"max_time_exceeded: {str(self.max_time_exceeded).lower()}",
            f"end_time: {self.end_time}",
            f"commit_path_sends: {self.commit_path_sends}",
            f"multi_entity_rejections: {self.multi_entity_rejections}",
            "commits: " + json.dumps(self.commits, sort_keys=True),
            "messages: " + json.dumps(self.messages, sort_keys=True),
            f"apology_count: {len(self.apologies)}",
        ]
        for apology in self.apologies:
            lines.append("apology: " + json.dumps(apology, sort_keys=True))
        for replica in sorted(self.exceptions):
            lines.append(
                f"exceptions {replica}: " + json.dumps(self.exceptions[replica], sort_keys=True)
            )
        for replica in sorted(self.reservations):
            lines.append(
                f"reservations {replica}: "
                + json.dumps(self.reservations[replica], sort_keys=True)
            )
        for label in sorted(self.probes):
            lines.append(f"probe {label}: " + json.dumps(self.probes[label], sort_keys=True))
        for replica in sorted(self.rollups):
            for entity in sorted(self.rollups[replica]):
                lines.append(f"rollup {replica} {entity}: {self.rollups[replica][entity]}")
        for report in self.conflicts:
            lines.append(f"conflict: {report}")
        for replica in sorted(self.records):
            for record in self.records[replica]:
                body = {"tick": record.tick, "kind": record.kind, **record.detail}
                lines.append(f"record {replica}: " + json.dumps(body, sort_keys=True))
        return "\n".join(lines) + "\n"


class _Port:
    """One node's host in the simulator: its tasks go on the run's heap,
    stamped with the replica's epoch, and its envelopes through the
    simulated network's draws. Each method is the simulator's own, bound
    to the node's replica id."""

    __slots__ = ("_sim", "schedule", "rearm_syncs", "send")

    def __init__(self, sim: Simulator, rid: str):
        self._sim = sim
        self.schedule = partial(sim._schedule_task, rid)
        self.rearm_syncs = sim._rearm_all_syncs
        self.send = partial(sim._send, rid)

    now = property(attrgetter("_sim.now"))


# trace lines hashed at once: the hash of the run's lines, fed in chunks
# of this many, is the hash of their concatenation
_TRACE_CHUNK = 256


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
        self._running_seq = 0  # the seq of the task running now
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

        self.counters = {
            "sent": 0,
            "delivered": 0,
            "duplicates": 0,
            "dropped": 0,
            "client_requests": 0,
        }
        self._delivered_ids: set[str] = set()
        self.probes: dict[str, object] = {}
        self.partition_windows: list[dict] = []

        notify = None
        if self.replicas:
            notify = notify_destination(self.config.partitions, self.config.notify_partition)
        # every line of the run -> its one record: the sender's, so no receiver decodes it
        records_by_line: dict = {}
        self.nodes: dict[str, Node] = {}
        for rid, replica in self.replicas.items():
            self.nodes[rid] = Node(replica, self.config, _Port(self, rid), manager=self.manager,
                                   notify=notify, records_by_line=records_by_line)

    def crash_after_commit(self, replica_id: str, k: int) -> None:
        """Crash the replica right after its k-th commit: the batch is
        durable, the rest of the task is lost, and the replica recovers
        CRASH_RECOVERY_GAP ticks later."""
        replica = self.replicas[replica_id]
        record = replica.on_commit

        def crash_point(batch: CommitBatch) -> None:
            record(batch)
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
        heapq.heappush(self._heap, (max(at, self.now), self._seq, task))

    def _schedule_task(self, replica_id: str, at: int, kind: str, detail: str, **fields) -> None:
        """Schedule work of one replica. It is volatile: it carries the
        replica's epoch, and a crash, which bumps the epoch, drops it."""
        epoch = self.replicas[replica_id].epoch
        self._schedule(
            at,
            {"kind": kind, "replica": replica_id, "volatile": True, "detail": detail, "epoch": epoch,
             **fields},
        )

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
        if not legs:
            return
        sync = env_kind.startswith("sync")
        detail = f"{env_kind}:{src}->{dst}:{env_id}"
        for at in legs:
            if sync:
                self._in_flight_sync += 1
            else:
                self._in_flight += 1
            self._schedule(
                at,
                {"kind": "deliver", "src": src, "dst": dst, "env_kind": env_kind, "body": body,
                 "detail": detail},
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

        heap, replicas, nodes = self._heap, self.replicas, self.nodes
        max_time = self.config.max_time
        lines: list[str] = []  # trace lines not hashed yet
        max_time_exceeded = False
        while heap:
            at, seq, task = heapq.heappop(heap)
            if at > max_time:
                max_time_exceeded = True
                break
            self.now, self._running_seq = at, seq
            kind = task["kind"]
            if task.get("volatile"):
                replica = replicas[task["replica"]]
                if task["epoch"] != replica.epoch or not replica.alive:
                    continue  # scheduled before a crash: volatile state is gone
            lines.append(f"{at}|{kind}|{task['detail']}\n")
            if len(lines) == _TRACE_CHUNK:
                self._trace.update("".join(lines).encode())
                lines.clear()
            handler = _SIM_HANDLERS.get(kind)
            try:
                if handler is not None:
                    handler(self, task)
                else:
                    nodes[task["replica"]].on_timer(task)
            except _CrashedAfterCommit:
                pass  # the replica is down: the rest of its task is lost
        self._trace.update("".join(lines).encode())
        for node in self.nodes.values():
            node.detach()  # a later commit outside the run records nothing
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
            if replica.outbox.pending():
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
            self._schedule_task(rid, self.now + delay, "sync", rid)

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
        if action.do in ("compensate", "summarize") and not replica.alive:
            self._defer_client(task, self.now + 1)  # it runs on the replica: wait for it
            return
        if action.do == "read":
            self._probe(replica, action)
            return
        if action.do == "compensate":
            target = action.params["action"]
            # the transaction that consumed the action's message where it ran
            ran_on = next((a.replica for a in self.scenario.actions if a.action_id == target), None)
            origin = self.replicas.get(ran_on)
            txn_id = origin is not None and origin.processed.get(f"client:{target}")
            if not txn_id:
                replica.record(self.now, "compensation_untracked", action=target)
                return
            self.nodes[action.replica].compensate(txn_id, origin)
            return
        if action.do == "summarize":
            ref = EntityRef.parse(action.params["entity"])
            partition = replica.store.route(ref)
            try:
                replica.store.summarize(partition, ref, replica.frontier(partition))
            except LockConflict:
                # a pending action holds the entity: back off, as expiry does
                self._defer_client(task, self.now + self.config.lock_backoff)
            return
        self.counters["client_requests"] += 1
        if action.do == "emit":
            msg_type = action.params["type"]
            payload = dict(action.params.get("payload", {}))
            partition = action.params.get("partition") or replica.partitions_hosted()[0]
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
        self.nodes[action.replica].submit(message)

    def _defer_client(self, task: dict, at: int) -> None:
        """Run a client action again at ``at``, keeping its place among
        the tasks of a tick: it is pushed back with the sequence number it
        ran with. It stays pending, so the run cannot quiesce before it has
        run."""
        self._client_pending += 1
        heapq.heappush(self._heap, (at, self._running_seq, task))

    def _partition_for_template(self, replica: Replica, params: dict) -> str:
        if "entity" in params:
            return replica.store.route(EntityRef.parse(params["entity"]))
        if "entity_type" in params:
            return replica.store.route(EntityRef(params["entity_type"], "?"))
        return replica.partitions_hosted()[0]

    def _probe(self, replica: Replica, action: ClientAction) -> None:
        label = action.params.get("label", action.action_id)
        if not replica.alive:
            self.probes[label] = {"down": True}
            return
        ref = EntityRef.parse(action.params["entity"])
        partition = replica.store.route(ref)
        state = replica.store.rollup(partition, ref)
        self.probes[label] = {"value": sorted_copy(state.value), "deleted": state.deleted_flag}

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
            self.nodes[fault.target].recover()
            self._arm_sync(fault.target, self.config.sync_interval)
        elif fault.kind == "disaster":
            self._disaster(fault)
        else:
            raise UnknownTarget(f"unknown fault kind {fault.kind!r}")

    def _crash(self, rid: str) -> None:
        self.replicas[rid].crash()
        self._sync_armed[rid] = False

    def _disaster(self, fault: Fault) -> None:
        """A real-world failure abrogates a fulfillment promise, on the first
        live host of its entity; without one, or under a pending lock, the
        fault runs again later."""
        ref = EntityRef.parse(fault.entity)
        partition = self.config.placement.get(ref.entity_type)
        hosts = [r for r in self.config.partitions.get(partition, []) if self.replicas[r].alive]
        if not hosts:
            self._schedule(self.now + 1, {"kind": "fault", "fault": fault, "detail": "disaster-retry"})
            return
        try:
            self.nodes[sorted(hosts)[0]].abrogate(ref, fault.target)
        except LockConflict:
            retry = {"kind": "fault", "fault": fault, "detail": "disaster-retry"}
            self._schedule(self.now + self.config.lock_backoff, retry)

    def _task_deliver(self, task: dict) -> None:
        env_kind = task["env_kind"]
        if env_kind.startswith("sync"):
            self._in_flight_sync -= 1
        else:
            self._in_flight -= 1
        src, dst = task["src"], task["dst"]
        if not self._reachable(src, dst) or not self.replicas[dst].alive:
            self.counters["dropped"] += 1
            return
        body = task["body"]
        if env_kind == "queue_msg":
            self.counters["delivered"] += 1
            if body["message_id"] in self._delivered_ids:
                self.counters["duplicates"] += 1
            self._delivered_ids.add(body["message_id"])
        self.nodes[dst].receive(src, env_kind, body)

    def _task_sync(self, task: dict) -> None:
        rid = task["replica"]
        self._sync_armed[rid] = False
        if self._app_quiet() and self._frontiers_converged():
            return  # nothing left to reconcile; timers stay disarmed
        peers = self._sync_peers[rid]
        if peers:
            peer, shared = peers[self.rng.randrange(len(peers))] if len(peers) > 1 else peers[0]
            if self._reachable(rid, peer) and self.replicas[peer].alive:
                self.nodes[rid].start_sync(peer, shared)
        self._arm_sync(rid, self.config.sync_interval)

    # -- report -------------------------------------------------------------------

    def _build_report(self, max_time_exceeded: bool) -> RunReport:
        report = RunReport()
        report.trace_hash = self._trace.hexdigest()
        report.max_time_exceeded = max_time_exceeded
        report.quiescent = self.quiesce() and not max_time_exceeded
        report.end_time = self.now
        nodes = self.nodes
        report.commit_path_sends = sum(node.commit_path_sends for node in nodes.values())
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
        effects: dict[str, int] = {}
        conflicts: dict[str, str] = {}
        for rid, node in nodes.items():
            for key, count in node.handler_effects.items():
                effects[key] = effects.get(key, 0) + count
            for ref, dump in node.conflict_reports.items():
                conflicts[f"{rid}:{ref}"] = dump
        report.handler_effects = dict(sorted(effects.items()))
        report.conflicts = [conflicts[k] for k in sorted(conflicts)]
        report.probes = dict(sorted(self.probes.items()))
        report.partition_windows = list(self.partition_windows)
        report.records = {rid: list(replica.records) for rid, replica in self.replicas.items()}

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


# the simulator's own tasks, by kind; every other kind is a node's timer
_SIM_HANDLERS = {
    "client": Simulator._task_client,
    "fault": Simulator._task_fault,
    "deliver": Simulator._task_deliver,
    "sync": Simulator._task_sync,
}


def run(scenario: Scenario, seed: int | None = None) -> RunReport:
    """Execute a scenario; a seed override replaces the config seed."""
    if seed is not None:
        scenario.config.seed = seed
    return Simulator(scenario).run()
