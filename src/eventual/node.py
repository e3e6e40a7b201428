"""One replica's runtime: everything a change to the replica obliges.

A ``Node`` owns one ``Replica`` and every reaction the engine runs for
it: the commit path and what each committed batch sets off (follow-up,
pending actions, outbox launch), message arrival (a submit, a received
``queue_msg`` and a local send take one path, which queues a message
unless its idempotence key is processed or already queued), message
consumption (each queued message gets one consume, which takes the
partition's first queued message and runs its steps: a submit and a
received ``queue_msg`` run it in the call that delivered them, and a
``consume`` task runs it for recovery, a lock backoff and a local send),
retries, expiry, cleansing, referential resolution, compensation,
recovery, and the anti-entropy protocol (answer, finish, merge,
reconcile). It reaches
the outside world through one small interface, its ``Host``, so the same
code runs in the deterministic simulator (``eventual.sim``), in the
offline ``replication.sync``, and under a test's fakes. A host has:

- ``now``, the current tick;
- ``schedule(at, kind, detail, **fields)``, a volatile task the node gets
  back through ``on_timer`` as the dict ``{"kind": kind, "detail":
  detail, **fields}``;
- ``rearm_syncs()``, called after a change other replicas lack;
- ``send(dst, kind, body, env_id)``, an envelope the node ``dst`` gets
  through ``receive``. A body is one of:

  - ``queue_msg``: the ``QueueMessage`` fields, as a dict;
  - ``ack``: ``{"message_id": id}``;
  - ``sync_req``: ``{"frontiers": {partition: VersionVector}}``, the
    initiator's frontier of each shared partition;
  - ``sync_resp``: ``{"events": {partition: [record, ...]}, "frontiers":
    {partition: VersionVector}}``, the ``EventRecord``s the initiator
    lacks (only partitions with some), as the answerer's log holds them,
    and the answerer's frontiers;
  - ``sync_back``: ``{"events": {partition: [record, ...]}}``, what the
    answerer lacks.

  A frontier is the vector ``PartitionLog.frontier()`` built for the
  envelope; like every body it is read-only, since a duplicated envelope
  delivers the same body twice. Lines from outside the program enter
  through ``ReplicaStore.import_partition``, which checks each one.

Scheduled work is volatile: a crash loses it, and ``recover`` re-derives
it from durable state. An offline sync runs only the tasks due at its
own tick (a local send's consume) and drops the rest of what its merges
schedule, as a crash does.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Protocol

from . import bus
from .bus import OutboxEntry, QueueMessage
from .clocks import VersionVector
from .errors import (
    AlreadyTerminal,
    LockConflict,
    MultiEntityWriteRejected,
    Uncompensatable,
    UnknownReservation,
    UnmergeableCustom,
)
from .process import (
    ProcessManager,
    join_entity,
    join_fire_template,
    join_merged_payload,
    join_ready,
    join_record_template,
    plan_cleansing,
    plan_referential_resolutions,
)
from .replica import Replica
from .replication import compensation_plan, detect_overbooking, resolve
from .store import OP_DISCREPANCY, OP_INSERT, OP_TENTATIVE, EntityRef, EventRecord
from .txn import (
    CommitBatch,
    ProcessStepDef,
    StepContext,
    TriggerSpec,
    apply_pending_actions,
    commit as txn_commit,
    execute_step,
)


class Host(Protocol):
    now: int

    def schedule(self, at: int, kind: str, detail: str, **fields) -> None: ...

    def rearm_syncs(self) -> None: ...

    def send(self, dst: str, kind: str, body: dict, env_id: str) -> None: ...


@dataclass
class NodeConfig:
    """How many ticks a node's volatile work waits."""

    retry_base: int = 2
    retry_cap: int = 16
    pending_lag: int = 2
    cleanse_lag: int = 2
    lock_backoff: int = 2


def notify_destination(partitions: dict[str, list[str]],
                       notify_partition: str | None = None) -> tuple[str, str]:
    """Where apologies and ``to: notify`` messages go: the first replica,
    in id order, hosting the notify partition (by default the first one)."""
    partition = notify_partition if notify_partition is not None else sorted(partitions)[0]
    return (sorted(partitions[partition])[0], partition)


class Node:
    """Runs one replica: its reactions to commits, messages, timers and peers.

    ``notify`` defaults to the replica's first hosted partition. Sync
    ships records, so every replica of a run holds its origin's one record
    of each event. What the node decides that no event shows
    goes to its replica's records (``Replica.record``).
    """

    def __init__(self, replica: Replica, config: NodeConfig, host: Host, *,
                 manager: ProcessManager | None = None, notify: tuple[str, str] | None = None):
        self.replica = replica
        self.config = config
        self.host = host
        self.manager = manager if manager is not None else ProcessManager()
        self.notify = notify or (replica.replica_id, replica.partitions_hosted()[0])
        self.handler_effects: dict[str, int] = {}
        self.commit_path_sends = 0
        self.ingested = 0  # events taken in from peers
        self.conflict_reports: dict[EntityRef, str] = {}  # the first report kept per entity
        self._in_commit = False
        # batches committed in the running commit path; hooked as the list's
        # own append, so the replica does not refer back to the node
        self._committed: list[CommitBatch] = []
        replica.on_commit = self._committed.append

    def detach(self) -> None:
        """Unhook the replica and drop the host: a later commit on the
        replica records nothing, and the node keeps no host alive."""
        self.replica.on_commit = None
        self.host = None

    # -- entry points ----------------------------------------------------------

    def submit(self, message: QueueMessage) -> None:
        """A client request lands in the durable inbox, even on a replica
        that is down, which consumes it once it recovers. A live replica
        consumes it in this call."""
        self._arrive(message, self._consume)

    def on_timer(self, task: dict) -> None:
        """Run a task this node scheduled, now due."""
        _TIMER_HANDLERS[task["kind"]](self, task)

    def receive(self, src: str, kind: str, body: dict) -> None:
        """An envelope from node ``src``. A ``queue_msg`` is acked first,
        then consumed in this call, so the ack is never a commit path's
        send."""
        if kind == "queue_msg":
            message = QueueMessage(**body)
            self._send(src, "ack", {"message_id": message.message_id}, message.message_id)
            self._arrive(message, self._consume)
        elif kind == "ack":
            self.replica.outbox.mark_acked(body["message_id"])
        elif kind == "sync_req":
            self._answer_sync(src, body)
        elif kind == "sync_resp":
            self._finish_sync(src, body)
        elif kind == "sync_back":
            self._merge_remote_events(body["events"])

    def start_sync(self, peer: str, partitions: list[str]) -> None:
        """Ask ``peer`` for the events of ``partitions`` this replica lacks."""
        replica = self.replica
        frontiers = {pid: replica.frontier(pid) for pid in partitions}
        self._send(peer, "sync_req", {"frontiers": frontiers}, f"sync:{replica.replica_id}->{peer}")

    def recover(self) -> None:
        """Bring a down replica back and re-derive its volatile work from
        durable state: a consume per queued message, retries of its unacked
        outbox, the locks and pending tasks of its unapplied descriptors,
        and the follow-up of every hosted entity. A replica that is not
        down lost nothing, so recovering it changes nothing."""
        replica = self.replica
        if replica.alive:
            return
        replica.recover()
        for message in replica.inbox.arrivals.values():
            self._schedule_consume(message.destination[1])
        for entry in replica.outbox.pending():
            self._schedule_retry(entry.message.message_id, self.host.now + 1)
        for descriptor in replica.unapplied_descriptors():
            # recovery owns incomplete deferred work: re-derive its locks, re-run
            for ref in descriptor.lock_scope:
                try:
                    replica.locks.acquire(ref, descriptor.owner_session, descriptor.txn_id)
                except LockConflict:
                    pass
            self._schedule_pending(descriptor.txn_id)
        for partition_id in replica.partitions_hosted():
            log = replica.store.log(partition_id)
            for ref in log.entity_refs():
                self._follow_up(ref, log.all_events_for(ref))

    def abrogate(self, ref: EntityRef, reservation_id: str) -> None:
        """A real-world failure broke a fulfillment promise: cancel it and
        apologize. A pending descriptor's lock raises LockConflict."""
        self._cancel_reservation(
            ref, reservation_id, "disaster", f"disaster.{reservation_id}", f"disaster:{reservation_id}"
        )

    def compensate(self, txn_id: str, origin: Replica) -> None:
        """Reverse transaction ``txn_id``, which ran on ``origin`` (this
        replica or another): its events from ``origin``'s logs, in the
        partitions this replica hosts (a ``compensation_unhosted`` record
        names each other partition holding some), and its messages from
        ``origin``'s outbox. A transaction with an irreversible event is
        not reversed at all: a ``compensation_refused`` record names it."""
        replica = self.replica
        now = self.host.now
        try:
            plan = compensation_plan(replica, txn_id, origin)
        except Uncompensatable as exc:
            replica.record(now, "compensation_refused", txn=txn_id, event=str(exc))
            return
        for partition_id in plan.unhosted:
            replica.record(now, "compensation_unhosted", txn=txn_id, partition=partition_id)

        def compensating_messages(comp_txn: str) -> list[QueueMessage]:
            return [
                QueueMessage(
                    message_id=f"{comp_txn}:m{i}",
                    destination=tuple(draft["destination"]),
                    msg_type=draft["msg_type"],
                    payload=draft["payload"],
                    idempotence_key=draft["idempotence_key"],
                    enqueue_stamp=now,
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
                self._apology_message(f"{comp_txn}:a{j}", apology)
                for j, apology in enumerate(apologies)
            ])
            if not messages_sent:
                # the compensating messages ride in the first batch, so a
                # crash after the compensation's first commit cannot lose them
                bus.enqueue(batch, compensating_messages(comp_txn))
                messages_sent = True
            self._commit_batch(batch)
        if not messages_sent:
            # a plan with no events sends its messages in a batch of their own
            batch = CommitBatch(txn_id=replica.next_txn_id("sys"), session="sys")
            bus.enqueue(batch, compensating_messages(batch.txn_id))
            self._commit_batch(batch)

    # -- timers and sends --------------------------------------------------------

    def _send(self, dst: str, kind: str, body: dict, env_id: str) -> None:
        if self._in_commit:
            self.commit_path_sends += 1
        self.host.send(dst, kind, body, env_id)

    def _arrive(self, message: QueueMessage, consume: Callable[[str], None]) -> None:
        """Every arrival's one path: queue the message unless its
        idempotence key is processed or already queued. A message queued on
        a live replica gets one consume, ``consume(partition)``: a submit
        and a received ``queue_msg`` run it at once (``_consume``), and a
        local send schedules it (``_schedule_consume``), since it runs
        inside ``_react``, where a consume would nest its commit in another
        consume's reactions. On a down replica, ``recover`` schedules it."""
        replica = self.replica
        if message.idempotence_key in replica.processed or not replica.inbox.add(message):
            return
        if replica.alive:
            consume(message.destination[1])

    def _schedule_consume(self, partition: str, delay: int = 0) -> None:
        """Take the partition's next message ``delay`` ticks from now."""
        detail = f"{self.replica.replica_id}:{partition}"
        self.host.schedule(self.host.now + delay, "consume", detail, partition=partition)

    def _schedule_retry(self, message_id: str, at: int) -> None:
        self.host.schedule(at, "retry", message_id, message_id=message_id)

    def _schedule_pending(self, txn_id: str) -> None:
        self.host.schedule(self.host.now + self.config.pending_lag, "pending", txn_id, txn_id=txn_id)

    def _schedule_expiry(self, entity: str, reservation_id: str, at: int) -> None:
        self.host.schedule(at, "expiry", reservation_id, entity=entity, reservation_id=reservation_id)

    def _schedule_cleanse(self, entity: str, at: int) -> None:
        self.host.schedule(at, "cleanse", entity, entity=entity)

    # -- the commit path -------------------------------------------------------------

    def _commit_path(self, commit, *args) -> None:
        """Run ``commit(*args)`` as the commit path: a network send inside it
        breaks availability. On a normal return each batch committed inside
        gets its ``_react``; a raise (a crash point) drops them, and
        recovery re-derives what they oblige."""
        self._in_commit = True
        try:
            commit(*args)
        finally:
            self._in_commit = False
            committed = self._committed[:]
            self._committed.clear()
        for batch in committed:
            self._react(batch)

    def _execute_step(self, step_def: ProcessStepDef, ctx: StepContext) -> None:
        """Run one step (callers run it on the commit path, which proves it
        never touches the network); a step that breaks the one-entity rule,
        or names a reservation it cannot act on, commits nothing and is
        recorded."""
        try:
            execute_step(step_def, ctx)
        except MultiEntityWriteRejected as exc:
            self.replica.record(ctx.now, "multi_entity_rejected", step=step_def.step_id, detail=str(exc))
        except (UnknownReservation, AlreadyTerminal) as exc:
            self.replica.record(ctx.now, "step_refused", step=step_def.step_id,
                                error=type(exc).__name__, detail=str(exc))

    def _commit_batch(self, batch: CommitBatch) -> None:
        self._commit_path(txn_commit, self.replica, batch, self.host.now)

    def _react(self, batch: CommitBatch) -> None:
        """What a committed batch obliges, once its commit path returned."""
        if batch.events:
            self._follow_up(batch.events[0].entity_ref, batch.events)
        if batch.descriptor is not None:
            self._schedule_pending(batch.descriptor.txn_id)
        if batch.messages:  # launch the outbox
            for entry in self.replica.outbox.pending():
                if entry.attempts == 0:
                    entry.attempts = 1
                    self._transmit(entry)
        if batch.events or batch.messages:
            self.host.rearm_syncs()

    def _follow_up(self, ref: EntityRef, events: list[EventRecord]) -> None:
        """What a change to ``ref`` obliges this replica to do, given the
        events that made it (a commit's, a merge's, or on recovery all of
        them): an expiry for each of its own reservations still tentative
        with a deadline, a cleansing for each of its own open discrepancies,
        the resolution of references waiting on an inserted parent, and the
        remediation of a capacity entity. A remediation that a pending
        descriptor's lock refuses waits for that descriptor's pending task,
        which follows up every entity of its lock scope once it releases
        the locks."""
        replica = self.replica
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
                    at = max(event.payload["deadline"], self.host.now + 1)
                    self._schedule_expiry(str(ref), reservation_id, at)
            elif op == OP_DISCREPANCY and event.payload.get("kind") == "discrepancy":
                exceptions = replica.store.fold_state(replica.store.route(ref), ref).exceptions
                if not exceptions.get(event.payload["exception_id"], {}).get("resolved"):
                    self._schedule_cleanse(str(ref), self.host.now + self.config.cleanse_lag)
        if inserted:
            self._resolve_references(ref)
        spec = replica.registry.get(ref.entity_type)
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
                        ref, reservation_id, cause, "overbook", f"overbook:{reservation_id}"
                    )
                except LockConflict:
                    return  # the pending task that releases the lock follows up again

    def _resolve_references(self, parent: EntityRef) -> None:
        """Resolve the references waiting on an inserted parent. If a pending
        descriptor's lock refuses one, a volatile task runs them all again
        ``lock_backoff`` ticks later."""
        try:
            for template in plan_referential_resolutions(self.replica, parent):
                self._run_infra_step("refresolve", template, f"resolve:{template['exception_id']}")
        except LockConflict:
            at = self.host.now + self.config.lock_backoff
            self.host.schedule(at, "resolve", str(parent), entity=str(parent))

    def _cancel_reservation(self, ref: EntityRef, reservation_id: str, cause: str, step_id: str,
                            base: str) -> None:
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
        self._run_infra_step(step_id, template, base)

    def _apology_message(self, message_id: str, payload: dict) -> QueueMessage:
        return QueueMessage(
            message_id=message_id,
            destination=self.notify,
            msg_type="_apology.record",
            payload=payload,
            idempotence_key=payload["apology_id"],
            enqueue_stamp=self.host.now,
            sender=self.replica.replica_id,
        )

    # -- message flow -------------------------------------------------------------

    def _transmit(self, entry: OutboxEntry) -> None:
        replica = self.replica
        message = entry.message
        dst = message.destination[0]
        if dst == replica.replica_id:
            # local destination: enqueue/dequeue are local, no network at all
            replica.outbox.mark_acked(message.message_id)
            self._arrive(message, self._schedule_consume)
            return
        self._send(
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
        self._schedule_retry(message.message_id, self.host.now + backoff)

    def _task_retry(self, task: dict) -> None:
        entry = self.replica.outbox.get(task["message_id"])
        if entry is None or entry.acked:
            return
        entry.attempts += 1
        self._transmit(entry)

    def _task_consume(self, task: dict) -> None:
        """A scheduled consume: recovery's (one per queued message), a lock
        backoff's, or a local send's."""
        self._consume(task["partition"])

    def _consume(self, partition: str) -> None:
        """Take the partition's first queued message and run it: its matched
        steps, else an ack-only batch. On a live replica, the queued
        messages are the consumes running plus the consumes scheduled, so
        none finds the inbox empty. A step that meets a pending
        descriptor's lock takes the message again ``lock_backoff`` ticks
        later."""
        replica = self.replica
        message = bus.consume_next(replica, partition)
        steps = self._matched_steps(message)
        # a join's trigger that arrives before the rest is taken, not unmatched: the
        # join records it in its correlation entity and fires no step yet
        if not steps and not self.manager.matching_steps(message.msg_type):
            replica.record(self.host.now, "message_unmatched", msg_type=message.msg_type)
        try:
            for i, (step_def, payload, session) in enumerate(steps):
                marker = message.idempotence_key if i == len(steps) - 1 else None
                ctx = StepContext(
                    replica=replica,
                    now=self.host.now,
                    session=session,
                    payload=payload,
                    idempotence_base=message.idempotence_key,
                    consume_marker=marker,
                    notify=self.notify,
                    partition=partition,
                )
                self._commit_path(self._execute_step, step_def, ctx)
        except LockConflict:
            self._schedule_consume(partition, self.config.lock_backoff)
            return
        if message.idempotence_key not in replica.processed:
            # zero matches, a rejection, or a rolled-back step: acknowledge via
            # a degenerate batch so the message is not redelivered forever
            batch = CommitBatch(
                txn_id=replica.next_txn_id("sys"),
                session="sys",
                processed_key=message.idempotence_key,
                ack_only=True,
            )
            self._commit_batch(batch)
        self.handler_effects[message.idempotence_key] = (
            self.handler_effects.get(message.idempotence_key, 0) + 1
        )

    def _matched_steps(self, message: QueueMessage):
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
        replica = self.replica
        for proc, step_def in self.manager.matching_steps(msg_type):
            session = f"proc:{proc.process_id}"
            if not step_def.trigger.is_join:
                matches.append((step_def, dict(message.payload), session))
                continue
            correlation = str(message.payload.get(step_def.trigger.correlate))
            ref = join_entity(proc.process_id, step_def.step_id, correlation)
            record = join_record_template(msg_type, dict(message.payload), ref)
            self._run_infra_step(f"join.{step_def.step_id}", record, f"join:{ref.key}:{msg_type}")
            if join_ready(replica, ref, step_def.trigger):
                merged = join_merged_payload(replica, ref, step_def.trigger)
                self._run_infra_step(
                    f"joinfire.{step_def.step_id}", join_fire_template(ref), f"fire:{ref.key}"
                )
                matches.append((step_def, merged, session))
        return matches

    def _run_infra_step(self, step_id: str, template: dict, base: str) -> None:
        step_def = ProcessStepDef(step_id, TriggerSpec((step_id,)), template)
        ctx = StepContext(
            replica=self.replica,
            now=self.host.now,
            session="sys",
            payload={},
            idempotence_base=base,
            notify=self.notify,
        )
        self._commit_path(self._execute_step, step_def, ctx)

    # -- volatile follow-up work ----------------------------------------------------

    def _task_resolve(self, task: dict) -> None:
        self._resolve_references(EntityRef.parse(task["entity"]))

    def _task_pending(self, task: dict) -> None:
        replica = self.replica
        descriptor = replica.descriptors.get(task["txn_id"])
        if descriptor is None or task["txn_id"] in replica.descriptors_done:
            return
        self._commit_path(apply_pending_actions, replica, descriptor, self.host.now)
        # the locks are released now: following up every entity they held
        # also runs a remediation they refused
        for ref in descriptor.lock_scope:
            self._follow_up(ref, [])

    def _task_expiry(self, task: dict) -> None:
        """Cancel a reservation still tentative at its deadline. A deadline
        moved later runs the task again then; a pending descriptor's lock,
        ``lock_backoff`` ticks later."""
        replica = self.replica
        ref = EntityRef.parse(task["entity"])
        partition = replica.store.route(ref)
        view = replica.store.fold_state(partition, ref).reservation_view()
        reservation_id = task["reservation_id"]
        entry = view.get(reservation_id)
        if entry is None or entry["state"] != "tentative":
            return
        if entry["deadline"] is not None and entry["deadline"] > self.host.now:
            self._schedule_expiry(task["entity"], reservation_id, entry["deadline"])
            return
        try:
            self._cancel_reservation(
                ref, reservation_id, "expired", "expire", f"expire:{reservation_id}"
            )
        except LockConflict:
            self._schedule_expiry(task["entity"], reservation_id, self.host.now + self.config.lock_backoff)

    def _task_cleanse(self, task: dict) -> None:
        """Adjust the rollup to each open discrepancy; if a pending
        descriptor's lock refuses it, run again ``lock_backoff`` ticks later."""
        ref = EntityRef.parse(task["entity"])
        try:
            for template in plan_cleansing(self.replica, ref):
                self._run_infra_step("cleanse", template, f"adjust:{template['resolves']}")
        except LockConflict:
            self._schedule_cleanse(task["entity"], self.host.now + self.config.lock_backoff)

    # -- anti-entropy ------------------------------------------------------------------

    def _answer_sync(self, src: str, body: dict) -> None:
        """Node ``src`` sent its frontiers: ship what it lacks, and ours."""
        replica = self.replica
        events = self._missing_events(body["frontiers"])
        frontiers = {pid: replica.frontier(pid) for pid in sorted(body["frontiers"])}
        self._send(src, "sync_resp", {"events": events, "frontiers": frontiers},
                   f"resp:{replica.replica_id}->{src}")

    def _finish_sync(self, src: str, body: dict) -> None:
        """The initiator merges the diff and returns the peer's gap."""
        self._merge_remote_events(body["events"])
        back = self._missing_events(body["frontiers"])
        if back:
            self._send(src, "sync_back", {"events": back}, f"back:{self.replica.replica_id}->{src}")

    def _missing_events(self, frontiers: dict[str, VersionVector]) -> dict[str, list[EventRecord]]:
        """The events the replica holds beyond each partition frontier, as
        its logs hold them (only partitions with some): nothing is encoded."""
        events = {}
        for pid, frontier in sorted(frontiers.items()):
            missing = self.replica.store.log(pid).missing_for(frontier)
            if missing:
                events[pid] = missing
        return events

    def _merge_remote_events(self, events_by_partition: dict) -> None:
        """Ingest the shipped events the replica lacks, then reconcile.

        Each entry is the sender's read-only record, held as it is: every
        replica holds the origin's one record, and a merge encodes and
        decodes nothing. A receiver skips an event whose id it holds.
        """
        replica = self.replica
        touched: dict[EntityRef, list[EventRecord]] = defaultdict(list)  # ref -> the events added
        for pid, entries in sorted(events_by_partition.items()):
            log = replica.store.log(pid)
            for event in entries:
                if event.event_id not in log and replica.store.ingest_foreign(pid, event):
                    touched[event.entity_ref].append(event)
        if touched:
            self.ingested += sum(map(len, touched.values()))
            self._reconcile(touched)
            self.host.rearm_syncs()

    def _reconcile(self, touched: dict[EntityRef, list[EventRecord]]) -> None:
        """For each touched entity (mapped to the events the merge added):
        read its fold once, escalate a resurrection it recorded or else
        report conflicts until one report per entity is kept, then run the
        follow-up of the added events."""
        replica = self.replica
        for ref in sorted(touched, key=str):
            spec = replica.registry.get(ref.entity_type)
            partition = replica.store.route(ref)
            state = replica.store.fold_state(partition, ref)
            if state.resurrections:
                self._open_reconcile_exception(ref, "resurrection", state.resurrections[0])
            elif ref not in self.conflict_reports:
                events = replica.store.log(partition).all_events_for(ref)
                try:
                    report = resolve(ref, events, spec, state)
                    if report.groups:
                        self.conflict_reports[ref] = report.dump()
                except UnmergeableCustom:
                    self._open_reconcile_exception(ref, "unmergeable", str(ref))
            self._follow_up(ref, touched[ref])

    def _open_reconcile_exception(self, ref: EntityRef, kind: str, detail: str) -> None:
        replica = self.replica
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
        self._commit_batch(CommitBatch(txn_id=txn_id, session="sys", events=[event]))


# each timer kind's handler, by the task's kind
_TIMER_HANDLERS = {
    "consume": Node._task_consume,
    "retry": Node._task_retry,
    "pending": Node._task_pending,
    "expiry": Node._task_expiry,
    "cleanse": Node._task_cleanse,
    "resolve": Node._task_resolve,
}
