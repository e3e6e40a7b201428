"""Process-step execution: at most one transaction per step, exactly one
entity written per transaction.

A step's handler is a declarative template the engine interprets into a
StepPlan: events to append (all on one entity), messages to enqueue and
deferred pending actions, or a reason to reject the step. The whole plan
commits as one local atomic batch, or not at all; a rejection commits
nothing and leaves a record on the replica. Commit is solipsistic: no
validation against concurrent local or remote writes, no waiting, and
never a network round-trip — conflicts are the infrastructure's problem,
after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import bus
from .bus import QueueMessage
from .errors import (
    AlreadyTerminal,
    DuplicateEventId,
    LockConflict,
    MultiEntityWriteRejected,
    UnknownReservation,
)
from .registry import APOLOGY_TYPE
from .replica import Replica
from .replication import apology_payload, detect_overbooking
from .store import (
    OP_APOLOGY,
    OP_CANCEL,
    OP_CONFIRM,
    OP_DELTA,
    OP_DISCREPANCY,
    OP_INSERT,
    OP_TENTATIVE,
    OP_TOMBSTONE,
    EntityRef,
    EventRecord,
)

AGGREGATE_UPDATE = "aggregate_update"
REFERENTIAL_CHECK = "referential_check"


@dataclass
class PendingAction:
    kind: str
    params: dict


@dataclass
class PendingActionDescriptor:
    """Deferred secondary-data work, committed with the transaction.

    Actions run after control returns, each as its own single-entity
    transaction, idempotent under (txn_id, action index). Logical locks on
    lock_scope are held until every action completes.
    """

    txn_id: str
    owner_session: str
    actions: list[PendingAction]
    lock_scope: list[EntityRef]


@dataclass(frozen=True)
class TriggerSpec:
    """What wakes a step: one event type, or a join over several."""

    types: tuple[str, ...]
    correlate: str | None = None

    @property
    def is_join(self) -> bool:
        return len(self.types) > 1

    def matches(self, msg_type: str) -> bool:
        return msg_type in self.types


@dataclass
class ProcessStepDef:
    step_id: str
    trigger: TriggerSpec
    handler: dict | Callable


@dataclass
class MessageDraft:
    msg_type: str
    payload: dict
    to: object = "self"  # "self" | "notify" | (replica_id, partition_id)
    key: str | None = None


@dataclass(slots=True)
class StepPlan:
    """Everything a handler wants done; fully describes the step's output."""

    events: list[tuple[EntityRef, str, dict, str | None]] = field(default_factory=list)
    messages: list[MessageDraft] = field(default_factory=list)
    pending: list[PendingAction] = field(default_factory=list)
    reject: str | None = None


@dataclass(slots=True)
class CommitBatch:
    """One local atomic unit: events, outbox messages, descriptor, marks."""

    txn_id: str
    session: str
    events: list[EventRecord] = field(default_factory=list)
    messages: list[QueueMessage] = field(default_factory=list)
    descriptor: PendingActionDescriptor | None = None
    processed_key: str | None = None
    ack_only: bool = False  # consumes processed_key without a transaction
    completions: list[str] = field(default_factory=list)
    lock_scope: list[EntityRef] = field(default_factory=list)
    open: bool = True


@dataclass(slots=True)
class StepOutcome:
    txn_id: str
    status: str  # "committed" | "rolled_back"
    appended_events: list[EventRecord] = field(default_factory=list)
    enqueued_messages: list[QueueMessage] = field(default_factory=list)
    pending_descriptor: PendingActionDescriptor | None = None


@dataclass
class StepContext:
    """Everything a handler may look at while planning, and where its
    messages go (``_route``): a node sets ``notify``, and ``partition`` to
    the triggering message's; a step run without a node leaves both None."""

    replica: Replica
    now: int
    session: str
    payload: dict
    idempotence_base: str
    consume_marker: str | None = None  # the idempotence key of the message consumed
    notify: tuple[str, str] | None = None
    partition: str | None = None

    def rollup(self, entity_ref: EntityRef):
        partition = self.replica.store.route(entity_ref)
        return self.replica.store.rollup(partition, entity_ref)


# -- template interpretation ---------------------------------------------

HANDLER_KINDS = {
    "delta",
    "insert",
    "tombstone",
    "reserve",
    "confirm",
    "cancel",
    "physical_count",
    "apology_record",
    "resolve_exception",
    "emit_only",
    "multi_write",
    "noop",
}


def _param(template: dict, payload: dict, name: str, default=None):
    if name in template:
        return template[name]
    from_field = template.get(f"{name}_from")
    if from_field is not None:
        return payload.get(from_field, default)
    return default


def _reservation_id(template: dict, payload: dict):
    """A reservation id is a string: an int one (a scenario or a message
    may hold one) becomes its decimal string, the text its idempotence
    keys already hold."""
    rid = _param(template, payload, "reservation_id")
    return str(rid) if type(rid) is int else rid


def _entity(template: dict, payload: dict) -> EntityRef:
    if "entity" in template:
        return EntityRef.parse(template["entity"])
    key = _param(template, payload, "key")
    return EntityRef(template["entity_type"], str(key))


def _emits(template: dict, payload: dict) -> list[MessageDraft]:
    drafts = []
    for spec in template.get("emit", []):
        body = dict(spec.get("payload", {}))
        for field_name in spec.get("payload_from", []):
            if field_name in payload:
                body[field_name] = payload[field_name]
        drafts.append(MessageDraft(msg_type=spec["type"], payload=body, to=spec.get("to", "self")))
    return drafts


def interpret(template: dict, ctx: StepContext) -> StepPlan:
    """Turn a declarative handler template into a StepPlan."""
    kind = template["kind"]
    payload = ctx.payload
    plan = StepPlan()

    if kind == "noop":
        return plan

    if kind == "emit_only":
        plan.messages = _emits(template, payload)
        return plan

    if kind == "multi_write":
        # Fixture for the one-entity rule: plans writes on several entities.
        for ref_text in template["entities"]:
            ref = EntityRef.parse(ref_text)
            plan.events.append((ref, OP_DELTA, {"deltas": template.get("deltas", {"x": 1})}, None))
        return plan

    if kind == "apology_record":
        subject = payload["subject"]
        ref = EntityRef(APOLOGY_TYPE, subject)
        plan.events.append(
            (
                ref,
                OP_APOLOGY,
                {
                    "apology_id": payload["apology_id"],
                    "subject": subject,
                    "cause": payload["cause"],
                    "entity": payload.get("entity"),
                    "compensation_keys": payload.get("compensation_keys", []),
                },
                payload["apology_id"],
            )
        )
        return plan

    entity = _entity(template, payload)

    if kind == "delta":
        deltas = _param(template, payload, "deltas", {})
        guard = template.get("guard")
        if guard is not None:
            state = ctx.rollup(entity)
            current = state.value.get(guard["field"], 0)
            projected = current + deltas.get(guard["field"], 0)
            if projected < guard.get("min", 0):
                plan.reject = f"guard failed: {guard['field']} would be {projected}"
                return plan
        body: dict = {"deltas": deltas}
        if template.get("irreversible"):
            body["irreversible"] = True
        if "args" in template:
            body["args"] = template["args"]
        if "resolves" in template:
            body["resolves"] = template["resolves"]
        plan.events.append((entity, OP_DELTA, body, None))
        if "deferred" in template:
            for deferred in template["deferred"]:
                plan.pending.append(
                    PendingAction(AGGREGATE_UPDATE, {"target": deferred["entity"], "deltas": deferred["deltas"]})
                )
        if "emit" in template:
            plan.messages = _emits(template, payload)
        return plan

    if kind == "insert":
        fields = _param(template, payload, "fields", {})
        plan.events.append((entity, OP_INSERT, {"fields": fields}, None))
        plan.messages = _emits(template, payload)
        return plan

    if kind == "tombstone":
        plan.events.append((entity, OP_TOMBSTONE, {}, None))
        return plan

    if kind == "reserve":
        rid = _reservation_id(template, payload)
        quantity = _param(template, payload, "quantity", 1)
        deadline = _param(template, payload, "deadline")
        if deadline is None and "deadline_offset" in template:
            deadline = ctx.now + template["deadline_offset"]
        body = {
            "reservation_id": rid,
            "quantity": quantity,
            "deadline": deadline,
            "terms": _param(template, payload, "terms", {}),
        }
        plan.events.append((entity, OP_TENTATIVE, body, f"reserve:{rid}"))
        plan.messages = _emits(template, payload)
        return plan

    if kind == "confirm":
        rid = _reservation_id(template, payload)
        return _plan_confirm(ctx, entity, rid, _emits(template, payload))

    if kind == "cancel":
        rid = _reservation_id(template, payload)
        cause = template.get("cause", "cancelled")
        view = ctx.rollup(entity).value.get("reservations", {})
        if rid not in view:
            raise UnknownReservation(rid)
        key = f"cancel:{rid}:{cause}"
        plan.events.append((entity, OP_CANCEL, {"reservation_id": rid, "cause": cause}, key))
        if template.get("apologize"):
            plan.messages.append(_apology_draft(rid, cause, entity, key))
        return plan

    if kind == "physical_count":
        observed = _param(template, payload, "observed", {})
        state = ctx.rollup(entity)
        mismatch = {f: v for f, v in observed.items() if state.value.get(f, 0) != v}
        if not mismatch:
            return plan
        exception_id = f"disc:{entity}:{ctx.idempotence_base}"
        plan.events.append(
            (
                entity,
                OP_DISCREPANCY,
                {
                    "exception_id": exception_id,
                    "kind": "discrepancy",
                    "observed": observed,
                    "detail": {"recorded_at": ctx.now},
                },
                exception_id,
            )
        )
        return plan

    if kind == "resolve_exception":
        exc_id = _param(template, payload, "exception_id")
        plan.events.append(
            (entity, OP_DELTA, {"deltas": {}, "resolves": exc_id}, f"resolve:{exc_id}")
        )
        return plan

    raise ValueError(f"unknown handler kind {kind!r}")


def _plan_confirm(ctx: StepContext, entity: EntityRef, rid: str, emits: list[MessageDraft]) -> StepPlan:
    plan = StepPlan()
    state = ctx.rollup(entity)
    view = state.value.get("reservations", {})
    if rid not in view:
        raise UnknownReservation(rid)
    current = view[rid]["state"]
    if current == "confirmed":
        return plan  # idempotent success, nothing to write
    if current in ("expired", "cancelled", "abrogated"):
        raise AlreadyTerminal(current)
    spec = ctx.replica.registry.get(entity.entity_type)
    losers = {l["reservation_id"] for l in detect_overbooking(state.value, spec)}
    if rid in losers:
        # reconciliation already doomed this reservation: apologize, don't confirm
        key = f"overbook-cancel:{rid}"
        plan.events.append((entity, OP_CANCEL, {"reservation_id": rid, "cause": "overbooking"}, key))
        plan.messages.append(_apology_draft(rid, "overbooking", entity, key))
        plan.messages.append(
            MessageDraft(
                msg_type="reservation.rejected",
                payload={"reservation_id": rid, "cause": "overbooking"},
                to="notify",
                key=f"reject-note:{rid}",
            )
        )
        return plan
    plan.events.append((entity, OP_CONFIRM, {"reservation_id": rid}, f"confirm:{rid}"))
    plan.messages.extend(emits)
    return plan


def _apology_draft(subject: str, cause: str, entity: EntityRef, cancel_key: str) -> MessageDraft:
    """The apology for the promise a cancel (keyed ``cancel_key``) breaks,
    sent in that cancel's batch. Its key is the apology id, so every replica
    that decides the same apology sends one logical message."""
    body = apology_payload(subject, cause, str(entity), [cancel_key])
    return MessageDraft("_apology.record", body, to="notify", key=body["apology_id"])


# -- execution ------------------------------------------------------------


def execute_step(step: ProcessStepDef, ctx: StepContext) -> StepOutcome:
    """Run one process step as (at most) one single-entity transaction.

    One pass: the handler plans; the one-entity rule (raising
    MultiEntityWriteRejected if the plan touches two entities) and the
    lock checks (raising LockConflict if another session holds an entity
    the batch needs; the scheduler defers and retries it) run before
    anything is made. ``ReplicaStore.make_event`` then routes each event,
    validates its payload and stamps it, and ``commit`` appends the batch.
    A plan that rejects the step commits nothing and leaves a
    ``guard_failed`` record on the replica.

    A one-delta step builds its plan, its entity ref, its event, its txn
    id and key, one batch and the outcome, and calls
    ``SchemaRegistry.validate_payload`` and ``LockTable.blocked`` once
    each: a template without ``deferred`` or ``emit`` builds no list for
    them.
    """
    plan = step.handler(ctx) if callable(step.handler) else interpret(step.handler, ctx)

    if plan.reject is not None:
        ctx.replica.record(ctx.now, "guard_failed", step=step.step_id, base=ctx.idempotence_base,
                           reason=plan.reject)
        return StepOutcome(txn_id="", status="rolled_back")

    planned = plan.events
    if len(planned) > 1:
        refs = {ref for ref, _, _, _ in planned}
        if len(refs) > 1:
            named = sorted(map(str, refs))
            raise MultiEntityWriteRejected(f"step {step.step_id} plans writes on {named}")
    written = planned[0][0] if planned else None
    replica = ctx.replica

    # check every lock the batch will need before touching anything, so a
    # conflict defers the whole step instead of poisoning a half-commit
    lock_needs = [] if written is None else [written]
    for action in plan.pending:
        if action.kind == AGGREGATE_UPDATE:
            lock_needs.append(EntityRef.parse(action.params["target"]))
    for ref in lock_needs:
        if replica.locks.blocked(ref, ctx.session):
            raise LockConflict(str(ref))

    txn_id = replica.next_txn_id(ctx.session)
    make_event = replica.store.make_event
    base = f"{ctx.idempotence_base}:{step.step_id}"
    events = []
    for i, (ref, op_kind, payload, key_override) in enumerate(planned):
        events.append(make_event(ref, op_kind, payload, key_override or f"{base}:{i}", txn_id))

    messages = []
    for i, draft in enumerate(plan.messages):
        destination = _route(ctx, draft.to, written)
        # Keys derive from the triggering action, not the txn counter, so a
        # crash-replay re-emission collapses to the same logical send.
        key = draft.key or f"{base}:m{i}"
        messages.append(
            QueueMessage(
                message_id=f"{txn_id}:m{i}",
                destination=destination,
                msg_type=draft.msg_type,
                payload=dict(draft.payload),
                idempotence_key=key,
                enqueue_stamp=ctx.now,
                sender=replica.replica_id,
            )
        )

    actions = plan.pending + _referential_checks(replica, events)
    descriptor = None
    if actions:
        # referential checks take no lock, so the scope is what was checked above
        descriptor = PendingActionDescriptor(txn_id, ctx.session, actions, lock_needs)

    batch = CommitBatch(txn_id, ctx.session, events)
    if messages:
        bus.enqueue(batch, messages)
    if ctx.consume_marker is not None:
        batch.processed_key = ctx.consume_marker
    if descriptor is not None:
        batch.descriptor = descriptor
        batch.lock_scope = list(lock_needs)
    commit(replica, batch, ctx.now)

    return StepOutcome(txn_id, "committed", events, messages, descriptor)


def _route(ctx: StepContext, to, written: EntityRef | None) -> tuple[str, str]:
    """A message's destination: an explicit (replica, partition) as given,
    ``to: notify`` to ``ctx.notify`` when set, and anything else to this
    replica, in the partition of the write, else ``ctx.partition``, else
    the first hosted partition."""
    if isinstance(to, (tuple, list)):
        return (to[0], to[1])
    if to == "notify" and ctx.notify is not None:
        return ctx.notify
    replica = ctx.replica
    if written is not None:
        return (replica.replica_id, replica.store.route(written))
    partition = ctx.partition if ctx.partition is not None else replica.partitions_hosted()[0]
    return (replica.replica_id, partition)


def _referential_checks(replica: Replica, events: list[EventRecord]) -> list[PendingAction]:
    """Inject deferred parent checks declared by the schema registry."""
    actions = []
    for event in events:
        if event.op_kind != OP_INSERT:
            continue
        spec = replica.registry.get(event.entity_ref.entity_type)
        fields = event.payload.get("fields", {})
        for constraint in spec.parents:
            parent_key = fields.get(constraint.payload_field)
            if parent_key is None:
                continue
            parent = EntityRef(constraint.parent_type, str(parent_key))
            actions.append(
                PendingAction(
                    REFERENTIAL_CHECK,
                    {"child": str(event.entity_ref), "parent": str(parent)},
                )
            )
    return actions


def commit(replica: Replica, batch: CommitBatch, now: int = 0) -> None:
    """Apply one batch atomically to local storage. Purely local: no
    network traffic, no waiting, no conflict validation.

    A batch of two or more events must write one entity
    (MultiEntityWriteRejected, before anything is applied): the rule is
    checked here for direct callers, and in ``execute_step`` for steps.
    Locks are taken next. Each event is routed once and appended to its
    partition log; the log raises SequenceGap on an event out of
    sequence order. Events were routed, validated and stamped where they
    were made (``ReplicaStore.make_event``). Replaying an identical batch
    is a no-op (idempotent by event id), so crash-recovery replays leave
    the log byte-identical. A processed key maps to its consuming txn id,
    and its message leaves the inbox.
    The replica's ``on_commit`` hook gets the batch last, once it is durable.
    """
    events = batch.events
    if len(events) > 1:
        refs = {e.entity_ref for e in events}
        if len(refs) > 1:
            raise MultiEntityWriteRejected(sorted(map(str, refs)))
    # locks first: acquisition is the only part of a batch that can refuse,
    # so taking them up front keeps the batch all-or-nothing
    for ref in batch.lock_scope:
        replica.locks.acquire(ref, batch.session, batch.txn_id)
    store = replica.store
    for event in events:
        try:
            store.partitions[store.route(event.entity_ref)].append(event)
        except DuplicateEventId:
            continue  # redelivered batch: idempotent success
        store.observe(event.lww_hint)
    for message in batch.messages:
        replica.outbox.add(message)
    if batch.descriptor is not None and batch.descriptor.txn_id not in replica.descriptors:
        replica.descriptors[batch.descriptor.txn_id] = batch.descriptor
    if batch.processed_key is not None:
        replica.processed.add(batch.processed_key, None if batch.ack_only else batch.txn_id)
        replica.inbox.remove(batch.processed_key)
    for ckey in batch.completions:
        replica.action_completions.add(ckey)
    batch.open = False
    replica.commit_times.append(now)
    if replica.on_commit is not None:
        replica.on_commit(batch)


def apply_pending_actions(replica: Replica, descriptor: PendingActionDescriptor, now: int = 0) -> dict:
    """Run a committed descriptor's deferred actions.

    Each action is its own single-entity transaction keyed by
    (txn_id, index): re-invocation is a per-action no-op. Locks release
    only once every action has completed.
    """
    from .process import check_referential  # process imports this module

    report = {"txn_id": descriptor.txn_id, "applied": [], "skipped": [], "exceptions": []}
    for idx, action in enumerate(descriptor.actions):
        ckey = f"{descriptor.txn_id}:a{idx}"
        if ckey in replica.action_completions:
            report["skipped"].append(ckey)
            continue
        txn_id = replica.next_txn_id("sys")
        batch = CommitBatch(txn_id=txn_id, session=descriptor.owner_session, completions=[ckey])
        if action.kind == AGGREGATE_UPDATE:
            target = EntityRef.parse(action.params["target"])
            batch.events.append(
                replica.store.make_event(
                    target, OP_DELTA, {"deltas": action.params["deltas"]}, ckey, txn_id
                )
            )
        elif action.kind == REFERENTIAL_CHECK:
            # a missing parent opens a managed exception; the child write
            # already committed, and the whole point is not to refuse it
            child = EntityRef.parse(action.params["child"])
            violation = check_referential(replica, child, EntityRef.parse(action.params["parent"]))
            if violation is not None:
                exc_id = violation["exception_id"]
                batch.events.append(
                    replica.store.make_event(child, OP_DISCREPANCY, violation, exc_id, txn_id)
                )
                report["exceptions"].append(exc_id)
        else:
            # custom action kinds are an extension point; record and complete
            # (the record goes first: a crash right after the commit loses the
            # rest of this call, and the completion keeps it from rerunning)
            replica.record(now, "action_skipped", txn=descriptor.txn_id, action=action.kind)
        commit(replica, batch, now)
        report["applied"].append(ckey)
    if all(
        f"{descriptor.txn_id}:a{i}" in replica.action_completions
        for i in range(len(descriptor.actions))
    ):
        replica.locks.release_txn(descriptor.txn_id)
        replica.descriptors_done.add(descriptor.txn_id)
    return report
