"""A Node under fake timers and an in-memory network: no scenario, no simulator."""

from __future__ import annotations

import heapq

from eventual import bus
from eventual.bus import QueueMessage
from eventual import node as node_module, sim as sim_module
from eventual.node import Node, NodeConfig
from eventual.process import scan_apologies
from eventual.replica import Replica
from eventual.replication import sync
from eventual.store import OP_CANCEL, OP_TENTATIVE, EventRecord
from eventual.txn import CommitBatch

from test_replication import ACCOUNT, BOOK, brute_force_losers, local_delta, make_registry, make_replica


class World:
    """The host of a few nodes (timers and a network): ``run`` delivers
    every envelope at once and runs each task, in time order, up to a tick."""

    def __init__(self, replicas: list[Replica], *, config: NodeConfig | None = None,
                 notify: tuple[str, str] | None = None, now: int = 0):
        self.now = now
        self.scheduled: list[tuple[int, dict]] = []  # every task ever scheduled
        self.sends: list[dict] = []  # every envelope ever sent
        self.rearms = 0
        self._tasks: list[tuple[int, int, str, dict]] = []
        self._envelopes: list[tuple[str, str, str, dict]] = []
        self.nodes = {}
        for replica in replicas:
            host = _Host(self, replica.replica_id)
            self.nodes[replica.replica_id] = Node(replica, config or NodeConfig(), host, notify=notify)

    def run(self, until: int) -> None:
        while self._envelopes or (self._tasks and self._tasks[0][0] <= until):
            if self._envelopes:
                src, dst, kind, body = self._envelopes.pop(0)
                if dst in self.nodes:
                    self.nodes[dst].receive(src, kind, body)
                continue
            at, _, rid, task = heapq.heappop(self._tasks)
            self.now = max(self.now, at)
            self.nodes[rid].on_timer(task)

    def tasks(self, kind: str) -> list[tuple[int, dict]]:
        return [(at, task) for at, task in self.scheduled if task["kind"] == kind]


class _Host:
    def __init__(self, world: World, rid: str):
        self.world = world
        self.rid = rid

    @property
    def now(self) -> int:
        return self.world.now

    def schedule(self, at: int, kind: str, detail: str, **fields) -> None:
        task = {"kind": kind, "detail": detail, **fields}
        self.world.scheduled.append((at, task))
        heapq.heappush(self.world._tasks, (at, len(self.world.scheduled), self.rid, task))

    def rearm_syncs(self) -> None:
        self.world.rearms += 1

    def send(self, dst: str, kind: str, body: dict, env_id: str) -> None:
        node = self.world.nodes[self.rid]
        self.world.sends.append({
            "src": self.rid, "dst": dst, "kind": kind, "in_commit": node._in_commit,
            "commits": len(node.replica.commit_times),
        })
        self.world._envelopes.append((self.rid, dst, kind, body))


def client(replica_id: str, action_id: str, **template) -> QueueMessage:
    return QueueMessage(
        message_id=f"client:{action_id}",
        destination=(replica_id, "p0"),
        msg_type=f"client.{template['kind']}",
        payload={"template": template},
        idempotence_key=f"client:{action_id}",
        enqueue_stamp=0,
        sender="client",
    )


def reserve(replica_id: str, reservation_id: str, deadline: int) -> QueueMessage:
    return client(replica_id, reservation_id, kind="reserve", entity=str(BOOK),
                  reservation_id=reservation_id, deadline=deadline)


def test_every_task_kind_has_its_handler_in_the_dispatch_tables():
    # the loops look handlers up by kind: a ``_task_<kind>`` method missing
    # from its table would fail only when a task of that kind came due
    for table, cls in ((node_module._TIMER_HANDLERS, Node), (sim_module._SIM_HANDLERS, sim_module.Simulator)):
        methods = {name[len("_task_"):]: f for name, f in vars(cls).items() if name.startswith("_task_")}
        assert table == methods
    assert not set(node_module._TIMER_HANDLERS) & set(sim_module._SIM_HANDLERS)


# -- the follow-up, one reaction at a time ---------------------------------------


def test_a_tentative_reservation_with_a_deadline_schedules_one_expiry_at_it():
    world = World([make_replica("A")], now=10)
    world.nodes["A"].submit(reserve("A", "r1", 50))
    world.run(until=10)
    assert world.tasks("expiry") == [
        (50, {"kind": "expiry", "detail": "r1", "entity": str(BOOK), "reservation_id": "r1"})
    ]


def test_an_open_discrepancy_schedules_one_cleanse_after_the_cleanse_lag():
    world = World([make_replica("A")], config=NodeConfig(cleanse_lag=3), now=10)
    count = client("A", "count", kind="physical_count", entity="account/alice", observed={"balance": 7})
    world.nodes["A"].submit(count)
    world.run(until=10)
    cleanse = {"kind": "cleanse", "detail": "account/alice", "entity": "account/alice"}
    assert world.tasks("cleanse") == [(13, cleanse)]
    world.run(until=13)  # the cleanse adjusts the rollup and resolves the discrepancy
    assert world.nodes["A"].replica.store.rollup("p0", ACCOUNT).value["balance"] == 7
    assert len(world.tasks("cleanse")) == 1


def _locking_alice(world: World, **template) -> Node:
    """Node A, with ``dep`` committed at ``world.now``: its descriptor holds
    the locks of account/alice and account/bob until its pending task
    applies the deferred delta, ``pending_lag`` ticks later."""
    node = world.nodes["A"]
    node.submit(client("A", "dep", kind="delta", entity="account/alice", deltas={"balance": 100},
                       deferred=[{"entity": "account/bob", "deltas": {"balance": 1}}], **template))
    return node


def _pay(replica_id: str = "A") -> QueueMessage:
    return client(replica_id, "pay", kind="delta", entity="account/alice", deltas={"balance": 5})


CONSUME = {"kind": "consume", "detail": "A:p0", "partition": "p0"}


def test_a_message_that_meets_a_pending_lock_is_consumed_again_after_the_backoff():
    world = World([make_replica("A")], config=NodeConfig(pending_lag=2, lock_backoff=3), now=10)
    node = _locking_alice(world)  # locked until tick 12
    world.run(until=10)
    world.now = 11
    node.submit(_pay())  # consumed in the call: the lock refuses its step
    assert world.tasks("consume") == [(14, CONSUME)]  # the one backoff consume
    assert "client:pay" not in node.handler_effects
    assert node.replica.store.rollup("p0", ACCOUNT).value["balance"] == 100
    world.run(until=14)  # the pending task released the locks at 12
    assert node.replica.store.rollup("p0", ACCOUNT).value["balance"] == 105
    assert node.handler_effects["client:pay"] == 1
    assert len(node.replica.inbox) == 0


# -- arrival: one path, one consume per queued message --------------------------------


def test_a_submit_on_a_live_replica_commits_in_the_call_and_schedules_no_consume():
    world = World([make_replica("A")])
    node = world.nodes["A"]
    node.submit(_pay())
    assert node.replica.commit_times == [0]
    assert node.replica.processed.get("client:pay") and len(node.replica.inbox) == 0
    assert node.replica.store.rollup("p0", ACCOUNT).value["balance"] == 5
    assert world.scheduled == []


def test_a_peer_s_queue_msg_is_acked_before_its_consume_commits():
    world = World([make_replica("A"), make_replica("B")], notify=("B", "p0"))
    node = world.nodes["A"]
    pay = client("A", "pay", kind="delta", entity="account/alice", deltas={"balance": 5},
                 emit=[{"type": "paid", "to": "notify"}])
    node.receive("B", "queue_msg", pay._asdict())
    # the ack left before the commit path started; the emit once it had exited
    assert [(s["dst"], s["kind"], s["in_commit"], s["commits"]) for s in world.sends] == [
        ("B", "ack", False, 0), ("B", "queue_msg", False, 1),
    ]
    assert node.replica.processed.get("client:pay") and node.commit_path_sends == 0
    assert world.tasks("consume") == []


def test_a_second_copy_and_a_redelivery_of_a_processed_key_are_acked_and_not_queued():
    world = World([make_replica("A"), make_replica("B")], config=NodeConfig(pending_lag=2, lock_backoff=3))
    node = _locking_alice(world)  # the lock keeps the first copy queued until its backoff
    body = _pay()._asdict()
    node.receive("B", "queue_msg", body)
    node.receive("B", "queue_msg", body)  # the network duplicated the envelope
    assert [s["kind"] for s in world.sends] == ["ack", "ack"]
    assert world.tasks("consume") == [(3, CONSUME)] and len(node.replica.inbox) == 1
    world.run(until=3)
    assert "client:pay" in node.replica.processed and len(node.replica.inbox) == 0
    node.receive("B", "queue_msg", body)  # a late redelivery of the processed key
    assert [s["kind"] for s in world.sends] == ["ack"] * 3
    assert len(world.tasks("consume")) == 1 and len(node.replica.inbox) == 0
    assert node.handler_effects == {"client:dep": 1, "client:pay": 1}
    assert node.replica.store.rollup("p0", ACCOUNT).value["balance"] == 105


def test_a_message_whose_key_is_already_queued_queues_nothing():
    world = World([make_replica("A")])
    node = world.nodes["A"]
    node.replica.crash()  # a down replica queues what arrives, and consumes it once recovered
    payload = {"apology_id": "apology:r1", "subject": "r1", "cause": "overbooking", "entity": str(BOOK)}
    for sender in ("B", "C"):  # two replicas apologize for one broken promise
        apology = QueueMessage(f"{sender}:t1:a0", ("A", "p0"), "_apology.record", payload, "apology:r1", 0, sender)
        node.receive(sender, "queue_msg", apology._asdict())
    assert [m.sender for m in node.replica.inbox.arrivals.values()] == ["B"]
    node.recover()
    assert world.tasks("consume") == [(0, CONSUME)]
    world.run(until=0)
    assert [a.subject for a in scan_apologies(node.replica)] == ["r1"]
    assert node.handler_effects == {"apology:r1": 1}


def test_a_down_replica_queues_submits_and_consumes_each_once_recovered():
    world = World([make_replica("A")])
    node = world.nodes["A"]
    node.replica.crash()
    for action_id, amount in (("d1", 1), ("d2", 2)):
        node.submit(client("A", action_id, kind="delta", entity="account/alice", deltas={"balance": amount}))
    assert world.scheduled == [] and len(node.replica.inbox) == 2
    node.recover()
    assert world.tasks("consume") == [(0, CONSUME), (0, CONSUME)]
    world.run(until=0)
    assert len(node.replica.inbox) == 0
    assert node.replica.store.rollup("p0", ACCOUNT).value["balance"] == 3


def test_recovering_a_live_replica_schedules_nothing():
    world = World([make_replica("A")], config=NodeConfig(pending_lag=2, lock_backoff=3),
                  notify=("N", "notify"))
    # dep's descriptor is unapplied and its message to N is unacked; pay waits for dep's lock
    node = _locking_alice(world, emit=[{"type": "paid", "to": "notify"}])
    node.submit(_pay())
    replica = node.replica
    assert len(replica.inbox) == 1 and replica.outbox.pending() and replica.unapplied_descriptors()
    scheduled, locks = list(world.scheduled), replica.locks.holders()
    node.recover()
    assert world.scheduled == scheduled and replica.locks.holders() == locks


def test_a_committed_message_is_sent_only_once_the_commit_path_has_exited():
    world = World([make_replica("A")], notify=("N", "notify"))
    pay = client("A", "pay", kind="delta", entity="account/alice", deltas={"balance": 5},
                 emit=[{"type": "paid", "to": "notify"}])
    world.nodes["A"].submit(pay)
    world.run(until=0)
    assert [(s["dst"], s["kind"]) for s in world.sends] == [("N", "queue_msg")]
    assert world.sends[0] == {"src": "A", "dst": "N", "kind": "queue_msg", "in_commit": False, "commits": 1}
    assert world.nodes["A"].commit_path_sends == 0
    (entry,) = world.nodes["A"].replica.outbox.entries
    message_id = entry.message.message_id
    assert world.tasks("retry") == [(2, {"kind": "retry", "detail": message_id, "message_id": message_id})]


# -- two nodes over the network ------------------------------------------------------


def test_pending_keeps_the_unacked_entries_in_order_through_local_and_remote_acks():
    world = World([make_replica("A"), make_replica("B")])
    node = world.nodes["A"]
    outbox = node.replica.outbox

    def commit(txn_id: str, destinations: str) -> None:
        batch = CommitBatch(txn_id=txn_id, session="s")
        bus.enqueue(batch, [
            QueueMessage(f"{txn_id}:m{i}", (dst, "p0"), "note", {}, f"{txn_id}:m{i}", 0, "A")
            for i, dst in enumerate(destinations)
        ])
        node._commit_batch(batch)

    def pending() -> list[str]:
        return [entry.message.message_id for entry in outbox.pending()]

    # the launch delivers each message for A itself, acking it at once
    commit("t1", "ABAB")
    assert pending() == ["t1:m1", "t1:m3"]
    commit("t2", "BA")
    assert pending() == ["t1:m1", "t1:m3", "t2:m0"]
    outbox.mark_acked("t1:m3")  # B's ack of the last sent message first
    assert pending() == ["t1:m1", "t2:m0"]
    world.run(until=0)  # B receives the rest and acks them
    assert pending() == []
    assert all(entry.acked for entry in outbox.entries) and len(outbox.entries) == 6


def _four_each(world: World) -> None:
    for rid in ("A", "B"):
        for i in range(4):
            world.nodes[rid].submit(reserve(rid, f"r{rid}{i}", 900))
    world.run(until=0)


def _assert_the_oracle_s_losers_are_cancelled_once_each(replicas: dict[str, Replica]) -> set[str]:
    tentative = [e for e in replicas["A"].store.log("p0").events if e.op_kind == OP_TENTATIVE]
    assert len(tentative) == 8
    oracle = brute_force_losers(tentative, 5)
    assert len(oracle) == 3
    for replica in replicas.values():
        cancels = [e for e in replica.store.log("p0").events if e.op_kind == OP_CANCEL]
        assert sorted(e.payload["reservation_id"] for e in cancels) == sorted(oracle)
        for cancel in cancels:
            # the apology rides in the cancel's own batch, on the replica that made it
            maker = replicas[cancel.event_id.replica]
            (apology,) = maker.outbox.for_txn(cancel.origin_txn_id)
            assert apology.msg_type == "_apology.record"
            assert apology.payload["subject"] == cancel.payload["reservation_id"]
    return oracle


def test_two_nodes_cancel_the_oracle_s_losers_once_each_with_their_apologies():
    reg = make_registry()
    world = World([make_replica("A", reg), make_replica("B", reg)])
    _four_each(world)
    world.nodes["A"].start_sync("B", ["p0"])
    world.run(until=100)
    replicas = {rid: node.replica for rid, node in world.nodes.items()}
    oracle = _assert_the_oracle_s_losers_are_cancelled_once_each(replicas)
    # the apologies were delivered to the notify replica and recorded there
    assert {a.subject for a in scan_apologies(replicas["A"])} == oracle


def test_an_offline_sync_remediates_as_the_nodes_do():
    reg = make_registry()
    world = World([make_replica("A", reg), make_replica("B", reg)])
    _four_each(world)
    for node in world.nodes.values():
        node.detach()
    a, b = (node.replica for node in world.nodes.values())
    assert sync(a, b)[0] == 4
    oracle = _assert_the_oracle_s_losers_are_cancelled_once_each({"A": a, "B": b})
    # A's apologies to its own notify partition are consumed at the sync's tick
    assert {apology.subject for apology in scan_apologies(a)} == oracle
    assert len(a.inbox) == 0 and len(b.inbox) == 0
    assert a.on_commit is None and b.on_commit is None  # sync leaves no hook behind


# -- anti-entropy ------------------------------------------------------------------


def test_a_synced_record_is_held_as_sent_and_exported_as_its_encoding(monkeypatch):
    # A sync entry is the sender's record: the log holds that object and
    # encodes no line for it until export writes its record's encoding.
    reg = make_registry()
    source = make_replica("Z", reg)
    made = [local_delta(source, ACCOUNT, f"d{i}", balance=i) for i in (1, 2)]
    node = World([make_replica("A", reg)]).nodes["A"]
    to_line, encodes = EventRecord.to_line, [0]

    def counted_to_line(event):
        encodes[0] += 1
        return to_line(event)

    monkeypatch.setattr(EventRecord, "to_line", counted_to_line)
    node._merge_remote_events({"p0": made})
    log = node.replica.store.log("p0")
    assert all(log.get(event.event_id) is event for event in made)
    assert encodes[0] == 0
    assert node.replica.store.export_partition("p0") == [to_line(event) for event in made]
