"""Seeded inputs and one-unit runners for the four benchmark workloads.

Every generator is a pure function of the workload seed. The engine only
ever receives what they produce: scenario YAML text through
``parse_scenario`` (or a scenario file through the CLI), or an op stream
driven through the public ``Replica``/``execute_step``/``rollup`` API.

A *unit* is one repetition of a workload: set up, do the measured work,
then check every output. ``run.py`` repeats units for the requested
number of seconds and reports medians.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import yaml

import eventual
from eventual import (
    EntityRef,
    MergePolicy,
    ProcessStepDef,
    Replica,
    RollupSpec,
    SchemaRegistry,
    Simulator,
    StepContext,
    TriggerSpec,
)
from eventual import cli

# Engine functions are called through the package (``eventual.rollup``
# style) so that a traced unit reaches them through the tracer's wrappers.

ROOT = Path(__file__).resolve().parent.parent
GOSSIP_YAML = ROOT / "src" / "eventual" / "scenarios" / "gossip.yaml"
WORK_DIR = Path(__file__).resolve().parent / "work"

SWEEP_SEEDS = 100
REPLICAS = ("A", "B", "C")


def _dump(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=False, default_flow_style=None, width=4096)


# -- generators ----------------------------------------------------------------


def gossip_variant(seed: int) -> str:
    """The bundled gossip soak with its twelve client actions re-drawn.

    Entities, topology, network, processes and partition windows are the
    bundled ones; each action keeps its kind and entity, and gets a seeded
    replica, tick (within two of the original), amount and audit target.
    """
    rng = random.Random(seed)
    data = yaml.safe_load(GOSSIP_YAML.read_text())
    for action in data["actions"]:
        action["replica"] = rng.choice(REPLICAS)
        action["at"] = max(1, action["at"] + rng.randint(-2, 2))
        if "deltas" in action:
            action["deltas"] = {f: rng.choice((-9, -5, -2, 1, 3, 7, 12)) for f in action["deltas"]}
        if action["do"] == "lww_set":
            action["fields"] = {"color": rng.choice(("red", "blue", "green", "amber"))}
        for emit in action.get("emit", []):
            emit["to"] = [rng.choice([r for r in REPLICAS if r != action["replica"]]), "p0"]
    return _dump(data)


DELTA_KEYS = 4
DELTA_BLOCKS = 33
DELTA_ACTIONS = DELTA_BLOCKS * DELTA_KEYS * len(REPLICAS)
DELTA_TICKS = 200


def delta_hot(seed: int) -> str:
    """gossip.yaml reshaped into 396 commutative deltas on 4 hot accounts.

    The actions come in 33 blocks of 12, one for each account on each of
    the three replicas, in seeded order within the block; one action per
    block, at a seeded place, also emits a cross-replica ``audit.note``
    (handled by the bundled ``audit_relay`` process). So every seed writes
    99 deltas to each account, 33 from each replica, and the seed picks
    the order, the amounts and the audit targets. Two partition windows,
    scaled to the action timeline, split the three replicas.
    """
    rng = random.Random(seed)
    data = yaml.safe_load(GOSSIP_YAML.read_text())
    actions = []
    for _ in range(DELTA_BLOCKS):
        block = [(key, replica) for key in range(DELTA_KEYS) for replica in REPLICAS]
        rng.shuffle(block)
        audited = rng.randrange(len(block))
        for j, (key, replica) in enumerate(block):
            i = len(actions)
            action = {
                "at": 1 + i * DELTA_TICKS // DELTA_ACTIONS,
                "replica": replica,
                "do": "delta",
                "id": f"d{i}",
                "entity": f"account/h{key}",
                "deltas": {"balance": rng.choice((-7, -3, -1, 2, 4, 9, 15))},
            }
            if j == audited:
                other = rng.choice([r for r in REPLICAS if r != replica])
                action["emit"] = [{"type": "audit.note", "to": [other, "p0"], "payload": {}}]
            actions.append(action)
    t = DELTA_TICKS
    data["seed"] = seed
    data["max_time"] = 20 * t
    data["faults"] = [
        {"kind": "partition", "at": t // 10, "groups": [["A"], ["B", "C"]]},
        {"kind": "heal", "at": 4 * t // 10},
        {"kind": "partition", "at": 55 * t // 100, "groups": [["A", "B"], ["C"]]},
        {"kind": "heal", "at": 85 * t // 100},
    ]
    data["actions"] = actions
    return _dump(data)


RESERVE_BLOCKS = 10
# One block of 20 actions: 7 opportunity inserts (O), 4 customer inserts
# (C) and 9 reservations (R), always in this order and on these replicas.
RESERVE_KINDS = "ORCROROROCRORCORORCR"
RESERVE_REPLICAS = "ABBABAABABBABAABABBA"
RESERVE_ACTIONS = RESERVE_BLOCKS * len(RESERVE_KINDS)
CUSTOMERS = 35
BOOKS = 5


def reserve_insert(seed: int) -> str:
    """Inserts with parent references beside capacity-5 reservations.

    200 actions on two data replicas: 35% ``opportunity`` inserts, two
    naming each of 35 customers; 20% ``customer`` inserts, the first 35
    covering every customer in seeded order (so children arrive both
    before and after their parent); 45% reservations, 18 on each of five
    capacity-5 books. Apologies go to a separate notify replica. One
    partition window, drop/dup 0.05.

    The kind and replica of each action follow a fixed pattern and every
    customer and book gets the same number of actions, so the amount of
    work hardly depends on the seed; the seed picks which customer or book
    each action names, the order parents arrive in, the values, and the
    simulator's network draws.
    """
    rng = random.Random(seed)
    kinds = RESERVE_KINDS * RESERVE_BLOCKS
    replicas = RESERVE_REPLICAS * RESERVE_BLOCKS
    parents = [f"c{i}" for i in range(CUSTOMERS)] * (kinds.count("O") // CUSTOMERS)
    books = [f"b{i}" for i in range(BOOKS)] * (kinds.count("R") // BOOKS)
    first_parents = [f"c{i}" for i in range(CUSTOMERS)]
    for keys in (parents, books, first_parents):
        rng.shuffle(keys)
    actions = []
    for i, (kind, replica) in enumerate(zip(kinds, replicas)):
        action = {"at": 1 + i // 2, "replica": replica, "id": f"x{i}"}
        if kind == "O":
            action.update(
                do="insert",
                entity=f"opportunity/o{i}",
                fields={"customer_id": parents.pop(), "value": rng.randint(1, 99)},
            )
        elif kind == "C":
            key = first_parents.pop() if first_parents else f"c{rng.randrange(CUSTOMERS)}"
            action.update(do="insert", entity=f"customer/{key}", fields={"name": f"n{i}"})
        else:
            action.update(do="reserve", entity=f"book/{books.pop()}", reservation_id=f"r{i}")
        actions.append(action)
    t = RESERVE_ACTIONS // 2
    data = {
        "schema": "eventual/1",
        "entities": {
            "customer": {"merge": "lww_register"},
            "opportunity": {
                "merge": "lww_register",
                "parents": [{"field": "customer_id", "type": "customer"}],
            },
            "book": {
                "merge": "commutative_delta",
                "initial": {"on_hand": 5},
                "aggregates": ["on_hand"],
                "capacity_field": "on_hand",
            },
        },
        "topology": {"partitions": {"p0": ["A", "B"], "notify": ["N"]}},
        "notify_partition": "notify",
        "network": {"delay_min": 1, "delay_max": 4, "drop": 0.05, "duplicate": 0.05, "reorder": True},
        "sync_interval": 5,
        "max_time": 20 * t,
        "seed": seed,
        "faults": [
            {"kind": "partition", "at": 3 * t // 10, "groups": [["A", "N"], ["B"]]},
            {"kind": "heal", "at": 6 * t // 10},
        ],
        "actions": actions,
    }
    return _dump(data)


STORE_KEYS = 128
STORE_BLOCKS = 4
BLOCK_WRITES = 600
BLOCK_READS = 400
SUMMARIZE_AT = 200


def _skewed_keys(count: int, rng: random.Random) -> list[str]:
    """``count`` keys with exact 1/rank shares (largest remainder), seeded order."""
    weights = [1 / (rank + 1) for rank in range(STORE_KEYS)]
    quotas = [count * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    for i in sorted(range(STORE_KEYS), key=lambda i: counts[i] - quotas[i])[: count - sum(counts)]:
        counts[i] += 1
    keys = [f"k{i}" for i, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(keys)
    return keys


def store_ops(seed: int) -> list[tuple[str, str, int]]:
    """4000 (kind, key, delta) ops over 128 accounts with 1/rank skew.

    Each block of 1000 ops holds exactly 600 writes and 400 reads whose
    keys follow the skew exactly; the seed picks the order and amounts. So
    every seed does the same amount of work per key, and the checkpoints
    below fall on the same keys at the same log lengths.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(STORE_BLOCKS):
        writes = _skewed_keys(BLOCK_WRITES, rng)
        reads = _skewed_keys(BLOCK_READS, rng)
        kinds = ["write"] * BLOCK_WRITES + ["read"] * BLOCK_READS
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "write":
                ops.append(("write", writes.pop(), rng.choice((-40, -15, -2, 5, 11, 30, 75))))
            else:
                ops.append(("read", reads.pop(), 0))
    return ops


# -- unit results ----------------------------------------------------------------


REFERENCE_LOOPS = 10_000


def reference() -> float:
    """Time a fixed piece of pure-Python work: the yardstick of host speed.

    Never change it: every time the benchmark reports is rescaled by it
    (see ``run.py``).
    """
    t0 = perf_counter()
    table: dict[int, tuple[int, str]] = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        table[i % 5000] = (i, str(i))
        total += len(table[i % 5000][1])
    return perf_counter() - t0


@dataclass
class Unit:
    """What one repetition measured and checked.

    ``mark`` times ``reference`` between the unit's steps, so that the
    host's speed is sampled all through the run, next to the work it
    slows. No reference falls inside a timed op or timing.
    """

    # Reference seconds; stretch k lies between refs[k] and refs[k + 1].
    # Every sample below starts with the stretch it was taken in.
    refs: list[float] = field(default_factory=list)
    setup_s: list[tuple[int, float]] = field(default_factory=list)
    timings: list[tuple[int, int, float]] = field(default_factory=list)  # (stretch, ops, seconds)
    write_us: list[tuple[int, float]] = field(default_factory=list)
    read_us: list[tuple[int, float]] = field(default_factory=list)
    variant: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    messages_sent: int = 0
    redeliveries: int = 0
    conflict_reports: int = 0
    converge_ticks: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.mark()

    @property
    def stretch(self) -> int:
        """The stretch between two references now running."""
        return len(self.refs) - 1

    def mark(self) -> float:
        """Time the reference; returns the time it ended."""
        self.refs.append(reference())
        return perf_counter()

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def _record(unit: Unit, reports) -> None:
    """Digest the reports (trace hash and rendered text) and keep their counts."""
    h = hashlib.sha256()
    for report in reports:
        h.update(report.trace_hash.encode())
        h.update(hashlib.sha256(report.render().encode()).digest())
        unit.messages_sent += report.messages["sent"]
        unit.redeliveries += report.messages["duplicates"]
        unit.conflict_reports += len(report.conflicts)
    unit.digest = h.hexdigest()


def _converge_ticks(scenario_actions, report) -> int:
    return report.end_time - max((a.at for a in scenario_actions), default=0)


def _timed(call, *args):
    """``call(*args)`` and its wall time in microseconds.

    The cyclic garbage collector is held off during the call, so its
    pauses land between ops (where throughput still counts them) and not
    on whichever op happens to cross an allocation threshold.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        result = call(*args)
        return result, (perf_counter() - t0) * 1e6
    finally:
        gc.enable()


# -- post-run client probe ----------------------------------------------------------


def _probe(sim, report, unit: Unit, entity_type: str, field_name: str, n_ops: int, seed: int) -> None:
    """A closed-loop client on the quiesced replicas.

    First it reads every entity on every replica and compares the fresh
    read with the report's rollup. Then it runs ``n_ops`` ops, 60% delta
    writes through ``execute_step`` and 40% reads checked against the
    converged value plus the probe's own deltas, timing the reference
    every 1000 ops.
    """
    targets = []
    expected = {}
    for rid in sorted(sim.replicas):
        replica = sim.replicas[rid]
        for partition_id in replica.partitions_hosted():
            for ref in replica.store.log(partition_id).entity_refs():
                unit.attempted += 1
                state, us = _timed(replica.store.rollup, partition_id, ref)
                unit.read_us.append((unit.stretch, us))
                if state.canonical_dump() != report.rollups[rid].get(str(ref)):
                    unit.fail(1, f"read {rid} {ref} differs from the run report")
                if ref.entity_type == entity_type:
                    targets.append((replica, partition_id, ref))
                    expected[(rid, ref)] = state.value.get(field_name, 0)
    if not targets:
        unit.fail(1, f"probe found no {entity_type} entity")
        return
    rng = random.Random(seed)
    for i in range(n_ops):
        if i and i % PROBE_MARK_OPS == 0:
            unit.mark()
        replica, partition_id, ref = targets[rng.randrange(len(targets))]
        key = (replica.replica_id, ref)
        unit.attempted += 1
        if rng.random() < 0.6:
            delta = rng.choice((-3, 1, 2, 5))
            step = ProcessStepDef(
                "client.delta",
                TriggerSpec(("client.delta",)),
                {"kind": "delta", "entity": str(ref), "deltas": {field_name: delta}},
            )
            ctx = StepContext(
                replica=replica, now=sim.now + 1 + i, session="probe", payload={},
                idempotence_base=f"probe:{i}",
            )
            try:
                outcome, us = _timed(eventual.execute_step, step, ctx)
            except Exception as exc:  # a raised write is a failed op, not a crash
                unit.fail(1, f"probe write {ref}: {type(exc).__name__}: {exc}")
                continue
            unit.write_us.append((unit.stretch, us))
            if outcome.status != "committed":
                unit.fail(1, f"probe write {ref} {outcome.status}")
                continue
            expected[key] += delta
        else:
            state, us = _timed(replica.store.rollup, partition_id, ref)
            unit.read_us.append((unit.stretch, us))
            if state.value.get(field_name, 0) != expected[key]:
                unit.fail(1, f"probe read {key}: {state.value.get(field_name)} != {expected[key]}")


# -- simulator workloads ---------------------------------------------------------------

PROBE_OPS = 2000
PROBE_MARK_OPS = 1000


def _check_actions(scenario, report, unit: Unit) -> None:
    """One failed op per client action without exactly one handler effect;
    every action fails when the run breaks an invariant."""
    unit.attempted += len(scenario.actions)
    failures = cli.check_invariants(report)
    if failures:
        unit.fail(len(scenario.actions), "; ".join(failures[:3]))
        return
    for action in scenario.actions:
        count = report.handler_effects.get(f"client:{action.action_id}", 0)
        if count != 1:
            unit.fail(1, f"action {action.action_id} had {count} handler effects")


def _check_apologies(report, unit: Unit) -> None:
    """One apology per broken promise, and no apology without one."""
    broken = set()
    for states in report.reservations.values():
        broken.update(rid for rid, state in states.items() if state in ("cancelled", "abrogated"))
    subjects: dict[str, int] = {}
    for apology in report.apologies:
        subjects[apology["subject"]] = subjects.get(apology["subject"], 0) + 1
    for subject in sorted(set(subjects) - broken):
        unit.fail(1, f"apology for {subject}, which is not a broken promise")
    for rid in sorted(broken):
        if subjects.get(rid, 0) != 1:
            unit.fail(1, f"reservation {rid} has {subjects.get(rid, 0)} apologies")


def simulate(text: str, seed: int, probe: tuple[str, str], apologies: bool) -> Unit:
    """One closed-loop scenario run: parse, build, run to quiescence, check."""
    unit = Unit()
    t0 = perf_counter()
    scenario = eventual.parse_scenario(text)
    sim = Simulator(scenario)
    unit.setup_s.append((unit.stretch, perf_counter() - t0))
    t1 = unit.mark()
    report = sim.run()
    unit.timings.append((unit.stretch, len(scenario.actions), perf_counter() - t1))
    unit.mark()
    _record(unit, [report])
    unit.converge_ticks.append(_converge_ticks(scenario.actions, report))
    _check_actions(scenario, report, unit)
    if apologies:
        _check_apologies(report, unit)
    unit.mark()
    _probe(sim, report, unit, probe[0], probe[1], PROBE_OPS, seed)
    unit.mark()
    return unit


GOSSIP_PROBE_OPS = 20
GOSSIP_SETUPS = 3


@contextlib.contextmanager
def _capture_simulators(unit: Unit):
    """Keep each Simulator the CLI runs, so its output can be checked, and
    time each simulated run of the sweep as one op, references excluded."""
    captured = []
    original = Simulator.run
    started = [perf_counter()]

    def run(self):
        report = original(self)
        unit.timings.append((unit.stretch, 1, perf_counter() - started[0]))
        captured.append((self, report))
        started[0] = unit.mark()
        return report

    Simulator.run = run
    try:
        yield captured, started
    finally:
        Simulator.run = original


def gossip_setup(path: Path, unit: Unit) -> None:
    """One ``load_scenario`` of the variant, as a setup sample."""
    t0 = perf_counter()
    eventual.load_scenario(path)
    unit.setup_s.append((unit.stretch, perf_counter() - t0))
    unit.mark()


def gossip_sweep(path: Path, seed: int) -> Unit:
    """``eventual sweep <variant> --sweep-seeds 100``, as a user runs it,
    after ``GOSSIP_SETUPS`` loads of the variant timed on their own."""
    unit = Unit()
    for _ in range(GOSSIP_SETUPS):
        gossip_setup(path, unit)
    out = io.StringIO()
    with _capture_simulators(unit) as (captured, started), contextlib.redirect_stdout(out):
        # one op: the previous run's invariant check, this seed's reload, its run
        started[0] = perf_counter()
        code = cli.main(["sweep", str(path), "--sweep-seeds", str(SWEEP_SEEDS)])
    unit.attempted += SWEEP_SEEDS
    text = out.getvalue()
    flagged = {line.split()[1] for line in text.splitlines() if line.startswith("FAIL seed=")}
    if flagged:
        unit.fail(len(flagged), f"sweep flagged {sorted(flagged)[:5]}")
    if code != 0 and not flagged:
        unit.fail(SWEEP_SEEDS, f"sweep exited {code}")
    if len(captured) != SWEEP_SEEDS:
        unit.fail(SWEEP_SEEDS, f"sweep ran {len(captured)} simulations")
    _record(unit, [report for _, report in captured])
    for i, (sim, report) in enumerate(captured):
        unit.converge_ticks.append(_converge_ticks(sim.scenario.actions, report))
        if i % 25 == 0:
            unit.mark()
        _probe(sim, report, unit, "account", "balance", GOSSIP_PROBE_OPS, seed * 1000 + i)
    unit.mark()
    return unit


# -- store-direct -------------------------------------------------------------------------


def store_setup() -> Replica:
    registry = SchemaRegistry()
    registry.register(
        RollupSpec(
            entity_type="account",
            merge_policy=MergePolicy.COMMUTATIVE_DELTA,
            initial_value={"balance": 0},
            aggregates=("balance",),
        )
    )
    return Replica("A", registry, ["p0"], {"account": "p0"})


STORE_SETUPS = 30
STORE_MARK_OPS = 250


def store_direct(ops: list[tuple[str, str, int]]) -> Unit:
    """The op stream against one replica, then an archival round trip.

    The unit first builds the registry and replica ``STORE_SETUPS`` times
    as setup samples. An entity is checkpointed (``summarize``) each time
    200 writes have accumulated on it since its last checkpoint. The
    reference is timed every 250 stream ops; each stretch between two
    references is one throughput timing, its ops counting checkpoints,
    export and import.
    """
    unit = Unit()
    for _ in range(STORE_SETUPS):
        t0 = perf_counter()
        store_setup()
        unit.setup_s.append((unit.stretch, perf_counter() - t0))
    start, begun = unit.mark(), unit.attempted
    replica = store_setup()
    store = replica.store
    sums: dict[str, int] = {}
    live: dict[str, int] = {}
    for i, (kind, key, delta) in enumerate(ops):
        if i and i % STORE_MARK_OPS == 0:
            unit.timings.append((unit.stretch, unit.attempted - begun, perf_counter() - start))
            start, begun = unit.mark(), unit.attempted
        ref = EntityRef("account", key)
        unit.attempted += 1
        if kind == "write":
            step = ProcessStepDef(
                "client.delta",
                TriggerSpec(("client.delta",)),
                {"kind": "delta", "entity": str(ref), "deltas": {"balance": delta}},
            )
            ctx = StepContext(
                replica=replica, now=i, session="client", payload={}, idempotence_base=f"op{i}"
            )
            try:
                outcome, us = _timed(eventual.execute_step, step, ctx)
            except Exception as exc:  # a raised write is a failed op, not a crash
                unit.fail(1, f"write {i}: {type(exc).__name__}: {exc}")
                continue
            unit.write_us.append((unit.stretch, us))
            if outcome.status != "committed":
                unit.fail(1, f"write {i} {outcome.status}")
                continue
            sums[key] = sums.get(key, 0) + delta
            live[key] = live.get(key, 0) + 1
            if live[key] == SUMMARIZE_AT:
                live[key] = 0
                unit.attempted += 1
                try:
                    store.summarize("p0", ref, replica.frontier("p0"))
                except Exception as exc:
                    unit.fail(1, f"summarize {ref}: {type(exc).__name__}: {exc}")
        else:
            try:
                state, us = _timed(store.rollup, "p0", ref)
            except Exception as exc:
                unit.fail(1, f"read {i}: {type(exc).__name__}: {exc}")
                continue
            unit.read_us.append((unit.stretch, us))
            if state.value.get("balance") != sums.get(key, 0):
                unit.fail(1, f"read {i} {key}: {state.value.get('balance')} != {sums.get(key, 0)}")

    unit.attempted += 2
    lines = store.export_partition("p0")
    restored = store_setup()
    restored.store.import_partition("p0", lines)
    unit.timings.append((unit.stretch, unit.attempted - begun, perf_counter() - start))
    unit.mark()

    h = hashlib.sha256()
    for ref in store.log("p0").entity_refs():
        dump = store.rollup("p0", ref).canonical_dump()
        h.update(dump.encode())
        if restored.store.rollup("p0", ref).canonical_dump() != dump:
            unit.fail(1, f"{ref} differs after export and import")
    unit.digest = h.hexdigest()
    return unit
