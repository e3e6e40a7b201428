"""Work counter: the simulator tasks a bundled run executes, by kind.

The count is read from the lines the run hashes into its trace hash
(``at|kind|detail``, one per task run), through a stand-in for
``Simulator._trace`` that forwards every update to the real hash. Its
digest must equal the pinned trace hash, so the count covers exactly the
hashed task stream. A change that adds or removes tasks moves these
pins, and must say why. A submit and a received ``queue_msg`` run their
consume in the task that delivers them; a ``consume`` task is left only
for recovery, a lock backoff and a local send. No consume, run in place
or scheduled, finds its partition's inbox empty.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from eventual import bus
from eventual.scenario import load_scenario
from eventual.sim import Simulator

SCENARIOS = Path(__file__).parent.parent / "src" / "eventual" / "scenarios"
GOLDEN = Path(__file__).parent / "golden_digests.json"
SEED = 1

# tasks per kind of each bundled scenario at seed 1
TASKS = {
    "bank": {"client": 4, "sync": 2},
    "gossip": {"client": 12, "deliver": 138, "fault": 4, "retry": 54, "sync": 51},
    "invoice": {"client": 4, "consume": 3, "pending": 2, "sync": 12},
    "negative_inventory": {"cleanse": 1, "client": 3, "sync": 3},
    "overbooking": {"client": 8, "deliver": 52, "expiry": 8, "fault": 2, "retry": 13, "sync": 42},
    "ref_child_first": {"client": 2, "pending": 1, "sync": 4},
    "ref_parent_first": {"client": 2, "pending": 1, "sync": 5},
    "reference": {"cleanse": 1, "client": 9, "deliver": 50, "expiry": 1, "fault": 2, "pending": 2,
                  "sync": 42},
}


class _CountingTrace:
    """Hashes what the run feeds ``Simulator._trace`` and counts each
    hashed task line by its kind."""

    def __init__(self, inner):
        self._inner = inner
        self.kinds: Counter[str] = Counter()

    def update(self, data: bytes) -> None:
        self._inner.update(data)
        for line in data.decode().splitlines():
            self.kinds[line.split("|", 2)[1]] += 1

    def hexdigest(self) -> str:
        return self._inner.hexdigest()


def _task_counts(path: Path) -> tuple[dict[str, int], str]:
    """The run's tasks per kind, and its trace hash."""
    scenario = load_scenario(path)
    scenario.config.seed = SEED
    sim = Simulator(scenario)
    sim._trace = trace = _CountingTrace(sim._trace)  # the config fingerprint is hashed already
    report = sim.run()
    return dict(sorted(trace.kinds.items())), report.trace_hash


def test_every_bundled_run_executes_its_pinned_tasks_per_kind(monkeypatch):
    found_nothing: Counter[str] = Counter()  # consumes that took no message, by scenario
    consume_next = bus.consume_next

    def counted(replica, partition):
        message = consume_next(replica, partition)
        found_nothing[path.stem] += message is None
        return message

    monkeypatch.setattr(bus, "consume_next", counted)
    golden = json.loads(GOLDEN.read_text())
    counts = {}
    for path in sorted(SCENARIOS.glob("*.yaml")):
        kinds, trace_hash = _task_counts(path)
        assert trace_hash == golden[f"{path.stem}@{SEED}"]["trace_hash"]
        counts[path.stem] = kinds
    assert counts == TASKS
    assert +found_nothing == Counter()
    total = Counter()
    for kinds in counts.values():
        total.update(kinds)
    assert sum(total.values()) == 540
    assert "exec" not in total  # a message takes one task, its consume
