"""Eventually-consistent, entity-partitioned data engine.

State is never stored: every write is an immutable event describing an
operation, reads fold an entity's log in a canonical replica-independent
order, and all conflict handling — across sessions or across replicas —
runs through one deterministic resolution mechanism. One ``Node`` per
replica runs every reaction to a change; a seeded discrete-event
simulator hosts the nodes and exercises the whole stack under
partitions, drops, duplicates, reordering, crashes, and disasters.
"""

from .clocks import VersionVector
from .errors import EngineError
from .node import Node, NodeConfig
from .process import ApologyRecord, ManagedException, ProcessDef, ProcessManager, Reservation
from .registry import MergePolicy, ParentConstraint, RollupSpec, SchemaRegistry
from .replica import LogicalLock, Record, Replica
from .replication import (
    ConflictReport,
    compensation_plan,
    detect_overbooking,
    resolve,
    sync,
)
from .scenario import load_scenario, parse_scenario
from .sim import ClientAction, Fault, RunReport, Scenario, SimConfig, Simulator, run
from .store import (
    Checkpoint,
    EntityRef,
    EntityState,
    EventId,
    EventRecord,
    ReplicaStore,
    canonical_sort,
)
from .txn import (
    PendingActionDescriptor,
    ProcessStepDef,
    StepContext,
    StepOutcome,
    TriggerSpec,
    apply_pending_actions,
    commit,
    execute_step,
)

__all__ = [
    "ApologyRecord",
    "Checkpoint",
    "ClientAction",
    "ConflictReport",
    "EngineError",
    "EntityRef",
    "EntityState",
    "EventId",
    "EventRecord",
    "Fault",
    "LogicalLock",
    "ManagedException",
    "MergePolicy",
    "Node",
    "NodeConfig",
    "ParentConstraint",
    "PendingActionDescriptor",
    "ProcessDef",
    "ProcessManager",
    "ProcessStepDef",
    "Record",
    "Replica",
    "ReplicaStore",
    "Reservation",
    "RollupSpec",
    "RunReport",
    "Scenario",
    "SchemaRegistry",
    "SimConfig",
    "Simulator",
    "StepContext",
    "StepOutcome",
    "TriggerSpec",
    "VersionVector",
    "apply_pending_actions",
    "canonical_sort",
    "commit",
    "compensation_plan",
    "detect_overbooking",
    "execute_step",
    "load_scenario",
    "parse_scenario",
    "resolve",
    "run",
    "sync",
]
