"""Scenario files: one YAML document fully specifying a run.

Strict by design: a versioned schema tag is required and unknown fields
are rejected with line-anchored diagnostics, so a typo weakens no test
silently. A run is fully specified by (scenario file, seed).
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .errors import ScenarioInvalid
from .process import ProcessDef
from .registry import (
    APOLOGY_TYPE,
    EXCEPTION_TYPE,
    JOIN_TYPE,
    MergePolicy,
    ParentConstraint,
    RollupSpec,
    SchemaRegistry,
)
from .sim import ClientAction, Fault, Scenario, SimConfig
from .txn import ProcessStepDef, TriggerSpec

SCHEMA_TAG = "eventual/1"

TOP_FIELDS = {
    "schema",
    "entities",
    "topology",
    "notify_partition",
    "network",
    "retry",
    "lags",
    "sync_interval",
    "max_time",
    "seed",
    "processes",
    "faults",
    "actions",
}

ENTITY_FIELDS = {"merge", "initial", "aggregates", "capacity_field", "parents"}
NETWORK_FIELDS = {"delay_min", "delay_max", "drop", "duplicate", "reorder"}
RETRY_FIELDS = {"base", "cap"}
LAG_FIELDS = {"pending", "cleanse", "lock_backoff"}
FAULT_FIELDS = {"kind", "at", "target", "groups", "entity"}
PROCESS_FIELDS = {"id", "steps", "wiring"}
STEP_FIELDS = {"id", "trigger", "handler"}

ACTION_BASE_FIELDS = {"at", "replica", "do", "id", "session"}
ACTION_PARAMS = {
    "delta": {"entity", "deltas", "guard", "deferred", "emit", "irreversible"},
    "insert": {"entity", "entity_type", "key", "key_from", "fields", "fields_from", "emit"},
    "lww_set": {"entity", "fields"},
    "tombstone": {"entity"},
    "reserve": {"entity", "reservation_id", "quantity", "deadline", "terms", "emit"},
    "confirm": {"entity", "reservation_id"},
    "cancel": {"entity", "reservation_id", "cause"},
    "physical_count": {"entity", "observed"},
    "emit": {"type", "payload", "partition"},
    "read": {"entity", "label"},
    "compensate": {"action"},
    "summarize": {"entity"},
}

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


class _Lines:
    """Path -> source line map built from the YAML node tree."""

    def __init__(self, text: str):
        self._map: dict[tuple, int] = {}
        try:
            node = yaml.compose(text)
        except yaml.YAMLError as exc:  # parse errors carry their own marks
            mark = getattr(exc, "problem_mark", None)
            raise ScenarioInvalid(str(exc).replace("\n", " "), None if mark is None else mark.line + 1)
        if node is not None:
            self._walk(node, ())

    def _walk(self, node, path) -> None:
        self._map[path] = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                self._walk(value_node, path + (str(key_node.value),))
        elif isinstance(node, yaml.SequenceNode):
            for i, child in enumerate(node.value):
                self._walk(child, path + (i,))

    def at(self, *path) -> int | None:
        return self._map.get(tuple(path))


def _fail(message: str, lines: _Lines, *path) -> None:
    raise ScenarioInvalid(message, lines.at(*path))


def _check_fields(mapping: dict, allowed: set, where: str, lines: _Lines, *path) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"unknown field {key!r} in {where}", lines, *(path + (key,)))


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    return parse_scenario(text)


def parse_scenario(text: str) -> Scenario:
    lines = _Lines(text)
    data = yaml.safe_load(text)
    if not isinstance(data, dict):
        raise ScenarioInvalid("scenario must be a mapping", 1)
    _check_fields(data, TOP_FIELDS, "scenario", lines)
    if data.get("schema") != SCHEMA_TAG:
        _fail(f"schema must be {SCHEMA_TAG!r}, got {data.get('schema')!r}", lines, "schema")

    registry, placement_defaults = _build_registry(data, lines)
    config = _build_config(data, lines, placement_defaults)
    processes = _build_processes(data, lines)
    faults = _build_faults(data, lines, config)
    actions = _build_actions(data, lines, config)
    return Scenario(
        registry=registry, config=config, actions=actions, faults=faults, processes=processes
    )


def _build_registry(data: dict, lines: _Lines) -> tuple[SchemaRegistry, list[str]]:
    registry = SchemaRegistry()
    entities = data.get("entities")
    if not isinstance(entities, dict) or not entities:
        _fail("entities: at least one entity type is required", lines, "entities")
    for name, spec in entities.items():
        spec = spec or {}
        _check_fields(spec, ENTITY_FIELDS, f"entity {name!r}", lines, "entities", name)
        merge_text = spec.get("merge", "commutative_delta")
        try:
            merge = MergePolicy(merge_text)
        except ValueError:
            _fail(f"entity {name!r}: unknown merge policy {merge_text!r}", lines, "entities", name, "merge")
        parents = tuple(
            ParentConstraint(p["field"], p["type"]) for p in spec.get("parents", [])
        )
        registry.register(
            RollupSpec(
                entity_type=name,
                merge_policy=merge,
                initial_value=dict(spec.get("initial", {})),
                aggregates=tuple(spec.get("aggregates", [])),
                capacity_field=spec.get("capacity_field"),
                parents=parents,
            )
        )
    return registry, sorted(entities)


def _build_config(data: dict, lines: _Lines, entity_types: list[str]) -> SimConfig:
    topology = data.get("topology")
    if not isinstance(topology, dict) or "partitions" not in topology:
        _fail("topology.partitions is required", lines, "topology")
    _check_fields(topology, {"partitions", "placement"}, "topology", lines, "topology")
    partitions = {str(p): [str(r) for r in reps] for p, reps in topology["partitions"].items()}
    if not partitions:
        _fail("topology.partitions must not be empty", lines, "topology", "partitions")

    notify = data.get("notify_partition")
    if notify is not None and notify not in partitions:
        _fail(f"notify_partition {notify!r} is not a declared partition", lines, "notify_partition")

    data_partitions = sorted(p for p in partitions if p != notify)
    default_partition = data_partitions[0] if data_partitions else sorted(partitions)[0]
    placement = {t: default_partition for t in entity_types}
    placement[APOLOGY_TYPE] = notify or default_partition
    placement[EXCEPTION_TYPE] = default_partition
    placement[JOIN_TYPE] = default_partition
    for entity_type, partition in (topology.get("placement") or {}).items():
        if entity_type not in placement:
            _fail(
                f"placement names undeclared entity type {entity_type!r}",
                lines, "topology", "placement", entity_type,
            )
        if partition not in partitions:
            _fail(
                f"placement of {entity_type!r} names unknown partition {partition!r}",
                lines, "topology", "placement", entity_type,
            )
        placement[entity_type] = partition

    network = data.get("network", {}) or {}
    _check_fields(network, NETWORK_FIELDS, "network", lines, "network")
    retry = data.get("retry", {}) or {}
    _check_fields(retry, RETRY_FIELDS, "retry", lines, "retry")
    lags = data.get("lags", {}) or {}
    _check_fields(lags, LAG_FIELDS, "lags", lines, "lags")

    return SimConfig(
        seed=int(data.get("seed", 0)),
        partitions=partitions,
        placement=placement,
        notify_partition=notify,
        delay_min=int(network.get("delay_min", 1)),
        delay_max=int(network.get("delay_max", 4)),
        drop=float(network.get("drop", 0.0)),
        duplicate=float(network.get("duplicate", 0.0)),
        reorder=bool(network.get("reorder", True)),
        sync_interval=int(data.get("sync_interval", 5)),
        retry_base=int(retry.get("base", 2)),
        retry_cap=int(retry.get("cap", 16)),
        pending_lag=int(lags.get("pending", 2)),
        cleanse_lag=int(lags.get("cleanse", 2)),
        lock_backoff=int(lags.get("lock_backoff", 2)),
        max_time=int(data.get("max_time", 10_000)),
    )


def _build_processes(data: dict, lines: _Lines) -> list[ProcessDef]:
    out = []
    for i, proc in enumerate(data.get("processes", []) or []):
        _check_fields(proc, PROCESS_FIELDS, "process", lines, "processes", i)
        steps = []
        for j, step in enumerate(proc.get("steps", [])):
            _check_fields(step, STEP_FIELDS, "step", lines, "processes", i, "steps", j)
            trigger_raw = step["trigger"]
            if isinstance(trigger_raw, str):
                trigger = TriggerSpec((trigger_raw,))
            else:
                _check_fields(trigger_raw, {"all", "correlate"}, "trigger", lines,
                              "processes", i, "steps", j, "trigger")
                trigger = TriggerSpec(tuple(trigger_raw["all"]), trigger_raw.get("correlate"))
                if trigger.is_join and trigger.correlate is None:
                    _fail("join triggers require a correlate field", lines,
                          "processes", i, "steps", j, "trigger")
            handler = step["handler"]
            if handler.get("kind") not in HANDLER_KINDS:
                _fail(f"unknown handler kind {handler.get('kind')!r}", lines,
                      "processes", i, "steps", j, "handler")
            steps.append(ProcessStepDef(step["id"], trigger, handler))
        out.append(ProcessDef(proc["id"], steps, dict(proc.get("wiring", {}) or {})))
    return out


def _build_faults(data: dict, lines: _Lines, config: SimConfig) -> list[Fault]:
    replicas = {r for reps in config.partitions.values() for r in reps}
    out = []
    for i, fault in enumerate(data.get("faults", []) or []):
        _check_fields(fault, FAULT_FIELDS, "fault", lines, "faults", i)
        kind = fault.get("kind")
        if kind not in ("partition", "heal", "crash", "recover", "disaster"):
            _fail(f"unknown fault kind {kind!r}", lines, "faults", i, "kind")
        if kind in ("crash", "recover") and fault.get("target") not in replicas:
            _fail(f"fault target {fault.get('target')!r} is not a replica", lines, "faults", i)
        if kind == "partition":
            for group in fault.get("groups", []):
                for rid in group:
                    if rid not in replicas:
                        _fail(f"partition group names unknown replica {rid!r}", lines, "faults", i)
        if kind == "disaster" and not fault.get("entity"):
            _fail("disaster faults need an entity", lines, "faults", i)
        out.append(
            Fault(
                kind=kind,
                at=int(fault["at"]),
                target=fault.get("target"),
                groups=fault.get("groups"),
                entity=fault.get("entity"),
            )
        )
    return out


def _build_actions(data: dict, lines: _Lines, config: SimConfig) -> list[ClientAction]:
    replicas = {r for reps in config.partitions.values() for r in reps}
    out = []
    for i, action in enumerate(data.get("actions", []) or []):
        do = action.get("do")
        if do not in ACTION_PARAMS:
            _fail(f"unknown action kind {do!r}", lines, "actions", i, "do")
        allowed = ACTION_BASE_FIELDS | ACTION_PARAMS[do]
        _check_fields(action, allowed, f"action {do!r}", lines, "actions", i)
        if action.get("replica") not in replicas:
            _fail(f"action replica {action.get('replica')!r} is unknown", lines, "actions", i)
        params = {k: v for k, v in action.items() if k not in ACTION_BASE_FIELDS}
        if do == "lww_set":
            do, params = "insert", dict(params)
        out.append(
            ClientAction(
                at=int(action["at"]),
                replica=action["replica"],
                do=do,
                params=params,
                action_id=str(action.get("id", f"a{i}")),
                session=action.get("session"),
            )
        )
    return out
