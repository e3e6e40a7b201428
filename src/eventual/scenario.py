"""Scenario files: one YAML document fully specifying a run.

Strict by design: a versioned schema tag is required and unknown fields
are rejected with line-anchored diagnostics, so a typo weakens no test
silently. A run is fully specified by (scenario file, seed).

A file is parsed once, in one pass over the parser's event stream, with
no YAML node tree and no constructor: the data equals
``yaml.safe_load``'s, aliases and merge keys included. A node that a
scenario cannot hold is a ScenarioInvalid on its line: a tag other than
str, int, float, bool, null, map, seq and merge (so a plain date), a
scalar its tag cannot hold, a mapping or list as a key, a key repeated
in its mapping (merged keys aside), an alias with no anchor or inside
what it names, an anchor defined twice, a merge of anything but
mappings, a second document, mappings and lists nested more than
``_MAX_DEPTH`` deep. A parse error anywhere wins; else the first of these
in document order is named. The node tree that diagnostics read is
composed only on the first failed check, and a lookup visits only the
nodes along its path, so a valid scenario never builds it.

The fields whose values become event or message payloads hold JSON only:
mappings with str keys, lists, and str, int, float, bool or null leaves.
"""

from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path

import yaml

from .errors import InvalidRecord, InvalidWiring, ScenarioInvalid
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
from .store import EntityRef
from .txn import HANDLER_KINDS, ProcessStepDef, TriggerSpec

SCHEMA_TAG = "eventual/1"

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


class _Lines:
    """The source lines of the text's YAML node tree, composed on first use:
    only an error message reads it, so a valid scenario never builds it."""

    def __init__(self, text: str):
        self._text = text

    @cached_property
    def node(self) -> yaml.Node | None:
        return yaml.compose(self._text, Loader=_LOADER)

    def at(self, *path) -> int | None:
        """The line of the node at ``path`` (mapping keys as the data holds
        them, and list indexes), or None where no node is: a merged key,
        say. Only the nodes along the path are visited."""
        node = self.node
        for step in path:
            if isinstance(node, yaml.MappingNode):
                # a key as the data holds it: the document built, so each key is a scalar
                node = next((value for key, value in node.value
                             if _scalar(key.tag, key.value) == step), None)
            elif isinstance(node, yaml.SequenceNode) and isinstance(step, int) and 0 <= step < len(node.value):
                node = node.value[step]
            else:
                return None
        return None if node is None else node.start_mark.line + 1


def _fail(message: str, lines: _Lines, *path) -> None:
    raise ScenarioInvalid(message, lines.at(*path))


def _check_fields(mapping: dict, allowed: set, where: str, lines: _Lines, *path) -> None:
    for key in mapping:
        if key not in allowed:
            _fail(f"unknown field {key!r} in {where}", lines, *path, key)


_SHAPE_NAMES = {dict: "a mapping", list: "a list"}


def _shaped(kind: type, value, where: str, lines: _Lines, *path, required=()):
    """``value`` if it is a ``kind`` (dict or list) holding every ``required`` key,
    else a line-anchored error instead of a later ``KeyError`` or ``AttributeError``."""
    if not isinstance(value, kind):
        _fail(f"{where} must be {_SHAPE_NAMES[kind]}, got {value!r}", lines, *path)
    for key in required:
        if key not in value:
            _fail(f"{where} needs field {key!r}", lines, *path)
    return value


def _string(value, what: str, lines: _Lines, *path) -> str:
    """``value`` if it is a string (a name: a field, a type, a partition),
    else a line-anchored error instead of a later ``TypeError``."""
    if not isinstance(value, str):
        _fail(f"{what} must be a string, got {value!r}", lines, *path)
    return value


_REQUIRED = object()


def _number(kind: type, mapping: dict, key: str, default, where: str, lines: _Lines, *path,
            least=None, most=None):
    """``kind(mapping[key])`` of an int (or float, for float), or ``default`` when absent
    (``_REQUIRED``: an error), which must lie in [``least``, ``most``] where given."""
    if key not in mapping:
        if default is _REQUIRED:
            _fail(f"{where} needs field {key!r}", lines, *path)
        value = default
    else:
        value = mapping[key]  # a bool is an int to Python, not a number to a user
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            _fail(f"{key!r} in {where} must be a number, got {value!r}", lines, *path, key)
        value = kind(value)
        path += (key,)
    if least is not None and (value < least or most is not None and not value <= most):
        bound = f"at least {least}" if most is None else f"between {least} and {most}"
        _fail(f"{key!r} in {where} must be {bound}, got {value!r}", lines, *path)
    return value


def _check_entity_type(entity_type, config: SimConfig, lines: _Lines, *path, replica=None) -> None:
    """Fail unless the type is declared (and, given a replica, hosted there)."""
    if entity_type not in config.placement:
        _fail(f"undeclared entity type {entity_type!r}", lines, *path)
    partition = config.placement[entity_type]
    if replica is not None and replica not in config.partitions[partition]:
        _fail(
            f"replica {replica!r} does not host partition {partition!r} of entity type {entity_type!r}",
            lines, *path,
        )


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    return parse_scenario(text)


_TAG = "tag:yaml.org,2002:"
_STR, _INT, _MAP, _SEQ, _MERGE = (_TAG + kind for kind in ("str", "int", "map", "seq", "merge"))
_DECIMAL = re.compile(r"[-+]?(?:0|[1-9][0-9]*)").fullmatch


class _TextConstructor(yaml.constructor.SafeConstructor):
    """PyYAML's scalar conversions, applied to a scalar's text instead of its
    node: each reads its input through ``construct_scalar``, which here
    gives the text back as it is."""

    def construct_scalar(self, text):
        return text


# every other scalar the resolver tags (``0755``, ``0x1F``, ``1_000``, ``1:30``,
# ``yes``, ``~``, ``.inf``) converts as PyYAML's constructor converts it
_SCALARS = {
    _TAG + kind: getattr(_TextConstructor(), f"construct_yaml_{kind}")
    for kind in ("null", "bool", "int", "float")
}


# PyYAML's errors on ``!!int abc``, ``!!float ""``, ``!!bool abc``
_UNREADABLE = (ValueError, LookupError)
_MERGE_KEY = object()  # the value of a merge key ``<<``, which only a mapping key may be


class _Refused(Exception):
    """A scalar that a scenario cannot hold; the message says why."""


def _scalar(tag: str, text: str):
    """The value of a scalar of ``tag``, or ``_MERGE_KEY``; raises _Refused
    on any other tag, or on a text its tag cannot hold."""
    if tag == _STR:
        return text
    if tag == _INT and _DECIMAL(text):
        return int(text)
    construct = _SCALARS.get(tag)
    if construct is None:
        if tag == _MERGE:
            return _MERGE_KEY
        raise _Refused(f"unsupported tag {tag.replace(_TAG, '!!')} on {text!r}")
    try:
        return construct(text)
    except _UNREADABLE:
        raise _Refused(f"{text!r} is not a valid {tag.replace(_TAG, '!!')}") from None


_SCALAR_EVENT, _ALIAS_EVENT = yaml.ScalarEvent, yaml.AliasEvent
_MAPPING_START, _MAPPING_END = yaml.MappingStartEvent, yaml.MappingEndEvent
_SEQUENCE_END = yaml.SequenceEndEvent
_COLLECTION_START, _COLLECTION_END = yaml.CollectionStartEvent, yaml.CollectionEndEvent
_MAX_DEPTH = 100  # mappings and lists nested deeper are refused, not built
_IMPLICIT = (None, "!")  # the tags the resolver replaces
_OPEN = object()  # an anchored mapping or list while it is built: an alias of it is recursive
_KEY = "a mapping or list cannot be a key"
_NOT_MERGEABLE = "a merge key '<<' takes a mapping or a list of mappings"
_MERGE_VALUE = "a merge key '<<' can only be a mapping key"


def _event_data(text: str):
    """A scenario document's data, built in one pass over the loader's events
    (see the module docstring). Raises PyYAML's error on a parse error, else
    the first refusal once the document has parsed."""
    loader = _LOADER(text)
    next_event = loader.get_event
    resolve = loader.resolve
    plain: dict[str, object] = {}  # a plain scalar's text -> its value, resolved once per parse
    anchors: dict[str, tuple] = {}  # -> (value, the event that anchors it)
    refusals: list[ScenarioInvalid] = []  # the first, in document order

    def refuse(message: str, event) -> None:
        if not refusals:
            refusals.append(ScenarioInvalid(message, event.start_mark.line + 1))

    def anchor(event, value) -> None:
        if event.anchor in anchors:
            refuse(f"anchor &{event.anchor} is defined twice", event)
        anchors[event.anchor] = (value, event)

    def scalar(event):
        value = event.value
        tag = event.tag
        try:
            if tag is not None and tag != "!":
                value = _scalar(tag, value)
            elif event.implicit[0]:  # plain: the tag compose would resolve
                try:
                    value = plain[value]
                except KeyError:
                    value = plain[value] = _scalar(resolve(yaml.ScalarNode, value, event.implicit), value)
            # else quoted: a str
        except _Refused as exc:
            refuse(str(exc), event)
            value = None
        if event.anchor is not None:
            anchor(event, value)
        return value

    def build(event, merging=False, depth=1):
        """The value of the node ``event`` starts, ``depth`` mappings and lists
        deep; ``merging``: a merge key's."""
        kind = type(event)
        if kind is _SCALAR_EVENT:
            return scalar(event)
        if kind is _ALIAS_EVENT:
            value = anchors.get(event.anchor, (None,))[0]
            if event.anchor not in anchors:
                refuse(f"alias *{event.anchor} has no anchor", event)
            elif value is _OPEN:
                refuse(f"alias *{event.anchor} is inside the mapping or list it names", event)
            return value
        if depth > _MAX_DEPTH:
            refuse(f"mappings and lists nest at most {_MAX_DEPTH} deep", event)
            opened = 1
            while opened:  # past the node's end, building nothing
                event = next_event()
                opened += isinstance(event, _COLLECTION_START) - isinstance(event, _COLLECTION_END)
            return None
        if event.tag not in _IMPLICIT and event.tag != (_MAP if kind is _MAPPING_START else _SEQ):
            what = "a mapping" if kind is _MAPPING_START else "a list"
            refuse(f"unsupported tag {event.tag.replace(_TAG, '!!')} on {what}", event)
        start = event
        if start.anchor is not None:
            anchor(start, _OPEN)
        if kind is _MAPPING_START:
            out = {}
            merged = []  # the mappings its merge keys name, in the order their keys go in
            while type(event := next_event()) is not _MAPPING_END:
                if type(event) is _SCALAR_EVENT:
                    key = scalar(event)
                else:
                    if type(event) is not _ALIAS_EVENT:
                        refuse(_KEY, event)  # before anything it holds
                    key = build(event, False, depth + 1)
                    if type(key) is dict or type(key) is list:
                        refuse(_KEY, event)
                        key = None
                value = next_event()
                if key is _MERGE_KEY:
                    parts = build(value, True, depth + 1)
                    if type(parts) is dict:
                        merged.append(parts)
                    elif type(parts) is list and all(type(part) is dict for part in parts):
                        merged += reversed(parts)  # an earlier entry of the list wins
                    else:  # after a list's bad entry, refused on its own line
                        refuse(_NOT_MERGEABLE, value)
                    continue
                if key in out and not refusals:
                    # an alias key is named, as compose names it, where it was anchored
                    named = anchors[event.anchor][1] if type(event) is _ALIAS_EVENT else event
                    refuse(f"repeated key {key!r}", named)
                item = scalar(value) if type(value) is _SCALAR_EVENT else build(value, False, depth + 1)
                if item is _MERGE_KEY:
                    refuse(_MERGE_VALUE, value)
                out[key] = item
            if merged:  # merged keys go first, in their order; own keys override them
                out, own = {}, out
                for part in merged:
                    out.update(part)
                out.update(own)
        else:
            out = []
            while type(event := next_event()) is not _SEQUENCE_END:
                if merging and type(event) is not _MAPPING_START and (
                        type(event) is not _ALIAS_EVENT or type(anchors.get(event.anchor, (None,))[0]) is not dict):
                    refuse(_NOT_MERGEABLE, event)
                item = scalar(event) if type(event) is _SCALAR_EVENT else build(event, False, depth + 1)
                if item is _MERGE_KEY:
                    refuse(_MERGE_VALUE, event)
                out.append(item)
        if start.anchor is not None:
            anchors[start.anchor] = (out, start)
        return out

    try:
        next_event()  # the stream's start
        if loader.check_event(yaml.StreamEndEvent):
            return None
        next_event()  # the document's start
        if (data := build(event := next_event())) is _MERGE_KEY:
            refuse(_MERGE_VALUE, event)
        next_event()  # the document's end
        if not loader.check_event(yaml.StreamEndEvent):
            refuse("a scenario file holds one YAML document", loader.peek_event())
    finally:
        loader.dispose()
    if refusals:
        raise refusals[0]
    return data


def _compose(text: str) -> tuple[_Lines, object]:
    """The line map, composed and walked only when a check fails, and the
    data, built in one pass over the loader's events (libyaml's, or pure
    Python without libyaml)."""
    try:
        return _Lines(text), _event_data(text)
    except yaml.YAMLError as exc:  # a parse error, on the line the parser names
        mark = getattr(exc, "problem_mark", None)
        raise ScenarioInvalid(str(exc).replace("\n", " "), None if mark is None else mark.line + 1)


def parse_scenario(text: str) -> Scenario:
    lines, data = _compose(text)
    if not isinstance(data, dict):
        raise ScenarioInvalid("scenario must be a mapping", 1)
    _check_fields(data, TOP_FIELDS, "scenario", lines)
    if data.get("schema") != SCHEMA_TAG:
        _fail(f"schema must be {SCHEMA_TAG!r}, got {data.get('schema')!r}", lines, "schema")

    registry, placement_defaults = _build_registry(data, lines)
    config = _build_config(data, lines, placement_defaults)
    processes = _build_processes(data, lines, registry, config)
    faults = _build_faults(data, lines, config)
    actions = _build_actions(data, lines, registry, config)
    return Scenario(
        registry=registry, config=config, actions=actions, faults=faults, processes=processes
    )


def _build_registry(data: dict, lines: _Lines) -> tuple[SchemaRegistry, list[str]]:
    registry = SchemaRegistry()
    entities = data.get("entities")
    if not isinstance(entities, dict) or not entities:
        _fail("entities: at least one entity type is required", lines, "entities")
    for name, spec in entities.items():
        spec = _shaped(dict, spec or {}, f"entity {name!r}", lines, "entities", name)
        _check_fields(spec, ENTITY_FIELDS, f"entity {name!r}", lines, "entities", name)
        merge_text = spec.get("merge", "commutative_delta")
        try:
            merge = MergePolicy(merge_text)
        except ValueError:
            _fail(f"entity {name!r}: unknown merge policy {merge_text!r}", lines, "entities", name, "merge")
        parents = []
        path = ("entities", name, "parents")
        for j, p in enumerate(_shaped(list, spec.get("parents", []), "parents", lines, *path)):
            _shaped(dict, p, "parent", lines, *path, j, required=("field", "type"))
            field_name = _string(p["field"], "'field' in parent", lines, *path, j, "field")
            parent_type = _string(p["type"], "'type' in parent", lines, *path, j, "type")
            if parent_type not in entities:
                _fail(f"undeclared entity type {parent_type!r}", lines, *path, j, "type")
            parents.append(ParentConstraint(field_name, parent_type))
        path = ("entities", name, "aggregates")
        aggregates = _shaped(list, spec.get("aggregates", []), "aggregates", lines, *path)
        for j, field_name in enumerate(aggregates):
            _string(field_name, "an aggregates entry", lines, *path, j)
        capacity_field = spec.get("capacity_field")
        if capacity_field is not None:
            _string(capacity_field, f"'capacity_field' in entity {name!r}", lines,
                    "entities", name, "capacity_field")
        initial = _shaped(dict, spec.get("initial", {}), "initial", lines, "entities", name, "initial")
        _check_json(initial, "initial", lines, "entities", name, "initial")
        for j, field_name in enumerate(aggregates):
            _check_summable(field_name, name, initial, "aggregate", lines, *path, j)
        if capacity_field is not None:  # a reservation compares its quantities with it
            _check_summable(capacity_field, name, initial, "capacity", lines,
                            "entities", name, "capacity_field")
        try:
            registry.register(
                RollupSpec(
                    entity_type=name,
                    merge_policy=merge,
                    initial_value=dict(initial),
                    aggregates=tuple(aggregates),
                    capacity_field=capacity_field,
                    parents=tuple(parents),
                )
            )
        except InvalidRecord as exc:
            _fail(str(exc), lines, "entities", name)
    return registry, sorted(entities)


def _build_config(data: dict, lines: _Lines, entity_types: list[str]) -> SimConfig:
    topology = data.get("topology")
    if not isinstance(topology, dict) or "partitions" not in topology:
        _fail("topology.partitions is required", lines, "topology")
    _check_fields(topology, {"partitions", "placement"}, "topology", lines, "topology")
    path = ("topology", "partitions")
    partitions = {
        str(p): [str(r) for r in _shaped(list, reps, f"partition {p!r}", lines, *path, p)]
        for p, reps in _shaped(dict, topology["partitions"], "topology.partitions", lines, *path).items()
    }
    if not partitions:
        _fail("topology.partitions must not be empty", lines, "topology", "partitions")

    notify = data.get("notify_partition")
    if notify is not None:
        _string(notify, "'notify_partition' in scenario", lines, "notify_partition")
        if notify not in partitions:
            _fail(f"notify_partition {notify!r} is not a declared partition", lines, "notify_partition")

    data_partitions = sorted(p for p in partitions if p != notify)
    default_partition = data_partitions[0] if data_partitions else sorted(partitions)[0]
    placement = {t: default_partition for t in entity_types}
    placement[APOLOGY_TYPE] = notify or default_partition
    placement[EXCEPTION_TYPE] = default_partition
    placement[JOIN_TYPE] = default_partition
    placements = topology.get("placement") or {}
    for entity_type, partition in _shaped(dict, placements, "topology.placement", lines,
                                          "topology", "placement").items():
        _string(partition, f"placement of {entity_type!r}", lines, "topology", "placement", entity_type)
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

    network = _shaped(dict, data.get("network") or {}, "network", lines, "network")
    _check_fields(network, NETWORK_FIELDS, "network", lines, "network")
    retry = _shaped(dict, data.get("retry") or {}, "retry", lines, "retry")
    _check_fields(retry, RETRY_FIELDS, "retry", lines, "retry")
    lags = _shaped(dict, data.get("lags") or {}, "lags", lines, "lags")
    _check_fields(lags, LAG_FIELDS, "lags", lines, "lags")

    delay_max = _number(int, network, "delay_max", 4, "network", lines, "network")
    reorder = network.get("reorder", True)
    if not isinstance(reorder, bool):
        _fail(f"'reorder' in network must be a bool, got {reorder!r}", lines, "network", "reorder")
    return SimConfig(
        seed=_number(int, data, "seed", 0, "scenario", lines),
        partitions=partitions,
        placement=placement,
        notify_partition=notify,
        delay_min=_number(int, network, "delay_min", 1, "network", lines, "network",
                          least=0, most=delay_max),
        delay_max=delay_max,
        drop=_number(float, network, "drop", 0.0, "network", lines, "network", least=0, most=1),
        duplicate=_number(float, network, "duplicate", 0.0, "network", lines, "network",
                          least=0, most=1),
        reorder=reorder,
        # a timer of zero ticks would re-arm at the same tick forever
        sync_interval=_number(int, data, "sync_interval", 5, "scenario", lines, least=1),
        retry_base=_number(int, retry, "base", 2, "retry", lines, "retry", least=1),
        retry_cap=_number(int, retry, "cap", 16, "retry", lines, "retry", least=1),
        pending_lag=_number(int, lags, "pending", 2, "lags", lines, "lags"),
        cleanse_lag=_number(int, lags, "cleanse", 2, "lags", lines, "lags"),
        lock_backoff=_number(int, lags, "lock_backoff", 2, "lags", lines, "lags", least=1),
        max_time=_number(int, data, "max_time", 10_000, "scenario", lines),
    )


def _build_processes(data: dict, lines: _Lines, registry: SchemaRegistry,
                     config: SimConfig) -> list[ProcessDef]:
    out = []
    for i, proc in enumerate(_shaped(list, data.get("processes") or [], "processes", lines, "processes")):
        _shaped(dict, proc, "process", lines, "processes", i, required=("id",))
        _check_fields(proc, PROCESS_FIELDS, "process", lines, "processes", i)
        _string(proc["id"], "'id' in process", lines, "processes", i, "id")
        steps = []
        proc_steps = _shaped(list, proc.get("steps", []), "steps", lines, "processes", i, "steps")
        for j, step in enumerate(proc_steps):
            path = ("processes", i, "steps", j)
            _shaped(dict, step, "step", lines, *path, required=("id", "trigger", "handler"))
            _check_fields(step, STEP_FIELDS, "step", lines, *path)
            _string(step["id"], "'id' in step", lines, *path, "id")
            trigger_raw = step["trigger"]
            if isinstance(trigger_raw, str):
                trigger = TriggerSpec((trigger_raw,))
            else:
                _shaped(dict, trigger_raw, "trigger", lines, *path, "trigger", required=("all",))
                _check_fields(trigger_raw, {"all", "correlate"}, "trigger", lines, *path, "trigger")
                types = _shaped(list, trigger_raw["all"], "trigger.all", lines, *path, "trigger", "all")
                for k, msg_type in enumerate(types):
                    _string(msg_type, "a trigger.all entry", lines, *path, "trigger", "all", k)
                trigger = TriggerSpec(tuple(types), trigger_raw.get("correlate"))
                if trigger.is_join and trigger.correlate is None:
                    _fail("join triggers require a correlate field", lines, *path, "trigger")
                if trigger.correlate is not None:
                    _string(trigger.correlate, "'correlate' in trigger", lines, *path, "trigger", "correlate")
            handler = _shaped(dict, step["handler"], "handler", lines, *path, "handler")
            kind = handler.get("kind")
            if kind is not None:
                _string(kind, "'kind' in handler", lines, *path, "handler", "kind")
            if kind not in HANDLER_KINDS:
                _fail(f"unknown handler kind {kind!r}", lines, *path, "handler")
            _check_template(handler, "handler", registry, config, lines, *path, "handler")
            steps.append(ProcessStepDef(step["id"], trigger, handler))
        path = ("processes", i, "wiring")
        wiring = _shaped(dict, proc.get("wiring") or {}, "wiring", lines, *path)
        for msg_type, step_id in wiring.items():
            _string(msg_type, "a wiring key", lines, *path, msg_type)
            _string(step_id, f"wiring of {msg_type!r}", lines, *path, msg_type)
        definition = ProcessDef(proc["id"], steps, dict(wiring))
        try:
            definition.validate()
        except InvalidWiring as exc:
            _fail(str(exc), lines, *path)
        out.append(definition)
    return out


def _check_template(template: dict, where: str, registry: SchemaRegistry, config: SimConfig,
                    lines: _Lines, *path, replica=None) -> None:
    """A handler's, an action's or a deferred write's template at ``path``:
    its payload (``_check_payload``); every entity type it names declared,
    and hosted on ``replica`` where given; and a number as the initial value
    of every field its ``deltas`` or ``guard`` names. A deferred write is a
    template of its own."""
    _check_payload(template, where, config, lines, *path)
    named = []
    if "entity" in template:
        named.append(("entity", EntityRef.parse(str(template["entity"])).entity_type))
    if "entity_type" in template:
        named.append(("entity_type", _string(template["entity_type"], f"'entity_type' in {where}",
                                             lines, *path, "entity_type")))
    for key, entity_type in named:
        _check_entity_type(entity_type, config, lines, *path, key, replica=replica)
        initial = registry.get(entity_type).initial_value
        if initial:  # else every field starts from 0
            for field_name in template.get("deltas", ()):
                _check_summable(field_name, entity_type, initial, "deltas", lines, *path, "deltas", field_name)
            if "guard" in template:
                _check_summable(template["guard"]["field"], entity_type, initial, "guard",
                                lines, *path, "guard", "field")
    entities = _shaped(list, template.get("entities", []), "entities", lines, *path, "entities")
    for j, entity in enumerate(entities):
        _check_entity_type(EntityRef.parse(str(entity)).entity_type, config,
                           lines, *path, "entities", j, replica=replica)
    deferred_writes = _shaped(list, template.get("deferred", []), "deferred", lines, *path, "deferred")
    for j, deferred in enumerate(deferred_writes):
        _shaped(dict, deferred, "deferred write", lines, *path, "deferred", j, required=("entity", "deltas"))
        _check_template(deferred, "deferred write", registry, config, lines, *path, "deferred", j,
                        replica=replica)


def _check_summable(field_name: str, entity_type: str, initial: dict, where: str, lines: _Lines,
                    *path) -> None:
    """Fail unless the field an ``aggregate``, ``deltas`` or ``guard`` names at
    ``path`` starts from a number (or is absent from ``initial``, so starts
    from 0): the fold adds to it, and a bool would count as 1."""
    value = initial.get(field_name, 0)
    if type(value) is not int and type(value) is not float:
        _fail(f"{where} field {field_name!r} of entity type {entity_type!r} needs a number as its "
              f"initial value, got {value!r}", lines, *path)


# the template fields whose values an event or a message carries as they are
_PAYLOAD_FIELDS = ("deltas", "fields", "observed", "guard", "terms", "args", "payload")


def _check_json(value, where: str, lines: _Lines, *path, seen: set[int] | None = None) -> None:
    """Fail unless ``value`` is JSON that a line gives back as it is: a
    mapping key that is not a str would come back changed. Every scalar a
    scenario holds is a JSON leaf. A mapping or list that aliases share is
    checked once, where it is first reached (``seen`` holds the ids of
    those checked)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    if seen is None:
        seen = set()
    seen.add(id(value))
    for key, item in items:
        if type(key) is not str and type(value) is dict:
            line = lines.at(*path, key)  # None for a merged key: its mapping's line
            raise ScenarioInvalid(f"key {key!r} in {where} must be a string",
                                  lines.at(*path) if line is None else line)
        if isinstance(item, (dict, list)) and id(item) not in seen:
            _check_json(item, where, lines, *path, key, seen=seen)


def _check_payload(template: dict, where: str, config: SimConfig, lines: _Lines, *path) -> None:
    """The payload fields a handler reads as mappings (an emit's ``payload``,
    and each ``emit`` entry's, too) are mappings, and the ones it adds or
    compares are numbers: each value of ``deltas`` and ``observed``, a
    reserve's ``quantity``, its ``deadline`` unless null, and a guard's
    ``min``. Every payload field holds JSON only (``_check_json``). A ``reservation_id`` keys a
    reservation: a string, or an int, which the step writes as its decimal
    string. A ``cause`` names one, and a guard's
    ``field``, an ``emit`` entry's ``type``, each of its ``payload_from``
    entries (a list) and every ``<name>_from`` field (``key_from``, the
    message field a parameter is read from) name theirs: strings. An
    ``emit`` entry goes ``to`` ``self``, ``notify`` or a [replica,
    partition] pair whose replica hosts the partition."""
    for key, required in {"deltas": (), "guard": ("field",), "fields": (), "observed": (), "payload": ()}.items():
        if key in template:
            _shaped(dict, template[key], key, lines, *path, key, required=required)
    for key in _PAYLOAD_FIELDS:
        if key in template:
            _check_json(template[key], key, lines, *path, key)
    if "reservation_id" in template and type(template["reservation_id"]) not in (str, int):
        _fail(f"'reservation_id' in {where} must be a string or an int, got {template['reservation_id']!r}",
              lines, *path, "reservation_id")
    if "cause" in template:
        _string(template["cause"], f"'cause' in {where}", lines, *path, "cause")
    for key, value in template.items():
        if type(key) is str and key.endswith("_from"):  # names the message field a parameter is read from
            _string(value, f"{key!r} in {where}", lines, *path, key)
    if "guard" in template:
        _string(template["guard"]["field"], "'field' in guard", lines, *path, "guard", "field")
        _number(float, template["guard"], "min", 0, "guard", lines, *path, "guard")
    emits = _shaped(list, template.get("emit", []), "emit", lines, *path, "emit")
    for j, emit in enumerate(emits):
        _shaped(dict, emit, "emit entry", lines, *path, "emit", j, required=("type",))
        _string(emit["type"], "'type' in emit entry", lines, *path, "emit", j, "type")
        if "payload" in emit:
            _shaped(dict, emit["payload"], "'payload' in emit entry", lines, *path, "emit", j, "payload")
            _check_json(emit["payload"], "emit payload", lines, *path, "emit", j, "payload")
        if "payload_from" in emit:
            names = _shaped(list, emit["payload_from"], "'payload_from' in emit entry",
                            lines, *path, "emit", j, "payload_from")
            for k, field_name in enumerate(names):
                _string(field_name, "a payload_from entry", lines, *path, "emit", j, "payload_from", k)
        to = emit.get("to", "self")
        if to not in ("self", "notify") and not (
            isinstance(to, list) and len(to) == 2 and all(isinstance(name, str) for name in to)
            and to[0] in config.partitions.get(to[1], ())
        ):
            _fail(f"'to' in emit entry must be 'self', 'notify' or a [replica, partition] pair "
                  f"whose replica hosts the partition, got {to!r}", lines, *path, "emit", j, "to")
    for key in ("deltas", "observed"):
        for field_name in template.get(key, ()):
            _number(float, template[key], field_name, _REQUIRED, key, lines, *path, key)
    if "quantity" in template:
        _number(int, template, "quantity", _REQUIRED, where, lines, *path)
    if template.get("deadline") is not None:
        _number(int, template, "deadline", _REQUIRED, where, lines, *path)


def _build_faults(data: dict, lines: _Lines, config: SimConfig) -> list[Fault]:
    replicas = {r for reps in config.partitions.values() for r in reps}
    out = []
    for i, fault in enumerate(_shaped(list, data.get("faults") or [], "faults", lines, "faults")):
        _shaped(dict, fault, "fault", lines, "faults", i)
        _check_fields(fault, FAULT_FIELDS, "fault", lines, "faults", i)
        kind = fault.get("kind")
        if kind not in ("partition", "heal", "crash", "recover", "disaster"):
            _fail(f"unknown fault kind {kind!r}", lines, "faults", i, "kind")
        if "target" in fault:
            _string(fault["target"], "'target' in fault", lines, "faults", i, "target")
        if kind in ("crash", "recover") and fault.get("target") not in replicas:
            _fail(f"fault target {fault.get('target')!r} is not a replica", lines, "faults", i)
        if kind == "partition":
            groups = _shaped(list, fault.get("groups", []), "partition groups", lines, "faults", i, "groups")
            for j, group in enumerate(groups):
                group = _shaped(list, group, "partition group", lines, "faults", i, "groups", j)
                for k, rid in enumerate(group):
                    _string(rid, "a partition group entry", lines, "faults", i, "groups", j, k)
                    if rid not in replicas:
                        _fail(f"partition group names unknown replica {rid!r}", lines, "faults", i)
        if kind == "disaster" and not fault.get("entity"):
            _fail("disaster faults need an entity", lines, "faults", i)
        if "entity" in fault:
            ref = EntityRef.parse(str(fault["entity"]))
            _check_entity_type(ref.entity_type, config, lines, "faults", i, "entity")
        out.append(
            Fault(
                kind=kind,
                at=_number(int, fault, "at", _REQUIRED, "fault", lines, "faults", i),
                target=fault.get("target"),
                groups=fault.get("groups"),
                entity=fault.get("entity"),
            )
        )
    return out


def _build_actions(data: dict, lines: _Lines, registry: SchemaRegistry,
                   config: SimConfig) -> list[ClientAction]:
    replicas = {r for reps in config.partitions.values() for r in reps}
    out = []
    taken = set()  # action ids: the simulator runs one action per id
    for i, action in enumerate(_shaped(list, data.get("actions") or [], "actions", lines, "actions")):
        do = _shaped(dict, action, "action", lines, "actions", i).get("do")
        if do is not None:
            _string(do, "'do' in action", lines, "actions", i, "do")
        if do not in ACTION_PARAMS:
            _fail(f"unknown action kind {do!r}", lines, "actions", i, "do")
        where = f"action {do!r}"
        allowed = ACTION_BASE_FIELDS | ACTION_PARAMS[do]
        _check_fields(action, allowed, where, lines, "actions", i)
        for key in ("replica", "label", "session"):
            if key in action:
                _string(action[key], f"{key!r} in {where}", lines, "actions", i, key)
        replica = action.get("replica")
        if replica not in replicas:
            _fail(f"action replica {replica!r} is unknown", lines, "actions", i)
        at = _number(int, action, "at", _REQUIRED, where, lines, "actions", i)
        params = {k: v for k, v in action.items() if k not in ACTION_BASE_FIELDS}
        _check_template(params, where, registry, config, lines, "actions", i, replica=replica)
        if do == "emit":
            _shaped(dict, params, where, lines, "actions", i, required=("type",))
            _string(params["type"], f"'type' in {where}", lines, "actions", i, "type")
            partition = params.get("partition")
            if partition is not None:
                _string(partition, f"'partition' in {where}", lines, "actions", i, "partition")
                if replica not in config.partitions.get(partition, ()):
                    _fail(f"replica {replica!r} does not host partition {partition!r}",
                          lines, "actions", i, "partition")
        action_id = str(action.get("id", f"a{i}"))
        if action_id in taken:
            at_id = ("actions", i, "id") if "id" in action else ("actions", i)
            _fail(f"repeated action id {action_id!r}", lines, *at_id)
        taken.add(action_id)
        if do == "lww_set":
            do, params = "insert", dict(params)
        out.append(
            ClientAction(
                at=at,
                replica=replica,
                do=do,
                params=params,
                action_id=action_id,
                session=action.get("session"),
            )
        )
    return out
