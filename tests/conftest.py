"""Suite-wide checks of the store's fold cache and the referential index,
a fold counter, and the convergence sweep's negative control.

``ReplicaStore.fold_state`` keeps one fold per entity and advances it on
read. For the whole session every whole-log read is compared with a fold
of the entity's full history from scratch, in canonical order, so every
test, golden run and Hypothesis property also checks the cache. Every
whole-log ``ReplicaStore.rollup`` also compares its value with the
finalized scratch fold, so the fold's kept reservation view is checked
too: one not dropped when a reservation event folded, or mutated by a
caller, differs from the scratch fold's fresh view.

The ``arrival_order_fold`` fixture is the negative control: inside a test
that requests it, and only there, every replica folds each entity in the
order its log received the events, keeping the last insert it folded. It
replaces both checked wrappers for that test, since such a fold differs
from the canonical one by design. Replicas that received concurrent
writes in different orders then diverge, which every convergence check
must flag.

``plan_referential_resolutions`` reads only the entities a partition log
indexes under the parent. For the whole session every plan the simulator
makes is compared with the walk it replaced: every hosted entity's
exceptions, filtered by kind, open status and parent.

``scenario._compose`` builds a scenario's data in one pass over the
parser's event stream, with no node tree and no constructor. For the
whole session every parse is compared with ``yaml.safe_load`` of the
same text: the data must be strictly equal (``True`` is not ``1``, ``1``
is not ``1.0``, NaN equals NaN, and mappings keep their order), and a
YAML error must be a ``ScenarioInvalid`` on the line PyYAML names. Three
departures are deliberate; ``_RefusingLoader`` notes them as it composes:

- where ``yaml.safe_load`` keeps the last of a key repeated in one
  mapping (merge keys aside), the parse raises ``ScenarioInvalid`` on the
  line of the repeat;
- a node that a scenario cannot hold is a ``ScenarioInvalid`` on its
  line where ``yaml.safe_load`` would build it: a tag other than str,
  int, float, bool, null, map, seq and merge (a plain date is a
  timestamp), a mapping or list as a key, a recursive alias, a merge key
  anywhere but as a key, a mapping or list nested deeper than
  ``scenario._MAX_DEPTH`` (which ``yaml.safe_load`` builds, or, far
  deeper, ends in ``RecursionError``). A scalar its tag cannot hold, a
  merge key's value not made of mappings, an alias with no anchor, an
  anchor defined twice and a second document are errors in both, on the
  same line, but for an alias, which the parse names on its own line;
- when a document has several problems, a parse error wins, and else
  the first in document order is named, where PyYAML names the first
  that its composer, then its constructor, meets.
"""

from __future__ import annotations

import functools
import math

import pytest
import yaml

import eventual.scenario
import eventual.node
from eventual.errors import ScenarioInvalid
from eventual.process import plan_referential_resolutions, scan_exceptions
from eventual.store import FoldState, ReplicaStore, canonical_sort

_FOLD = FoldState.fold  # bound at import: the cross-check's own folds are never counted
_FOLD_STATE = ReplicaStore.fold_state
_ROLLUP = ReplicaStore.rollup
_COMPOSE = eventual.scenario._compose
# bound at import: the cross-check's own constructions are never counted
_CONSTRUCT_DOCUMENT = yaml.constructor.SafeConstructor.construct_document


class _ScratchFoldState(FoldState):
    """A FoldState whose view builds, like ``_FOLD``, bypass a test's counter."""

    _build_reservation_view = FoldState._build_reservation_view


def _scratch_fold(store: ReplicaStore, partition_id: str, ref) -> FoldState:
    """The entity's full log folded in canonical order, ignoring checkpoints."""
    spec = store.registry.get(ref.entity_type)
    state = _ScratchFoldState()
    for event in canonical_sort(store.log(partition_id).all_events_for(ref)):
        _FOLD(state, event, spec)
    return state


def _checked_fold_state(store, partition_id, entity_ref, as_of=None):
    state = _FOLD_STATE(store, partition_id, entity_ref, as_of)
    if as_of is None:
        expected = _scratch_fold(store, partition_id, entity_ref).to_snapshot()
        assert state.to_snapshot() == expected, f"cached fold of {entity_ref} diverged"
    return state


def _checked_rollup(store, partition_id, entity_ref, as_of=None):
    result = _ROLLUP(store, partition_id, entity_ref, as_of)
    spec = store.registry.get(entity_ref.entity_type)
    if as_of is None:
        expected = _scratch_fold(store, partition_id, entity_ref).finalize(spec)
        assert result.value == expected, f"rollup of {entity_ref} diverged"
    return result


@pytest.fixture(autouse=True, scope="session")
def cross_check_fold_cache():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReplicaStore, "fold_state", _checked_fold_state)
        patch.setattr(ReplicaStore, "rollup", _checked_rollup)
        yield


class _ArrivalFoldState(FoldState):
    """A FoldState whose insert rule keeps the last insert folded."""

    def _take_base(self, event) -> None:
        self.base_winner = event.canonical_key
        self.base_fields = dict(event.payload.get("fields", {}))


def _arrival_fold_state(store, partition_id, entity_ref, as_of=None):
    """The entity's events (<= as_of, or all) folded in arrival order, with
    no cache and no checkpoint."""
    spec = store.registry.get(entity_ref.entity_type)
    state = _ArrivalFoldState()
    for event in store.log(partition_id).all_events_for(entity_ref):
        if as_of is None or as_of.covers(event.event_id.replica, event.event_id.seq):
            state.fold(event, spec)
    return state


@pytest.fixture
def arrival_order_fold(monkeypatch):
    """Every replica folds in arrival order for this test (see the module
    docstring)."""
    monkeypatch.setattr(ReplicaStore, "fold_state", _arrival_fold_state)
    monkeypatch.setattr(ReplicaStore, "rollup", _ROLLUP)


# what PyYAML's scalar constructors raise on a value their tag cannot hold
_UNREADABLE = (ValueError, LookupError)
_TAG = "tag:yaml.org,2002:"
_SCALAR_TAGS = {_TAG + kind for kind in ("str", "int", "float", "bool", "null")}
_MERGE = _TAG + "merge"


def _construct_scalar(tag: str, text: str):
    return yaml.constructor.SafeConstructor().construct_object(yaml.ScalarNode(tag, text))


class _LinearKeys:
    """Scanner mixin: PyYAML's simple-key bookkeeping in time linear in
    flow depth, with the stock scanner's tokens and errors.

    ``possible_simple_keys`` holds at most one key per open flow level, in
    level order: a key is saved only at the current level, and a level's
    key goes when the level closes. So index, line and token number all
    grow along it. The stock scanner walks every level on every token,
    which is quadratic in depth; here the next key is the first, and stale
    keys are dropped from the front up to the first fresh one, raising the
    same ScannerError at the same key."""

    def next_possible_simple_key(self):
        for key in self.possible_simple_keys.values():
            return key.token_number
        return None

    def stale_possible_simple_keys(self):
        keys = self.possible_simple_keys
        while keys:
            level = next(iter(keys))
            key = keys[level]
            if key.line == self.line and self.index - key.index <= 1024:
                return
            if key.required:
                raise yaml.scanner.ScannerError("while scanning a simple key", key.mark,
                                                "could not find expected ':'", self.get_mark())
            del keys[level]


class _ReferenceLoader(_LinearKeys, yaml.SafeLoader):
    """``yaml.SafeLoader`` with the linear simple-key scan."""


class _RefusingLoader(_ReferenceLoader):
    """``yaml.SafeLoader`` that notes, as it composes, the line of the first
    node in document order that a scenario refuses (see the module
    docstring), checking each node before its children."""

    def __init__(self, text: str):
        super().__init__(text)
        self.refused: int | None = None
        self.open: list = []  # per node being composed: its anchor, if a mapping or list
        self.merging = [False]  # per node being composed: whether it is a merge key's list
        self.depth = 0  # the mappings and lists being composed

    def refuse(self, mark) -> None:
        if self.refused is None:
            self.refused = mark.line + 1

    def compose_node(self, parent, index):
        event = self.peek_event()
        key = isinstance(parent, yaml.MappingNode) and index is None
        merge_value = isinstance(parent, yaml.MappingNode) and index is not None and index.tag == _MERGE
        merge_entry = isinstance(parent, yaml.SequenceNode) and self.merging[-1]
        if isinstance(event, yaml.AliasEvent):
            node = self.anchors.get(event.anchor)
            collection = isinstance(node, (yaml.MappingNode, yaml.SequenceNode))
            if (
                node is None  # compose raises
                or event.anchor in self.open  # recursive
                or key and collection
                or not key and node.tag == _MERGE
                or merge_value and not (isinstance(node, yaml.MappingNode) or isinstance(node, yaml.SequenceNode)
                                        and all(isinstance(n, yaml.MappingNode) for n in node.value))
                or merge_entry and not isinstance(node, yaml.MappingNode)
            ):
                self.refuse(event.start_mark)
        elif event.anchor is not None and event.anchor in self.anchors:  # compose raises
            self.refuse(event.start_mark)
        if isinstance(event, yaml.ScalarEvent):
            tag = event.tag
            if tag is None or tag == "!":
                tag = self.resolve(yaml.ScalarNode, event.value, event.implicit)
            if tag == _MERGE:
                if not key:
                    self.refuse(event.start_mark)
            elif tag not in _SCALAR_TAGS or merge_value or merge_entry:
                self.refuse(event.start_mark)
            else:
                try:
                    _construct_scalar(tag, event.value)
                except _UNREADABLE:
                    self.refuse(event.start_mark)
        elif self.depth == eventual.scenario._MAX_DEPTH and isinstance(event, yaml.CollectionStartEvent):
            self.refuse(event.start_mark)
            opened = 1
            self.get_event()
            while opened:  # past the node's end: composing it could overflow the stack
                event = self.get_event()
                opened += isinstance(event, yaml.CollectionStartEvent)
                opened -= isinstance(event, yaml.CollectionEndEvent)
            return yaml.ScalarNode(_TAG + "null", "", event.start_mark, event.end_mark)
        elif not isinstance(event, yaml.AliasEvent):
            tag = _TAG + ("map" if isinstance(event, yaml.MappingStartEvent) else "seq")
            if event.tag not in (None, "!", tag) or key or merge_entry and tag != _TAG + "map":
                self.refuse(event.start_mark)
        collection = isinstance(event, yaml.CollectionStartEvent)
        self.open.append(event.anchor if collection else None)
        self.merging.append(merge_value and isinstance(event, yaml.SequenceStartEvent))
        self.depth += collection
        try:
            node = super().compose_node(parent, index)
        finally:
            self.open.pop()
            self.merging.pop()
            self.depth -= collection
        if key and node.tag != _MERGE and self.refused is None:
            value = _construct_scalar(node.tag, node.value)
            if value in [_construct_scalar(k.tag, k.value) for k, _ in parent.value if k.tag != _MERGE]:
                self.refuse(node.start_mark)
        return node


def _parse(text: str) -> None:
    """Parse ``text`` up to a second document: PyYAML's error on a parse error."""
    loader = _ReferenceLoader(text)
    try:
        documents = 0
        while documents < 2 and not loader.check_event(yaml.StreamEndEvent):
            documents += isinstance(loader.get_event(), yaml.DocumentStartEvent)
    finally:
        loader.dispose()


def _safe_load(text: str):
    """``yaml.safe_load(text)``, through the constructor bound at import,
    except that a parse error wins, and that otherwise the first node in
    document order that a scenario refuses raises ScenarioInvalid on its
    line."""
    _parse(text)
    loader = _RefusingLoader(text)
    try:
        try:
            node = loader.get_single_node()
        except yaml.composer.ComposerError:
            if loader.refused is None:
                raise
        if loader.refused is not None:
            raise ScenarioInvalid("refused", loader.refused)
        return None if node is None else _CONSTRUCT_DOCUMENT(loader, node)
    finally:
        loader.dispose()


def _strictly_equal(a, b, seen: set) -> bool:
    """``a == b`` where every value also has the same type, NaN equals NaN,
    mappings keep the same order, and a pair met again (an alias) is not
    walked again."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (dict, list, tuple)):
        if (id(a), id(b)) in seen:
            return True
        seen.add((id(a), id(b)))
        if isinstance(a, dict):
            a, b = [x for kv in a.items() for x in kv], [x for kv in b.items() for x in kv]
        return len(a) == len(b) and all(_strictly_equal(x, y, seen) for x, y in zip(a, b))
    return a == b


def _error(exc: Exception) -> tuple:
    """A YAML error as the ``ScenarioInvalid`` line it must become; any other
    error as itself, which the parse must then raise too."""
    if isinstance(exc, ScenarioInvalid):
        return ScenarioInvalid, exc.line
    if isinstance(exc, yaml.YAMLError):
        mark = getattr(exc, "problem_mark", None)
        return ScenarioInvalid, None if mark is None else mark.line + 1
    return type(exc), str(exc)


def _assert_same_parse(text: str, outcome: tuple, expected: tuple) -> None:
    assert _strictly_equal(outcome, expected, set()), (
        f"parse of {text!r} diverged from yaml.safe_load: {outcome!r} != {expected!r}"
    )


@functools.cache
def _expected_parse(text: str) -> tuple:
    """``yaml.safe_load``'s outcome, once per distinct text: the suite loads
    some scenarios hundreds of times, and the pure-Python parse is slow."""
    try:
        return ("data", _safe_load(text))
    except Exception as exc:
        return ("error", *_error(exc))


def _checked_compose(text: str):
    expected = _expected_parse(text)
    try:
        result = _COMPOSE(text)
    except Exception as exc:
        _assert_same_parse(text, ("error", *_error(exc)), expected)
        raise
    _assert_same_parse(text, ("data", result[1]), expected)
    return result


@pytest.fixture(autouse=True, scope="session")
def cross_check_scenario_parse():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eventual.scenario, "_compose", _checked_compose)
        yield


@pytest.fixture(scope="session")
def checked_compose():
    """The cross-check itself: ``checked_compose(text)`` is ``scenario._compose``
    that fails unless it matches ``yaml.safe_load(text)``."""
    return _checked_compose


def _walked_plans(replica, parent_ref) -> list[dict]:
    """The referential plans of a walk over every hosted entity's exceptions."""
    return [
        {"kind": "resolve_exception", "entity": str(exc.entity_ref), "exception_id": exc.exception_id}
        for exc in scan_exceptions(replica)
        if exc.kind == "referential_violation"
        and exc.status == "open"
        and exc.detail.get("parent") == str(parent_ref)
    ]


def _checked_plans(replica, parent_ref):
    plans = plan_referential_resolutions(replica, parent_ref)
    assert plans == _walked_plans(replica, parent_ref), f"plans waiting on {parent_ref} diverged"
    return plans


@pytest.fixture(autouse=True, scope="session")
def cross_check_referential_index():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eventual.node, "plan_referential_resolutions", _checked_plans)
        yield


@pytest.fixture
def scratch_fold():
    """The cross-check's reference: ``scratch_fold(store, partition_id, ref)``."""
    return _scratch_fold


@pytest.fixture
def folds(monkeypatch):
    """Counts the FoldState.fold calls the engine makes: ``folds[0]``."""
    calls = [0]

    def counted(state, event, spec):
        calls[0] += 1
        _FOLD(state, event, spec)

    monkeypatch.setattr(FoldState, "fold", counted)
    return calls
