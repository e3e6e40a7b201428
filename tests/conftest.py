"""Suite-wide checks of the store's fold cache and the referential index,
and a fold counter.

``ReplicaStore.fold_state`` keeps one fold per entity and advances it on
read. For the whole session every whole-log read is compared with a fold
of the entity's full history from scratch, in canonical order, so every
test, golden run and Hypothesis property also checks the cache. Every
whole-log ``ReplicaStore.rollup`` also compares its value with the
finalized scratch fold, so the fold's kept reservation view is checked
too: one not dropped when a reservation event folded, or mutated by a
caller, differs from the scratch fold's fresh view.

``plan_referential_resolutions`` reads only the entities a partition log
indexes under the parent. For the whole session every plan the simulator
makes is compared with the walk it replaced: every hosted entity's
exceptions, filtered by kind, open status and parent.

``scenario._compose`` builds the data of a plain document straight from
the parser's event stream, with no node tree, and leaves any other
document to PyYAML's compose and constructor. For
the whole session every parse is compared with ``yaml.safe_load`` of the
same text: the data must be strictly equal (``True`` is not ``1``, ``1``
is not ``1.0``, NaN equals NaN, and mappings keep their order), and a
YAML error must be a ``ScenarioInvalid`` on the line PyYAML names. So
must the raw error PyYAML's constructor raises on a scalar its tag cannot
hold (``!!int abc``), on the line of the scalar it raised on. One
departure is deliberate: where ``yaml.safe_load`` keeps the last of a key
repeated in one mapping (merge keys aside), the parse must raise
``ScenarioInvalid`` on the line of the first such repeat in the document.
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
from eventual.registry import MergePolicy
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
    spec = store.registry.get(entity_ref.entity_type)
    if as_of is None and spec.merge_policy is not MergePolicy.ARRIVAL_LWW:
        expected = _scratch_fold(store, partition_id, entity_ref).to_snapshot()
        assert state.to_snapshot() == expected, f"cached fold of {entity_ref} diverged"
    return state


def _checked_rollup(store, partition_id, entity_ref, as_of=None):
    result = _ROLLUP(store, partition_id, entity_ref, as_of)
    spec = store.registry.get(entity_ref.entity_type)
    if as_of is None and spec.merge_policy is not MergePolicy.ARRIVAL_LWW:
        expected = _scratch_fold(store, partition_id, entity_ref).finalize(spec)
        assert result.value == expected, f"rollup of {entity_ref} diverged"
    return result


@pytest.fixture(autouse=True, scope="session")
def cross_check_fold_cache():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReplicaStore, "fold_state", _checked_fold_state)
        patch.setattr(ReplicaStore, "rollup", _checked_rollup)
        yield


# what PyYAML's scalar constructors raise on a value their tag cannot hold
_UNREADABLE = (ValueError, LookupError, AttributeError)


class _MarkingLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that marks a constructor's raw error with the line
    of the node it was raised on."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except _UNREADABLE as exc:
            if not hasattr(exc, "line"):  # the innermost node raised it
                exc.line = node.start_mark.line + 1
            raise


def _repeated_key_line(node, walked: set) -> int | None:
    """The line of the first scalar key, in document order, equal (as PyYAML
    constructs it, or by tag and text if it cannot) to an earlier key of its
    mapping, merge keys aside; None if there is none."""
    if id(node) in walked:
        return None
    walked.add(id(node))
    if isinstance(node, yaml.SequenceNode):
        return next(filter(None, (_repeated_key_line(child, walked) for child in node.value)), None)
    if not isinstance(node, yaml.MappingNode):
        return None
    keys = []
    for key_node, value_node in node.value:
        if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
            try:
                key = yaml.constructor.SafeConstructor().construct_object(key_node)
            except _UNREADABLE:
                key = (key_node.tag, key_node.value)
            if key in keys:
                return key_node.start_mark.line + 1
            keys.append(key)
        line = _repeated_key_line(key_node, walked) or _repeated_key_line(value_node, walked)
        if line is not None:
            return line
    return None


def _safe_load(text: str):
    """``yaml.safe_load(text)``, through the constructor bound at import,
    except that a repeated key raises ScenarioInvalid on its line."""
    loader = _MarkingLoader(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        line = _repeated_key_line(node, set())
        if line is not None:
            raise ScenarioInvalid("repeated key", line)
        return _CONSTRUCT_DOCUMENT(loader, node)
    finally:
        loader.dispose()


def _strictly_equal(a, b, seen: set) -> bool:
    """``a == b`` where every value also has the same type, NaN equals NaN,
    mappings keep the same order, and a recursive alias ends the walk."""
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
    if isinstance(a, set):
        return _strictly_equal(sorted(a, key=repr), sorted(b, key=repr), seen)
    return a == b


def _error(exc: Exception) -> tuple:
    """A YAML error as the ``ScenarioInvalid`` line it must become; any other
    error as itself, which the parse must then raise too."""
    if isinstance(exc, ScenarioInvalid):
        return ScenarioInvalid, exc.line
    if isinstance(exc, yaml.YAMLError):
        mark = getattr(exc, "problem_mark", None)
        return ScenarioInvalid, None if mark is None else mark.line + 1
    if isinstance(exc, _UNREADABLE) and hasattr(exc, "line"):
        return ScenarioInvalid, exc.line
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
