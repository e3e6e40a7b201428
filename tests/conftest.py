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
"""

from __future__ import annotations

import pytest

import eventual.sim
from eventual.process import plan_referential_resolutions, scan_exceptions
from eventual.registry import MergePolicy
from eventual.store import FoldState, ReplicaStore, canonical_sort

_FOLD = FoldState.fold  # bound at import: the cross-check's own folds are never counted
_FOLD_STATE = ReplicaStore.fold_state
_ROLLUP = ReplicaStore.rollup


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
        patch.setattr(eventual.sim, "plan_referential_resolutions", _checked_plans)
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
