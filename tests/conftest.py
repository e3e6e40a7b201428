"""Suite-wide check of the store's fold cache, and a fold counter.

``ReplicaStore.fold_state`` keeps one fold per entity and advances it on
read. For the whole session every whole-log read is compared with a fold
of the entity's full history from scratch, in canonical order, so every
test, golden run and Hypothesis property also checks the cache.
"""

from __future__ import annotations

import pytest

from eventual.registry import MergePolicy
from eventual.store import FoldState, ReplicaStore, canonical_sort

_FOLD = FoldState.fold  # bound at import: the cross-check's own folds are never counted
_FOLD_STATE = ReplicaStore.fold_state


def _scratch_fold(store: ReplicaStore, partition_id: str, ref) -> FoldState:
    """The entity's full log folded in canonical order, ignoring checkpoints."""
    spec = store.registry.get(ref.entity_type)
    state = FoldState()
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


@pytest.fixture(autouse=True, scope="session")
def cross_check_fold_cache():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReplicaStore, "fold_state", _checked_fold_state)
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
