"""Schema registry: per-entity-type declarations the engine interprets.

An entity type declares how its event log folds into a value (merge
policy), which field names are rollup aggregates (and therefore banned
from event payloads), an optional capacity constraint for reservation
entities, and optional parent-reference constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import InvalidRecord, UnknownEntityType


class MergePolicy(str, Enum):
    COMMUTATIVE_DELTA = "commutative_delta"
    LWW_REGISTER = "lww_register"
    CUSTOM_MERGE = "custom_merge"
    # Deliberately order-dependent policy kept as a negative control for
    # convergence sweeps. Never use outside tests.
    ARRIVAL_LWW = "arrival_lww"


@dataclass(frozen=True)
class ParentConstraint:
    """Referential constraint: payload field naming a parent entity key."""

    payload_field: str
    parent_type: str


@dataclass
class RollupSpec:
    """How one entity type's events fold into a current value.

    ``fold`` is an optional override taking (value, event) -> value and is
    only consulted for CUSTOM_MERGE types; the built-in policies are folded
    by the store itself so checkpoints stay exact.
    """

    entity_type: str
    merge_policy: MergePolicy = MergePolicy.COMMUTATIVE_DELTA
    initial_value: dict = field(default_factory=dict)
    aggregates: tuple[str, ...] = ()
    capacity_field: str | None = None
    parents: tuple[ParentConstraint, ...] = ()
    fold: Callable[[dict, object], dict] | None = None

    @property
    def has_capacity(self) -> bool:
        return self.capacity_field is not None


# Internal entity types the engine itself writes. Registered implicitly
# in every registry so scenarios never have to declare them.
EXCEPTION_TYPE = "_exception"
APOLOGY_TYPE = "_apology"
JOIN_TYPE = "_join"


class SchemaRegistry:
    """Registry of rollup specs plus payload validation."""

    def __init__(self) -> None:
        self._specs: dict[str, RollupSpec] = {}
        for internal in (EXCEPTION_TYPE, APOLOGY_TYPE, JOIN_TYPE):
            self._specs[internal] = RollupSpec(entity_type=internal)

    def register(self, spec: RollupSpec) -> None:
        """Add ``spec``. An entity type that is not a str, or holds a ``/``,
        raises InvalidRecord: ``EntityRef.parse`` would not give back a ref
        of it from the ref's text."""
        if type(spec.entity_type) is not str or "/" in spec.entity_type:
            raise InvalidRecord(f"entity type {spec.entity_type!r} is not a string free of '/'")
        self._specs[spec.entity_type] = spec

    def get(self, entity_type: str) -> RollupSpec:
        try:
            return self._specs[entity_type]
        except KeyError:
            raise UnknownEntityType(entity_type) from None

    def validate_payload(self, entity_type: str, payload: dict) -> None:
        """Reject payloads that carry a rollup aggregate as a top-level field.

        Payloads describe the operation performed; the aggregate exists only
        as rollup output.
        """
        spec = self.get(entity_type)
        for banned in spec.aggregates:
            if banned in payload:
                raise ValueError(
                    f"payload field {banned!r} duplicates a rollup aggregate "
                    f"of entity type {entity_type!r}"
                )
