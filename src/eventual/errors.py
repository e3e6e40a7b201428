"""Error types shared across the engine.

Most of these signal contract violations (programming or routing bugs) and
are raised eagerly. A few are control-flow signals with well-defined
recovery semantics, noted on the class.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class DuplicateEventId(EngineError):
    """An event with this id is already in the log.

    Signals redelivery of an append; callers treat it as idempotent success.
    """


class WrongPartition(EngineError):
    """Entity is not routed to the partition the caller addressed."""


class MalformedEvent(EngineError):
    """An archive or sync line does not decode to an event record."""

    def __init__(self, line: str, cause: Exception):
        super().__init__(f"malformed event line ({type(cause).__name__}: {cause}): {line!r}")
        self.line = line


class SequenceGap(EngineError):
    """An event's sequence number is at or below the last one appended
    from its origin in this partition.

    Holes are normal: an origin's sequence numbers span all of its
    partitions, so each partition sees a rising subsequence of them.
    """


class CutNotClosed(EngineError):
    """A summarize cut covers an event but not the event's causal stamp."""

    def __init__(self, cut, event_id, stamp):
        super().__init__(f"cut {cut!r} covers {event_id} but not its causal stamp {stamp!r}")
        self.event_id = event_id
        self.stamp = stamp


class UnknownEntityType(EngineError):
    """No rollup spec registered for the entity type."""


class FutureVersion(EngineError):
    """Requested version is beyond the local log frontier."""


class UnknownEntity(EngineError):
    """Entity has no events in any local log."""


class LockedEntity(EngineError):
    """Operation refused while a logical lock is open on the entity."""


class MultiEntityWriteRejected(EngineError):
    """A step handler attempted to write more than one entity."""


class LockConflict(EngineError):
    """Another session holds the logical lock.

    Not a failure: the scheduler defers and retries the step later.
    """


class OutsideTransaction(EngineError):
    """Enqueue attempted with no open commit batch."""


class UnmergeableCustom(EngineError):
    """A custom merge policy declined to resolve concurrent writes."""


class Uncompensatable(EngineError):
    """The recorded operation is flagged irreversible."""


class UnknownReservation(EngineError):
    """No reservation with this id is visible in the local rollup."""


class AlreadyTerminal(EngineError):
    """Reservation is already in a terminal state."""

    def __init__(self, state: str):
        super().__init__(f"reservation already terminal: {state}")
        self.state = state


class InvalidWiring(EngineError):
    """Process wiring references a step that is not declared."""


class ScenarioInvalid(EngineError):
    """Scenario file failed parsing or validation."""

    def __init__(self, message: str, line: int | None = None):
        anchor = f"line {line}: " if line is not None else ""
        super().__init__(f"{anchor}{message}")
        self.line = line


class UnknownTarget(EngineError):
    """Fault injection names a replica or entity that does not exist."""
