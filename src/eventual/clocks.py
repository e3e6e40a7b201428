"""Version vectors: per-origin sequence counters used to track causality."""

from __future__ import annotations


class VersionVector:
    """Map of replica id -> highest contiguous sequence seen from that origin.

    Value object: mutating operations return new vectors. Absent entries
    read as zero, and zero entries are never stored, so two vectors with
    the same effective content compare equal.
    """

    __slots__ = ("_v",)

    def __init__(self, entries: dict[str, int] | None = None):
        self._v = {r: s for r, s in (entries or {}).items() if s > 0}

    @classmethod
    def _of(cls, entries: dict[str, int]) -> VersionVector:
        """Wrap ``entries`` as is: a dict the caller owns, with no zero entries."""
        vector = cls.__new__(cls)
        vector._v = entries
        return vector

    def get(self, replica_id: str) -> int:
        return self._v.get(replica_id, 0)

    def covers(self, replica_id: str, seq: int) -> bool:
        """True if an event (replica_id, seq) is inside this frontier."""
        return self._v.get(replica_id, 0) >= seq

    def with_entry(self, replica_id: str, seq: int) -> VersionVector:
        """Copy with one entry raised to seq (never lowered)."""
        out = dict(self._v)
        if seq > out.get(replica_id, 0):
            out[replica_id] = seq
        return VersionVector._of(out)

    def merge(self, other: VersionVector) -> VersionVector:
        """Pointwise maximum of both vectors."""
        out = dict(self._v)
        for r, s in other._v.items():
            out[r] = max(out.get(r, 0), s)
        return VersionVector._of(out)

    def dominates(self, other: VersionVector) -> bool:
        """True if self >= other on every entry."""
        return all(self.get(r) >= s for r, s in other._v.items())

    def strictly_dominates(self, other: VersionVector) -> bool:
        return self.dominates(other) and self._v != other._v

    def concurrent_with(self, other: VersionVector) -> bool:
        """Neither vector dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def items(self) -> list[tuple[str, int]]:
        return sorted(self._v.items())

    def to_dict(self) -> dict[str, int]:
        return dict(sorted(self._v.items()))

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> VersionVector:
        return cls(data)

    def key(self) -> tuple[tuple[str, int], ...]:
        """Hashable canonical form (for caching and set membership)."""
        return tuple(sorted(self._v.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self.key())

    def __bool__(self) -> bool:
        return bool(self._v)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}:{s}" for r, s in sorted(self._v.items()))
        return f"<{inner}>"

