"""Database instances: named collections of relations.

A database ``D`` is a set of relations ``R_1 ... R_n`` (Section 2).  Like
relations, databases are immutable: replacing one relation produces a new
database sharing every other relation's storage, and remembering the
states ``History.execute`` computed from it (DESIGN.md, "Time travel").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from .relation import Relation
from .schema import Schema, SchemaError

__all__ = ["Database"]


@dataclass(frozen=True)
class Database:
    """An immutable database instance mapping relation names to relations."""

    relations: Mapping[str, Relation] = field(default_factory=dict)
    #: ``(backend, statement share keys) -> H(self)``, filled (by
    #: replacement, never growth) by ``History.execute``.  Cannot go
    #: stale; not part of ``==``, ``hash``, ``repr`` or pickles.
    _versions: Mapping[tuple[Any, ...], "Database"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", dict(self.relations))

    def __getstate__(self) -> dict[str, Any]:
        # Pickles (process-pool payloads among them) carry one state,
        # never the versions remembered on it.
        return {"relations": self.relations}

    def __setstate__(self, state: dict[str, Any]) -> None:
        object.__setattr__(self, "relations", state["relations"])
        object.__setattr__(self, "_versions", {})

    # -- access ----------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[str]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def relation_names(self) -> list[str]:
        return sorted(self.relations)

    def schema_of(self, name: str) -> Schema:
        return self[name].schema

    # -- functional updates -------------------------------------------------
    def with_relation(self, name: str, relation: Relation) -> "Database":
        """New database with ``name`` bound to ``relation``."""
        updated = dict(self.relations)
        updated[name] = relation
        return Database(updated)

    def without_relation(self, name: str) -> "Database":
        updated = dict(self.relations)
        updated.pop(name, None)
        return Database(updated)

    # -- comparison helpers ----------------------------------------------
    def same_contents(self, other: "Database") -> bool:
        """True when both databases hold exactly the same tuples.

        Relations missing on one side are treated as present-but-empty so
        that e.g. creating an empty relation does not count as a change.
        """
        names = set(self.relations) | set(other.relations)
        for name in names:
            left = self.relations.get(name)
            right = other.relations.get(name)
            left_tuples = left.tuples if left is not None else frozenset()
            right_tuples = right.tuples if right is not None else frozenset()
            if left_tuples != right_tuples:
                return False
        return True

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def pretty(self, limit: int = 20) -> str:
        parts = []
        for name in self.relation_names():
            parts.append(f"== {name} ==")
            parts.append(self[name].pretty(limit=limit))
        return "\n".join(parts)
