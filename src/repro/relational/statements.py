"""Update statements: ``U_{Set,θ}``, ``D_θ``, ``I_t`` and ``I_Q``.

These implement Equations (1)–(4) of the paper:

* ``U_{Set,θ}(R) = {Set(t) | t ∈ R ∧ θ(t)} ∪ {t | t ∈ R ∧ ¬θ(t)}``
* ``D_θ(R)      = {t | t ∈ R ∧ ¬θ(t)}``
* ``I_t(R)      = R ∪ {t}``
* ``I_Q(R)      = R ∪ Q(D)``

Statements are functions from databases to databases.  ``Set`` clauses are
given sparsely as ``{attribute: expression}``; attributes not mentioned are
implicitly the identity, matching the paper's shorthand
``(A_i1 <- e_1, ..., A_im <- e_m)``.

A delete with condition ``false`` is the *no-op* statement used for padding
histories when modifications insert or delete statements (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .algebra import Operator, base_relations, evaluate_query
from .database import Database
from .exec.backend import (
    BACKEND_COMPILED,
    BACKEND_SQLITE,
    BACKEND_VECTOR,
    resolve_backend,
)
from .exec.expr_compile import const_fingerprint, type_tag
from .exec.plan_compile import plan_fingerprint
from .expressions import (
    Expr,
    FALSE,
    TRUE,
    attributes_of,
    evaluate,
    simplify,
)
from .relation import Relation
from .schema import Schema, SchemaError

__all__ = [
    "Statement",
    "UpdateStatement",
    "DeleteStatement",
    "InsertTuple",
    "InsertQuery",
    "compiled_update_row",
    "no_op",
    "is_no_op",
    "is_tuple_independent",
    "statement_share_key",
]


def compiled_update_row(stmt: "UpdateStatement", schema: Schema):
    """One compiled ``row -> row`` closure for a whole UPDATE statement:
    ``if theta then Set(t) else t`` evaluated positionally.

    Shared by the set- and bag-semantics apply paths so the two cannot
    drift apart.
    """
    from .exec import compile_predicate, compile_row

    predicate = compile_predicate(stmt.condition, schema)
    set_row = compile_row(
        tuple(stmt.set_expression_for(attribute) for attribute in schema),
        schema,
    )

    def update_row(row: tuple) -> tuple:
        return set_row(row) if predicate(row) else row

    return update_row


class Statement:
    """Base class for history statements.

    Every statement targets a single relation (``self.relation``) and is
    applied functionally: :meth:`apply` returns a new database.
    """

    relation: str

    def apply(self, db: Database) -> Database:
        raise NotImplementedError

    def accessed_relations(self) -> set[str]:
        """All relations this statement reads (including the target)."""
        return {self.relation}


@dataclass(frozen=True)
class UpdateStatement(Statement):
    """``UPDATE relation SET A_i = e_i, ... WHERE condition``."""

    relation: str
    set_clauses: Mapping[str, Expr]
    condition: Expr = TRUE

    def __post_init__(self) -> None:
        object.__setattr__(self, "set_clauses", dict(self.set_clauses))
        if not self.set_clauses:
            raise ValueError("UPDATE requires at least one SET clause")

    def set_expression_for(self, attribute: str) -> Expr:
        """The Set expression for ``attribute`` (identity if unmentioned)."""
        from .expressions import Attr

        return self.set_clauses.get(attribute, Attr(attribute))

    def apply_to_row(self, row: dict[str, Any]) -> dict[str, Any]:
        """Apply Set to one row mapping *iff* the condition holds."""
        if not bool(evaluate(self.condition, row)):
            return row
        # Set(t): all expressions are evaluated over the ORIGINAL tuple.
        updated = dict(row)
        for attribute, expr in self.set_clauses.items():
            updated[attribute] = evaluate(expr, row)
        return updated

    def apply(self, db: Database) -> Database:
        relation = db[self.relation]
        for attribute in self.set_clauses:
            if attribute not in relation.schema:
                raise SchemaError(
                    f"UPDATE sets unknown attribute {attribute!r} "
                    f"on {self.relation}"
                )
        backend = resolve_backend(None)
        if backend == BACKEND_SQLITE:
            from .exec.sql_backend import apply_statement_sqlite

            return apply_statement_sqlite(self, db)
        if backend == BACKEND_VECTOR:
            from .exec.vector_compile import apply_update_vector

            return apply_update_vector(self, db)
        if backend == BACKEND_COMPILED:
            # Positional fast path: one compiled predicate plus one
            # compiled whole-row Set closure, no per-row dict bindings.
            update_row = compiled_update_row(self, relation.schema)
            rows = frozenset(update_row(t) for t in relation.tuples)
        else:
            rows = frozenset(
                relation.schema.from_dict(
                    self.apply_to_row(relation.schema.as_dict(t))
                )
                for t in relation
            )
        return db.with_relation(self.relation, Relation(relation.schema, rows))


@dataclass(frozen=True)
class DeleteStatement(Statement):
    """``DELETE FROM relation WHERE condition``."""

    relation: str
    condition: Expr = TRUE

    def apply(self, db: Database) -> Database:
        relation = db[self.relation]
        backend = resolve_backend(None)
        if backend == BACKEND_SQLITE:
            from .exec.sql_backend import apply_statement_sqlite

            return apply_statement_sqlite(self, db)
        if backend == BACKEND_VECTOR:
            from .exec.vector_compile import apply_delete_vector

            return apply_delete_vector(self, db)
        if backend == BACKEND_COMPILED:
            from itertools import filterfalse

            from .exec import compile_predicate

            predicate = compile_predicate(self.condition, relation.schema)
            kept = frozenset(filterfalse(predicate, relation.tuples))
        else:
            kept = frozenset(
                t
                for t in relation
                if not bool(
                    evaluate(self.condition, relation.schema.as_dict(t))
                )
            )
        return db.with_relation(self.relation, Relation(relation.schema, kept))


@dataclass(frozen=True)
class InsertTuple(Statement):
    """``INSERT INTO relation VALUES (v_1, ..., v_n)``."""

    relation: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))

    def apply(self, db: Database) -> Database:
        relation = db[self.relation]
        if resolve_backend(None) == BACKEND_SQLITE:
            from .exec.sql_backend import apply_statement_sqlite

            return apply_statement_sqlite(self, db)
        return db.with_relation(self.relation, relation.insert(self.values))


@dataclass(frozen=True)
class InsertQuery(Statement):
    """``INSERT INTO relation SELECT ...`` — inserts a query result.

    The query is evaluated over the whole database state at the time the
    statement runs; this is the only statement type that is *not* tuple
    independent (Lemma 1).
    """

    relation: str
    query: Operator

    def apply(self, db: Database) -> Database:
        relation = db[self.relation]
        if resolve_backend(None) == BACKEND_SQLITE:
            from .exec.sql_backend import apply_statement_sqlite

            return apply_statement_sqlite(self, db)
        result = evaluate_query(self.query, db)
        if result.schema.arity != relation.schema.arity:
            raise SchemaError(
                f"INSERT SELECT arity {result.schema.arity} does not match "
                f"{self.relation} arity {relation.schema.arity}"
            )
        rows = relation.tuples | frozenset(result.tuples)
        return db.with_relation(self.relation, Relation(relation.schema, rows))

    def accessed_relations(self) -> set[str]:
        return {self.relation} | base_relations(self.query)


def no_op(relation: str) -> DeleteStatement:
    """The no-op statement ``D_false`` used for history padding."""
    return DeleteStatement(relation, FALSE)


def is_no_op(stmt: Statement) -> bool:
    """True for statements that provably modify no data."""
    if isinstance(stmt, DeleteStatement):
        return simplify(stmt.condition) == FALSE
    if isinstance(stmt, UpdateStatement):
        return simplify(stmt.condition) == FALSE
    return False


def is_tuple_independent(stmt: Statement) -> bool:
    """Tuple independence per Definition 1 / Lemma 1.

    Updates, deletes, and constant-tuple inserts are tuple independent;
    inserts with queries are not.
    """
    return not isinstance(stmt, InsertQuery)


def statement_share_key(stmt: Statement) -> tuple[Any, ...]:
    """A hashable structural key for one statement, type-faithful.

    Dataclass equality compares ``Const(1) == Const(True)`` and
    ``Const(-0.0) == Const(0.0)``, yet each writes different rows; so,
    like :func:`~repro.relational.exec.plan_compile.plan_fingerprint`,
    the key carries the :func:`~repro.relational.exec.expr_compile.
    type_tag` of every embedded constant.  Keys the batch plan cache, the
    service's result cache and the versions ``History.execute``
    remembers.  Hashing it raises ``TypeError`` for unhashable constants.
    """
    if isinstance(stmt, UpdateStatement):
        sets = tuple(sorted(stmt.set_clauses.items()))
        fingerprint = const_fingerprint(
            stmt.condition, *(expr for _, expr in sets)
        )
        return ("U", stmt.relation, sets, stmt.condition, fingerprint)
    if isinstance(stmt, DeleteStatement):
        return (
            "D", stmt.relation, stmt.condition,
            const_fingerprint(stmt.condition),
        )
    if isinstance(stmt, InsertTuple):
        return (
            "I", stmt.relation, stmt.values,
            tuple(type_tag(v) for v in stmt.values),
        )
    if isinstance(stmt, InsertQuery):
        return ("IQ", stmt.relation, stmt.query, plan_fingerprint(stmt.query))
    return ("?", stmt)
