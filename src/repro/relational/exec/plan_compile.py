"""Streaming plan compilation for the set-semantics evaluator.

:func:`compile_plan` lowers an :class:`~repro.relational.algebra.Operator`
tree into a pipeline of composed generator/iterator factories over
positional row tuples:

* scans stream the stored tuple set directly,
* selections run a compiled predicate through the C-level ``filter``,
* projections run a single compiled row function through ``map``,
* **joins take a hash-join fast path** whenever the join condition
  contains conjunctive equalities whose two sides are computable from the
  left and right input schemas respectively; the remaining conjuncts are
  evaluated as a compiled residual predicate over the concatenated row.
  Non-equi conditions fall back to a nested-loop closure (still compiled,
  still streaming),
* set semantics deduplicate only at **pipeline breakers** — union
  (streamed with a membership set) and difference (right side
  materialized) — and at the final result, rather than materializing a
  frozenset per operator the way the interpreter does.

Equality with NULL is false under the two-valued logic, so rows whose
join key contains ``None`` are skipped on both the build and probe sides
— exactly what the interpreter's per-pair ``Cmp`` evaluation produces.

Compiled plans are cached on ``(operator tree, relevant base schemas)``,
so the engine's per-relation query pairs compile once and run many times
across repeated trials (see the plan-cache note in DESIGN.md).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..algebra import (
    Difference,
    Join,
    Operator,
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    base_relations,
    output_schema,
    walk_operators,
)
from ..expressions import (
    Cmp,
    Expr,
    TRUE,
    and_,
    attributes_of,
    variables_of,
)
from ..relation import Relation
from ..schema import Schema, SchemaError, check_union_compatible
from .expr_compile import (
    compile_predicate,
    compile_row,
    const_fingerprint,
    type_tag,
)

__all__ = [
    "CompiledPlan",
    "compile_plan",
    "execute_plan",
    "plan_fingerprint",
    "split_equijoin_condition",
    "clear_plan_cache",
    "plan_cache_info",
]


def plan_fingerprint(op: Operator) -> tuple[str, ...]:
    """:func:`~.expr_compile.type_tag` of every constant embedded in the
    plan, in walk order.

    Same role as :func:`.expr_compile.const_fingerprint` but for whole
    operator trees: ``Singleton`` rows and condition/projection constants
    compare equal across bool/int/float and across the two float zeros
    (``(1,) == (True,)``, ``(-0.0,) == (0.0,)``), so the value tags must
    be part of the plan-cache key.
    """
    parts: list[str] = []
    for node in walk_operators(op):
        if isinstance(node, Singleton):
            parts.extend(type_tag(value) for value in node.row)
        elif isinstance(node, (Select, Join)):
            parts.extend(const_fingerprint(node.condition))
        elif isinstance(node, Project):
            parts.extend(
                const_fingerprint(*(expr for expr, _ in node.outputs))
            )
    return tuple(parts)

#: A factory producing one streaming pass over the rows of a (sub)plan.
RowSource = Callable[[Any], Iterable[tuple]]


class CompiledPlan:
    """A compiled operator tree: output schema plus a streaming runner.

    Plans pickle by *recompiling*: the closure pipeline itself cannot
    cross a process boundary, but the operator tree and the base schemas
    it was compiled against can, and compilation is deterministic (and
    cached per process).  The engine's batched process-pool path ships
    raw operator trees (workers compile into their own caches), but any
    structure that happens to hold a compiled plan — results, caches,
    future pool payloads — stays picklable rather than poisoning its
    container.
    """

    __slots__ = (
        "schema", "operator", "base_schemas", "_source", "uses_hash_join"
    )

    def __init__(
        self,
        schema: Schema,
        operator: Operator,
        base_schemas: tuple[tuple[str, Schema], ...],
        source: RowSource,
        uses_hash_join: bool,
    ) -> None:
        self.schema = schema
        self.operator = operator
        self.base_schemas = base_schemas
        self._source = source
        self.uses_hash_join = uses_hash_join

    def __reduce__(self):
        return (compile_plan, (self.operator, dict(self.base_schemas)))

    def rows(self, db: Any) -> Iterable[tuple]:
        """Stream the (possibly duplicate-bearing) output rows."""
        return self._source(db)

    def execute(self, db: Any) -> Relation:
        """Run the pipeline and materialize the set-semantics result."""
        return Relation(self.schema, frozenset(self._source(db)))


def split_equijoin_condition(
    condition: Expr, left: Schema, right: Schema
) -> tuple[tuple[Expr, ...], tuple[Expr, ...], Expr | None]:
    """Split a join condition into hash keys and a residual.

    Returns ``(left_keys, right_keys, residual)`` where the i-th left and
    right key expressions must compare equal for a pair to join.  A
    conjunct qualifies as a key pair when it is an equality whose sides
    read only attributes of one input each (constants qualify for either
    side).  Everything else — including conjuncts with free symbolic
    variables, which must keep the interpreter's raise-on-read timing —
    lands in the residual.  ``residual`` is ``None`` when nothing
    remains.
    """
    from ..expressions import conjuncts_of

    left_attrs = set(left.attributes)
    right_attrs = set(right.attributes)
    left_keys: list[Expr] = []
    right_keys: list[Expr] = []
    residual: list[Expr] = []
    for conjunct in conjuncts_of(condition):
        if (
            isinstance(conjunct, Cmp)
            and conjunct.op == "="
            and not variables_of(conjunct)
        ):
            a_attrs = attributes_of(conjunct.left)
            b_attrs = attributes_of(conjunct.right)
            if a_attrs <= left_attrs and b_attrs <= right_attrs:
                left_keys.append(conjunct.left)
                right_keys.append(conjunct.right)
                continue
            if a_attrs <= right_attrs and b_attrs <= left_attrs:
                left_keys.append(conjunct.right)
                right_keys.append(conjunct.left)
                continue
        residual.append(conjunct)
    if residual:
        return tuple(left_keys), tuple(right_keys), and_(*residual)
    return tuple(left_keys), tuple(right_keys), None


def _null_free(key: tuple) -> bool:
    """Whether a join key can match at all under ``=`` semantics.

    NULL keys never match (2VL), and neither do NaN keys: the
    interpreter evaluates ``nan == nan`` to False, while a dict probe
    would match the same NaN *object* via the identity fast path — so
    both are excluded from the build table.
    """
    for value in key:
        if value is None or value != value:
            return False
    return True


def _compile(
    op: Operator, db_schemas: Mapping[str, Schema]
) -> tuple[Schema, RowSource, bool]:
    """Recursive lowering; returns (schema, row source, uses_hash_join)."""
    if isinstance(op, RelScan):
        schema = output_schema(op, dict(db_schemas))
        name = op.name

        def scan(db: Any) -> Iterable[tuple]:
            return iter(db[name].tuples)

        return schema, scan, False

    if isinstance(op, Singleton):
        row = op.row

        def singleton(db: Any) -> Iterable[tuple]:
            return iter((row,))

        return op.schema, singleton, False

    if isinstance(op, Select):
        child_schema, child, child_hash = _compile(op.input, db_schemas)
        predicate = compile_predicate(op.condition, child_schema)

        def select(db: Any) -> Iterable[tuple]:
            return filter(predicate, child(db))

        return child_schema, select, child_hash

    if isinstance(op, Project):
        child_schema, child, child_hash = _compile(op.input, db_schemas)
        out_schema = Schema(tuple(name for _, name in op.outputs))
        row_fn = compile_row(tuple(expr for expr, _ in op.outputs), child_schema)

        def project(db: Any) -> Iterable[tuple]:
            return map(row_fn, child(db))

        return out_schema, project, child_hash

    if isinstance(op, Union):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        check_union_compatible(left_schema, right_schema, "union")

        def union(db: Any) -> Iterator[tuple]:
            seen = set()
            add = seen.add
            for row in left(db):
                if row not in seen:
                    add(row)
                    yield row
            for row in right(db):
                if row not in seen:
                    add(row)
                    yield row

        return left_schema, union, lh or rh

    if isinstance(op, Difference):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        check_union_compatible(left_schema, right_schema, "difference")

        def difference(db: Any) -> Iterator[tuple]:
            removed = set(right(db))
            for row in left(db):
                if row not in removed:
                    yield row

        return left_schema, difference, lh or rh

    if isinstance(op, Join):
        left_schema, left, lh = _compile(op.left, db_schemas)
        right_schema, right, rh = _compile(op.right, db_schemas)
        schema = left_schema.concat(right_schema)
        left_keys, right_keys, residual_expr = split_equijoin_condition(
            op.condition, left_schema, right_schema
        )
        residual = (
            compile_predicate(residual_expr, schema)
            if residual_expr is not None and residual_expr != TRUE
            else None
        )

        if left_keys:
            left_key = compile_row(left_keys, left_schema)
            right_key = compile_row(right_keys, right_schema)

            def hash_join(db: Any) -> Iterator[tuple]:
                table: dict[tuple, list[tuple]] = {}
                setdefault = table.setdefault
                for row in right(db):
                    key = right_key(row)
                    if _null_free(key):
                        setdefault(key, []).append(row)
                get = table.get
                for lrow in left(db):
                    # A probe key containing NULL can never equal a stored
                    # key (those are all NULL-free), so no explicit check.
                    matches = get(left_key(lrow))
                    if matches is None:
                        continue
                    if residual is None:
                        for rrow in matches:
                            yield lrow + rrow
                    else:
                        for rrow in matches:
                            combined = lrow + rrow
                            if residual(combined):
                                yield combined

            return schema, hash_join, True

        def nested_loop_join(db: Any) -> Iterator[tuple]:
            build = list(right(db))
            for lrow in left(db):
                if residual is None:
                    for rrow in build:
                        yield lrow + rrow
                else:
                    for rrow in build:
                        combined = lrow + rrow
                        if residual(combined):
                            yield combined

        return schema, nested_loop_join, lh or rh

    raise TypeError(f"unknown operator {op!r}")


def _schemas_key(
    op: Operator, db_schemas: Mapping[str, Schema]
) -> tuple[tuple[str, Schema], ...]:
    """The part of ``db_schemas`` this plan's compilation depends on."""
    return tuple(
        sorted(
            (name, db_schemas[name])
            for name in base_relations(op)
            if name in db_schemas
        )
    )


@lru_cache(maxsize=1024)
def _compile_plan_cached(
    op: Operator,
    schemas_key: tuple[tuple[str, Schema], ...],
    fingerprint: tuple[str, ...],
) -> CompiledPlan:
    schemas = dict(schemas_key)
    schema, source, uses_hash_join = _compile(op, schemas)
    return CompiledPlan(schema, op, schemas_key, source, uses_hash_join)


def compile_plan(
    op: Operator, db_schemas: Mapping[str, Schema]
) -> CompiledPlan:
    """Compile (with caching) an operator tree against base schemas.

    The cache key is the operator tree plus the schemas of exactly the
    base relations it scans, so plans survive across databases with the
    same layout (the engine's repeated-trial hot path).
    """
    key = _schemas_key(op, db_schemas)
    try:
        return _compile_plan_cached(op, key, plan_fingerprint(op))
    except TypeError:  # unhashable constant inside the tree
        schema, source, uses_hash_join = _compile(op, dict(db_schemas))
        return CompiledPlan(schema, op, key, source, uses_hash_join)


def execute_plan(op: Operator, db: Any) -> Relation:
    """Compile-and-run convenience used by ``evaluate_query``."""
    names = base_relations(op)
    schemas: dict[str, Schema] = {}
    for name in names:
        if name not in db:
            raise SchemaError(f"no relation named {name!r}")
        schemas[name] = db.schema_of(name)
    return compile_plan(op, schemas).execute(db)


def clear_plan_cache() -> None:
    _compile_plan_cached.cache_clear()


def plan_cache_info():
    return _compile_plan_cached.cache_info()
