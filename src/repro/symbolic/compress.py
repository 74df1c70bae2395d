"""Database compression into range constraints (Section 8.3.1).

The input database is (lossily) compressed into a disjunction of
conjunctions of range constraints Φ_D over the single-tuple variables:
rows are partitioned into groups (by a chosen attribute, or quantile
buckets of a numeric attribute), and each group contributes one conjunct
per attribute bounding the variable by the group's min/max (numeric) or by
a small IN-set (categorical).  Every tuple of the relation satisfies Φ_D,
so the possible worlds of the compressed VC-database are a *superset* of
the database — the property Theorem 4's proof relies on.

Attributes with unordered (string) domains of high cardinality are simply
omitted from the constraint, as the paper prescribes; so are attributes
with mixed types and numeric attributes containing NaN (whose min/max
would depend on row order).

Φ_D is built in two steps.  :func:`summarize_columns` makes one pass over
the relation's columns and returns a small :data:`ColumnSummary`: per
group, per attribute, a :class:`NumericRange`, the sorted distinct
strings, or ``None``.  The summary is computed once per relation object
and config and kept on the relation (see DESIGN.md "Φ_D compression");
:func:`compress_relation` then turns it into an ``Expr`` over the
caller's symbolic tuple in O(groups × attributes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..obs import trace
from ..obs.metrics import global_registry
from ..relational.expressions import (
    Expr,
    TRUE,
    and_,
    eq,
    ge,
    le,
    or_,
)
from ..relational.relation import Relation
from ..relational.schema import Schema
from .vctable import SymbolicTuple

__all__ = [
    "ColumnSummary",
    "CompressionConfig",
    "NumericRange",
    "compress_relation",
    "constraint_admits_all",
    "summarize_columns",
]

#: Above this many distinct strings an attribute is left unconstrained.
DEFAULT_MAX_DISTINCT = 12


@dataclass(frozen=True)
class CompressionConfig:
    """How to compress one relation.

    ``group_by``: attribute to partition on (``None`` = single group).
    ``num_groups``: for numeric group-by attributes, the number of
    quantile buckets; categorical group-by uses one group per value.
    ``max_distinct``: categorical attributes with more distinct values
    than this are omitted from the constraint.
    """

    group_by: str | None = None
    num_groups: int = 2
    max_distinct: int = DEFAULT_MAX_DISTINCT


@dataclass(frozen=True, slots=True)
class NumericRange:
    """The ``[low, high]`` bounds of a NaN-free numeric attribute."""

    low: Any
    high: Any


#: What Φ_D knows of one attribute within one group: its numeric range,
#: its sorted distinct strings, or nothing (``None``: left out of Φ_D).
Bound = NumericRange | tuple[str, ...] | None

#: One tuple of per-attribute bounds (in schema order) per group; the
#: empty tuple for an empty relation.
ColumnSummary = tuple[tuple[Bound, ...], ...]

_COMPRESSIONS = global_registry().counter(
    "mahif_compress_total",
    "Φ_D compressions by whether the relation's column summary was "
    "already computed (hit) or had to be (miss).",
    ("outcome",),
)


def compress_relation(
    relation: Relation,
    symbolic_tuple: SymbolicTuple,
    config: CompressionConfig | None = None,
) -> Expr:
    """Compress ``relation`` into a constraint over ``symbolic_tuple``.

    Returns Φ_D: a disjunction with one disjunct per group.  An empty
    relation compresses to ``TRUE`` (no information, all worlds possible —
    still a safe over-approximation).

    The column summary is computed on the first call for a relation
    object and config and reused afterwards.  Two threads filling it at
    once both compute the same value; the later write wins, harmlessly.
    """
    config = config or CompressionConfig()
    with trace.span("compress", rows=len(relation)) as span:
        summaries = relation._column_summaries or {}
        summary = summaries.get(config)
        outcome = "miss" if summary is None else "hit"
        if summary is None:
            summary = summarize_columns(relation, config)
            object.__setattr__(
                relation, "_column_summaries", {**summaries, config: summary}
            )
        span.set_attribute("outcome", outcome)
        _COMPRESSIONS.inc(outcome=outcome)
        return _constraint(summary, relation.schema, symbolic_tuple)


def summarize_columns(
    relation: Relation, config: CompressionConfig
) -> ColumnSummary:
    """One pass over the columns of each group of ``relation``."""
    return tuple(
        tuple(_bound(column, config.max_distinct) for column in zip(*group))
        for group in _groups(relation, config)
    )


def _groups(
    relation: Relation, config: CompressionConfig
) -> list[Iterable[tuple[Any, ...]]]:
    """Split the rows into groups per the configuration."""
    rows = relation.tuples
    if not rows:
        return []
    if config.group_by is None:
        return [rows]
    index = relation.schema.index_of(config.group_by)
    sample = next(iter(rows))[index]
    if isinstance(sample, (str, bool)):
        buckets: dict[Any, list[tuple[Any, ...]]] = {}
        for row in rows:
            buckets.setdefault(row[index], []).append(row)
        return list(buckets.values())
    # numeric group-by: quantile buckets
    ordered = sorted(rows, key=lambda r: (r[index] is None, r[index]))
    n = max(1, config.num_groups)
    size = max(1, (len(ordered) + n - 1) // n)
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]


def _bound(column: Sequence[Any], max_distinct: int) -> Bound:
    """What Φ_D may say about one attribute, from its non-NULL values."""
    kinds = set(map(type, column))
    if type(None) in kinds:
        kinds.discard(type(None))
        column = [v for v in column if v is not None]
        if not column:
            return None
    if all(
        issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds
    ):
        if any(issubclass(k, float) for k in kinds) and any(
            v != v for v in column
        ):
            # min/max over NaN depend on row order; omitting is sound
            return None
        return NumericRange(min(column), max(column))
    if all(issubclass(k, str) for k in kinds):
        distinct = set(column)
        if len(distinct) <= max_distinct:
            return tuple(sorted(distinct))
        # else: unordered high-cardinality attribute — omit (paper)
    # mixed-type / boolean attributes: omit, still sound
    return None


def _constraint(
    summary: ColumnSummary, schema: Schema, symbolic_tuple: SymbolicTuple
) -> Expr:
    """Φ_D over ``symbolic_tuple``: one conjunction per group, or'ed."""
    disjuncts: list[Expr] = []
    for group in summary:
        conjuncts: list[Expr] = []
        for attribute, bound in zip(schema, group):
            if bound is None:
                continue
            var = symbolic_tuple[attribute]
            if isinstance(bound, NumericRange):
                if bound.low == bound.high:
                    conjuncts.append(eq(var, bound.low))
                else:
                    conjuncts.append(
                        and_(ge(var, bound.low), le(var, bound.high))
                    )
            else:
                conjuncts.append(or_(*[eq(var, v) for v in bound]))
        disjuncts.append(and_(*conjuncts) if conjuncts else TRUE)
    return or_(*disjuncts) if disjuncts else TRUE


def constraint_admits_all(
    constraint: Expr, relation: Relation, symbolic_tuple: SymbolicTuple
) -> bool:
    """Check the soundness invariant: every tuple of the relation, read as
    an assignment of the symbolic variables, satisfies Φ_D.  Used by tests
    and available for debugging compressed workloads."""
    from ..relational.expressions import evaluate, Var

    for row in relation.rows_as_dicts():
        assignment = {}
        for attribute, expr in symbolic_tuple.values.items():
            if isinstance(expr, Var):
                assignment[expr.name] = row[attribute]
        if not bool(evaluate(constraint, assignment)):
            return False
    return True
