"""Slow reference versions of the cached expression walks.

:func:`reference_simplify` is the fixpoint loop ``simplify`` used before it
became one cached bottom-up pass: it re-applies a plain bottom-up
``transform`` of ``_simplify_node`` until the tree stops changing, and it
never reads or writes the per-node caches.  :func:`reference_expr_size`
counts the nodes of a ``walk``.  Tests compare the library against these.
"""

from __future__ import annotations

from typing import Callable

from repro.relational import expressions
from repro.relational.expressions import Expr, children_of, walk

__all__ = ["reference_expr_size", "reference_simplify", "transform"]


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite: apply ``fn`` to each node after rewriting its
    children; ``fn`` returns a replacement node or ``None`` to keep it."""
    children = children_of(expr)
    if children:
        new_children = tuple(transform(c, fn) for c in children)
        if new_children != children:
            expr = expressions._rebuild(expr, new_children)
    replacement = fn(expr)
    return expr if replacement is None else replacement


def reference_simplify(expr: Expr) -> Expr:
    """Simplify to a fixpoint by repeated whole-tree passes."""
    previous: Expr | None = None
    current = expr
    while current != previous:
        previous = current
        current = transform(current, expressions._simplify_node)
    return current


def reference_expr_size(expr: Expr) -> int:
    """Number of nodes, by walking the whole tree."""
    return sum(1 for _ in walk(expr))
