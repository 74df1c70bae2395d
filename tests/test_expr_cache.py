"""The per-node expression caches against slow reference walks.

``simplify`` is one bottom-up pass that marks its result and returns
marked nodes at once; ``expr_size`` caches each node's size;
``substitute_attributes`` matches ``Attr`` nodes by name.  Each is
checked on seeded random trees against the reference in ``expr_oracle``
(the old fixpoint loop, a ``walk`` count, generic ``substitute``).  The
trees share subtrees and contain already-simplified parts, so cached
nodes meet uncached ones.
"""

import dataclasses
import pickle
import random

import pytest

from expr_oracle import reference_expr_size, reference_simplify

from repro.relational.expressions import (
    FALSE,
    TRUE,
    Arith,
    Attr,
    Cmp,
    Const,
    If,
    IsNull,
    Logic,
    Not,
    Var,
    expr_size,
    simplify,
    substitute,
    substitute_attributes,
    substitute_variables,
    walk,
)

N_TREES = 400
NAMES = ("a", "b", "c")


def _random_value(rng):
    return rng.choice([0, 1, 2, -1, 0.0, 1.0, 2.5, None, True, False])


class _TreeGen:
    """Seeded random expression trees.

    A pool of earlier subtrees is reused (as the same objects) so trees
    share nodes, and some pool entries are simplified first so a fresh
    tree can contain subtrees that already carry the caches.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.pool = []

    def _leaf(self):
        roll = self.rng.random()
        if roll < 0.35:
            return Const(_random_value(self.rng))
        if roll < 0.85:
            return Attr(self.rng.choice(NAMES))
        return Var(self.rng.choice(NAMES))

    def _remember(self, node):
        if self.rng.random() < 0.3:
            self.pool.append(
                simplify(node) if self.rng.random() < 0.5 else node
            )
        return node

    def value(self, depth):
        rng = self.rng
        if self.pool and rng.random() < 0.15:
            return rng.choice(self.pool)
        if depth == 0 or rng.random() < 0.2:
            return self._leaf()
        roll = rng.random()
        if roll < 0.55:
            left = self.value(depth - 1)
            right = left if rng.random() < 0.15 else self.value(depth - 1)
            node = Arith(rng.choice("+-*/"), left, right)
        elif roll < 0.8:
            node = If(
                self.condition(depth - 1),
                self.value(depth - 1),
                self.value(depth - 1),
            )
        else:
            return self._leaf()
        return self._remember(node)

    def condition(self, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.15:
            return rng.choice([TRUE, FALSE, Const(None)])
        roll = rng.random()
        if roll < 0.4:
            left = self.value(depth - 1)
            right = left if rng.random() < 0.2 else self.value(depth - 1)
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            node = Cmp(op, left, right)
        elif roll < 0.7:
            left = self.condition(depth - 1)
            right = left if rng.random() < 0.2 else self.condition(depth - 1)
            node = Logic(rng.choice(["and", "or"]), left, right)
        elif roll < 0.85:
            node = Not(self.condition(depth - 1))
        else:
            node = IsNull(self.value(depth - 1))
        return self._remember(node)

    def tree(self):
        depth = self.rng.randint(1, 6)
        if self.rng.random() < 0.5:
            return self.condition(depth)
        return self.value(depth)


def _trees(seed, n=N_TREES):
    gen = _TreeGen(seed)
    return [gen.tree() for _ in range(n)]


def _is_marked(node):
    try:
        return node._simple
    except AttributeError:
        return False


class TestSimplify:
    def test_matches_fixpoint_loop(self):
        for expr in _trees(seed=1):
            # repr, not ==: Const(1) == Const(True) == Const(1.0)
            assert repr(simplify(expr)) == repr(reference_simplify(expr))

    def test_idempotent_by_identity(self):
        for expr in _trees(seed=2):
            once = simplify(expr)
            assert simplify(once) is once
            assert all(_is_marked(node) for node in walk(once))

    def test_result_is_a_fixpoint_of_the_reference(self):
        for expr in _trees(seed=3):
            once = simplify(expr)
            assert repr(reference_simplify(once)) == repr(once)

    def test_unchanged_tree_keeps_its_objects(self):
        expr = Logic("and", Cmp("<", Attr("a"), Const(1)), IsNull(Attr("b")))
        assert simplify(expr) is expr


class TestExprSize:
    def test_matches_walk_count(self):
        for expr in _trees(seed=4):
            assert expr_size(expr) == reference_expr_size(expr)
            # the second call reads the cache
            assert expr_size(expr) == reference_expr_size(expr)

    def test_shared_subtree_counts_every_occurrence(self):
        shared = Arith("+", Attr("a"), Const(1))
        expr = Arith("*", shared, shared)
        assert expr_size(shared) == 3
        assert expr_size(expr) == 7


class TestSubstitute:
    def _mapping(self, rng, gen):
        names = rng.sample(NAMES, rng.randint(0, len(NAMES)))
        return {name: gen.value(2) for name in names}

    def test_attributes_match_generic_substitute(self):
        gen = _TreeGen(seed=5)
        rng = random.Random(5)
        for _ in range(N_TREES):
            expr = gen.tree()
            mapping = self._mapping(rng, gen)
            expected = substitute(
                expr, {Attr(name): repl for name, repl in mapping.items()}
            )
            assert repr(substitute_attributes(expr, mapping)) == repr(expected)

    def test_variables_match_generic_substitute(self):
        gen = _TreeGen(seed=6)
        rng = random.Random(6)
        for _ in range(N_TREES):
            expr = gen.tree()
            mapping = self._mapping(rng, gen)
            expected = substitute(
                expr, {Var(name): repl for name, repl in mapping.items()}
            )
            assert repr(substitute_variables(expr, mapping)) == repr(expected)

    def test_simultaneous_swap(self):
        expr = Arith("-", Attr("a"), Attr("b"))
        swapped = substitute_attributes(expr, {"a": Attr("b"), "b": Attr("a")})
        assert swapped == Arith("-", Attr("b"), Attr("a"))

    def test_untouched_subtrees_are_shared(self):
        untouched = Arith("+", Attr("c"), Const(2))
        expr = Arith("*", untouched, Attr("a"))
        result = substitute_attributes(expr, {"a": Const(3)})
        assert result.left is untouched
        assert substitute_attributes(expr, {"a": Attr("a")}) is expr


class TestCachesAreInvisible:
    def _cached_and_pristine(self, seed):
        """Pairs of equal trees: one with caches filled, one without."""
        for expr in _trees(seed, n=100):
            pristine = pickle.loads(pickle.dumps(expr))
            simplify(expr)
            expr_size(expr)
            yield expr, pristine

    def test_eq_hash_repr_ignore_caches(self):
        for cached, pristine in self._cached_and_pristine(seed=7):
            assert cached == pristine
            assert hash(cached) == hash(pristine)
            assert repr(cached) == repr(pristine)

    def test_caches_are_slots_not_fields(self):
        expr = Arith("+", Attr("a"), Const(1))
        simplify(expr)
        expr_size(expr)
        names = {f.name for f in dataclasses.fields(expr)}
        assert names == {"op", "left", "right"}
        assert not hasattr(expr, "__dict__")
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            expr._size = 1  # type: ignore[misc]

    def test_pickled_simplified_tree_round_trips(self):
        for expr in _trees(seed=8, n=100):
            simple = simplify(expr)
            expr_size(simple)
            restored = pickle.loads(pickle.dumps(simple))
            assert restored == simple
            assert repr(restored) == repr(simple)
            assert not _is_marked(restored)
            assert repr(simplify(restored)) == repr(simple)
            assert expr_size(restored) == reference_expr_size(simple)
