"""Query optimizer tests: every rewrite must preserve results."""

import pytest

from repro import Database, History, Relation, Schema
from repro.core.reenactment import reenactment_query
from repro.relational.algebra import (
    Project,
    RelScan,
    Select,
    Singleton,
    Union,
    evaluate_query,
    operator_count,
)
from repro.relational.expressions import (
    FALSE,
    TRUE,
    and_,
    col,
    ge,
    if_,
    le,
    lit,
)
from repro.relational import expressions
from repro.relational.optimizer import OptimizerConfig, optimize
from repro.relational.statements import UpdateStatement
from repro.workloads import WorkloadSpec, build_workload

SCHEMA = Schema.of("k", "v")


@pytest.fixture
def db():
    return Database(
        {"R": Relation.from_rows(SCHEMA, [(i, i * 10) for i in range(1, 9)])}
    )


def assert_equivalent(query, db, config=None):
    optimized = optimize(query, config)
    assert set(evaluate_query(optimized, db)) == set(
        evaluate_query(query, db)
    )
    return optimized


class TestRules:
    def test_merge_projections(self, db):
        inner = Project(RelScan("R"), ((col("k"), "k"), (col("v") + 1, "v")))
        outer = Project(inner, ((col("k"), "k"), (col("v") * 2, "v")))
        optimized = assert_equivalent(outer, db)
        assert operator_count(optimized) == 2  # one projection + scan

    def test_merge_respects_size_budget(self, db):
        inner = Project(RelScan("R"), ((col("k"), "k"), (col("v") + 1, "v")))
        outer = Project(inner, ((col("k"), "k"), (col("v") * 2, "v")))
        tiny = OptimizerConfig(max_expression_size=2)
        optimized = assert_equivalent(outer, db, tiny)
        assert operator_count(optimized) == 3  # left stacked

    def test_fuse_selections(self, db):
        query = Select(Select(RelScan("R"), ge(col("v"), 20)), le(col("v"), 50))
        optimized = assert_equivalent(query, db)
        assert operator_count(optimized) == 2

    def test_push_selection_through_projection(self, db):
        query = Select(
            Project(RelScan("R"), ((col("k"), "k"), (col("v") + 5, "v"))),
            ge(col("v"), 30),
        )
        optimized = assert_equivalent(query, db)
        # the selection must now sit below the projection
        assert isinstance(optimized, Project)
        assert isinstance(optimized.input, Select)

    def test_push_selection_through_union(self, db):
        query = Select(
            Union(RelScan("R"), RelScan("R")), ge(col("v"), 40)
        )
        optimized = assert_equivalent(query, db)
        assert isinstance(optimized, Union)

    def test_sigma_true_removed(self, db):
        query = Select(RelScan("R"), TRUE)
        assert optimize(query) == RelScan("R")

    def test_empty_union_side_pruned(self, db):
        query = Union(
            Select(RelScan("R"), FALSE),
            RelScan("R"),
        )
        optimized = assert_equivalent(query, db)
        assert optimized == RelScan("R")

    def test_singleton_union_kept(self, db):
        query = Union(RelScan("R"), Singleton(SCHEMA, (99, 990)))
        optimized = assert_equivalent(query, db)
        assert isinstance(optimized, Union)

    def test_identity_projection_collapsed(self, db):
        inner = Project(RelScan("R"), ((col("k"), "k"), (col("v") + 1, "v")))
        outer = Project(inner, ((col("k"), "k"), (col("v"), "v")))
        optimized = assert_equivalent(outer, db)
        assert operator_count(optimized) == 2

    def test_condition_simplified(self, db):
        query = Select(RelScan("R"), and_(ge(col("v"), 20), TRUE))
        optimized = optimize(query)
        assert optimized == Select(RelScan("R"), ge(col("v"), 20))


class TestReenactmentStacks:
    def make_history(self, n):
        statements = [
            UpdateStatement(
                "R", {"v": col("v") + 1}, ge(col("v"), i * 10)
            )
            for i in range(n)
        ]
        return History(tuple(statements))

    def test_projection_stack_partially_collapses(self, db):
        """Self-referencing CASE chains merge only while the growth
        budget allows (see the optimizer docstring); the stack must
        shrink but full collapse would blow the expression up 2^U-fold."""
        history = self.make_history(6)
        query = reenactment_query(history, "R", {"R": SCHEMA})
        assert operator_count(query) == 7
        optimized = assert_equivalent(query, db)
        assert operator_count(optimized) < 7

    def test_non_self_referencing_stack_fully_collapses(self, db):
        """Projections whose outputs reference each attribute once merge
        all the way down."""
        statements = [
            UpdateStatement("R", {"v": col("k") + i}, ge(col("k"), 0))
            for i in range(5)
        ]
        query = reenactment_query(
            History(tuple(statements)), "R", {"R": SCHEMA}
        )
        optimized = assert_equivalent(query, db)
        assert operator_count(optimized) == 2

    def test_deep_stack_equivalence(self, db):
        history = self.make_history(12)
        query = reenactment_query(history, "R", {"R": SCHEMA})
        assert_equivalent(query, db)

    def test_engine_optimization_flag(self, db):
        """The engine produces identical deltas with and without the
        optimizer."""
        from repro.core import (
            HistoricalWhatIfQuery,
            Mahif,
            MahifConfig,
            Method,
            Replace,
        )

        history = self.make_history(5)
        query = HistoricalWhatIfQuery(
            history,
            db,
            (Replace(1, UpdateStatement("R", {"v": col("v") + 2},
                                        ge(col("v"), 0))),),
        )
        plain = Mahif(MahifConfig(optimize_queries=False)).answer(
            query, Method.R
        )
        optimized = Mahif(MahifConfig(optimize_queries=True)).answer(
            query, Method.R
        )
        assert plain.delta == optimized.delta


class TestWorkBound:
    """Deterministic guard against re-simplifying whole trees at every
    projection merge: count ``_simplify_node`` calls, not time."""

    def _simplify_calls(self, monkeypatch, updates):
        workload = build_workload(
            WorkloadSpec(dataset="taxi", rows=200, updates=updates, seed=42)
        )
        schemas = {
            name: workload.database.schema_of(name)
            for name in workload.database.relations
        }
        query = reenactment_query(workload.history, "data", schemas)
        calls = 0
        original = expressions._simplify_node

        def counting(expr):
            nonlocal calls
            calls += 1
            return original(expr)

        with monkeypatch.context() as patch:
            patch.setattr(expressions, "_simplify_node", counting)
            optimize(query)
        return calls

    def test_simplify_calls_bounded(self, monkeypatch):
        at_40 = self._simplify_calls(monkeypatch, 40)
        at_80 = self._simplify_calls(monkeypatch, 80)
        # The fixpoint-loop simplifier made 60,008 calls at U=80.
        assert at_80 <= 6_000
        assert at_80 <= 2.2 * at_40
