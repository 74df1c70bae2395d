"""Differential NULL-soundness fuzz for the algebraic optimizer.

PR 2's three-way harness caught three NULL-unsound rewrites in
``expressions.simplify`` (``x = x -> TRUE``, ``x * 0 -> 0``,
NOT-comparison flipping); ``relational/optimizer.py`` composes those
expression rewrites with its own algebraic ones (projection merging,
selection fusion/pushdown, union pruning), each of which substitutes
expressions into expressions — exactly where 2VL NULL semantics breaks
naive identities.  This suite mirrors the PR 2 harness one level up:
random NULL-heavy databases, random operator trees (ad-hoc stacks and
real reenactment queries with injected data-slicing-style selections),
asserting ``eval(optimize(Q)) == eval(Q)`` on the interpreter (the
oracle) and the compiled backend.
"""

import random

import pytest

from expr_oracle import reference_expr_size, reference_simplify
from fuzz_differential import (
    fresh_rng,
    random_history,
    random_set_expression,
    random_typed_condition,
    random_typed_database,
    scaled,
)

import repro.relational.optimizer as optimizer_module
from repro.core.reenactment import reenactment_queries
from repro.relational import OptimizerConfig, optimize
from repro.relational.algebra import (
    Project,
    RelScan,
    Select,
    Union,
    evaluate_query,
    evaluate_query_interpreted,
    inject_selection,
)
from repro.relational.expressions import Attr, and_, ge, le
from repro.relational.statements import UpdateStatement
from repro.workloads import WorkloadSpec, build_workload

N_REENACT = 40
N_INJECTED = 40
N_ADHOC = 80

#: A second config that forces aggressive merging — the growth-aware
#: default can decline merges, which would leave rewrites untested.
AGGRESSIVE = OptimizerConfig(
    max_expression_size=100_000, growth_factor=1_000.0
)


def _assert_equivalent(op, db, label):
    expected = evaluate_query_interpreted(op, db)
    for config in (None, AGGRESSIVE):
        optimized = optimize(op, config)
        assert (
            evaluate_query_interpreted(optimized, db).tuples
            == expected.tuples
        ), f"{label}: optimizer changed the interpreted result"
        assert (
            evaluate_query(optimized, db, backend="compiled").tuples
            == expected.tuples
        ), f"{label}: optimizer changed the compiled result"


def _reenactment_corpus():
    """Real reenactment stacks (the optimizer's production input) over
    NULL-bearing relations."""
    rng = fresh_rng(offset=80)
    for trial in range(scaled(N_REENACT)):
        db, types_by_name = random_typed_database(rng, rows=10)
        history = random_history(rng, db, types_by_name)
        schemas = {name: db.schema_of(name) for name in db.relations}
        for relation, op in reenactment_queries(history, schemas).items():
            yield f"trial {trial} ({relation})", db, op


def _injected_corpus():
    """Data-slicing-shaped selections injected at the scans — the exact
    pipeline R+DS/R+PS+DS runs before optimizing."""
    rng = fresh_rng(offset=81)
    for trial in range(scaled(N_INJECTED)):
        db, types_by_name = random_typed_database(rng, rows=10)
        history = random_history(rng, db, types_by_name)
        schemas = {name: db.schema_of(name) for name in db.relations}
        conditions = {
            name: random_typed_condition(
                rng, db.schema_of(name), types_by_name[name]
            )
            for name in ("R", "S")
        }
        for relation, op in reenactment_queries(history, schemas).items():
            injected = inject_selection(op, dict(conditions))
            yield f"trial {trial} ({relation}, injected)", db, injected


def _adhoc_corpus():
    """Random stacks hitting every rewrite rule: selection fusion (σσ),
    pushdown through projections (σΠ) and unions (σ∪), and projection
    merging (ΠΠ) with NULL-producing outputs."""
    rng = fresh_rng(offset=82)
    for trial in range(scaled(N_ADHOC)):
        db, types_by_name = random_typed_database(rng, rows=10)
        schema = db.schema_of("R")
        types = types_by_name["R"]

        def random_project(inner):
            outputs = []
            for attribute in schema.attributes:
                if attribute != "k" and rng.random() < 0.5:
                    outputs.append(
                        (
                            random_set_expression(
                                rng, schema, types, attribute
                            ),
                            attribute,
                        )
                    )
                else:
                    outputs.append((Attr(attribute), attribute))
            return Project(inner, tuple(outputs))

        def random_tree(depth):
            if depth == 0:
                return RelScan("R")
            roll = rng.random()
            if roll < 0.4:
                return Select(
                    random_tree(depth - 1),
                    random_typed_condition(rng, schema, types),
                )
            if roll < 0.8:
                return random_project(random_tree(depth - 1))
            return Union(random_tree(depth - 1), random_tree(depth - 1))

        op = random_tree(rng.randint(2, 4))
        yield f"trial {trial} (ad-hoc)", db, op


def _taxi_corpus():
    """Reenactment queries of a taxi history (U=40) and of 20 seeded
    single-statement replacements of it: the lib-reenact shape."""
    workload = build_workload(
        WorkloadSpec(dataset="taxi", rows=300, updates=40, seed=11)
    )
    database = workload.database
    schemas = {name: database.schema_of(name) for name in database.relations}
    predicate = workload.predicate_attribute
    value = workload.value_attribute
    index = schemas["data"].index_of(predicate)
    values = sorted(row[index] for row in database.relations["data"])
    rng = random.Random(11)
    histories = [("original", workload.history)]
    for _ in range(20):
        position = rng.randint(1, len(workload.history))
        low, high = sorted(rng.sample(values, 2))
        replacement = UpdateStatement(
            "data",
            {value: Attr(value) + rng.choice([-2, -1, 1, 2, 3])},
            and_(ge(Attr(predicate), low), le(Attr(predicate), high)),
        )
        modified = workload.history.replace(position, replacement)
        histories.append((f"replace {position}", modified))
    for label, history in histories:
        for relation, op in reenactment_queries(history, schemas).items():
            yield f"taxi {label} ({relation})", database, op


class TestOptimizerNullSoundness:
    def test_reenactment_queries(self):
        for label, db, op in _reenactment_corpus():
            _assert_equivalent(op, db, label)

    def test_reenactment_with_injected_selections(self):
        for label, db, op in _injected_corpus():
            _assert_equivalent(op, db, label)

    def test_adhoc_select_project_union_stacks(self):
        for label, db, op in _adhoc_corpus():
            _assert_equivalent(op, db, label)


class TestPlanIdentity:
    """The cached one-pass ``simplify`` and ``expr_size`` must not change a
    single optimizer decision: every plan equals the one the optimizer
    builds with the slow reference walks (``expr_oracle``)."""

    @pytest.mark.parametrize(
        "corpus, configs",
        [
            # AGGRESSIVE would merge the taxi CASE chains 2^U-fold.
            (_taxi_corpus, (None,)),
            (_reenactment_corpus, (None, AGGRESSIVE)),
            (_injected_corpus, (None, AGGRESSIVE)),
            (_adhoc_corpus, (None, AGGRESSIVE)),
        ],
        ids=["taxi", "reenactment", "injected", "adhoc"],
    )
    def test_plans_match_reference_walks(self, corpus, configs, monkeypatch):
        cases = list(corpus())
        assert cases
        for config in configs:
            fast = [optimize(op, config) for _, _, op in cases]
            with monkeypatch.context() as patch:
                patch.setattr(
                    optimizer_module, "simplify", reference_simplify
                )
                patch.setattr(
                    optimizer_module, "expr_size", reference_expr_size
                )
                slow = [optimize(op, config) for _, _, op in cases]
            for (label, _, _), got, expected in zip(cases, fast, slow):
                # repr, not ==: Const(1) == Const(True) == Const(1.0)
                assert repr(got) == repr(expected), label


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
