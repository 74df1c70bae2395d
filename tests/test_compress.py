"""Database compression tests (Section 8.3.1).

The key invariant (used by Theorem 4): every tuple of the input relation
satisfies Φ_D, i.e. the compressed worlds over-approximate the database.
"""

import json
import random

import pytest

from repro import Relation, Schema
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.relational.expressions import TRUE, disjuncts_of, evaluate, variables_of
from repro.symbolic.compress import (
    CompressionConfig,
    compress_relation,
    constraint_admits_all,
)
from repro.symbolic.vctable import SymbolicTuple

SCHEMA = Schema.of("Country", "ID", "Price", "Fee")

ROWS = [
    ("UK", 11, 20, 5),
    ("UK", 12, 50, 5),
    ("US", 13, 60, 3),
    ("US", 14, 30, 4),
]


@pytest.fixture
def relation():
    return Relation.from_rows(SCHEMA, ROWS)


@pytest.fixture
def symbolic_tuple():
    return SymbolicTuple.fresh(SCHEMA, prefix="x")


class TestCompression:
    def test_single_group_ranges(self, relation, symbolic_tuple):
        phi = compress_relation(relation, symbolic_tuple)
        # the box [20..60] x [3..5] with countries {UK, US}
        assert evaluate(
            phi, {"x_Country": "UK", "x_ID": 11, "x_Price": 20, "x_Fee": 5}
        )
        assert not evaluate(
            phi, {"x_Country": "UK", "x_ID": 11, "x_Price": 500, "x_Fee": 5}
        )

    def test_soundness_invariant(self, relation, symbolic_tuple):
        for config in (
            CompressionConfig(),
            CompressionConfig(group_by="Country"),
            CompressionConfig(group_by="Price", num_groups=2),
            CompressionConfig(group_by="Price", num_groups=4),
        ):
            phi = compress_relation(relation, symbolic_tuple, config)
            assert constraint_admits_all(phi, relation, symbolic_tuple)

    def test_paper_example7_group_by_country(self, relation, symbolic_tuple):
        """Example 7: grouping on Country yields two disjuncts with the
        ranges Price∈[20,50] (UK) and Price∈[30,60] (US)."""
        phi = compress_relation(
            relation, symbolic_tuple, CompressionConfig(group_by="Country")
        )
        groups = disjuncts_of(phi)
        assert len(groups) == 2
        # UK group admits price 35, US group does not admit price 20
        uk = {"x_Country": "UK", "x_ID": 11, "x_Price": 35, "x_Fee": 5}
        assert evaluate(phi, uk)
        bad_us = {"x_Country": "US", "x_ID": 13, "x_Price": 20, "x_Fee": 3}
        assert not evaluate(phi, bad_us)

    def test_tighter_than_single_box(self, relation, symbolic_tuple):
        """Grouping excludes worlds the single box admits."""
        box = compress_relation(relation, symbolic_tuple)
        grouped = compress_relation(
            relation, symbolic_tuple, CompressionConfig(group_by="Country")
        )
        # (US, price 25) is inside the box but outside the US group range
        world = {"x_Country": "US", "x_ID": 13, "x_Price": 25, "x_Fee": 4}
        assert evaluate(box, world)
        assert not evaluate(grouped, world)

    def test_numeric_group_by_quantiles(self, relation, symbolic_tuple):
        phi = compress_relation(
            relation,
            symbolic_tuple,
            CompressionConfig(group_by="Price", num_groups=2),
        )
        assert len(disjuncts_of(phi)) == 2
        assert constraint_admits_all(phi, relation, symbolic_tuple)

    def test_empty_relation_compresses_to_true(self, symbolic_tuple):
        phi = compress_relation(Relation.empty(SCHEMA), symbolic_tuple)
        assert phi == TRUE

    def test_high_cardinality_strings_omitted(self, symbolic_tuple):
        rows = [(f"company-{i}", i, i, i) for i in range(50)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(
            relation, symbolic_tuple, CompressionConfig(max_distinct=10)
        )
        # Country must be unconstrained: any string value admitted
        assert evaluate(
            phi, {"x_Country": "unseen", "x_ID": 5, "x_Price": 5, "x_Fee": 5}
        )

    def test_constant_attribute_becomes_equality(self, symbolic_tuple):
        rows = [("UK", 1, 7, 7), ("UK", 2, 7, 9)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(relation, symbolic_tuple)
        assert not evaluate(
            phi, {"x_Country": "UK", "x_ID": 1, "x_Price": 8, "x_Fee": 8}
        )

    def test_null_values_skipped(self, symbolic_tuple):
        rows = [("UK", 1, None, 5), ("US", 2, 30, None)]
        relation = Relation.from_rows(SCHEMA, rows)
        phi = compress_relation(relation, symbolic_tuple)
        # price constrained by the single non-null value
        assert evaluate(
            phi, {"x_Country": "UK", "x_ID": 1, "x_Price": 30, "x_Fee": 5}
        )

    def test_nan_attribute_omitted_whatever_the_row_order(self):
        """min/max over a column holding NaN depend on row order; Φ_D
        leaves such an attribute out, so it is the same for every order
        and still admits every row (Theorem 4's superset property)."""
        schema = Schema.of("a", "b")
        symbolic = SymbolicTuple.fresh(schema, prefix="x")
        phis = set()
        for seed in range(8):
            # fresh NaN objects hash by identity: each build iterates
            # its rows in a different order
            rows = [(float("nan"), 1), (1.0, 2), (-3.5, 2), (float("nan"), 4)]
            random.Random(seed).shuffle(rows)
            relation = Relation.from_rows(schema, rows)
            phi = compress_relation(relation, symbolic)
            assert constraint_admits_all(phi, relation, symbolic)
            phis.add(phi)
        assert len(phis) == 1
        (phi,) = phis
        assert variables_of(phi) == {"x_b"}

    def test_nan_only_pair_admits_both_rows(self):
        schema = Schema.of("a")
        symbolic = SymbolicTuple.fresh(schema, prefix="x")
        for rows in ([(float("nan"),), (1.0,)], [(1.0,), (float("nan"),)]):
            relation = Relation.from_rows(schema, rows)
            phi = compress_relation(relation, symbolic)
            assert phi == TRUE
            assert constraint_admits_all(phi, relation, symbolic)


class TestCompressionObservability:
    @pytest.fixture(autouse=True)
    def _tracing_reset(self):
        yield
        trace.configure_tracing(None)

    def test_one_span_per_relation_with_rows_and_outcome(
        self, relation, symbolic_tuple
    ):
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            compress_relation(relation, symbolic_tuple)
            compress_relation(relation, symbolic_tuple)
        spans = [json.loads(line) for line in lines]
        compress = [s for s in spans if s["name"] == "compress"]
        assert [s["attributes"] for s in compress] == [
            {"rows": 4, "outcome": "miss"},
            {"rows": 4, "outcome": "hit"},
        ]

    def test_counter_by_outcome(self, relation, symbolic_tuple):
        counter = global_registry().counter(
            "mahif_compress_total", "", ("outcome",)
        )
        hits, misses = counter.value(outcome="hit"), counter.value(
            outcome="miss"
        )
        for _ in range(3):
            compress_relation(relation, symbolic_tuple)
        assert counter.value(outcome="miss") == misses + 1
        assert counter.value(outcome="hit") == hits + 2
        assert "mahif_compress_total{outcome=\"hit\"}" in (
            global_registry().render()
        )
