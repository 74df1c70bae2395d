"""The Φ_D column summary: differential against the dict-per-row
compression it replaced, per-relation ownership, and compute counts.

``_reference_compress`` is the earlier algorithm, kept here verbatim in
behaviour: one dict per row, then min/max (or the sorted distinct
strings) per attribute and group.  On NaN-free relations the summary
path must build an ``==`` Φ_D for every config, and the slicers must
keep the same statement positions.
"""

from __future__ import annotations

import pytest

from fuzz_differential import fresh_rng, random_hwq, random_relation, scaled
from repro import Database, History, Relation, Schema
from repro.core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method, Replace
from repro.relational.expressions import (
    TRUE,
    and_,
    col,
    eq,
    ge,
    le,
    lit,
    or_,
)
from repro.relational.statements import UpdateStatement
from repro.symbolic import compress
from repro.symbolic.compress import CompressionConfig, compress_relation
from repro.symbolic.vctable import SymbolicTuple

CONFIGS = (
    CompressionConfig(),
    CompressionConfig(group_by="c0"),
    CompressionConfig(group_by="k", num_groups=2),
    CompressionConfig(group_by="k", num_groups=4),
    CompressionConfig(max_distinct=2),
)


def _reference_compress(relation, symbolic_tuple, config=None):
    config = config or CompressionConfig()
    rows = [relation.schema.as_dict(t) for t in relation]
    if not rows:
        return TRUE
    if config.group_by is None:
        groups = [rows]
    else:
        attribute = config.group_by
        sample = rows[0].get(attribute)
        if isinstance(sample, (str, bool)):
            buckets = {}
            for row in rows:
                buckets.setdefault(row[attribute], []).append(row)
            groups = list(buckets.values())
        else:
            ordered = sorted(
                rows, key=lambda r: (r[attribute] is None, r[attribute])
            )
            n = max(1, config.num_groups)
            size = max(1, (len(ordered) + n - 1) // n)
            groups = [
                ordered[i : i + size] for i in range(0, len(ordered), size)
            ]
    disjuncts = []
    for group in groups:
        conjuncts = []
        for attribute in relation.schema:
            var = symbolic_tuple[attribute]
            values = [r[attribute] for r in group if r[attribute] is not None]
            if not values:
                continue
            if all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values
            ):
                low, high = min(values), max(values)
                if low == high:
                    conjuncts.append(eq(var, low))
                else:
                    conjuncts.append(and_(ge(var, low), le(var, high)))
            elif all(isinstance(v, str) for v in values):
                distinct = sorted(set(values))
                if len(distinct) <= config.max_distinct:
                    conjuncts.append(or_(*[eq(var, v) for v in distinct]))
        disjuncts.append(and_(*conjuncts) if conjuncts else TRUE)
    return or_(*disjuncts) if disjuncts else TRUE


SCHEMA = Schema(("k", "c0", "c1", "c2", "c3"))
TYPES = ("int", "str", "float", "bool", "int")


def _relations():
    rng = fresh_rng(offset=71)
    for rows in (1, 2, 5, 12, 40):
        for _ in range(4):
            yield random_relation(rng, SCHEMA, TYPES, rows)
    # a column mixing ints and floats, and one of only NULLs
    yield Relation.from_rows(
        SCHEMA, [(0, "a", 1, None, 2.5), (1, "b", 2.0, None, 3)]
    )
    yield Relation.empty(SCHEMA)


class TestDifferential:
    @pytest.mark.parametrize("config", CONFIGS, ids=repr)
    def test_phi_matches_reference(self, config):
        symbolic = SymbolicTuple.fresh(SCHEMA, prefix="x")
        for relation in _relations():
            expected = _reference_compress(relation, symbolic, config)
            # first call computes the summary, the second reuses it
            assert compress_relation(relation, symbolic, config) == expected
            assert compress_relation(relation, symbolic, config) == expected

    def test_summary_shared_across_symbolic_tuples(self):
        relation = next(iter(_relations()))
        for prefix in ("dep_R", "in_R"):
            symbolic = SymbolicTuple.fresh(SCHEMA, prefix=prefix)
            assert compress_relation(relation, symbolic) == (
                _reference_compress(relation, symbolic)
            )
        assert list(relation._column_summaries) == [CompressionConfig()]

    def test_summary_invisible_to_equality_hash_and_repr(self):
        rows = [(1, "a", 1.5, True, 2)]
        summarized = Relation.from_rows(SCHEMA, rows)
        plain = Relation.from_rows(SCHEMA, rows)
        before = repr(summarized)
        compress_relation(summarized, SymbolicTuple.fresh(SCHEMA, "x"))
        assert summarized._column_summaries
        assert summarized == plain and hash(summarized) == hash(plain)
        assert repr(summarized) == before == repr(plain)

    @pytest.mark.parametrize("algorithm", ["dependency", "greedy"])
    def test_kept_positions_match_reference(self, algorithm, monkeypatch):
        rng = fresh_rng(offset=72)
        queries = [random_hwq(rng) for _ in range(scaled(24))]
        engine = Mahif(MahifConfig(slicing_algorithm=algorithm))

        def kept():
            out = []
            for query in queries:
                result = engine.answer(query, Method.R_PS_DS).slice_result
                out.append(None if result is None else result.kept_positions)
            return out

        summary_path = kept()
        for module in ("dependency", "program_slicing"):
            monkeypatch.setattr(
                f"repro.core.{module}.compress_relation", _reference_compress
            )
        assert summary_path == kept()
        assert any(k is not None for k in summary_path)


class TestOwnership:
    def test_updated_relation_gets_its_own_summary(self):
        relation = Relation.from_rows(
            SCHEMA, [(1, "a", 1.0, True, 5), (2, "b", 2.0, False, 6)]
        )
        symbolic = SymbolicTuple.fresh(SCHEMA, prefix="x")
        before = compress_relation(relation, symbolic)
        parent_summaries = relation._column_summaries
        update = UpdateStatement("R", {"c3": lit(50)}, ge(col("k"), 2))
        child = update.apply(Database({"R": relation}))["R"]
        assert child is not relation
        assert child._column_summaries is None
        after = compress_relation(child, symbolic)
        assert after == _reference_compress(child, symbolic) != before
        assert child._column_summaries is not parent_summaries
        assert relation._column_summaries is parent_summaries
        assert compress_relation(relation, symbolic) == before


class TestComputeCounts:
    def test_twenty_answers_summarize_each_affected_relation_once(
        self, monkeypatch
    ):
        calls = []
        summarize = compress.summarize_columns

        def spy(relation, config):
            calls.append(relation)
            return summarize(relation, config)

        monkeypatch.setattr(compress, "summarize_columns", spy)
        schema = Schema.of("k", "P", "F")
        db = Database(
            {
                "R": Relation.from_rows(
                    schema, [(i, i * 10, 5) for i in range(1, 41)]
                ),
                "S": Relation.from_rows(
                    schema, [(i, i * 3, 1) for i in range(1, 21)]
                ),
                "T": Relation.from_rows(schema, [(1, 1, 1)]),
            }
        )
        history = History.of(
            UpdateStatement("R", {"F": lit(0)}, ge(col("P"), 200)),
            UpdateStatement("S", {"F": lit(2)}, ge(col("P"), 30)),
            UpdateStatement("R", {"F": col("F") + 1}, le(col("P"), 100)),
            UpdateStatement("S", {"F": col("F") * 2}, le(col("P"), 9)),
            UpdateStatement("T", {"F": lit(7)}, ge(col("P"), 0)),
        )
        engine = Mahif()
        for i in range(20):
            query = HistoricalWhatIfQuery(
                history,
                db,
                (
                    Replace(
                        1,
                        UpdateStatement(
                            "R", {"F": lit(i)}, ge(col("P"), 10 * i)
                        ),
                    ),
                    Replace(
                        2,
                        UpdateStatement(
                            "S", {"F": lit(i)}, ge(col("P"), 3 * i)
                        ),
                    ),
                ),
            )
            result = engine.answer(query, Method.R_PS_DS)
            assert result.slice_result is not None
        assert sorted(map(id, calls)) == sorted([id(db["R"]), id(db["S"])])
