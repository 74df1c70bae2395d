"""Batched what-if answering: ``answer_batch`` ≡ a sequential ``answer``
loop, across every method, backend, pool and sharing configuration.

The batch path amortizes time travel, reenactment planning and (with a
pool) delta evaluation — none of which may change a single delta.  The
matrix here is deterministic; the seeded-random counterpart (including
the set/bag batched-replay sweep) lives in
``tests/test_sql_backend_differential.py``.
"""

import pytest

from repro.core import (
    HistoricalWhatIfQuery,
    Mahif,
    MahifConfig,
    Method,
    Replace,
)
from repro.relational import Database, History, Relation, Schema, parse_statement
from repro.relational.expressions import Attr, Cmp, Const, col, ge, gt
from repro.relational.statements import (
    DeleteStatement,
    InsertTuple,
    UpdateStatement,
)

BACKENDS = ("interpreted", "compiled", "sqlite")


def _db() -> Database:
    return Database(
        {
            "Orders": Relation.from_rows(
                Schema.of("ID", "Price", "Fee"),
                [(1, 20, 5), (2, 50, 5), (3, 60, 3), (4, 30, 4), (5, 80, 2)],
            ),
            "Refunds": Relation.from_rows(
                Schema.of("ID", "Amount"), [(2, 10), (5, 3)]
            ),
        }
    )


def _history() -> History:
    return History.of(
        UpdateStatement("Orders", {"Fee": Const(0)}, ge(col("Price"), 50)),
        UpdateStatement(
            "Orders", {"Fee": Attr("Fee") + 1}, ge(col("Price"), 30)
        ),
        DeleteStatement("Refunds", gt(col("Amount"), 8)),
        UpdateStatement(
            "Orders", {"Price": Attr("Price") + 2}, gt(col("Fee"), 0)
        ),
        InsertTuple("Orders", (6, 45, 1)),
    )


def _batch(history: History, db: Database) -> list[HistoricalWhatIfQuery]:
    """Distinct what-ifs over one shared history: thresholds 55/65/75 for
    u1, plus one modification deeper in the history."""
    queries = [
        HistoricalWhatIfQuery(
            history,
            db,
            (
                Replace(
                    1,
                    UpdateStatement(
                        "Orders", {"Fee": Const(0)},
                        ge(col("Price"), threshold),
                    ),
                ),
            ),
        )
        for threshold in (55, 65, 75)
    ]
    queries.append(
        HistoricalWhatIfQuery(
            history,
            db,
            (
                Replace(
                    4,
                    UpdateStatement(
                        "Orders", {"Price": Attr("Price") + 5},
                        gt(col("Fee"), 0),
                    ),
                ),
            ),
        )
    )
    return queries


def _assert_batch_matches_sequential(config, queries, method):
    engine = Mahif(config)
    sequential = [engine.answer(query, method) for query in queries]
    batch = engine.answer_batch(queries, method)
    assert len(batch) == len(sequential)
    for seq, bat in zip(sequential, batch):
        assert bat.delta == seq.delta
        assert bat.method is method


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", list(Method))
    def test_every_method_every_backend(self, backend, method):
        _assert_batch_matches_sequential(
            MahifConfig(backend=backend),
            _batch(_history(), _db()),
            method,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_pool(self, backend):
        """Two workers: a thread pool for sqlite, processes otherwise."""
        config = MahifConfig(backend=backend, batch_workers=2)
        queries = _batch(_history(), _db())
        _assert_batch_matches_sequential(config, queries, Method.R_PS_DS)
        _assert_batch_matches_sequential(config, queries, Method.NAIVE)

    def test_plan_sharing_disabled(self):
        _assert_batch_matches_sequential(
            MahifConfig(batch_share_plans=False),
            _batch(_history(), _db()),
            Method.R_PS_DS,
        )

    def test_workers_argument_overrides_config(self):
        engine = Mahif(MahifConfig(batch_workers=0))
        queries = _batch(_history(), _db())
        sequential = [engine.answer(q, Method.R_PS_DS) for q in queries]
        batch = engine.answer_batch(queries, Method.R_PS_DS, workers=2)
        assert [r.delta for r in batch] == [r.delta for r in sequential]

    def test_mixed_databases_and_histories(self):
        """A batch need not share anything to stay correct."""
        db_a, db_b = _db(), _db()
        history = _history()
        other = History.of(*history.statements[:3])
        queries = [
            HistoricalWhatIfQuery(
                history, db_a,
                (Replace(1, parse_statement(
                    "UPDATE Orders SET Fee = 1 WHERE Price >= 50"
                )),),
            ),
            HistoricalWhatIfQuery(
                other, db_b,
                (Replace(3, DeleteStatement("Refunds", gt(col("Amount"), 1))),),
            ),
        ]
        _assert_batch_matches_sequential(
            MahifConfig(), queries, Method.R_PS_DS
        )

    def test_empty_batch(self):
        assert Mahif().answer_batch([]) == []

    def test_results_keep_input_order(self):
        queries = _batch(_history(), _db())
        engine = Mahif(MahifConfig())
        batch = engine.answer_batch(list(reversed(queries)), Method.R_PS_DS)
        sequential = [
            engine.answer(q, Method.R_PS_DS) for q in reversed(queries)
        ]
        assert [r.delta for r in batch] == [r.delta for r in sequential]


class TestSharedWork:
    def test_shared_time_travel_versions(self):
        """Queries modifying the same position share one start database,
        the version remembered on the query database."""
        db, history = _db(), _history()
        queries = _batch(history, db) + _batch(history, db)
        results = Mahif(MahifConfig()).answer_batch(queries, Method.R)
        starts = [result.base_database for result in results]
        # thresholds 55/65/75 all modify u1: prefix length 0 -> db itself
        assert starts[0] is db and starts[1] is db and starts[2] is db
        # the position-4 modification time-travels past u1..u3, once
        assert starts[3] is not db and starts[7] is starts[3]
        assert starts[3] is history.prefix(3).execute(db)
        fresh = _db()
        for stmt in history.prefix(3):
            fresh = stmt.apply(fresh)
        assert starts[3].relations == fresh.relations

    def test_identical_queries_share_plans(self):
        """Two equal queries hit the keyed plan cache: their results
        reference the same reenactment-tree mapping object."""
        db, history = _db(), _history()
        modification = (
            Replace(1, parse_statement(
                "UPDATE Orders SET Fee = 0 WHERE Price >= 65"
            )),
        )
        queries = [
            HistoricalWhatIfQuery(history, db, modification)
            for _ in range(2)
        ]
        results = Mahif(MahifConfig()).answer_batch(queries, Method.R_PS_DS)
        assert results[0].queries_original is results[1].queries_original
        assert results[0].delta == results[1].delta

    def test_plan_sharing_is_constant_type_faithful(self):
        """``SET Fee = 1`` and ``SET Fee = TRUE`` compare equal under
        dataclass equality but must not share reenactment trees — the
        projected values differ in type."""
        db, history = _db(), _history()
        queries = [
            HistoricalWhatIfQuery(
                history, db,
                (Replace(1, UpdateStatement(
                    "Orders", {"Fee": Const(value)}, ge(col("Price"), 50)
                )),),
            )
            for value in (1, True)
        ]
        engine = Mahif(MahifConfig(backend="interpreted"))
        results = engine.answer_batch(queries, Method.R)
        # Equal statements, different constant types: the share key's
        # fingerprint must keep them apart (tuple/set equality would not
        # catch a swap — ``1 == True`` — so tree identity is asserted).
        assert results[0].queries_original is not results[1].queries_original
        sequential = [engine.answer(q, Method.R) for q in queries]
        for seq, bat in zip(sequential, results):
            assert bat.delta == seq.delta

    def test_batch_workers_validated(self):
        with pytest.raises(ValueError, match="batch_workers"):
            MahifConfig(batch_workers=-1)

    def test_unhashable_constants_fall_back_to_no_sharing(self):
        """Statements embedding unhashable constants cannot key either
        shared cache; the batch must still answer (regression: the
        hash error used to escape from the time-travel version map)."""
        db = Database(
            {
                "R": Relation.from_rows(
                    Schema.of("a", "b"), [(1, 10), (2, 20), (3, 30)]
                )
            }
        )
        # The unhashable constant lives in a *condition* — it is only
        # evaluated (equality against it is False), never stored, so the
        # history itself replays fine; only cache keys over it can't hash.
        unhashable = DeleteStatement(
            "R", Cmp("=", col("b"), Const((9, [9])))
        )
        history = History.of(
            unhashable,
            DeleteStatement("R", gt(col("a"), 5)),
        )
        queries = [
            HistoricalWhatIfQuery(
                history, db,
                (Replace(2, DeleteStatement("R", gt(col("a"), limit))),),
            )
            for limit in (1, 2)
        ]
        engine = Mahif(MahifConfig(backend="interpreted"))
        sequential = [engine.answer(q, Method.R) for q in queries]
        batch = engine.answer_batch(queries, Method.R)
        assert [r.delta for r in batch] == [r.delta for r in sequential]
