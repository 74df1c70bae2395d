"""Memoized time travel: ``History.execute`` remembers ``H(D)`` on ``D``.

Every remembered state must equal a fresh ``stmt.apply`` fold, type- and
sign-exact, on every backend, whatever order the prefixes are asked in;
keys must not alias statements that compare equal but write different
values (``1``/``True``, ``0.0``/``-0.0``); and the memo must stay
invisible to equality, ``repr`` and pickles, and bounded to one state per
distinct history executed on a database.
"""

import dataclasses
import json
import math
import pickle
import random
import sys
import threading

import pytest

from repro.core import HistoricalWhatIfQuery, Mahif, MahifConfig, Method, Replace
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.relational import Database, History, Relation, Schema, parse_statement
from repro.relational.exec.backend import use_backend
from repro.relational.expressions import Attr, Cmp, Const, col, ge, gt
from repro.relational.schema import SchemaError
from repro.relational.statements import DeleteStatement, UpdateStatement
from repro.service import WhatIfService
from fuzz_differential import (
    fresh_rng,
    random_history,
    random_typed_database,
    scaled,
)

BACKENDS = ("interpreted", "compiled", "vector", "sqlite")

_COUNTER = global_registry().counter("mahif_time_travel_total", "", ("outcome",))


@pytest.fixture(autouse=True)
def _tracing_reset():
    yield
    trace.configure_tracing(None)


def _exact(db: Database) -> dict:
    """Every value as ``(type, repr)``: ``1`` vs ``True`` and ``0.0`` vs
    ``-0.0`` compare equal, their reprs and types do not."""
    return {
        name: sorted(
            tuple((type(v).__name__, repr(v)) for v in row)
            for row in db[name].tuples
        )
        for name in db.relation_names()
    }


def _fold(statements, db: Database) -> Database:
    for stmt in statements:
        db = stmt.apply(db)
    return db


def _outcomes() -> dict:
    return {o: _COUNTER.value(outcome=o) for o in ("hit", "partial", "miss")}


def _db(*rows) -> Database:
    return Database(
        {"R": Relation.from_rows(Schema.of("a", "b"), rows or [(1, 1.5), (2, 2.5)])}
    )


class TestOracle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prefixes_in_random_order_equal_a_fresh_fold(self, backend):
        rng = fresh_rng(offset=BACKENDS.index(backend) + 700)
        for _ in range(scaled(5)):
            db, types = random_typed_database(rng)
            history = random_history(rng, db, types, length=rng.randint(6, 10))
            lengths = list(range(len(history) + 1)) * 2
            rng.shuffle(lengths)
            with use_backend(backend):
                first: dict[int, Database] = {}
                for k in lengths:
                    state = history.prefix(k).execute(db)
                    assert _exact(state) == _exact(
                        _fold(history.statements[:k], db)
                    ), (backend, k)
                    # A repeat is the remembered object itself.
                    assert first.setdefault(k, state) is state
            # One state per distinct non-empty prefix, never per statement.
            assert len(db._versions) == len(history)

    def test_a_miss_replays_past_the_longest_remembered_prefix(self):
        db = _db()
        history = History.of(
            *(DeleteStatement("R", Cmp("=", col("a"), Const(i))) for i in range(8))
        )
        lines: list[str] = []
        trace.configure_tracing(lines.append, sample=1.0)
        with trace.start_trace("request"):
            history.prefix(2).execute(db)
            history.prefix(5).execute(db)
            history.prefix(8).execute(db)
            history.prefix(5).execute(db)
            history.prefix(3).execute(db)
        spans = [json.loads(line) for line in lines]
        travels = [s["attributes"] for s in spans if s["name"] == "time_travel"]
        assert [(t["statements"], t["replayed"], t["outcome"]) for t in travels] == [
            (2, 2, "miss"),
            (5, 3, "partial"),
            (8, 3, "partial"),
            (5, 0, "hit"),
            (3, 1, "partial"),
        ]

    def test_outcomes_are_counted(self):
        db = _db()
        history = History.of(
            DeleteStatement("R", gt(col("a"), 5)),
            UpdateStatement("R", {"b": Const(0.5)}, ge(col("a"), 2)),
        )
        before = _outcomes()
        history.prefix(1).execute(db)
        history.execute(db)
        history.execute(db)
        after = _outcomes()
        assert {o: after[o] - before[o] for o in after} == {
            "hit": 1,
            "partial": 1,
            "miss": 1,
        }

    def test_empty_history_is_the_database_itself(self):
        db = _db()
        before = _outcomes()
        assert History.of().execute(db) is db
        assert _outcomes() == before and not db._versions


class TestKeys:
    def test_backends_do_not_share_versions(self):
        db = _db()
        history = History.of(UpdateStatement("R", {"b": Attr("b") * 2}))
        with use_backend("compiled"):
            compiled = history.execute(db)
        before = _outcomes()
        with use_backend("interpreted"):
            interpreted = history.execute(db)
        assert interpreted is not compiled
        assert _outcomes()["miss"] == before["miss"] + 1
        assert len(db._versions) == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "values", [(1, True), (True, 1), (0.0, -0.0), (-0.0, 0.0)]
    )
    def test_equal_comparing_constants_do_not_alias(self, backend, values):
        db = _db()
        with use_backend(backend):
            for value in values:
                history = History.of(UpdateStatement("R", {"b": Const(value)}))
                state = history.execute(db)
                assert _exact(state) == _exact(_fold(history, db))
                # Booleans travel as SQLite integers (DESIGN.md).
                written = (
                    int
                    if backend == "sqlite" and type(value) is bool
                    else type(value)
                )
                assert {type(row[1]) for row in state["R"].tuples} == {written}
                assert {math.copysign(1, row[1]) for row in state["R"].tuples} == {
                    math.copysign(1, value)
                }
        assert len(db._versions) == 2

    def test_unhashable_constant_replays_without_memoization(self):
        db = _db()
        history = History.of(
            DeleteStatement("R", Cmp("=", col("b"), Const((9, [9])))),
            DeleteStatement("R", gt(col("a"), 1)),
        )
        before = _outcomes()
        first, second = history.execute(db), history.execute(db)
        assert first is not second
        assert _exact(first) == _exact(second) == _exact(_fold(history, db))
        assert not db._versions
        assert _outcomes()["miss"] == before["miss"] + 2

    def test_failed_replay_remembers_nothing(self):
        db = _db()
        good = UpdateStatement("R", {"b": Const(0.5)})
        History.of(good).execute(db)
        remembered = dict(db._versions)
        broken = History.of(good, UpdateStatement("R", {"zzz": Const(1)}))
        with pytest.raises(SchemaError):
            broken.execute(db)
        assert db._versions == remembered


class TestConcurrentFills:
    def test_threads_filling_one_root_get_oracle_states(self):
        """More threads than cores, a tiny switch interval, a fresh root
        per round so fills keep racing lookups: every state equals its
        fold, no fill or lookup raises, and the memo stays bounded."""
        history = History.of(
            *(
                UpdateStatement("R", {"b": Attr("b") + i}, ge(col("a"), i % 2))
                for i in range(60)
            )
        )
        rows = [(0, 0.5), (1, 1.5)]
        expected = {
            k: _exact(_fold(history.statements[:k], _db(*rows)))
            for k in range(len(history) + 1)
        }
        errors: list[BaseException] = []

        def worker(seed, db, start):
            rng = random.Random(seed)
            try:
                start.wait(timeout=30)
                for _ in range(30):
                    k = rng.randint(0, len(history))
                    assert _exact(history.prefix(k).execute(db)) == expected[k]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                db, start = _db(*rows), threading.Barrier(8)
                threads = [
                    threading.Thread(
                        target=worker, args=(100 * round_ + n, db, start)
                    )
                    for n in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(db._versions) <= len(history)
        finally:
            sys.setswitchinterval(interval)


class TestInvisibility:
    def test_eq_hash_repr_and_pickle_ignore_the_memo(self):
        db = _db()
        History.of(UpdateStatement("R", {"b": Const(0.5)})).execute(db)
        assert db._versions
        fresh = Database(db.relations)
        assert db == fresh and repr(db) == repr(fresh)
        field = next(
            f for f in dataclasses.fields(Database) if f.name == "_versions"
        )
        assert not (field.init or field.repr or field.compare)
        for candidate in (db, fresh):  # a dict-valued field: unhashable
            with pytest.raises(TypeError):
                hash(candidate)
        assert len(pickle.dumps(db)) == len(pickle.dumps(fresh))
        copy = pickle.loads(pickle.dumps(db))
        assert copy == db and not copy._versions
        history = History.of(UpdateStatement("R", {"b": Const(0.5)}))
        assert history.execute(copy) == history.execute(db)


class TestMemoryBound:
    def test_one_long_execute_remembers_one_state(self):
        db = _db(*[(i, float(i)) for i in range(20)])
        history = History.of(
            *(
                UpdateStatement("R", {"b": Attr("b") + 1}, ge(col("a"), i % 20))
                for i in range(100)
            )
        )
        state = history.execute(db)
        assert list(db._versions.values()) == [state]

    def test_questions_over_k_prefixes_remember_at_most_k_states(self):
        db = _db(*[(i, float(i)) for i in range(10)])
        history = History.of(
            *(
                UpdateStatement("R", {"b": Attr("b") + i}, ge(col("a"), i))
                for i in range(1, 9)
            )
        )
        positions = (2, 5, 7)
        engine = Mahif(MahifConfig())
        for _ in range(3):
            for position in positions:
                for limit in (3, 6):
                    engine.answer(
                        HistoricalWhatIfQuery(
                            history,
                            db,
                            (
                                Replace(
                                    position,
                                    UpdateStatement(
                                        "R", {"b": Const(0.5)}, ge(col("a"), limit)
                                    ),
                                ),
                            ),
                        ),
                        Method.R,
                    )
        assert len(db._versions) == len(positions)


class TestSignedZeroAnswers:
    """``SET b = -0.0`` and ``SET b = 0.0`` are different questions."""

    SQL = "UPDATE R SET b = {} WHERE a >= 1"

    def _history(self):
        return History.of(parse_statement("UPDATE R SET b = 5 WHERE a >= 1"))

    def test_batch_plans_are_not_shared(self):
        db, history = _db(), self._history()
        queries = [
            HistoricalWhatIfQuery(
                history,
                db,
                (Replace(1, parse_statement(self.SQL.format(value))),),
            )
            for value in ("-0.0", "0.0")
        ]
        for backend in BACKENDS:
            results = Mahif(MahifConfig(backend=backend)).answer_batch(
                queries, Method.R
            )
            assert results[0].queries_modified is not results[1].queries_modified
            signs = [
                {math.copysign(1, row[1]) for row in r.delta.relations["R"].added}
                for r in results
            ]
            assert signs == [{-1.0}, {1.0}], backend

    def test_service_answers_do_not_share_a_cache_entry(self, tmp_path):
        service = WhatIfService(tmp_path, sync=False)
        try:
            service.register("h", _db(), self._history())
            for value, sign in (("-0.0", -1.0), ("0.0", 1.0), ("-0.0", -1.0)):
                (answer,) = service.answer(
                    "h", [{"replace": [[1, self.SQL.format(value)]]}], method="R"
                )
                rows = answer["delta"]["R"]["added"]
                assert {math.copysign(1, row[1]) for row in rows} == {sign}
            # The repeat of -0.0 is the only cache hit.
            assert answer["cached"]
        finally:
            service.close()
