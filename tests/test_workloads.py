"""Workload substrate tests: datasets and the parameterized generator."""

import pytest

from repro.core import Method
from repro.relational.expressions import evaluate
from repro.relational.statements import (
    DeleteStatement,
    InsertTuple,
    UpdateStatement,
)
from repro.workloads import (
    WorkloadSpec,
    build_workload,
    dataset_by_name,
    taxi_trips,
    tpcc_stock,
    ycsb_usertable,
)


class TestDatasets:
    def test_taxi_schema_and_size(self):
        relation = taxi_trips(500, seed=1)
        assert len(relation) == 500
        assert "trip_total" in relation.schema
        assert "fare" in relation.schema

    def test_taxi_total_is_sum_of_components(self):
        relation = taxi_trips(200, seed=2)
        for row in relation.rows_as_dicts():
            expected = round(
                row["fare"] + row["tips"] + row["tolls"] + row["extras"], 2
            )
            assert abs(row["trip_total"] - expected) < 0.011

    def test_taxi_deterministic_by_seed(self):
        assert set(taxi_trips(100, seed=5)) == set(taxi_trips(100, seed=5))
        assert set(taxi_trips(100, seed=5)) != set(taxi_trips(100, seed=6))

    def test_taxi_keys_unique(self):
        relation = taxi_trips(300, seed=1)
        ids = [t[0] for t in relation]
        assert len(set(ids)) == 300

    def test_tpcc_quantity_range(self):
        relation = tpcc_stock(300, seed=1)
        quantities = [row["s_quantity"] for row in relation.rows_as_dicts()]
        assert min(quantities) >= 10 and max(quantities) <= 100

    def test_ycsb_keys_dense_and_ordered(self):
        relation = ycsb_usertable(100, seed=1)
        keys = sorted(row["ycsb_key"] for row in relation.rows_as_dicts())
        assert keys == list(range(1, 101))

    def test_dataset_by_name(self):
        assert len(dataset_by_name("taxi", 50)) == 50
        with pytest.raises(KeyError):
            dataset_by_name("nope", 50)


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(dataset="nope")
        with pytest.raises(ValueError):
            WorkloadSpec(updates=0)
        with pytest.raises(ValueError):
            WorkloadSpec(insert_pct=50, delete_pct=50)
        with pytest.raises(ValueError):
            WorkloadSpec(modifications=0)


class TestBuildWorkload:
    def test_statement_counts(self):
        spec = WorkloadSpec(
            dataset="taxi", rows=500, updates=20, insert_pct=10,
            delete_pct=10, seed=3,
        )
        workload = build_workload(spec)
        statements = list(workload.history)
        assert len(statements) == 20
        inserts = sum(isinstance(s, InsertTuple) for s in statements)
        deletes = sum(isinstance(s, DeleteStatement) for s in statements)
        assert inserts == 2 and deletes == 2

    def test_first_statement_is_modified(self):
        workload = build_workload(WorkloadSpec(rows=300, updates=5, seed=1))
        assert workload.modifications[0].position == 1
        original = workload.history[1]
        replacement = workload.modifications[0].statement
        assert isinstance(original, UpdateStatement)
        assert original.condition != replacement.condition
        assert original.set_clauses == dict(replacement.set_clauses)

    def test_affected_fraction_tracks_t(self):
        for t_pct, tolerance in ((5.0, 3.0), (25.0, 6.0)):
            spec = WorkloadSpec(
                rows=2000, updates=5, affected_pct=t_pct, seed=5
            )
            workload = build_workload(spec)
            relation = workload.database[spec.relation_name]
            condition = workload.history[1].condition
            affected = sum(
                1
                for row in relation.rows_as_dicts()
                if evaluate(condition, row)
            )
            actual_pct = 100.0 * affected / len(relation)
            assert abs(actual_pct - t_pct) <= tolerance

    def test_modification_count(self):
        spec = WorkloadSpec(
            rows=500, updates=20, dependent_pct=50, modifications=4, seed=9
        )
        workload = build_workload(spec)
        assert len(workload.modifications) == 4
        positions = [m.position for m in workload.modifications]
        assert len(set(positions)) == 4

    def test_query_round_trips_through_engine(self):
        from repro.bench import run_methods

        spec = WorkloadSpec(rows=400, updates=8, seed=11)
        workload = build_workload(spec)
        timings = run_methods(
            workload.query, [Method.NAIVE, Method.R_PS_DS]
        )
        assert (
            timings[Method.NAIVE].result.delta
            == timings[Method.R_PS_DS].result.delta
        )

    def test_independent_updates_provably_independent(self):
        """The generator's disjoint-window construction must be visible
        to the slicer: with D=10 most updates get sliced away."""
        spec = WorkloadSpec(
            rows=800, updates=20, dependent_pct=10, seed=13
        )
        workload = build_workload(spec)
        from repro.core import Mahif, Method

        result = Mahif().answer(workload.query, Method.R_PS_DS)
        kept = len(result.slice_result.kept_positions)
        assert kept <= 6  # 2 dependent-ish + slack

    def test_deterministic(self):
        spec = WorkloadSpec(rows=300, updates=10, seed=21)
        w1, w2 = build_workload(spec), build_workload(spec)
        assert w1.history == w2.history
        assert w1.modifications == w2.modifications

    def test_reproducible_across_hash_seeds(self):
        """Inserted rows must not depend on set iteration order, which
        changes with ``PYTHONHASHSEED`` from process to process."""
        import os
        import pathlib
        import subprocess
        import sys

        script = (
            "from repro.workloads import WorkloadSpec, build_workload\n"
            "w = build_workload(WorkloadSpec(rows=300, updates=20, "
            "insert_pct=20.0, delete_pct=10.0, seed=1))\n"
            "print(repr(tuple(w.history)))\n"
            "print(repr(w.modifications))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(
                os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src)
            )
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert "InsertTuple" in outputs[0]
        assert outputs[0] == outputs[1]
