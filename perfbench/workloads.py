"""The benchmark's workloads and the seeded questions they ask.

Every workload's data and history come from
``repro.workloads.build_workload`` with the run's seed; the program sees
only that database, that history and the modifications below.  Each
question is a new hypothetical: one UPDATE of the history is replaced by
an UPDATE with a seeded constant and a seeded predicate window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "WORKLOADS", "Generated", "QuestionStream", "Workload", "generate",
    "query_of",
]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``position`` pins the replaced statement (``None``: uniform over the
    history's UPDATEs).  ``window_start`` is the quantile range the
    hypothetical predicate window starts in; windows are ``window``
    quantiles wide.  ``unread_rows`` > 0 adds a relation no question
    reads, the target of most appends on the service.
    """

    name: str
    why: str
    service: bool
    method: str
    rows: int
    updates: int
    position: int | None
    window_start: tuple[float, float]
    oracle_method: str
    window: float = 0.10
    insert_pct: float = 0.0
    delete_pct: float = 0.0
    unread_rows: int = 0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="lib-slice",
            why=(
                "Program slicing dominates: statement 1 is replaced, so "
                "time travel does no work, and 19.2k rows make Phi_D "
                "compression cost show."
            ),
            service=False,
            method="R+PS+DS",
            rows=19_200,
            updates=20,
            position=1,
            # Overlaps the original statement's window (quantiles
            # 0.02-0.12) and the dependent updates, never the region
            # of the independent ones (from 0.21 on).
            window_start=(0.0, 0.08),
            # Data slicing without program slicing: independent of the
            # slicer this workload stresses.
            oracle_method="R+DS",
        ),
        Workload(
            name="lib-reenact",
            why=(
                "The paper's baseline R: time travel, reenactment build "
                "and execution split the time and program slicing does "
                "no work."
            ),
            service=False,
            method="R",
            rows=4_800,
            updates=40,
            position=None,
            window_start=(0.0, 0.9),
            oracle_method="R+PS+DS",
        ),
        Workload(
            name="svc-mixed",
            why=(
                "The HTTP service: new and repeated questions beside "
                "durable appends, through batch, planner, store time "
                "travel, insert split and the result cache."
            ),
            service=True,
            method="R+PS+DS",
            rows=4_800,
            updates=20,
            position=None,
            window_start=(0.0, 0.9),
            oracle_method="R+PS+DS",
            insert_pct=10.0,
            delete_pct=10.0,
            unread_rows=2_000,
        ),
    )
}

#: Name of the relation no question reads (service workload).
UNREAD = "stock"


@dataclass(frozen=True)
class Generated:
    """A workload's generated inputs."""

    database: object
    history: object
    predicate: str
    value: str
    #: Sorted values of the predicate attribute, for quantile windows.
    quantiles: tuple[float, ...]
    #: 1-based positions of the history's UPDATE statements.
    update_positions: tuple[int, ...]


def generate(workload: Workload, seed: int) -> Generated:
    """Build the database and history of ``workload`` from ``seed``."""
    from repro.relational.statements import UpdateStatement
    from repro.workloads import WorkloadSpec, build_workload, tpcc_stock

    built = build_workload(
        WorkloadSpec(
            dataset="taxi",
            rows=workload.rows,
            updates=workload.updates,
            insert_pct=workload.insert_pct,
            delete_pct=workload.delete_pct,
            seed=seed,
        )
    )
    database = built.database
    if workload.unread_rows:
        database = database.with_relation(
            UNREAD, tpcc_stock(workload.unread_rows, seed=seed)
        )
    index = database["data"].schema.index_of(built.predicate_attribute)
    return Generated(
        database=database,
        history=built.history,
        predicate=built.predicate_attribute,
        value=built.value_attribute,
        quantiles=tuple(sorted(row[index] for row in database["data"])),
        update_positions=tuple(
            position
            for position, stmt in enumerate(built.history, start=1)
            if isinstance(stmt, UpdateStatement)
        ),
    )


class QuestionStream:
    """Seeded, never-repeating what-if questions for one workload.

    Streams of one run share ``seen``, so no question is asked twice;
    ``stream`` separates the question sequences of a run (warm-up,
    untraced, traced), so each sequence depends only on the seed.
    """

    def __init__(self, workload: Workload, generated: Generated, seed: int,
                 stream: str, seen: set) -> None:
        self.workload = workload
        self.generated = generated
        self.rng = random.Random(f"{seed}/{workload.name}/{stream}")
        self.seen = seen
        self._positions: list[int] = []

    def window_sql(self, relation: str, width: float,
                   start: tuple[float, float]) -> str:
        """An UPDATE adding a seeded constant over a quantile window."""
        values = self.generated.quantiles
        begin = self.rng.uniform(*start)
        low = values[int(begin * (len(values) - 1))]
        high = values[int(min(begin + width, 1.0) * (len(values) - 1))]
        value, predicate = self.generated.value, self.generated.predicate
        constant = self.rng.randint(1, 5)
        return (
            f"UPDATE {relation} SET {value} = {value} + {constant} "
            f"WHERE {predicate} >= {low:.2f} AND {predicate} <= {high:.2f}"
        )

    def _position(self) -> int:
        """Uniform over the UPDATE positions, drawn in shuffled rounds
        that each cover every position once, so a run's mix of prefix
        lengths does not depend on luck."""
        if self.workload.position is not None:
            return self.workload.position
        if not self._positions:
            self._positions = list(self.generated.update_positions)
            self.rng.shuffle(self._positions)
        return self._positions.pop()

    def next(self) -> tuple[int, str]:
        """``(position, sql)``: replace statement ``position`` with ``sql``."""
        while True:
            position = self._position()
            sql = self.window_sql(
                "data", self.workload.window, self.workload.window_start
            )
            if (position, sql) not in self.seen:
                self.seen.add((position, sql))
                return position, sql

    def append_sql(self, on_data: bool) -> str:
        """One appended UPDATE: on ``data`` it drops cached answers (and
        lengthens every later answer's history); on the unread relation
        it leaves them valid."""
        if on_data:
            return self.window_sql("data", 0.02, (0.0, 0.98))
        low = self.rng.randint(1, self.workload.unread_rows)
        high = low + self.rng.randint(0, 50)
        return (
            f"UPDATE {UNREAD} SET s_quantity = s_quantity + "
            f"{self.rng.randint(1, 5)} "
            f"WHERE s_i_id >= {low} AND s_i_id <= {high}"
        )


def query_of(generated: Generated, history, position: int, sql: str):
    """The what-if query replacing ``position`` of ``history`` by ``sql``."""
    from repro import HistoricalWhatIfQuery, Replace, parse_statement

    return HistoricalWhatIfQuery(
        history, generated.database, (Replace(position, parse_statement(sql)),)
    )
