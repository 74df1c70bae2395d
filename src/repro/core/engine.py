"""The Mahif engine: Algorithm 2 and the method variants of Section 13.3.

``answer(query, method)`` supports the five methods the paper compares:

* ``NAIVE``     — Algorithm 1 (copy + execute + delta query),
* ``R``         — reenactment only,
* ``R_DS``      — reenactment + data slicing,
* ``R_PS``      — reenactment + program slicing,
* ``R_PS_DS``   — reenactment + both (Algorithm 2).

The pipeline, following the paper's WLOG normalizations:

1. align the histories (no-op padding) and trim the common prefix before
   the first modified statement; time travel to the database version at
   that point,
2. peel constant inserts away when program slicing is requested
   (Section 10),
3. program slicing (dependency analysis by default — Section 9 — or the
   greedy Theorem-4 search),
4. build per-relation reenactment queries for both sliced histories
   (Definition 3),
5. data slicing: inject per-relation filter conditions (Section 6),
6. evaluate both queries per affected relation, union the inserted-tuple
   side back in, and compute the delta (Section 4's delta query).

Relations not reachable from any modified statement provably have an
empty delta and are skipped outright.
"""

from __future__ import annotations

import enum
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..relational.algebra import (
    Operator,
    base_relations,
    evaluate_query,
    inject_selection,
    operator_count,
)
from ..relational.database import Database
from ..relational.exec.backend import resolve_backend, use_backend
from ..relational.optimizer import OptimizerConfig, optimize
from ..relational.relation import Relation
from ..relational.schema import Schema
from ..relational.statements import (
    InsertQuery,
    InsertTuple,
    statement_share_key,
)
from ..obs import trace
from .data_slicing import DataSlicingConditions, compute_data_slicing
from .delta import DatabaseDelta, RelationDelta
from .dependency import dependency_slice
from .hwq import AlignedHistories, HistoricalWhatIfQuery
from .insert_split import can_split, split_inserts
from .naive import NaiveResult, naive_what_if
from .planner import AUTO_SHARDS, ExecutionChoice
from .program_slicing import (
    ProgramSlicingConfig,
    SliceResult,
    greedy_slice,
)
from .reenactment import reenactment_queries

__all__ = [
    "Method",
    "MahifConfig",
    "MahifResult",
    "Mahif",
    "answer",
    "answer_batch",
]


class Method(enum.Enum):
    """The compared methods, labelled as in the paper's plots."""

    NAIVE = "N"
    R = "R"
    R_DS = "R+DS"
    R_PS = "R+PS"
    R_PS_DS = "R+PS+DS"

    @property
    def uses_program_slicing(self) -> bool:
        return self in (Method.R_PS, Method.R_PS_DS)

    @property
    def uses_data_slicing(self) -> bool:
        return self in (Method.R_DS, Method.R_PS_DS)


@dataclass(frozen=True)
class MahifConfig:
    """Engine configuration.

    ``slicing_algorithm`` selects between the Section-9 dependency
    analysis (``"dependency"``, the default — one solver call per
    statement) and the Section-8.3.3 greedy search (``"greedy"`` — one
    call per candidate, exact Theorem-4 checks).

    ``backend`` selects the execution backend for every query and
    statement evaluated while answering: ``"compiled"`` (the default)
    runs closure-compiled streaming pipelines with hash joins,
    ``"interpreted"`` the original tree-walking evaluator (kept as the
    differential-testing oracle), ``"sqlite"`` the middleware path of
    the paper — reenactment queries and statements are translated to
    SQL and executed server-side on an in-memory SQLite database — and
    ``"vector"`` columnar evaluation with whole-column kernels (NumPy
    when available, typed Python columns otherwise; see DESIGN.md,
    "Execution backends" and "Columnar execution").

    ``batch_workers`` and ``batch_share_plans`` configure
    :meth:`Mahif.answer_batch` (see DESIGN.md, "Batched answering"):
    ``batch_workers`` > 1 fans per-(query, relation) delta evaluations
    out over a worker pool — processes for the in-process backends,
    threads for sqlite (whose connection cache is per-thread and whose
    queries release the GIL) — while ``batch_share_plans`` reuses
    reenactment operator trees across batch queries that slice to the
    same statement set.

    ``shards`` > 1 turns on sharded execution (see DESIGN.md, "Sharded
    execution"): each affected relation is horizontally partitioned
    (``shard_scheme``: ``"range"`` clusters by the leading/key column so
    data-slicing routing can skip whole shards, ``"hash"`` balances
    arbitrary distributions), the reenactment pair is evaluated per
    shard, and the per-shard deltas merge back exactly.
    ``shard_workers`` > 1 fans the shard evaluations over the same kind
    of pool as ``batch_workers`` (0 evaluates shards serially, which
    still benefits from skip routing).

    ``verify_plans`` runs the static soundness layer (see DESIGN.md,
    "Static analysis") over every reenactment plan the engine builds:
    :func:`~repro.static_analysis.verify_plan` checks attribute
    resolution, schema compatibility and NULL-aware typing with
    operator-path diagnostics, and — when ``optimize_queries`` is on —
    :func:`~repro.static_analysis.check_rewrite` certifies the
    optimizer's output against its input, statically rejecting the PR-2
    class of NULL-unsound rewrites.  ``None`` (the default) resolves
    from the ``MAHIF_VERIFY_PLANS`` environment variable, which the
    test/fuzz harness sets to ``1`` so every suite run verifies every
    plan it builds; production calls default off.  Verification happens
    at plan-build time only — shared-plan cache hits reuse the already
    certified trees.

    ``profile`` turns every answer into an EXPLAIN ANALYZE run: each
    reenactment query is evaluated with per-operator wall time and row
    counts (:func:`repro.obs.profile.profile_query`), attached to the
    result as :attr:`MahifResult.profile`.  Profiled answers execute
    the serial unsharded path — per-node materialization is a
    diagnostic mode, not the hot path.  ``Mahif.answer(...,
    explain=True)`` requests the same per call.

    ``shards="auto"`` (stored as the ``AUTO_SHARDS`` = 0 sentinel; the
    literal ``0`` is accepted too) hands the decision to the cost-based
    planner (see DESIGN.md, "Adaptive planning"): each reenactment plan
    is priced from relation cardinalities, sampled routing selectivity
    and shardability, and executes sharded only when the model predicts
    a real win — ``shard_workers`` is then chosen by the planner as
    well.  The naive method ignores ``shards`` entirely (it replays
    statements, there is nothing to partition).
    """

    slicing_algorithm: str = "dependency"
    program_slicing: ProgramSlicingConfig = field(
        default_factory=ProgramSlicingConfig
    )
    optimize_queries: bool = True
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    backend: str = "compiled"
    batch_workers: int = 0
    batch_share_plans: bool = True
    shards: int | str = 1
    shard_workers: int = 0
    shard_scheme: str = "range"
    verify_plans: bool | None = None
    profile: bool = False

    def __post_init__(self) -> None:
        from ..relational.partition import PARTITION_SCHEMES

        if self.verify_plans is None:
            env = os.environ.get("MAHIF_VERIFY_PLANS", "").strip().lower()
            object.__setattr__(
                self, "verify_plans", env in ("1", "true", "on", "yes")
            )
        if self.slicing_algorithm not in ("dependency", "greedy"):
            raise ValueError(
                f"unknown slicing algorithm {self.slicing_algorithm!r}"
            )
        if self.batch_workers < 0:
            raise ValueError("batch_workers must be >= 0")
        if isinstance(self.shards, str):
            if self.shards.strip().lower() != "auto":
                raise ValueError(
                    f"shards must be >= 1, 'auto', or {AUTO_SHARDS} "
                    f"(auto sentinel); got {self.shards!r}"
                )
            object.__setattr__(self, "shards", AUTO_SHARDS)
        elif self.shards < AUTO_SHARDS:
            raise ValueError(
                "shards must be >= 1, or 'auto'/0 for planner-chosen"
            )
        if self.shard_workers < 0:
            raise ValueError("shard_workers must be >= 0")
        if self.shard_scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"unknown shard scheme {self.shard_scheme!r}; expected one "
                f"of {PARTITION_SCHEMES}"
            )
        resolve_backend(self.backend)  # raises ValueError when unknown

    @property
    def shards_auto(self) -> bool:
        """True when the adaptive planner chooses the shard count."""
        return self.shards == AUTO_SHARDS

    @property
    def may_shard(self) -> bool:
        """True when execution might shard (statically or via planner),
        i.e. routing conditions must be computed at planning time."""
        return self.shards == AUTO_SHARDS or self.shards > 1


@dataclass(frozen=True)
class MahifResult:
    """Answer plus the accounting the paper's figures report.

    ``ps_seconds`` is the program-slicing cost (Figure 16's "PS" column),
    ``exe_seconds`` everything else (reenactment + data slicing + delta,
    the "Exe" column).  ``slice_result`` and ``data_slicing`` expose what
    the optimizations did for inspection and the ablation benchmarks.
    """

    delta: DatabaseDelta
    method: Method
    ps_seconds: float = 0.0
    exe_seconds: float = 0.0
    slice_result: SliceResult | None = None
    data_slicing: DataSlicingConditions | None = None
    queries_original: Mapping[str, Operator] | None = None
    queries_modified: Mapping[str, Operator] | None = None
    naive_breakdown: NaiveResult | None = None
    #: The (time-travelled) database the reenactment queries ran over;
    #: needed to re-evaluate them, e.g. for provenance explanations.
    base_database: Database | None = None
    #: The adaptive planner's decision (``shards="auto"`` only): the
    #: shard/worker counts this answer actually executed with, plus the
    #: estimates it was based on.  ``None`` under static configuration.
    planner_choice: ExecutionChoice | None = None
    #: EXPLAIN ANALYZE output (``explain=True`` / ``config.profile``):
    #: per affected relation, ``{"original": OperatorProfile,
    #: "modified": OperatorProfile}`` — per-operator wall time and row
    #: counts for both reenactment queries.  ``None`` otherwise (and
    #: always for NAIVE, which replays statements instead of building
    #: operator trees).
    profile: Mapping[str, Mapping[str, object]] | None = None

    @property
    def total_seconds(self) -> float:
        return self.ps_seconds + self.exe_seconds


@dataclass(frozen=True)
class _ReenactmentPlan:
    """Everything ``_plan_reenactment`` produces ahead of evaluation.

    ``build_seconds`` is the reenactment-query construction cost (tree
    building + data slicing + optimization) — near zero on a shared-plan
    cache hit; evaluation adds its own time on top to form the reported
    ``exe_seconds``.
    """

    query: HistoricalWhatIfQuery
    method: Method
    start_db: Database
    affected: frozenset[str]
    queries_h: Mapping[str, Operator]
    queries_m: Mapping[str, Operator]
    inserted_original: Database | None
    inserted_modified: Database | None
    slice_result: SliceResult | None
    data_slicing: DataSlicingConditions | None
    #: Skip-routing conditions for sharded execution: equals
    #: ``data_slicing`` for DS methods, and is computed (but never
    #: injected into the queries) for the others when ``shards`` > 1.
    routing: DataSlicingConditions | None
    ps_seconds: float
    build_seconds: float


def _start_database(query: HistoricalWhatIfQuery) -> Database:
    """Time travel: the state before the query's first modified
    statement, remembered on ``query.database`` (DESIGN.md, "Time
    travel")."""
    _, prefix_length = query.aligned().trim_prefix()
    return query.history.prefix(prefix_length).execute(query.database)


def _relation_delta_task(
    backend: str | None,
    query_h: Operator,
    query_m: Operator,
    start_db: Database,
    extra_original: Relation | None,
    extra_modified: Relation | None,
) -> tuple[RelationDelta, float]:
    """Evaluate one (query, relation) delta; module-level so the batch
    path can ship it to process-pool workers (the operator trees and
    databases it receives all pickle; workers compile into their own
    plan caches)."""
    t0 = time.perf_counter()
    result_h = evaluate_query(query_h, start_db, backend=backend)
    result_m = evaluate_query(query_m, start_db, backend=backend)
    if extra_original is not None:
        result_h = result_h.union(extra_original)
    if extra_modified is not None:
        result_m = result_m.union(extra_modified)
    return RelationDelta.between(result_h, result_m), time.perf_counter() - t0


def _affected_relations(aligned: AlignedHistories) -> set[str]:
    """Relations whose contents can differ between H and H[M]: targets of
    modified statements, closed under INSERT ... SELECT dataflow."""
    affected = aligned.target_relations_of_modifications()
    statements = tuple(aligned.original.statements) + tuple(
        aligned.modified.statements
    )
    changed = True
    while changed:
        changed = False
        for stmt in statements:
            if isinstance(stmt, InsertQuery):
                sources = base_relations(stmt.query)
                if sources & affected and stmt.relation not in affected:
                    affected.add(stmt.relation)
                    changed = True
    return affected


class Mahif:
    """Facade for answering historical what-if queries.

    >>> engine = Mahif()
    >>> result = engine.answer(query, Method.R_PS_DS)
    >>> print(result.delta.pretty())
    """

    def __init__(self, config: MahifConfig | None = None) -> None:
        self.config = config or MahifConfig()
        #: Lazily-created worker pool for sharded single answers
        #: (``shards`` > 1 and ``shard_workers`` > 1), reused across
        #: calls — pool startup would otherwise dominate the small
        #: per-query work sharding targets.  Shut down when the engine
        #: is collected (or on a task failure, which may poison a
        #: process pool).
        self._shard_executor = None
        self._shard_pool_lock = threading.Lock()

    def _shard_pool(self, config: MahifConfig | None = None):
        config = config or self.config
        if config.shards <= 1 or config.shard_workers <= 1:
            return None
        with self._shard_pool_lock:
            if self._shard_executor is None:
                from .batch import _make_executor

                executor = _make_executor(
                    resolve_backend(config.backend),
                    config.shard_workers,
                )
                if executor is not None:
                    weakref.finalize(
                        self, executor.shutdown,
                        wait=False, cancel_futures=True,
                    )
                self._shard_executor = executor
            return self._shard_executor

    def _reset_shard_pool(self) -> None:
        with self._shard_pool_lock:
            executor, self._shard_executor = self._shard_executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- public API --------------------------------------------------------
    def answer(
        self,
        query: HistoricalWhatIfQuery,
        method: Method = Method.R_PS_DS,
        current_state: Database | None = None,
        *,
        explain: bool = False,
    ) -> MahifResult:
        """Answer a HWQ with the selected method.

        The configured execution backend is scoped around the whole
        pipeline, so statement replay (naive), reenactment queries and
        the delta all run through it.

        ``explain=True`` (or ``config.profile``) runs EXPLAIN ANALYZE:
        the answer carries a per-operator time/row-count
        :attr:`MahifResult.profile` and executes the serial unsharded
        path.  NAIVE has no operator trees to profile and returns
        ``profile=None``.
        """
        profiled = explain or self.config.profile
        with use_backend(self.config.backend):
            if method is Method.NAIVE:
                naive = naive_what_if(query, current_state=current_state)
                return MahifResult(
                    delta=naive.delta,
                    method=method,
                    exe_seconds=naive.total_seconds,
                    naive_breakdown=naive,
                )
            return self._answer_reenactment(
                query, method, profiled=profiled
            )

    def answer_batch(
        self,
        queries: Sequence[HistoricalWhatIfQuery],
        method: Method = Method.R_PS_DS,
        *,
        workers: int | None = None,
        explain: bool = False,
    ) -> list[MahifResult]:
        """Answer several HWQs over a shared history in one call.

        Produces exactly the deltas of ``[self.answer(q, method) for q in
        queries]`` (in input order) while amortizing the common
        structure across the batch (see DESIGN.md, "Batched answering"):

        * each distinct ``(database, history-prefix)`` version is
          time-travelled to once: :meth:`History.execute
          <repro.relational.history.History.execute>` remembers it on
          the database (DESIGN.md, "Time travel"),
        * queries that slice to the same statement set share their
          reenactment operator trees, data-slicing conditions and
          optimized plans (``config.batch_share_plans``),
        * per-(query, relation) delta evaluations fan out over a worker
          pool when ``workers``/``config.batch_workers`` > 1 — a process
          pool for the in-process backends, a thread pool for sqlite.

        With a pool, each result's ``exe_seconds`` is the summed worker
        time of its relation evaluations (CPU cost, not wall clock).
        """
        from .batch import answer_batch_with

        with use_backend(self.config.backend):
            return answer_batch_with(
                self, list(queries), method, workers,
                explain=explain or self.config.profile,
            )

    # -- reenactment pipeline ----------------------------------------------
    def _answer_reenactment(
        self,
        query: HistoricalWhatIfQuery,
        method: Method,
        *,
        profiled: bool = False,
    ) -> MahifResult:
        with trace.span("plan", method=method.value) as plan_span:
            plan = self._plan_reenactment(query, method)
            plan_span.set_attributes(
                {
                    "affected": len(plan.affected),
                    "ps_seconds": plan.ps_seconds,
                    "build_seconds": plan.build_seconds,
                }
            )
        t0 = time.perf_counter()
        deltas: dict[str, RelationDelta] = {}
        profiles: dict[str, dict] | None = None
        choice: ExecutionChoice | None = None
        effective = self.config
        hints = None
        if profiled:
            # EXPLAIN ANALYZE: per-operator instrumentation on the
            # serial unsharded path (the per-node materialization makes
            # timings meaningful; sharded/planned execution would
            # profile partitions, not the plan the user asked about).
            profiles = self._evaluate_profiled(plan, deltas)
        else:
            if self.config.shards_auto:
                from dataclasses import replace

                from .planner import plan_execution

                choice = plan_execution(
                    plan, self.config,
                    backend=resolve_backend(self.config.backend),
                )
                hints = choice.estimates
                effective = replace(
                    self.config,
                    shards=choice.shards,
                    shard_workers=choice.shard_workers,
                )
            if effective.shards > 1:
                from .shard import evaluate_plan_sharded

                try:
                    deltas, _ = evaluate_plan_sharded(
                        plan,
                        effective,
                        resolve_backend(effective.backend),
                        executor=self._shard_pool(effective),
                        hints=hints,
                    )
                except BaseException:
                    # A failed task may have poisoned a process pool;
                    # build a fresh one on the next call.
                    self._reset_shard_pool()
                    raise
            else:
                with trace.span("execute", mode="serial") as exec_span:
                    for relation in sorted(plan.affected):
                        deltas[relation], seconds = _relation_delta_task(
                            None,  # ambient backend: `answer` scoped it
                            plan.queries_h[relation],
                            plan.queries_m[relation],
                            plan.start_db,
                            plan.inserted_original[relation]
                            if plan.inserted_original is not None
                            else None,
                            plan.inserted_modified[relation]
                            if plan.inserted_modified is not None
                            else None,
                        )
                        trace.record_span(
                            "relation", seconds, relation=relation
                        )
                    exec_span.set_attribute(
                        "relations", len(plan.affected)
                    )
        exe_seconds = plan.build_seconds + (time.perf_counter() - t0)
        return MahifResult(
            delta=DatabaseDelta(deltas),
            method=method,
            ps_seconds=plan.ps_seconds,
            exe_seconds=exe_seconds,
            slice_result=plan.slice_result,
            data_slicing=plan.data_slicing,
            queries_original=plan.queries_h,
            queries_modified=plan.queries_m,
            base_database=plan.start_db,
            planner_choice=choice,
            profile=profiles,
        )

    def _evaluate_profiled(
        self, plan: "_ReenactmentPlan", deltas: dict[str, RelationDelta]
    ) -> dict[str, dict]:
        """EXPLAIN ANALYZE evaluation: per-operator profiles for both
        reenactment queries of every affected relation, deltas computed
        from the profiled results (equal to plain evaluation — the
        profiler materializes bottom-up through the same backends)."""
        from ..obs.profile import profile_query

        profiles: dict[str, dict] = {}
        with trace.span("execute", mode="profiled") as exec_span:
            for relation in sorted(plan.affected):
                t0 = time.perf_counter()
                result_h, prof_h = profile_query(
                    plan.queries_h[relation], plan.start_db
                )
                result_m, prof_m = profile_query(
                    plan.queries_m[relation], plan.start_db
                )
                if plan.inserted_original is not None:
                    result_h = result_h.union(
                        plan.inserted_original[relation]
                    )
                if plan.inserted_modified is not None:
                    result_m = result_m.union(
                        plan.inserted_modified[relation]
                    )
                deltas[relation] = RelationDelta.between(result_h, result_m)
                profiles[relation] = {
                    "original": prof_h,
                    "modified": prof_m,
                }
                trace.record_span(
                    "relation",
                    time.perf_counter() - t0,
                    relation=relation,
                    profiled=True,
                )
            exec_span.set_attribute("relations", len(plan.affected))
        return profiles

    def _plan_reenactment(
        self,
        query: HistoricalWhatIfQuery,
        method: Method,
        *,
        start_db: Database | None = None,
        shared: dict | None = None,
    ) -> _ReenactmentPlan:
        """Run the pipeline up to (but not including) delta evaluation.

        ``start_db`` lets the batch path pass the time-travelled version
        it already holds; ``shared`` is the batch's keyed plan cache
        — one level above the per-process compiled-plan cache in
        :mod:`repro.relational.exec.plan_compile` — mapping the sliced
        statement pair (plus schemas, method and insert-split context)
        to finished ``(queries_h, queries_m, data_slicing)`` triples.
        """
        trimmed, _ = query.aligned().trim_prefix()
        if start_db is None:
            start_db = _start_database(query)
        schemas = {
            name: start_db.schema_of(name) for name in start_db.relations
        }
        affected = _affected_relations(trimmed)

        pair = trimmed
        inserted_original: Database | None = None
        inserted_modified: Database | None = None
        slice_result: SliceResult | None = None
        ps_seconds = 0.0

        if method.uses_program_slicing:
            has_inserts = any(
                isinstance(s, InsertTuple)
                for s in tuple(pair.original.statements)
                + tuple(pair.modified.statements)
            )
            splittable = can_split(pair)
            if splittable and has_inserts:
                split = split_inserts(pair, schemas)
                pair = split.without_inserts
                inserted_original = split.inserted_original
                inserted_modified = split.inserted_modified
            if splittable:
                t0 = time.perf_counter()
                if self.config.slicing_algorithm == "greedy":
                    slice_result = greedy_slice(
                        pair, start_db, schemas, self.config.program_slicing
                    )
                else:
                    slice_result = dependency_slice(
                        pair, start_db, schemas, self.config.program_slicing
                    )
                ps_seconds = time.perf_counter() - t0
                pair = pair.subset(slice_result.kept_positions)
            # else: INSERT ... SELECT present — program slicing is not
            # applicable (Section 10 limits it to update/delete parts);
            # proceed with plain reenactment, optionally data-sliced.

        t1 = time.perf_counter()
        # Sharded execution needs the slicing conditions for skip routing
        # even when the method does not inject them into the queries —
        # including ``shards="auto"``, where the planner also samples
        # them for selectivity before any shard exists.
        needs_conditions = (
            method.uses_data_slicing or self.config.may_shard
        )
        insert_mod_relations: set[str] = set()
        if needs_conditions:
            insert_mod_relations = {
                trimmed.original[p].relation
                for p in trimmed.modified_positions
                if isinstance(trimmed.original[p], InsertTuple)
                or isinstance(trimmed.modified[p], InsertTuple)
            }

        share_key = None
        cached = None
        if shared is not None:
            try:
                share_key = (
                    method,
                    tuple(
                        statement_share_key(s)
                        for s in pair.original.statements
                    ),
                    tuple(
                        statement_share_key(s)
                        for s in pair.modified.statements
                    ),
                    tuple(sorted(schemas.items())),
                    frozenset(insert_mod_relations),
                    inserted_original is not None,
                    inserted_modified is not None,
                )
                cached = shared.get(share_key)
            except TypeError:  # unhashable constant inside a statement
                share_key = None

        if cached is not None:
            queries_h, queries_m, data_slicing, routing = cached
        else:
            queries_h = reenactment_queries(pair.original, schemas)
            queries_m = reenactment_queries(pair.modified, schemas)

            data_slicing = None
            routing = None
            if needs_conditions:
                conditions = compute_data_slicing(pair, schemas)
                # Modified inserts: after the Section-10 split the pair no
                # longer carries the insert, so the collision disjunct that
                # compute_data_slicing derives for insert modifications (see
                # data_slicing._affected_condition_map) is lost.  Filtering
                # such a relation could then drop a base tuple that one
                # side's replayed insert re-adds — and shard routing could
                # likewise skip a shard holding such a tuple; disable
                # filtering/skipping for those relations instead (their
                # insert-side delta is tiny anyway).
                from ..relational.expressions import TRUE

                if insert_mod_relations and (
                    inserted_original is not None
                    or inserted_modified is not None
                ):
                    conditions = DataSlicingConditions(
                        {
                            rel: (
                                TRUE
                                if rel in insert_mod_relations
                                else cond
                            )
                            for rel, cond in conditions.for_original.items()
                        }
                        | {
                            rel: TRUE
                            for rel in insert_mod_relations
                            if rel not in conditions.for_original
                        },
                        {
                            rel: (
                                TRUE
                                if rel in insert_mod_relations
                                else cond
                            )
                            for rel, cond in conditions.for_modified.items()
                        }
                        | {
                            rel: TRUE
                            for rel in insert_mod_relations
                            if rel not in conditions.for_modified
                        },
                    )
                if self.config.may_shard:
                    routing = conditions
                if method.uses_data_slicing:
                    data_slicing = conditions
                    queries_h = {
                        name: inject_selection(
                            op, dict(data_slicing.for_original)
                        )
                        for name, op in queries_h.items()
                    }
                    queries_m = {
                        name: inject_selection(
                            op, dict(data_slicing.for_modified)
                        )
                        for name, op in queries_m.items()
                    }

            pre_opt_h: Mapping[str, Operator] | None = None
            pre_opt_m: Mapping[str, Operator] | None = None
            if self.config.optimize_queries:
                pre_opt_h, pre_opt_m = queries_h, queries_m
                queries_h = {
                    name: optimize(op, self.config.optimizer)
                    for name, op in queries_h.items()
                }
                queries_m = {
                    name: optimize(op, self.config.optimizer)
                    for name, op in queries_m.items()
                }

            if self.config.verify_plans:
                # Static soundness layer (DESIGN.md, "Static analysis"):
                # every freshly built plan is schema/type-verified, and
                # the optimizer's rewrite is certified NULL-sound against
                # the unoptimized tree.  Cache hits skip this — the
                # cached trees were certified when first built.
                from ..static_analysis import verify_reenactment_plans

                with trace.span("verify", plans=len(queries_h)):
                    verify_reenactment_plans(
                        schemas,
                        queries_h,
                        queries_m,
                        before_original=pre_opt_h,
                        before_modified=pre_opt_m,
                    )

            if share_key is not None:
                shared[share_key] = (
                    queries_h, queries_m, data_slicing, routing
                )

        return _ReenactmentPlan(
            query=query,
            method=method,
            start_db=start_db,
            affected=frozenset(affected),
            queries_h=queries_h,
            queries_m=queries_m,
            inserted_original=inserted_original,
            inserted_modified=inserted_modified,
            slice_result=slice_result,
            data_slicing=data_slicing,
            routing=routing,
            ps_seconds=ps_seconds,
            build_seconds=time.perf_counter() - t1,
        )


def answer(
    query: HistoricalWhatIfQuery,
    method: Method = Method.R_PS_DS,
    config: MahifConfig | None = None,
) -> MahifResult:
    """Module-level convenience wrapper around :class:`Mahif`."""
    return Mahif(config).answer(query, method)


def answer_batch(
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method = Method.R_PS_DS,
    config: MahifConfig | None = None,
) -> list[MahifResult]:
    """Module-level convenience wrapper around :meth:`Mahif.answer_batch`."""
    return Mahif(config).answer_batch(queries, method)
