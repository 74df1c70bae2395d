"""Batched what-if answering: N queries over a shared history, one call.

The paper's headline is that reenactment + slicing make historical
what-if queries cheap enough to answer interactively *and in volume*;
this module supplies the volume half (see DESIGN.md, "Batched
answering").  :func:`answer_batch_with` amortizes three things a
sequential ``answer`` loop repeats per query:

1. **Time travel** — every distinct ``(database, history-prefix)``
   version is materialized once: ``History.execute`` remembers it on the
   database, and a deeper prefix replays only the statements past the
   deepest prefix already remembered there (DESIGN.md, "Time travel").
2. **Reenactment planning** — queries whose (sliced) statement pairs are
   structurally identical share finished operator trees, data-slicing
   conditions and optimized plans through a keyed cache one level above
   the compiled-plan cache (``engine._plan_reenactment``).  Static plan
   verification (``MahifConfig(verify_plans=True)``, see DESIGN.md
   "Static analysis") rides the same hook: fresh plans are verified and
   their optimizer rewrites certified once, cache hits skip the check.
3. **Delta evaluation** — per-(query, relation) evaluations fan out over
   a ``concurrent.futures`` pool: a *process* pool for the in-process
   backends (pure-Python evaluation does not parallelize under the GIL;
   operator trees, databases and deltas all pickle, and workers compile
   trees into their own per-process plan caches), a *thread* pool for
   sqlite (the C engine releases the GIL and the connection cache is
   per-thread).

Worker tasks are module-level functions so they pickle by reference for
the process pool.  Process-pool IPC is bounded per *query*, not per
(query, relation): plan results are returned with ``start_db`` stripped
and a query's relation evaluations are grouped into one submission.
The remaining known cost is that a batch-shared database still pickles
once per query per phase (inside the query for planning, as ``start_db``
for evaluation); shipping it once per worker via an executor
initializer is the next step if profiles ever show it dominating.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Sequence

from ..obs import trace
from ..relational.exec.backend import BACKEND_SQLITE, resolve_backend
from .degradation import record_degradation
from .delta import DatabaseDelta, RelationDelta
from .engine import (
    Mahif,
    MahifResult,
    Method,
    _relation_delta_task,
    _start_database,
)
from .hwq import HistoricalWhatIfQuery
from .naive import NaiveResult, naive_what_if

__all__ = [
    "ResilientExecutor",
    "answer_batch_with",
]


class ResilientExecutor:
    """A pool with a watchdog: rebuild a broken pool once, then serial.

    A SIGKILLed (OOM-killed, crashed) process-pool worker poisons the
    whole ``ProcessPoolExecutor`` — every pending and future submission
    raises :class:`BrokenProcessPool`.  Batch tasks are pure functions
    of their arguments, so the whole call list can safely re-run: the
    watchdog rebuilds the pool via its factory exactly once
    (``pool_rebuild`` degradation event) and, if the rebuilt pool breaks
    too, degrades permanently to serial in-process execution
    (``pool_serial``) — the batch *always* returns the same deltas as
    the serial oracle, only slower.

    Thread pools cannot break this way, but wrapping both kinds keeps
    one executor type flowing through the batch and shard paths.
    """

    def __init__(self, factory: Callable[[], Executor], kind: str) -> None:
        self._factory = factory
        self.kind = kind  # "process" | "thread"
        self._executor: Executor | None = factory()
        self._lock = threading.Lock()
        self._rebuilt = False
        self._serial = False

    def submit(self, task, *args):
        """Direct submission for callers that manage futures themselves
        (no watchdog protection — use :meth:`run` for that)."""
        return self._executor.submit(task, *args)

    def run(self, task: Callable, calls: Sequence[tuple]) -> list:
        """Run ``task`` over every call tuple, surviving a broken pool."""
        while True:
            with self._lock:
                serial, executor = self._serial, self._executor
            if serial or executor is None:
                return [task(*args) for args in calls]
            try:
                futures = [executor.submit(task, *args) for args in calls]
                return [future.result() for future in futures]
            except BrokenExecutor:
                self._degrade(executor)

    def run_settled(self, task: Callable, calls: Sequence[tuple]) -> list:
        """Like :meth:`run`, but capture per-call failures as
        ``(False, exception)`` instead of raising (``(True, result)``
        for successes).  A broken *pool* is not a per-call failure —
        it triggers the watchdog and the whole list re-runs."""
        while True:
            with self._lock:
                serial, executor = self._serial, self._executor
            if serial or executor is None:
                return _settle_serial(task, calls)
            try:
                futures = [executor.submit(task, *args) for args in calls]
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append((True, future.result()))
                    except BrokenExecutor:
                        raise
                    except Exception as exc:
                        outcomes.append((False, exc))
                return outcomes
            except BrokenExecutor:
                self._degrade(executor)

    def _degrade(self, broken: Executor) -> None:
        """Replace the broken pool (once) or drop to serial, exactly one
        transition per broken pool even under concurrent callers."""
        with self._lock:
            if self._executor is not broken:
                return  # another thread already handled this pool
            broken.shutdown(wait=False, cancel_futures=True)
            if not self._rebuilt:
                self._rebuilt = True
                self._executor = self._factory()
                record_degradation("pool_rebuild")
            else:
                self._serial = True
                self._executor = None
                record_degradation("pool_serial")

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        with self._lock:
            executor, self._executor = self._executor, None
            self._serial = True
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=cancel_futures)


def _settle_serial(task: Callable, calls: Sequence[tuple]) -> list:
    outcomes = []
    for args in calls:
        try:
            outcomes.append((True, task(*args)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def _make_executor(backend: str, workers: int) -> ResilientExecutor | None:
    if workers <= 1:
        return None
    if backend == BACKEND_SQLITE:
        return ResilientExecutor(
            lambda: ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="mahif-batch"
            ),
            "thread",
        )

    def _process_pool() -> Executor:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork: spawn/forkserver default
            context = None
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    return ResilientExecutor(_process_pool, "process")


def _executor_kind(executor) -> str | None:
    """'process' / 'thread' / None across raw and watchdog executors."""
    if executor is None:
        return None
    if isinstance(executor, ResilientExecutor):
        return executor.kind
    if isinstance(executor, ThreadPoolExecutor):
        return "thread"
    if isinstance(executor, ProcessPoolExecutor):
        return "process"
    return None


def _run_tasks(
    executor,
    task: Callable,
    calls: Sequence[tuple],
) -> list:
    if executor is None:
        return [task(*args) for args in calls]
    if isinstance(executor, ResilientExecutor):
        return executor.run(task, calls)
    futures = [executor.submit(task, *args) for args in calls]
    return [future.result() for future in futures]


def _run_tasks_settled(
    executor,
    task: Callable,
    calls: Sequence[tuple],
) -> list:
    """Per-call ``(ok, result-or-exception)`` pairs; pool breakage is
    handled by the watchdog (wrapped executors) or propagates (raw)."""
    if executor is None:
        return _settle_serial(task, calls)
    if isinstance(executor, ResilientExecutor):
        return executor.run_settled(task, calls)
    futures = [executor.submit(task, *args) for args in calls]
    outcomes = []
    for future in futures:
        try:
            outcomes.append((True, future.result()))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def _naive_task(
    backend: str, query: HistoricalWhatIfQuery
) -> NaiveResult:
    """Whole-query task for the NAIVE method (no per-relation split)."""
    return naive_what_if(query, backend=backend)


def _plan_task(config, query, method, start_db, shared=None):
    """Per-query planning (insert split + program slicing + reenactment
    trees) as a pool task: slicing is solver-bound pure Python, so it
    must cross to worker processes to parallelize.  ``shared`` is only
    passed on thread pools, where the keyed plan cache can be mutated in
    place; process workers rely on their per-process compiled-plan
    caches instead.

    The returned plan has ``start_db`` stripped — the caller already
    holds it, and shipping the database back through the process pool's
    result pickle would double the IPC cost."""
    from ..relational.exec.backend import use_backend

    with use_backend(config.backend):
        plan = Mahif(config)._plan_reenactment(
            query, method, start_db=start_db, shared=shared
        )
    return dataclasses.replace(plan, start_db=None)


def _query_deltas_task(backend, start_db, items):
    """All of one query's per-relation delta evaluations in one task.

    Process-pool submissions are grouped per query so the (potentially
    large, batch-shared) start database crosses the IPC boundary once
    per query instead of once per (query, relation).  Each relation is
    still evaluated and timed individually."""
    return [
        (
            relation,
            *_relation_delta_task(
                backend, query_h, query_m, start_db, extra_h, extra_m
            ),
        )
        for relation, query_h, query_m, extra_h, extra_m in items
    ]


def answer_batch_with(
    engine: Mahif,
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method,
    workers: int | None = None,
    *,
    explain: bool = False,
) -> list[MahifResult]:
    """Answer ``queries`` with ``method``; the worker behind
    :meth:`Mahif.answer_batch` (which scopes the configured backend).

    ``explain=True`` attaches EXPLAIN ANALYZE per-operator profiles to
    every result; profiled evaluation runs serially in-process (per-node
    materialization is a diagnostic mode — the pool and shard fan-outs
    are bypassed), though plan construction still shares work across
    the batch.
    """
    if not queries:
        return []
    config = engine.config
    backend = resolve_backend(config.backend)
    if workers is None:
        workers = config.batch_workers
    executor = _make_executor(backend, workers)
    try:
        if method is Method.NAIVE:
            naives = _run_tasks(
                executor, _naive_task, [(backend, q) for q in queries]
            )
            return [
                MahifResult(
                    delta=naive.delta,
                    method=method,
                    exe_seconds=naive.total_seconds,
                    naive_breakdown=naive,
                )
                for naive in naives
            ]
        return _answer_reenactment_batch(
            engine, backend, queries, method, executor, explain=explain,
        )
    finally:
        if executor is not None:
            # cancel_futures: a failing task propagates immediately
            # instead of letting the rest of the batch run to completion.
            executor.shutdown(cancel_futures=True)


def _answer_reenactment_batch(
    engine: Mahif,
    backend: str,
    queries: Sequence[HistoricalWhatIfQuery],
    method: Method,
    executor: Executor | None,
    explain: bool = False,
) -> list[MahifResult]:
    start_dbs = [_start_database(query) for query in queries]
    shared: dict | None = {} if engine.config.batch_share_plans else None
    with trace.span(
        "plan", method=method.value, queries=len(queries)
    ) as plan_span:
        if executor is None:
            plans = [
                engine._plan_reenactment(
                    query, method, start_db=start_db, shared=shared
                )
                for query, start_db in zip(queries, start_dbs)
            ]
        else:
            # Only thread pools can mutate the shared cache in place.
            shared_arg = (
                shared if _executor_kind(executor) == "thread" else None
            )
            plans = [
                dataclasses.replace(plan, start_db=start_db)
                for plan, start_db in zip(
                    _run_tasks(
                        executor,
                        _plan_task,
                        [
                            (
                                engine.config, query, method,
                                start_db, shared_arg,
                            )
                            for query, start_db in zip(queries, start_dbs)
                        ],
                    ),
                    start_dbs,
                )
            ]
        plan_span.set_attributes(
            {
                "affected": sum(len(p.affected) for p in plans),
                "ps_seconds": sum(p.ps_seconds for p in plans),
            }
        )

    def _extras(plan, relation):
        return (
            plan.inserted_original[relation]
            if plan.inserted_original is not None
            else None,
            plan.inserted_modified[relation]
            if plan.inserted_modified is not None
            else None,
        )

    deltas: list[dict[str, RelationDelta]] = [{} for _ in queries]
    eval_seconds = [0.0] * len(queries)
    choices: list = [None] * len(queries)
    profiles: list[dict | None] = [None] * len(queries)
    auto = engine.config.shards_auto
    if explain:
        # EXPLAIN ANALYZE: serial in-process profiled evaluation (plan
        # construction above still shared the batch's common work).
        from ..obs.profile import profile_query

        with trace.span("execute", mode="profiled", queries=len(plans)):
            for index, plan in enumerate(plans):
                query_profiles: dict[str, dict] = {}
                for relation in sorted(plan.affected):
                    t0 = time.perf_counter()
                    result_h, prof_h = profile_query(
                        plan.queries_h[relation], plan.start_db,
                        backend=backend,
                    )
                    result_m, prof_m = profile_query(
                        plan.queries_m[relation], plan.start_db,
                        backend=backend,
                    )
                    extra_h, extra_m = _extras(plan, relation)
                    if extra_h is not None:
                        result_h = result_h.union(extra_h)
                    if extra_m is not None:
                        result_m = result_m.union(extra_m)
                    deltas[index][relation] = RelationDelta.between(
                        result_h, result_m
                    )
                    seconds = time.perf_counter() - t0
                    eval_seconds[index] += seconds
                    trace.record_span(
                        "relation", seconds,
                        relation=relation, query=index, profiled=True,
                    )
                    query_profiles[relation] = {
                        "original": prof_h,
                        "modified": prof_m,
                    }
                profiles[index] = query_profiles
    elif auto or engine.config.shards > 1:
        # Sharded execution: fan out at (query, relation, shard)
        # granularity through the same executor.  A shard call ships
        # only its own shard's database and an unshardable fallback
        # call only the relations its query pair scans, so the
        # per-query grouping that bounds start-database pickling in the
        # unsharded process-pool path is unnecessary here.  Partition
        # lists are memoized across queries sharing a start database.
        # Under ``shards="auto"`` the adaptive planner prices each plan
        # *individually* — one batch can mix sharded and sequential
        # members (a shards=1 choice becomes a single unsharded call).
        from .shard import evaluate_shard_works, plan_relation_shards

        if auto:
            from .planner import plan_execution

            for index, plan in enumerate(plans):
                choices[index] = plan_execution(
                    plan, engine.config, backend=backend
                )

        partitions: dict = {}
        owners: list[int] = []
        works = []
        with trace.span("partition", queries=len(plans)) as part_span:
            for index, plan in enumerate(plans):
                choice = choices[index]
                shards = (
                    choice.shards if choice is not None
                    else engine.config.shards
                )
                scheme = (
                    choice.scheme if choice is not None
                    else engine.config.shard_scheme
                )
                hints = choice.estimates if choice is not None else None
                for relation in sorted(plan.affected):
                    owners.append(index)
                    work = plan_relation_shards(
                        backend,
                        plan,
                        relation,
                        shards,
                        scheme,
                        partitions,
                        hints,
                    )
                    works.append(work)
                    part_span.add_event(
                        "route",
                        relation=work.relation,
                        query=index,
                        shards=work.shard_count,
                        evaluated=len(work.calls),
                        skipped=work.skipped,
                        sharded=work.sharded,
                    )
        with trace.span("execute", mode="sharded", relations=len(works)):
            merged = evaluate_shard_works(works, executor)
        for index, work, (delta, seconds) in zip(owners, works, merged):
            deltas[index][work.relation] = delta
            eval_seconds[index] += seconds
    elif _executor_kind(executor) == "process":
        # Grouped per query: the start database pickles once per query.
        with trace.span("execute", mode="process-pool", queries=len(plans)):
            grouped = _run_tasks(
                executor,
                _query_deltas_task,
                [
                    (
                        backend,
                        plan.start_db,
                        [
                            (
                                relation,
                                plan.queries_h[relation],
                                plan.queries_m[relation],
                                *_extras(plan, relation),
                            )
                            for relation in sorted(plan.affected)
                        ],
                    )
                    for plan in plans
                ],
            )
            for index, query_outcomes in enumerate(grouped):
                for relation, delta, seconds in query_outcomes:
                    deltas[index][relation] = delta
                    eval_seconds[index] += seconds
                    trace.record_span(
                        "relation", seconds, relation=relation, query=index
                    )
    else:
        # In-process (serial) or thread pool: no pickling, so fan out at
        # per-(query, relation) granularity for maximum overlap.
        calls: list[tuple] = []
        owners: list[tuple[int, str]] = []
        for index, plan in enumerate(plans):
            for relation in sorted(plan.affected):
                calls.append(
                    (
                        backend,
                        plan.queries_h[relation],
                        plan.queries_m[relation],
                        plan.start_db,
                        *_extras(plan, relation),
                    )
                )
                owners.append((index, relation))
        mode = "thread-pool" if executor is not None else "serial"
        with trace.span("execute", mode=mode, relations=len(calls)):
            outcomes = _run_tasks(executor, _relation_delta_task, calls)
            for (index, relation), (delta, seconds) in zip(
                owners, outcomes
            ):
                deltas[index][relation] = delta
                eval_seconds[index] += seconds
                trace.record_span(
                    "relation", seconds, relation=relation, query=index
                )

    return [
        MahifResult(
            delta=DatabaseDelta(deltas[index]),
            method=method,
            ps_seconds=plan.ps_seconds,
            exe_seconds=plan.build_seconds + eval_seconds[index],
            slice_result=plan.slice_result,
            data_slicing=plan.data_slicing,
            queries_original=plan.queries_h,
            queries_modified=plan.queries_m,
            base_database=plan.start_db,
            planner_choice=choices[index],
            profile=profiles[index],
        )
        for index, plan in enumerate(plans)
    ]
