"""Span recording around the program's public layer functions.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces a public function at the name its caller looks it up (for
example ``repro.core.engine.dependency_slice``, which the engine imported
into its own namespace) with a wrapper that records one span per call:
layer name, start, end, parent span, request id and thread, plus the
counts a layer hook reads from the call.  Spans stay in memory until the
run ends; :func:`chrome_events` turns them into Chrome trace-event JSON,
which Perfetto opens.

Work a layer hands to a process-pool worker is not traced there: it
shows as waiting inside the parent span that dispatched it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["LAYER_TARGETS", "Target", "Tracer", "chrome_events", "summarize"]


@dataclass(frozen=True)
class Target:
    """One public function to time.

    ``owner`` is ``"module"`` or ``"module:Class"``: the namespace the
    *caller* reads the name from.  ``before`` runs ahead of the call and
    returns a token for ``after``, which returns the span's counts.
    Both run outside the span's interval, in the parent's time.
    """

    owner: str
    attr: str
    layer: str
    before: Callable[[tuple, dict], Any] | None = None
    after: Callable[[tuple, dict, Any, Any], dict] | None = None


# -- count hooks ------------------------------------------------------------


def _statements(args, kwargs, result, token):
    return {"statements": len(args[0])}


def _replay_before(args, kwargs):
    store, version = args[0], args[1]
    return store.replay_cost(version)


def _replay_after(args, kwargs, result, token):
    return {"replay": token}


def _store_bytes(store) -> int:
    total = 0
    for directory in (store.path, store.path / "checkpoints"):
        with os.scandir(directory) as entries:
            total += sum(e.stat().st_size for e in entries if e.is_file())
    return total


def _append_before(args, kwargs):
    return _store_bytes(args[0])


def _append_after(args, kwargs, result, token):
    return {"bytes": _store_bytes(args[0]) - token}


def _kept(args, kwargs, result, token):
    return {"kept": len(result.kept_positions), "total": result.total_positions}


def _rows_in(args, kwargs, result, token):
    return {"rows": len(args[0])}


def _solver(args, kwargs, result, token):
    from repro.solver.branch_bound import Feasibility

    return {
        "unsat": int(result.is_unsat),
        "unknown": int(result.status is Feasibility.UNKNOWN),
    }


def _operators(args, kwargs, result, token):
    from repro.relational.algebra import operator_count

    return {"operators": operator_count(result)}


def _sharded_choice(args, kwargs, result, token):
    return {"sharded": int(result.shards > 1)}


def _rows_out(args, kwargs, result, token):
    return {"rows": len(result)}


def _shard_work(args, kwargs, result, token):
    if not result.sharded:
        return {}
    return {"shards": result.shard_count, "skipped": result.skipped}


#: Every layer the benchmark times, each at the name its caller uses.
LAYER_TARGETS: tuple[Target, ...] = (
    Target("repro.relational.history:History", "execute", "history",
           after=_statements),
    Target("repro.store.history_store:HistoryStore", "as_of", "store.as_of",
           before=_replay_before, after=_replay_after),
    Target("repro.store.history_store:HistoryStore", "append", "store.append",
           before=_append_before, after=_append_after),
    Target("repro.core.engine", "split_inserts", "insert_split"),
    Target("repro.core.engine", "dependency_slice", "dependency", after=_kept),
    Target("repro.core.dependency", "compress_relation", "compress",
           after=_rows_in),
    Target("repro.core.dependency", "run_history_single_tuple", "symexec"),
    Target("repro.core.dependency", "check_satisfiable", "solver",
           after=_solver),
    Target("repro.core.engine", "compute_data_slicing", "data_slicing"),
    Target("repro.core.engine", "reenactment_queries", "reenactment"),
    Target("repro.core.engine", "optimize", "optimizer", after=_operators),
    Target("repro.core.planner", "plan_execution", "planner",
           after=_sharded_choice),
    Target("repro.core.engine", "evaluate_query", "exec", after=_rows_out),
    Target("repro.core.shard", "evaluate_query", "exec", after=_rows_out),
    Target("repro.core.shard", "evaluate_plan_sharded", "shard"),
    Target("repro.core.shard", "plan_relation_shards", "shard",
           after=_shard_work),
    Target("repro.core.shard", "evaluate_shard_works", "shard"),
    Target("repro.core.delta:RelationDelta", "between", "delta",
           after=_rows_out),
    # The sharded path (the service's, under shards="auto") builds its
    # deltas per shard and merges them instead.
    Target("repro.core.shard", "shard_delta", "delta"),
    Target("repro.core.shard", "merge_shard_deltas", "delta",
           after=_rows_out),
    Target("repro.core.batch", "answer_batch_with", "batch"),
    Target("repro.service.server:WhatIfService", "answer", "server.answer"),
    Target("repro.service.server:WhatIfService", "append", "server.append"),
    Target("repro.service.server", "result_payload", "wire"),
)


def _holder(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    return getattr(holder, class_name) if class_name else holder


class Tracer:
    """In-memory span recorder; see the module docstring.

    A span is the tuple ``(id, parent id, request id, layer, start ns,
    end ns, thread id, counts)``; a span without a parent is a request
    root and gets a fresh request id.  Times are ``CLOCK_MONOTONIC``
    nanoseconds, shared by every process of the machine, so spans from
    the benchmark process and the server child line up in one trace.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Compiled-plan cache hits and misses while installed.
        self.plan_cache = [0, 0]
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        self._cache_before = None

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, func: Callable, args: tuple, kwargs: dict,
             before=None, after=None) -> Any:
        """Run ``func(*args, **kwargs)`` inside one span of ``layer``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent, request = stack[-1] if stack else (0, next(self._requests))
        token = before(args, kwargs) if before is not None else None
        stack.append((span_id, request))
        start = time.monotonic_ns()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            counts = (
                after(args, kwargs, result, token)
                if after is not None and result is not None
                else None
            )
            self.spans.append(
                (span_id, parent, request, layer, start, end,
                 threading.get_ident(), counts)
            )

    def install(self, targets: Iterable[Target] = LAYER_TARGETS) -> None:
        """Patch every target; :meth:`uninstall` restores them.  A tracer
        can be installed and removed repeatedly; its spans accumulate."""
        from repro.relational.exec.plan_compile import plan_cache_info

        self._cache_before = plan_cache_info()
        for target in targets:
            holder = _holder(target.owner)
            original = inspect.getattr_static(holder, target.attr)
            kind = type(original) if isinstance(
                original, (classmethod, staticmethod)
            ) else None
            func = original.__func__ if kind is not None else original
            wrapper = self._wrapper(func, target)
            setattr(holder, target.attr, kind(wrapper) if kind else wrapper)
            self._installed.append((holder, target.attr, original))

    def uninstall(self) -> None:
        from repro.relational.exec.plan_compile import plan_cache_info

        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)
        if self._cache_before is not None:
            after, before = plan_cache_info(), self._cache_before
            self.plan_cache[0] += after.hits - before.hits
            self.plan_cache[1] += after.misses - before.misses
            self._cache_before = None

    def _wrapper(self, func: Callable, target: Target) -> Callable:
        tracer, layer = self, target.layer
        before, after = target.before, target.after

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return tracer.call(layer, func, args, kwargs, before, after)

        return traced


def summarize(spans: Iterable[tuple], requests: set[int] | None = None) -> dict:
    """Per layer: calls, total and self nanoseconds, summed counts.

    Self time is a span's duration minus its direct children's (children
    run on the parent's thread, one after another).  ``requests``
    restricts the summary to spans of those request ids.
    """
    spans = [s for s in spans if requests is None or s[2] in requests]
    child_ns: dict[int, int] = defaultdict(int)
    for span_id, parent, _, _, start, end, _, _ in spans:
        if parent:
            child_ns[parent] += end - start
    layers: dict[str, dict] = {}
    for span_id, _, _, layer, start, end, _, counts in spans:
        entry = layers.setdefault(
            layer, {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}}
        )
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns.get(span_id, 0)
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return layers


def chrome_events(spans: Iterable[tuple], pid: int, process: str) -> list[dict]:
    """Chrome trace-event ``X`` (complete) events, one per span."""
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": process}},
    ]
    for span_id, parent, request, layer, start, end, tid, counts in spans:
        events.append({
            "name": layer,
            "cat": layer.split(".")[0],
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": pid,
            "tid": tid,
            "args": {"request": request, "span": span_id, "parent": parent,
                     **(counts or {})},
        })
    return events
