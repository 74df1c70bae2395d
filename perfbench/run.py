#!/usr/bin/env python3
"""One benchmark of historical what-if answers, end to end and per layer.

    python3 perfbench/run.py --workload lib-slice --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the program from ``src/``.
``--trace 0`` times answers untraced and prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and writes a
Chrome trace under ``perfbench/out/``.  Times are scaled to a reference
machine speed (``perfbench/speed.py``).  The last line of standard output
is one JSON object; the lines before it repeat every metric with its
unit, sample count and raw value.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "out"

#: Answers every untraced run times at least: p90 then keeps >= 10
#: samples beyond it.
MIN_ANSWERS = 100
#: Answers compared with an independent oracle per run.
ORACLE_CHECKS = 10
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: Warm-up answers at the end of set-up, before the first timed one.
WARMUP = 3
#: Traced answers whose counts are reported (and repeat exactly on the
#: library workloads for one seed); the traced phase answers at least
#: this many.
COUNT_ANSWERS = 20
#: Answers of the untraced slices of a traced run, at least.
BASELINE_ANSWERS = 30
#: A traced run is four slices of equal length: untraced, traced, traced,
#: untraced.  A drift that grows linearly over the run (the service's
#: history grows, caches warm up) then falls equally on both sides of
#: trace.overhead_ratio.
TRACE_SLICES = 4
TRACED = (1, 2)
#: No timed loop runs longer than this, whatever its minimum count.
LOOP_LIMIT_S = 100.0
#: History name on the service.
NAME = "taxi"

END_TO_END_UNITS = {
    "answer_ms_p50": "ms",
    "answer_ms_p90": "ms",
    "answers_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "history.ms": "ms", "history.statements": "count",
    "store.as_of_ms": "ms", "store.replay_statements": "count",
    "store.append_ms": "ms", "store.disk_bytes_per_append": "bytes",
    "insert_split.ms": "ms",
    "dependency.ms": "ms", "dependency.kept_ratio": "ratio",
    "compress.ms": "ms", "compress.rows": "count",
    "symexec.ms": "ms",
    "solver.ms": "ms", "solver.calls": "count",
    "solver.unsat_ratio": "ratio", "solver.unknown": "count",
    "data_slicing.ms": "ms",
    "reenactment.ms": "ms", "optimizer.ms": "ms",
    "optimizer.operators": "count",
    "planner.ms": "ms", "planner.sharded_ratio": "ratio",
    "exec.ms": "ms", "exec.rows_out": "count",
    "exec.plan_cache_hit_ratio": "ratio",
    "shard.ms": "ms", "shard.skipped_ratio": "ratio",
    "delta.ms": "ms", "delta.rows": "count",
    "batch.ms": "ms",
    "server.overhead_ms": "ms", "server.cache_hit_ratio": "ratio",
    "server.cache_hit_ms_p50": "ms", "server.invalidations_per_append": "count",
    "wire.ms": "ms",
    "answer.unattributed_share": "ratio", "trace.overhead_ratio": "ratio",
}


def p90(samples: list[float]) -> float:
    """The 90th percentile; with >= 100 samples, >= 10 lie beyond it."""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def ceil(total: int, parts: int) -> int:
    """Each of ``parts`` shares of ``total``, rounded up."""
    return -(-total // parts)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0 where the layer did no work at all."""
    return part / whole if whole else 0.0


# -- library workloads --------------------------------------------------------


def library_setup(workload, seed: int, seen: set):
    """Generate the inputs, build the engine and warm it up."""
    from repro import Mahif, Method

    from perfbench.workloads import QuestionStream, generate, query_of

    generated = generate(workload, seed)
    engine = Mahif()
    warm = QuestionStream(workload, generated, seed, "warm-up", seen)
    for _ in range(WARMUP):
        query = query_of(generated, generated.history, *warm.next())
        engine.answer(query, Method(workload.method))
    return generated, engine


def time_setup(workload, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed request."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


def answer_loop(engine, method, generated, stream, speed, seconds: float,
                minimum: int, keep: set[int], tracer=None):
    """Closed loop of one caller: answer new questions for ``seconds``
    (and at least ``minimum`` of them), sampling ``speed`` before each.
    Returns ``(start, ms)`` of every answer, the failure count, the kept
    ``(position, sql, delta payload)`` of answers whose index is in ``keep``, and
    the loop's wall time."""
    from repro.service import delta_payload

    from perfbench.workloads import query_of

    samples: list[tuple[float, float]] = []
    failed = 0
    kept = []
    start = time.perf_counter()
    deadline, limit = start + seconds, start + LOOP_LIMIT_S
    index = 0
    while True:
        now = time.perf_counter()
        if now >= limit or (now >= deadline and index >= minimum):
            break
        position, sql = stream.next()
        query = query_of(generated, generated.history, position, sql)
        speed.sample()
        began = time.perf_counter()
        try:
            if tracer is None:
                result = engine.answer(query, method)
            else:
                result = tracer.call("answer", engine.answer, (query, method), {})
        except Exception as exc:  # every failure counts, the loop goes on
            print(f"answer failed: {exc!r}", file=sys.stderr)
            failed += 1
        else:
            samples.append((began, (time.perf_counter() - began) * 1000.0))
            if index in keep:
                kept.append((position, sql, delta_payload(result)))
        index += 1
    return samples, failed, kept, time.perf_counter() - start


def oracle() -> int:
    """Oracle child entry point: read the workload's fields, the seed and
    ``[[position, sql], ...]`` as JSON from stdin, print the interpreted
    backend's delta payload of each question."""
    from repro import Mahif, MahifConfig, Method
    from repro.service import delta_payload

    from perfbench.workloads import Workload, generate, query_of

    task = json.load(sys.stdin)
    fields = task["workload"]
    workload = Workload(**{**fields,
                           "window_start": tuple(fields["window_start"])})
    generated = generate(workload, task["seed"])
    engine = Mahif(MahifConfig(backend="interpreted"))
    print(json.dumps([
        delta_payload(engine.answer(
            query_of(generated, generated.history, position, sql),
            Method(workload.oracle_method),
        ))
        for position, sql in task["questions"]
    ]), flush=True)
    return 0


def library_mismatches(workload, seed: int, kept) -> int:
    """Answers that disagree with the interpreted backend.  The checks are
    untimed and slow, so they are split over ``min(2, nproc)`` oracle
    child processes; each is waited for before this returns."""
    workers = min(2, os.cpu_count() or 1)
    chunks = [chunk for chunk in (kept[i::workers] for i in range(workers))
              if chunk]
    children = []
    try:
        for chunk in chunks:
            child = subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--oracle"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            children.append(child)
            child.stdin.write(json.dumps({
                "workload": dataclasses.asdict(workload),
                "seed": seed,
                "questions": [[position, sql] for position, sql, _ in chunk],
            }))
            child.stdin.close()
        expected = []
        for child in children:
            output = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(f"oracle child exited {child.returncode}")
            expected += json.loads(output)
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            child.stdout.close()
    answered = [
        json.loads(json.dumps(payload))
        for chunk in chunks for _, _, payload in chunk
    ]
    return sum(a != b for a, b in zip(answered, expected))


def run_library(workload, seed: int, seconds: float, trace: bool) -> dict:
    from repro import Method

    from perfbench.launcher import peak_rss_mb
    from perfbench.speed import Speed
    from perfbench.workloads import QuestionStream

    speed = Speed()
    setup = [] if trace else [
        time_setup(workload, seed) for _ in range(SETUP_REPEATS)
    ]
    seen: set = set()
    generated, engine = library_setup(workload, seed, seen)
    method = Method(workload.method)
    sampler = random.Random(f"{seed}/checks")
    timed = QuestionStream(workload, generated, seed, "timed", seen)
    if not trace:
        keep = set(sampler.sample(range(MIN_ANSWERS), ORACLE_CHECKS))
        samples, failed, kept, wall = answer_loop(
            engine, method, generated, timed, speed, seconds, MIN_ANSWERS,
            keep,
        )
        rss = peak_rss_mb()
        mismatches = library_mismatches(workload, seed, kept)
        return {
            "attempted": len(samples) + failed,
            "failed": failed + mismatches,
            "mismatches": mismatches,
            "checked": len(kept),
            "counts": {"answers": len(samples), "setup": len(setup)},
            "speed": speed,
            **end_to_end(samples, wall, setup, rss, speed),
        }

    from perfbench.spans import Tracer, chrome_events, summarize

    tracer = Tracer()
    traced = QuestionStream(workload, generated, seed, "traced", seen)
    parts = len(TRACED)
    minimum, checks = ceil(COUNT_ANSWERS, parts), ceil(ORACLE_CHECKS, parts)
    untraced, samples, kept, failed = [], [], [], 0
    for index in range(TRACE_SLICES):
        if index not in TRACED:
            done, lost, _, _ = answer_loop(
                engine, method, generated, timed, speed,
                seconds / TRACE_SLICES, ceil(BASELINE_ANSWERS, parts), set(),
            )
            untraced += done
        else:
            keep = set(sampler.sample(range(minimum), checks))
            tracer.install()
            try:
                done, lost, checked, _ = answer_loop(
                    engine, method, generated, traced, speed,
                    seconds / TRACE_SLICES, minimum, keep, tracer,
                )
            finally:
                tracer.uninstall()
            samples += done
            kept += checked
        failed += lost
    mismatches = library_mismatches(workload, seed, kept)
    first = sorted(
        span[2] for span in tracer.spans if span[3] == "answer"
    )[:COUNT_ANSWERS]
    layers = summarize(tracer.spans)
    metrics = per_layer(
        layers, summarize(tracer.spans, set(first)), counted=len(first),
        plan_cache=tracer.plan_cache, root="answer",
    )
    metrics["trace.overhead_ratio"] = ratio(
        statistics.median(scaled_ms(samples, speed)),
        statistics.median(scaled_ms(untraced, speed)),
    )
    for name in ("server.overhead_ms", "server.cache_hit_ratio",
                 "server.cache_hit_ms_p50", "server.invalidations_per_append",
                 "store.append_ms", "store.disk_bytes_per_append"):
        metrics[name] = 0.0  # library answers use no server and no store
    return {
        "attempted": len(untraced) + len(samples) + failed,
        "failed": failed + mismatches,
        "mismatches": mismatches,
        "checked": len(kept),
        "counts": {"answers": len(samples)},
        "speed": speed,
        "metrics": metrics,
        "trace": (layers,
                  chrome_events(tracer.spans, os.getpid(), "benchmark")),
    }


# -- service workload -------------------------------------------------------


class Mix:
    """The seeded closed-loop request mix of the service workload.

    Each client thread sends its next request when the last one returned:
    ~70% new questions, ~15% repeats of one of the last few questions and
    ~15% appends of one UPDATE.  An append goes to ``data`` once every
    ``DATA_APPEND_S`` seconds and to the unread relation otherwise: each
    ``data`` append lengthens every later answer's history, so tying
    them to the clock, not to the request count, keeps a run's latency
    drift the same on a fast and a slow machine.  State shared between
    the threads is guarded by ``lock``.
    """

    REPEAT, APPEND = 0.15, 0.15
    DATA_APPEND_S = 5.0

    def __init__(self, workload, generated, seed: int, seen: set,
                 url: str, speed) -> None:
        self.workload, self.generated, self.seed = workload, generated, seed
        self.seen, self.url, self.speed = seen, url, speed
        #: Set while a traced slice runs; client round trips become spans.
        self.tracer = None
        self.lock = threading.Lock()
        self.recent: deque = deque(maxlen=4)
        #: (start, ms, cached, traced) of every answer.
        self.answers: list[tuple[float, float, bool, bool]] = []
        #: (start, ms, cache entries dropped, traced) of every append.
        self.appends: list[tuple[float, float, int, bool]] = []
        #: history position -> SQL of every acknowledged append.
        self.appended: dict[int, str] = {}
        self.failed = 0
        #: perf_counter time after which the next append goes to data.
        self.data_due = time.perf_counter() + self.DATA_APPEND_S
        #: (position, sql, history length, delta payload) to check.
        self.checks: list[tuple] = []
        self.errors: list[BaseException] = []

    def run(self, phase: str, clients: int, seconds: float, minimum: int,
            checks: int) -> float:
        """Run ``clients`` threads for ``seconds``, until each has
        ``minimum`` answers, each keeping ``checks`` of those for the
        oracle; returns the wall time."""
        threads = [
            threading.Thread(
                target=self._client,
                args=(f"{phase}/{index}", seconds, minimum, checks),
            )
            for index in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=LOOP_LIMIT_S + 60)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
        if self.errors:
            raise self.errors[0]
        return wall

    def _client(self, stream_name, seconds, minimum, checks) -> None:
        try:
            self._loop(stream_name, seconds, minimum, checks)
        except BaseException as exc:  # surfaced by run() on the main thread
            self.errors.append(exc)

    def _call(self, layer: str, func, *args, **kwargs):
        if self.tracer is None:
            return func(*args, **kwargs)
        return self.tracer.call(layer, func, args, kwargs)

    def _loop(self, stream_name, seconds, minimum, checks) -> None:
        from repro.service import ServiceClient, ServiceClientError

        from perfbench.workloads import QuestionStream

        rng = random.Random(f"{self.seed}/mix/{stream_name}")
        keep = set(rng.sample(range(minimum), checks))
        stream = QuestionStream(
            self.workload, self.generated, self.seed, stream_name, self.seen
        )
        # No retries: a 503 or 504 counts as a failed operation.
        client = ServiceClient(self.url, retries=0)
        traced = self.tracer is not None
        start = time.perf_counter()
        deadline, limit = start + seconds, start + LOOP_LIMIT_S
        answered = 0
        while True:
            now = time.perf_counter()
            if now >= limit or (now >= deadline and answered >= minimum):
                break
            self.speed.sample()
            roll = rng.random()
            if roll < self.APPEND:
                with self.lock:
                    on_data = now >= self.data_due
                    if on_data:
                        self.data_due = now + self.DATA_APPEND_S
                sql = stream.append_sql(on_data)
                began = time.perf_counter()
                try:
                    reply = self._call(
                        "client.append", client.append, NAME, statements_sql=sql
                    )
                except ServiceClientError as exc:
                    print(f"append failed: {exc}", file=sys.stderr)
                    with self.lock:
                        self.failed += 1
                    continue
                elapsed = (time.perf_counter() - began) * 1000.0
                with self.lock:
                    self.appends.append(
                        (began, elapsed, reply["cache_dropped"], traced)
                    )
                    self.appended[reply["length"]] = sql
                continue
            with self.lock:
                repeat = (
                    rng.choice(list(self.recent))
                    if roll < self.APPEND + self.REPEAT and self.recent
                    else None
                )
            position, sql = repeat or stream.next()
            began = time.perf_counter()
            try:
                reply = self._call(
                    "client.whatif", client.whatif, NAME,
                    {"replace": [[position, sql]]},
                )
            except ServiceClientError as exc:
                print(f"answer failed: {exc}", file=sys.stderr)
                with self.lock:
                    self.failed += 1
                continue
            elapsed = (time.perf_counter() - began) * 1000.0
            with self.lock:
                self.answers.append((began, elapsed, reply["cached"], traced))
                if repeat is None:
                    self.recent.append((position, sql))
                if answered in keep:
                    self.checks.append(
                        (position, sql, reply["history_length"], reply["delta"])
                    )
            answered += 1


def service_setup(workload, seed: int, root: pathlib.Path,
                  trace_out: pathlib.Path):
    """Generate, start the server child, register the history and warm
    up; returns the inputs, the server and the questions seen."""
    from repro.service import ServiceClient

    from perfbench.launcher import ServerProcess
    from perfbench.workloads import QuestionStream, generate

    generated = generate(workload, seed)
    server = ServerProcess(root, trace_out)
    try:
        client = ServiceClient(server.url, retries=0)
        client.register(NAME, generated.database, generated.history)
        seen: set = set()
        warm = QuestionStream(workload, generated, seed, "warm-up", seen)
        for _ in range(WARMUP):
            client.whatif(NAME, {"replace": [list(warm.next())]})
    except BaseException:
        server.kill()
        raise
    return generated, server, seen


def store_mismatches(root: pathlib.Path, generated, appended: dict) -> int:
    """Statements missing or wrong in the reopened store: the initial
    history and every acknowledged append, each at its position."""
    from repro import parse_statement
    from repro.store import HistoryStore

    expected = list(generated.history) + [
        parse_statement(appended[position]) for position in sorted(appended)
    ]
    with HistoryStore.open(root / NAME, sync=False) as store:
        stored = list(store.history())
    return sum(a != b for a, b in zip(stored, expected)) + abs(
        len(stored) - len(expected)
    )


def service_mismatches(generated, appended: dict, checks) -> int:
    """Answers that disagree with an in-process ``Mahif.answer`` over the
    history at the length the service reported."""
    from repro import History, Mahif, Method, parse_statement
    from repro.service import delta_payload

    from perfbench.workloads import query_of

    statements = tuple(generated.history) + tuple(
        parse_statement(appended[position]) for position in sorted(appended)
    )
    engine = Mahif()
    mismatches = 0
    for position, sql, length, delta in checks:
        query = query_of(
            generated, History(statements[:length]), position, sql
        )
        expected = json.loads(json.dumps(
            delta_payload(engine.answer(query, Method.R_PS_DS))
        ))
        mismatches += expected != delta
    return mismatches


def run_service(workload, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.spans import Tracer, chrome_events
    from perfbench.speed import Speed

    OUT.mkdir(exist_ok=True)
    clients = min(2, os.cpu_count() or 1)
    trace_out = OUT / f"server-{os.getpid()}.json"
    trace_out.unlink(missing_ok=True)
    setup: list[float] = []
    server = root = None
    tracer = Tracer()
    speed = Speed()
    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(root)
            root = OUT / f"store-{os.getpid()}-{repeat}"
            start = time.perf_counter()
            generated, server, seen = service_setup(
                workload, seed, root, trace_out
            )
            setup.append(time.perf_counter() - start)
        mix = Mix(workload, generated, seed, seen, server.url, speed)
        if not trace:
            wall = mix.run("timed", clients, seconds,
                           MIN_ANSWERS // clients, ORACLE_CHECKS // clients)
            rss = server.peak_rss_mb()
        else:
            parts = len(TRACED) * clients
            checks = ceil(ORACLE_CHECKS, parts)
            minimum = max(ceil(COUNT_ANSWERS, parts), checks)
            for index in range(TRACE_SLICES):
                on = index in TRACED
                if on:
                    server.trace(True)
                    mix.tracer = tracer
                mix.run(
                    f"slice{index}", clients, seconds / TRACE_SLICES,
                    minimum if on else ceil(BASELINE_ANSWERS, parts),
                    checks if on else 0,
                )
                if on:
                    server.trace(False)
                    mix.tracer = None
        child = server.stop()
        server = None
        mismatches = store_mismatches(root, generated, mix.appended)
        mismatches += service_mismatches(generated, mix.appended, mix.checks)
    finally:
        if server is not None:
            server.kill()
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
        trace_out.unlink(missing_ok=True)
    result = {
        "attempted": len(mix.answers) + len(mix.appends) + mix.failed,
        "failed": mix.failed + mismatches,
        "mismatches": mismatches,
        "checked": len(mix.checks),
        "speed": speed,
    }
    if not trace:
        answers = [(t, ms) for t, ms, _, _ in mix.answers]
        appends = [(t, ms) for t, ms, _, _ in mix.appends]
        result["counts"] = {
            "answers": len(answers), "setup": len(setup),
            "appends": len(appends),
        }
        result.update(end_to_end(answers, wall, setup, rss, speed))
        if appends:
            result["metrics"]["append_ms_p50"] = statistics.median(
                ms for _, ms in appends
            )
            result["scaled"]["append_ms_p50"] = statistics.median(
                scaled_ms(appends, speed)
            )
        return result

    untraced = [(t, ms) for t, ms, _, on in mix.answers if not on]
    traced = [(t, ms, cached) for t, ms, cached, on in mix.answers if on]
    appends = [dropped for _, _, dropped, on in mix.appends if on]
    layers = child["layers"]
    metrics = per_layer(layers, layers, counted=len(traced),
                        plan_cache=child["plan_cache"], root="server.answer")
    served = layers.get("server.answer", {"calls": 0, "total_ns": 0})
    hits = [ms for _, ms, cached in traced if cached]
    metrics.update({
        "store.append_ms": ratio(self_ms(layers, "store.append"),
                                 len(appends)),
        "store.disk_bytes_per_append": ratio(
            count(layers, "store.append", "bytes"), len(appends)
        ),
        "server.overhead_ms": statistics.fmean(ms for _, ms, _ in traced)
        - ratio(served["total_ns"] / 1e6, served["calls"]),
        "server.cache_hit_ratio": ratio(len(hits), len(traced)),
        "server.cache_hit_ms_p50": statistics.median(hits) if hits else 0.0,
        "server.invalidations_per_append": ratio(sum(appends), len(appends)),
        "trace.overhead_ratio": ratio(
            statistics.median(scaled_ms([(t, ms) for t, ms, _ in traced],
                                        speed)),
            statistics.median(scaled_ms(untraced, speed)),
        ),
    })
    result["counts"] = {"answers": len(traced)}
    result["metrics"] = metrics
    result["trace"] = (
        layers,
        chrome_events(tracer.spans, os.getpid(), "benchmark")
        + child["events"],
    )
    return result


# -- metrics ----------------------------------------------------------------


def scaled_ms(samples: list[tuple[float, float]], speed) -> list[float]:
    """Each ``(start, ms)`` sample at the speed measured around it."""
    return [ms * speed.factor_at(start) for start, ms in samples]


def end_to_end(samples: list[tuple[float, float]], wall: float,
               setup: list[float], rss: float, speed) -> dict:
    """The end-to-end metrics, raw (``metrics``) and at the reference
    speed (``scaled``)."""
    answers = [ms for _, ms in samples]
    scaled = scaled_ms(samples, speed)
    return {
        "metrics": {
            "answer_ms_p50": statistics.median(answers),
            "answer_ms_p90": p90(answers),
            "answers_per_s": len(answers) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        },
        "scaled": {
            "answer_ms_p50": statistics.median(scaled),
            "answer_ms_p90": p90(scaled),
            "answers_per_s": len(answers) / (wall * speed.factor),
            "setup_s": statistics.median(setup) * speed.factor,
            "peak_rss_mb": rss,
        },
    }


def self_ms(layers: dict, layer: str) -> float:
    return layers.get(layer, {}).get("self_ns", 0) / 1e6


def count(layers: dict, layer: str, key: str) -> float:
    return layers.get(layer, {}).get("counts", {}).get(key, 0)


def per_layer(times: dict, counts: dict, counted: int, plan_cache,
              root: str) -> dict:
    """Per-answer layer metrics.  ``times`` summarizes every traced span,
    ``counts`` the spans of the first ``counted`` answers; ``root`` is the
    layer of the span that is one whole answer."""
    answers = times.get(root, {}).get("calls", 0)
    hits, misses = plan_cache

    def per_answer(layer: str) -> float:
        return ratio(self_ms(times, layer), answers)

    def counted_per_answer(layer: str, key: str) -> float:
        return ratio(count(counts, layer, key), counted)

    solver_calls = counts.get("solver", {}).get("calls", 0)
    whole = times.get(root, {"self_ns": 0, "total_ns": 0})
    return {
        "history.ms": per_answer("history"),
        "history.statements": counted_per_answer("history", "statements"),
        "store.as_of_ms": per_answer("store.as_of"),
        "store.replay_statements": counted_per_answer("store.as_of", "replay"),
        "insert_split.ms": per_answer("insert_split"),
        "dependency.ms": per_answer("dependency"),
        "dependency.kept_ratio": ratio(
            count(counts, "dependency", "kept"),
            count(counts, "dependency", "total"),
        ),
        "compress.ms": per_answer("compress"),
        "compress.rows": counted_per_answer("compress", "rows"),
        "symexec.ms": per_answer("symexec"),
        "solver.ms": per_answer("solver"),
        "solver.calls": ratio(solver_calls, counted),
        "solver.unsat_ratio": ratio(count(counts, "solver", "unsat"),
                                    solver_calls),
        "solver.unknown": counted_per_answer("solver", "unknown"),
        "data_slicing.ms": per_answer("data_slicing"),
        "reenactment.ms": per_answer("reenactment"),
        "optimizer.ms": per_answer("optimizer"),
        "optimizer.operators": counted_per_answer("optimizer", "operators"),
        "planner.ms": per_answer("planner"),
        "planner.sharded_ratio": ratio(
            count(times, "planner", "sharded"),
            times.get("planner", {}).get("calls", 0),
        ),
        "exec.ms": per_answer("exec"),
        "exec.rows_out": counted_per_answer("exec", "rows"),
        "exec.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "shard.ms": per_answer("shard"),
        "shard.skipped_ratio": ratio(
            count(times, "shard", "skipped"), count(times, "shard", "shards")
        ),
        "delta.ms": per_answer("delta"),
        "delta.rows": counted_per_answer("delta", "rows"),
        "batch.ms": per_answer("batch"),
        "wire.ms": per_answer("wire"),
        "answer.unattributed_share": ratio(whole["self_ns"], whole["total_ns"]),
    }


def write_trace(workload, result: dict, factor: float) -> None:
    """The Chrome trace (Perfetto) and the per-layer summary of a run."""
    layers, events = result["trace"]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{result['seed']}"
    stem.with_suffix(".trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
    )
    stem.with_suffix(".layers.json").write_text(json.dumps(
        {"speed_factor": factor, "raw_metrics": result["metrics"],
         "layers": layers},
        indent=1,
    ))


def scale(value: float, unit: str, factor: float) -> float:
    """A measured value at the reference machine speed (see speed.py)."""
    if unit in ("ms", "s"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def report(workload, result: dict, trace: bool) -> dict:
    """Print every metric with its unit, sample count and raw (unscaled)
    value; return the result line."""
    from perfbench.speed import REFERENCE_MS

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics, counts = result["metrics"], result["counts"]
    factor = result["speed"].factor
    scaled = result.get("scaled") or {
        name: scale(metrics[name], unit, factor)
        for name, unit in units.items()
    }
    samples = {"setup_s": counts.get("setup"), "peak_rss_mb": 1}
    lines = [
        (name, scaled[name], metrics[name], unit,
         samples.get(name) or counts["answers"])
        for name, unit in units.items()
    ]
    if "append_ms_p50" in metrics:
        lines.append(("append_ms_p50", scaled["append_ms_p50"],
                      metrics["append_ms_p50"], "ms", counts["appends"]))
    error_rate = ratio(result["failed"], result["attempted"])
    lines.append(("error_rate", error_rate, error_rate, "ratio",
                  result["attempted"]))
    print(f"speed factor {factor:.4f} (reference kernel {REFERENCE_MS} ms, "
          f"n={len(result['speed'].samples)}); columns: scaled, unit, "
          "samples, raw")
    for name, value, raw, unit, n in lines:
        print(f"{name:34s} {value:14.4f} {unit:6s} n={n:<6d} raw {raw:.4f}")
    print(f"oracle checks: {result['checked']}, mismatches: "
          f"{result['mismatches']}")
    if "trace" in result:
        write_trace(workload, result, factor)
    return {
        "correct": result["mismatches"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": scaled[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up probe, the oracle and the server child re-enter
    # here.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--serve", metavar="ROOT", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Production defaults: plan verification is off unless asked for.
    os.environ.pop("MAHIF_VERIFY_PLANS", None)
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.oracle:
        return oracle()
    if args.serve:
        from perfbench.launcher import serve

        return serve(args.serve, args.trace_out)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        library_setup(workload, args.seed, set())
        print("ready", flush=True)
        return 0
    run = run_service if workload.service else run_library
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    result["seed"] = args.seed
    line = report(workload, result, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
