"""Per-layer probes for the traced run.

Each probe times calls into one public entry point of the program from
the outside: a wrapper set as an instance attribute in place of a bound
method, so the program itself carries no extra span.  The untraced run
installs none of them.
"""

from __future__ import annotations

import bisect
import socket
import threading
import time

from common import BOUND_SPANS, SPANS, mean, median


class Timed:
    """Wraps ``owner.<name>`` and records the duration, the monotonic end
    and the calling thread of every call."""

    def __init__(self, owner, name: str) -> None:
        self.owner = owner
        self.name = name
        self.inner = getattr(owner, name)
        self.seconds: list[float] = []
        self.ended: list[float] = []
        self.threads: list[int] = []
        setattr(owner, name, self)

    def __call__(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.inner(*args, **kwargs)
        finally:
            self.seconds.append(time.perf_counter() - started)
            self.ended.append(time.monotonic())
            self.threads.append(threading.get_ident())


class BatchProbe:
    """Times every ``estimate_batch`` call of one estimator.

    A call records its monotonic start (the clock every process on the
    host shares, so a client can line its send times up with it), its
    duration, the names of its queries and whether each query was cold:
    the first time its name was estimated since the statistics last
    changed: ``epoch()`` returns the estimator's catalog version, plus,
    under ingest, the rows inserted so far (every insert clears the
    conditioning cache).
    """

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        self.inner = estimator.estimate_batch
        self.calls: list[tuple[float, float, list[str], list[bool]]] = []
        self.epoch = lambda: estimator.version
        self._seen: set[tuple] = set()
        estimator.estimate_batch = self

    def __call__(self, queries):
        epoch = self.epoch()
        names = [q.name for q in queries]
        cold = [(epoch, n) not in self._seen for n in names]
        self._seen.update((epoch, n) for n in names)
        started = time.monotonic()
        try:
            return self.inner(queries)
        finally:
            self.calls.append((started, time.monotonic() - started, names, cold))


def batch_metrics(calls, cold_all: bool = False) -> dict:
    """``estimator.*`` metrics over ``(start, seconds, names, cold)`` calls.
    ``cold_all`` counts every query as cold (a pass right after an open)."""
    if not calls:
        return {}
    queries = sum(len(c[2]) for c in calls)
    cold_s = cold_n = warm_s = warm_n = 0.0
    for _, seconds, names, cold in calls:
        share = seconds / len(names)
        for flag in cold:
            if flag or cold_all:
                cold_s += share
                cold_n += 1
            else:
                warm_s += share
                warm_n += 1
    out = {
        "estimator.call_ms_p50": 1e3 * median(c[1] for c in calls),
        "estimator.ms_per_query": 1e3 * sum(c[1] for c in calls) / queries,
        "estimator.batch_size_mean": queries / len(calls),
    }
    if cold_n:
        out["estimator.cold_ms_per_query"] = 1e3 * cold_s / cold_n
    if warm_n:
        out["estimator.warm_ms_per_query"] = 1e3 * warm_s / warm_n
    return out


def hit_rate(before: dict | None, after: dict) -> float:
    """Conditioning-cache hit rate between two ``conditioning_cache_stats``
    readings of the same cache (``before`` None: since it was created)."""
    hits = after["local"]["hits"] - (before["local"]["hits"] if before else 0)
    misses = after["local"]["misses"] - (before["local"]["misses"] if before else 0)
    return hits / (hits + misses) if hits + misses else 0.0


def span_metrics(tracer) -> dict:
    totals = tracer.stage_totals()
    out = {}
    for name in SPANS:
        stage = totals.get(name, {"count": 0, "self_seconds": 0.0})
        out[f"span.{name}.self_ms"] = 1e3 * stage["self_seconds"]
        out[f"span.{name}.count"] = stage["count"]
    out["span.bound.self_ms"] = sum(out[f"span.{name}.self_ms"] for name in BOUND_SPANS)
    return out


def wire_metrics(queries, reps: int = 5) -> dict:
    """The ``service.wire`` codec and framing on the workload's own
    ``bound`` requests: encode is query -> wire dict -> frame bytes, decode
    is frame bytes read off a socket -> wire dict -> query."""
    from repro.service.wire import encode_frame, query_from_wire, query_to_wire, read_frame

    encode, decode, sizes = [], [], []
    left, right = socket.socketpair()
    try:
        for _ in range(reps):
            for query in queries:
                started = time.perf_counter()
                frame = encode_frame({"op": "bound", "query": query_to_wire(query)})
                encode.append(time.perf_counter() - started)
                sizes.append(len(frame))
                left.sendall(frame)
                started = time.perf_counter()
                query_from_wire(read_frame(right)["query"])
                decode.append(time.perf_counter() - started)
    finally:
        left.close()
        right.close()
    return {
        "wire.encode_us_p50": 1e6 * median(encode),
        "wire.decode_us_p50": 1e6 * median(decode),
        "wire.request_bytes_mean": mean(sizes),
    }


def serve_timing(requests, calls) -> dict:
    """``server.wait_ms_p50`` and ``net.overhead_ms_p50`` from the client's
    ``(sent, received, name)`` requests and the host's batch calls: a
    request was served by the call holding its query name that started
    between its send and its reply."""
    calls = sorted(calls)
    starts = [c[0] for c in calls]
    waits, overheads = [], []
    for sent, received, name in requests:
        i = bisect.bisect_left(starts, sent)
        while i < len(calls) and calls[i][0] <= received:
            start, seconds, names, _ = calls[i]
            if name in names:
                waits.append(start - sent)
                overheads.append((received - sent) - (start - sent) - seconds)
                break
            i += 1
    if not waits:
        return {}
    return {
        "server.wait_ms_p50": 1e3 * median(waits),
        "net.overhead_ms_p50": 1e3 * median(overheads),
    }

