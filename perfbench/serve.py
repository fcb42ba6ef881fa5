"""ceb-ingest: stats-CEB bounds served over the socket beside writes.

The program runs in its own process (``host.py``: ``NetServer`` over
``EstimationServer`` over ``CatalogBackedSafeBound``).  This process is
the one client: one connection sending size-1 ``bound`` requests in a
closed loop, cycling through the queries in a seeded order, after one untimed pass over them.  The host then appends
seeded rows, which trigger one republish; the timed traffic starts once
the new version has been swapped in, and more rows arrive during it.
"""

from __future__ import annotations

import bisect
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time

import checks
import inputs
from common import BENCH_DIR, RESULTS_DIR, ROOT, WORK_DIR, Ops, median, program_env, quantile

# One closed-loop connection keeps about one CPU busy, the client's and
# the host's work alternating.  With two (this machine's nproc) both
# vCPUs were busy and throughput followed the CPU time the shared host
# granted: ten runs spread 25% while setup_s, one CPU, spread 6%.
CONNECTIONS = 1
# Bounds on the untimed phases, so a hung program cannot hang the run.
READY_TIMEOUT_S = 300.0
EVENT_TIMEOUT_S = 150.0
# The front bursts and the rebuild they trigger.
WINDOW_TIMEOUT_S = 150.0


class Host:
    """The serving host process and its line protocol."""

    def __init__(self, args, work) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "host.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work),
        ]
        if args.trace:
            command += ["--trace-file", str(RESULTS_DIR / f"{args.workload}-seed{args.seed}.trace.json")]
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=program_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.events: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("{"):
                self.events.put(json.loads(line))
        self.events.put({"event": "exit"})

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def expect(self, event: str, timeout: float) -> dict:
        try:
            message = self.events.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"serving host sent no {event!r} within {timeout:g}s") from None
        if message["event"] != event:
            raise RuntimeError(f"serving host: expected {event!r}, got {message}")
        return message

    def close(self) -> None:
        """Wait for the host to exit; kill it if it does not."""
        try:
            self.proc.wait(EVENT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(10)


def closed_loop(port: int, wires, orders, deadline: float | None = None) -> list:
    """One connection: ``bound`` requests back to back, pass after pass
    over ``orders``, until ``deadline`` (through every pass when it is
    None).  Returns ``(index, bound, error, sent, received)`` per request.

    The window ends at the deadline, not at the end of a pass: a pass of
    ceb-ingest takes seconds, and a window stretched to a pass boundary
    would hold a varying number of them."""
    from repro.service.net import NetClient

    out = []
    with NetClient("127.0.0.1", port) as client:
        for order in orders:
            for index in order:
                sent = time.monotonic()
                if deadline is not None and sent >= deadline:
                    return out
                try:
                    bound, error = client.bound(wires[index]), None
                except Exception as exc:  # counted as a failed request
                    bound, error = None, repr(exc)
                out.append((index, bound, error, sent, time.monotonic()))
    return out


def in_threads(fn, argsets) -> list:
    results = [None] * len(argsets)

    def call(i):
        results[i] = fn(*argsets[i])

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(argsets))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def ingest_truths(db, queries, stream, states) -> dict[int, list[int]]:
    """Exact counts after the first ``k`` inserts of ``stream``, for each
    ``k`` in ``states``, replayed on ``db`` (the benchmark's own copy)."""
    from repro.service.ingest import append_rows

    truths = {}
    applied = 0
    for k in sorted(states):
        for _, table, rows in stream[applied:k]:
            append_rows(db, table, rows)
        applied = k
        truths[k] = checks.exact_counts(db, queries)
    return truths


def run(args) -> dict:
    from repro.core.safebound import SafeBound
    from repro.core.serialization import load_stats
    from repro.service.wire import query_to_wire

    workload = inputs.ceb_workload()
    db, queries = workload.db, workload.queries
    wires = [query_to_wire(q) for q in queries]
    connections = CONNECTIONS
    ops = Ops()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    host = Host(args, work)
    try:
        ready = host.expect("ready", READY_TIMEOUT_S)
        port = ready["port"]
        # The untimed pass: every query once, spread over the connections,
        # before any write, on the statistics published at setup.  Its
        # bounds are checked against in-process ones and give the tightness.
        warm = list(range(len(queries)))
        warmed = in_threads(closed_loop, [(port, wires, [warm[c::connections]]) for c in range(connections)])

        # The host starts writing at "go"; the window starts when the
        # republish that the writes trigger has swapped its version in.
        # The client waits for it: reads beside the rebuild would stretch
        # it (11-19 s against about 5 s alone) and the run with it, and
        # the window does not hold them.
        host.send("go")
        went = time.monotonic()
        started = host.expect("window", WINDOW_TIMEOUT_S)["start"]
        per_connection = in_threads(
            closed_loop,
            [(port, wires, inputs.passes(args.seed, 1 + c, len(queries)), started + args.seconds)
             for c in range(connections)],
        )
        checked = [r for rs in warmed + per_connection for r in rs]
        requests = [r for rs in per_connection for r in rs]
        elapsed = max(r[4] for r in requests) - started
        host.send("end")
        ended = host.expect("ended", EVENT_TIMEOUT_S)

        ops.attempt("bound", len(checked))
        # The archive published at setup is mapped before the host tears
        # down and removes its catalogs; the checks then run beside the
        # teardown.
        served = SafeBound()
        served.stats = load_stats(ready["archive"])
        host.send("stop")

        # Each request is checked against the exact count on the data as
        # it stood at the latest checkpoint whose inserts had all returned
        # when the request was sent; the warm pass's, which all come
        # before the first insert, also against in-process bounds.
        stream = inputs.write_stream(db, args.seed)
        checkpoints = [b * len(inputs.INGEST_TABLES) for b in inputs.CHECKPOINTS]
        visible = ended["inserts"]
        truths = ingest_truths(db, queries, stream, checkpoints)
        by_state: dict[int, list] = {}
        for index, bound, error, sent, _ in checked[len(queries):]:
            k = bisect.bisect_right(visible, sent)
            state = checkpoints[bisect.bisect_right(checkpoints, k) - 1]
            by_state.setdefault(state, []).append((index, bound, error))
        for state, group in by_state.items():
            checks.check_served(ops, group, truths[state])
        reference = [served.bound(q) for q in queries]
        warm_results = [(index, bound, error) for index, bound, error, _, _ in checked[: len(queries)]]
        checks.check_served(ops, warm_results, truths[0], reference)
        ops.attempt("insert", len(stream))
        for error in ended["insert_errors"]:
            ops.fail("insert", error)
        # The stream crosses the threshold once: a run without a republish
        # has lost one.
        ops.attempt("republish", max(1, len(ended["republish_s"])))
        if not ended["republish_s"]:
            ops.wrong("republish", "the write stream crossed the threshold; nothing was republished")
        for error in ended["republish_errors"]:
            ops.fail("republish", error)
        if not ended["served_latest"]:
            ops.wrong("republish", "the latest published version is not the one served")
        stopped = host.expect("stopped", EVENT_TIMEOUT_S)
    except BaseException:
        # A failed or terminated run does not wait for the host's own
        # teardown: the host is ended at once, its catalogs removed below.
        host.proc.terminate()
        raise
    finally:
        if host.proc.poll() is None and not host.proc.stdin.closed:
            try:
                host.send("stop")
            except OSError:
                pass
        host.close()
        shutil.rmtree(work, ignore_errors=True)

    latency = [r[4] - r[3] for r in requests]
    # Tightness of the statistics published at setup, over the full
    # queries of the warm pass (each once, before any write).
    ratios = [bound / max(truths[0][index], 1) for index, bound, error in warm_results if error is None]
    # The tail is reported at p95: over ten runs of the same code the p99
    # spread further (12-20% on warm stats-CEB serving, where p95 spread
    # 9-12%).  Both, and p90 and p98, stay in the record.
    metrics = {
        "setup_s": median(ready["setup_s"]),
        "latency_ms_p50": 1e3 * median(latency),
        "latency_ms_p95": 1e3 * quantile(latency, 0.95),
        "ops_per_s": len(requests) / elapsed,
        "rss_mb": ended["rss_mb"],
        "stats_mb": ready["stats_bytes"] / 2**20,
        "catalog_mb": ended["catalog_bytes"] / 2**20,
        "bound_over_truth_p50": median(ratios),
        "bound_over_truth_p95": quantile(ratios, 0.95),
        # Figures of the writes, kept in the record: jobl-plan does not
        # write, and every workload reports the same metrics.
        "insert_ms_p90": ended["insert_ms_p90"],
        "republish_s": median(ended["republish_s"]),
    }

    layers = {}
    if args.trace:
        from probes import batch_metrics, serve_timing, wire_metrics

        window = [c for c in ended["calls"] if c[0] >= ended["window_start"]]
        in_window = batch_metrics(window)
        every = batch_metrics(ended["calls"])
        names = [(r[3], r[4], queries[r[0]].name) for r in requests]
        layers = {
            "build.build_s": median(ready["build_s"]),
            "build.sequences": ready["sequences"],
            "catalog.publish_ms": 1e3 * median(ready["publish_s"] + ended.get("republish_publish_s", [])),
            "catalog.open_ms": 1e3 * median(ready["open_s"]),
            "estimator.call_ms_p50": in_window["estimator.call_ms_p50"],
            "estimator.ms_per_query": in_window["estimator.ms_per_query"],
            "estimator.batch_size_mean": in_window["estimator.batch_size_mean"],
            "estimator.cold_ms_per_query": every["estimator.cold_ms_per_query"],
            "estimator.warm_ms_per_query": every["estimator.warm_ms_per_query"],
            "conditioning.hit_rate": ended["hit_rate"],
            **ended["spans"],
            **wire_metrics(queries),
            **serve_timing(names, window),
            "net.stop_s": stopped["net_stop_s"],
            "catalog.versions": ended["versions"],
            "ingest.rebuild_s": median(
                total - publish - swap
                for total, publish, swap in zip(
                    ended["republish_s"], ended["republish_publish_s"], ended["swap_s"]
                )
            ),
            "ingest.swap_ms": 1e3 * median(ended["swap_s"]),
            "ingest.insert_ms_p50": ended["insert_ms_p50"],
            "ingest.republishes": len(ended["republish_s"]),
            "ingest.inserted_rows": ended["inserted_rows"],
        }
    return {
        "metrics": metrics,
        "layers": layers,
        "ops": ops,
        "tracer": None,
        "detail": {
            "connections": connections,
            "window_s": elapsed,
            "setup_s": ready["setup_s"],
            "requests": len(requests),
            "insert_ms": ended["insert_ms"],
            "window_after_go_s": started - went,
            "bound_ms": {
                f"p{q}": 1e3 * quantile(latency, q / 100) for q in (50, 90, 95, 98, 99)
            },
            "chrome_trace": f"perfbench/results/{args.workload}-seed{args.seed}.trace.json" if args.trace else None,
        },
    }
