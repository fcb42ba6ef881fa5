"""The serving host of ceb-ingest: the process the program runs in.

It performs the setups (build, publish, open, listener ready), serves
over the socket, and runs the seeded writer and the program's own
``RepublishWorker``.  It speaks to the benchmark's client (``serve.py``)
through its standard streams: it prints one JSON event per line
(``ready``, ``window``, ``ended``, ``stopped``, or ``error``) and reads
one command per line (``go``, ``end``, ``stop``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import inputs
from common import SETUPS, build_publish_open, dir_bytes, import_program, median, peak_rss_mb, quantile

DATABASE = "stats"
# Bounds on the untimed phases, so a hung program cannot hang the run.
JOIN_TIMEOUT_S = 120.0


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def expect(command: str) -> None:
    line = sys.stdin.readline().strip()
    if line != command:
        raise RuntimeError(f"expected {command!r} from the client, got {line!r}")


class Stack:
    """One complete setup: statistics built and published into a fresh
    catalog, opened cold, and served through ``EstimationServer`` and
    ``NetServer`` with the program's defaults."""

    def __init__(self, db, root: Path, trace: bool) -> None:
        from repro.service import EstimationServer, NetServer

        started = time.perf_counter()
        self.estimator, self.layer = build_publish_open(
            db, root, DATABASE, refresh_db=db, probe=trace,
        )
        self.server = EstimationServer(self.estimator, refresh_db=db)
        self.server.start()
        self.net = NetServer(self.server).start()
        self.setup_s = time.perf_counter() - started
        self.root = root

    def stop(self) -> float:
        started = time.perf_counter()
        self.net.stop()
        net_stop_s = time.perf_counter() - started
        self.server.stop()
        return net_stop_s


def write(ingest, writes, due_at: list[float], inserts: list, errors: list) -> None:
    """Open-loop writes: the inserts of burst ``b`` are due at
    ``due_at[b]`` whether or not earlier ones were late."""
    for burst, table, rows in writes:
        due = due_at[burst]
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            ingest.insert(table, rows)
        except Exception as exc:  # counted as a failed insert
            errors.append(repr(exc))
        inserts.append((due, time.monotonic()))


def writer(ingest, stream, went: float, republish, seconds: float, window: list,
           inserts: list, errors: list) -> None:
    """The write stream: the front bursts from ``went``, then, once
    the republish they trigger has swapped its version in (or the wait for
    it timed out), the timed window starts (its start is appended to
    ``window`` and sent to the client) and the other bursts are due over it."""
    front = [w for w in stream if w[0] < inputs.FRONT_BURSTS]
    write(ingest, front, [went + t for t in inputs.front_offsets()], inserts, errors)
    waited = time.monotonic() + JOIN_TIMEOUT_S
    while not republish.ended and time.monotonic() < waited:
        time.sleep(0.01)
    start = republish.ended[0] if republish.ended else time.monotonic()
    window.append(start)
    emit("window", start=start)
    due_at = [0.0] * inputs.FRONT_BURSTS + [start + t for t in inputs.window_offsets(seconds)]
    write(ingest, stream[len(front):], due_at, inserts, errors)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    import_program()

    work = Path(args.work)
    stacks: list[Stack] = []
    try:
        db = inputs.ceb_workload().db
        stream = inputs.write_stream(db, args.seed)
        for i in range(SETUPS):
            stacks.append(Stack(db, work / f"catalog{i}", bool(args.trace)))
        serving = stacks[-1]
        estimator = serving.estimator
        probe = None
        if args.trace:
            from probes import BatchProbe

            probe = BatchProbe(estimator)
        emit(
            "ready",
            port=serving.net.port,
            setup_s=[s.setup_s for s in stacks],
            build_s=[s.layer["build_s"] for s in stacks],
            open_s=[s.layer["open_s"] for s in stacks],
            publish_s=[s.layer["publish_s"] for s in stacks],
            archive=serving.layer["archive"],
            stats_bytes=serving.layer["stats_bytes"],
            sequences=serving.layer["sequences"],
        )

        expect("go")
        tracer = None
        if args.trace:
            from repro.obs.tracing import Tracer, install_tracer

            tracer = install_tracer(Tracer())
        from probes import Timed
        from repro.service import RepublishWorker, UpdateIngest

        cache_before = estimator.conditioning_cache_stats()
        version_before = estimator.version
        # The write stream starts at "go", the window once the republish
        # it triggers has swapped.
        went = time.monotonic()
        window: list[float] = []
        inserts, insert_errors = [], []
        ingest = UpdateIngest(db, estimator)
        republish = Timed(ingest, "republish")
        if probe is not None:
            probe.epoch = lambda: (estimator.version, ingest.inserted_rows)
        if args.trace:
            swap = Timed(estimator, "refresh")
            publish = Timed(estimator.catalog, "publish")
        worker = RepublishWorker(ingest)
        worker.start()
        writing = threading.Thread(
            target=writer,
            args=(ingest, stream, went, republish, args.seconds, window, inserts, insert_errors),
            name="perfbench-writer",
        )
        writing.start()

        expect("end")
        # A swap starts a fresh conditioning cache: count from the swap.
        cache_after = estimator.conditioning_cache_stats()
        if estimator.version != version_before:
            cache_before = None
        writing.join(JOIN_TIMEOUT_S)
        worker.stop(JOIN_TIMEOUT_S)
        if writing.is_alive() or worker.is_alive():
            raise RuntimeError("the writer or the republish worker did not finish")
        latest = estimator.catalog.latest(DATABASE)
        insert_ms = [1e3 * (done - due) for due, done in inserts]
        ended = dict(
            insert_ms_p50=median(insert_ms),
            insert_ms_p90=quantile(insert_ms, 0.9),
            insert_ms=insert_ms,
            inserts=[done for _, done in inserts],
            insert_errors=insert_errors,
            republish_s=republish.seconds,
            republish_errors=[repr(worker.last_error)] * worker.failures,
            served_latest=estimator.version == latest.version,
            inserted_rows=ingest.inserted_rows,
            catalog_bytes=dir_bytes(serving.root),
            versions=len(estimator.catalog.versions(DATABASE)),
        )
        # Read before any checking work runs in this process.
        ended["rss_mb"] = peak_rss_mb()
        if tracer is not None:
            from probes import hit_rate, span_metrics
            from repro.obs.tracing import uninstall_tracer

            uninstall_tracer()
            ended["spans"] = span_metrics(tracer)
            ended["hit_rate"] = hit_rate(cache_before, cache_after)
            ended["calls"] = probe.calls
            ended["window_start"] = window[0]
            # The republish worker's own calls, apart from the server's
            # 50 ms refresh poll.
            ended["swap_s"] = [s for s, t in zip(swap.seconds, swap.threads) if t == worker.ident]
            ended["republish_publish_s"] = publish.seconds
            if args.trace_file:
                tracer.write_chrome_trace(args.trace_file)
        emit("ended", **ended)

        expect("stop")
    except Exception:
        emit("error", detail=traceback.format_exc())
        return 1
    finally:
        # Untimed, bounded teardown: every listener and server stopped
        # (in parallel: NetServer.stop() blocks until its accept thread
        # ends), every catalog removed.
        net_stop = [None] * len(stacks)

        def stop(i: int) -> None:
            net_stop[i] = stacks[i].stop()

        stoppers = [threading.Thread(target=stop, args=(i,)) for i in range(len(stacks))]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join(JOIN_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)
    emit("stopped", net_stop_s=net_stop[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
