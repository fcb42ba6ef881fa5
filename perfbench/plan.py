"""jobl-plan: JOB-Light planned in-process after a fresh catalog open.

Each pass opens the latest catalog version in a fresh
``CatalogBackedSafeBound`` and plans every query, in a seeded order, with
``optimizer.join_order.Planner``: the cost a planner pays after every
republish or worker start (batched DP estimates, skeleton compilation,
cold conditioning).  Net, wire and server take no part.
"""

from __future__ import annotations

import os
import shutil
import time

import checks
import inputs
from common import (
    SETUPS, WORK_DIR, Ops, build_publish_open, dir_bytes, fresh_dir, mean, median, peak_rss_mb,
    quantile,
)

DATABASE = "imdb"


def run(args) -> dict:
    from repro.optimizer import Planner
    from repro.service import CatalogBackedSafeBound

    workload = inputs.jobl_workload()
    db, queries = workload.db, workload.queries
    ops = Ops()
    work = fresh_dir(WORK_DIR / f"jobl-{os.getpid()}")
    try:
        # Complete setups (build, publish, open); setup_s is their median.
        setups, setup_layers = [], []
        for i in range(SETUPS):
            started = time.perf_counter()
            served, layer = build_publish_open(db, work / f"catalog{i}", DATABASE, probe=args.trace)
            setups.append(time.perf_counter() - started)
            setup_layers.append(layer)
        catalog = served.catalog
        stats_bytes = setup_layers[-1]["stats_bytes"]
        del served

        tracer = None
        if args.trace:
            from probes import BatchProbe
            from repro.obs.tracing import Tracer, install_tracer

            tracer = install_tracer(Tracer())
        orders = inputs.passes(args.seed, 0, len(queries))
        planned, plan_s, open_s = [], [], []
        est_calls, est_self, hits = [], [], [0, 0]
        started = time.perf_counter()
        deadline = started + args.seconds
        while True:
            opening = time.perf_counter()
            estimator = CatalogBackedSafeBound(catalog, DATABASE)
            estimator.refresh()
            open_s.append(time.perf_counter() - opening)
            probe = BatchProbe(estimator) if tracer else None
            planner = Planner(db, estimator)
            for index in next(orders):
                ops.attempt("plan")
                calls_before = len(probe.calls) if probe else 0
                t0 = time.perf_counter()
                try:
                    result, error = planner.plan(queries[index]), None
                except Exception as exc:  # counted as a failed plan
                    result, error = None, repr(exc)
                plan_s.append(time.perf_counter() - t0)
                planned.append((index, result, error))
                if probe:
                    calls = probe.calls[calls_before:]
                    est_calls.append(calls)
                    est_self.append(plan_s[-1] - sum(c[1] for c in calls))
            if probe:
                cache = estimator.conditioning_cache_stats()["local"]
                hits[0] += cache["hits"]
                hits[1] += cache["misses"]
            if time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - started
        rss_mb = peak_rss_mb()
        catalog_bytes = dir_bytes(catalog.root)
        versions = len(catalog.versions(DATABASE))
        if tracer:
            from repro.obs.tracing import uninstall_tracer

            uninstall_tracer()

        reference = checks.PlanReference(db, queries)
        costs = checks.check_plans(ops, queries, planned, reference)
        first = planned[: len(queries)]
        ratios = [
            result.plan.est_rows / max(reference.counts[index], 1.0)
            for index, result, _ in first
            if result is not None
        ]
        metrics = {
            "setup_s": median(setups),
            "latency_ms_p50": 1e3 * median(plan_s),
            "latency_ms_p95": 1e3 * quantile(plan_s, 0.95),
            "ops_per_s": len(plan_s) / elapsed,
            "rss_mb": rss_mb,
            "stats_mb": stats_bytes / 2**20,
            "catalog_mb": catalog_bytes / 2**20,
            "bound_over_truth_p50": median(ratios),
            "bound_over_truth_p95": quantile(ratios, 0.95),
            # Plan quality, kept in the record: only this workload plans.
            "plan_cost_ratio": sum(costs[: len(queries)]) / sum(reference.costs),
        }
        layers = {}
        if tracer:
            from probes import batch_metrics, span_metrics, wire_metrics

            all_calls = [c for calls in est_calls for c in calls]
            estimator_layer = batch_metrics(all_calls, cold_all=True)
            layers = {
                "build.build_s": median(s["build_s"] for s in setup_layers),
                "build.sequences": setup_layers[-1]["sequences"],
                "catalog.publish_ms": 1e3 * median(s["publish_s"] for s in setup_layers),
                "catalog.open_ms": 1e3 * median(open_s),
                "catalog.versions": versions,
                **estimator_layer,
                "conditioning.hit_rate": hits[0] / max(hits[0] + hits[1], 1),
                "optimizer.self_ms_p50": 1e3 * median(est_self),
                "optimizer.subqueries_per_plan": mean(
                    r.estimate_calls for _, r, _ in planned if r is not None
                ),
                "optimizer.batches_per_plan": mean(len(c) for c in est_calls),
                **span_metrics(tracer),
                # Nothing here goes over the wire: this is what the codec
                # would cost for this workload's queries as requests.
                **wire_metrics(queries),
            }
        return {
            "metrics": metrics,
            "layers": layers,
            "ops": ops,
            "tracer": tracer,
            "detail": {
                "passes": len(open_s),
                "window_s": elapsed,
                "setup_s": setups,
                "plans": len(plan_s),
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
