"""Run workloads repeatedly and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --workloads ceb-ingest jobl-plan --seeds 1 2 3 4 5

Each run is an untraced ``run.py`` with one seed and the benchmark's own
run length (``run_seconds`` in ``BENCHMARK.json``).
For every metric the table gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (their
distance as a share of the median) and the metric's bound from
``BENCHMARK.json``.  A spread above a third of the bound is flagged
``over 1/3``, one above the bound ``WIDE``; ``setup_s`` is judged only by its median, so its spread is
shown but not flagged.  The runs' results are also saved to
``perfbench/results/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, RESULTS_DIR, ROOT, WORKLOADS, declared_metrics


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    record = RESULTS_DIR / f"{workload}-seed{seed}-trace0.json"
    with open(record) as fh:
        result["calibration_s"] = json.load(fh)["provenance"]["calibration_s"]
    return result


def summarize(runs: list[dict], bounds: dict) -> list[str]:
    lines = []
    failed = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
    correct = sum(bool(r["correct"]) for r in runs)
    walls = [r["wall_s"] for r in runs]
    calibration = [r["calibration_s"] for r in runs]
    lines.append(
        f"  runs {len(runs)}, correct {correct}, failed/attempted {', '.join(failed)}, "
        f"wall {min(walls):.1f}-{max(walls):.1f}s, "
        f"calibration {min(calibration):.3f}-{max(calibration):.3f}s"
    )
    lines.append(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "WIDE" if spread > bound else "over 1/3"
        lines.append(
            f"  {name:24s} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
            f"{bound if bound is not None else '':>6} {flag}"
        )
    return lines


def main() -> int:
    declared = declared_metrics()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    report = {}
    for workload in args.workloads:
        report[workload] = [
            {"seed": seed, **run_once(workload, seed, declared["run_seconds"])}
            for seed in args.seeds
        ]
        print(f"{workload}:")
        print("\n".join(summarize(report[workload], bounds)), flush=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "run_seconds": declared["run_seconds"], "runs": report}, fh, indent=2)
    print(f"saved {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
