"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload ceb-ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
per-layer probes and the program's own tracer and reports the per-layer
metrics (plus a Chrome trace under ``perfbench/results/``).  Every run
writes its full record, provenance included, to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.  The last
line of standard output is the result object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

from common import (
    RESULTS_DIR, WORKLOADS, calibration_s, declared_metrics, import_program, provenance,
    write_record,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like a failed one: the serving host is
    # stopped and waited for, and temporary catalogs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    declared = declared_metrics()
    import_program()
    import inputs

    args.calibration_s = calibration_s()
    if args.workload == "jobl-plan":
        import plan as workload
    else:
        import serve as workload
    result = workload.run(args)

    # Every workload reports every declared metric of the run's kind.  A
    # workload measures more than that (figures of layers or operations
    # only it exercises); those stay in the record.
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    measured = result["layers"] if args.trace else result["metrics"]
    reported = {name: measured[name] for name in units if name in measured}
    missing = sorted(set(units) - set(reported))
    ops = result["ops"]
    # Operations that raised are counted, not fatal.  "correct" says that
    # no output failed its check and that the run produced, as finite
    # numbers, every declared metric.
    correct = ops.wrong_outputs == 0 and ops.attempted > 0 and not missing and all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in reported.values()
    )

    record = {
        "provenance": provenance(args, inputs.describe()),
        "correct": correct,
        "ops": ops.to_dict(),
        "wrong_outputs": ops.wrong_outputs,
        "failures": ops.failures,
        "missing_metrics": missing,
        "metrics": result["metrics"],
        "layers": result["layers"],
        "detail": result["detail"],
    }
    tracer = result.get("tracer")
    if tracer is not None:
        trace_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(str(trace_path))
        record["chrome_trace"] = str(trace_path.relative_to(RESULTS_DIR.parent.parent))
    path = write_record(args, record)

    for name, value in sorted(reported.items()):
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print("ops " + json.dumps(ops.to_dict(), sort_keys=True))
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for name in missing:
        print(f"MISSING {name}")
    print(f"record {path.relative_to(RESULTS_DIR.parent.parent)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(reported.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
