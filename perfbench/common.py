"""Shared plumbing of the benchmark: paths, metric declarations, simple
statistics, operation accounting, provenance and the run record.

Nothing here imports the program (``repro``); :func:`import_program`
does, so that a checkout without the program's sources fails loudly
before any measurement.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

WORKLOADS = ("jobl-plan", "ceb-ingest")
# Complete setups per run; setup_s is their median.
SETUPS = 3
# Operation types whose attempted / failed counts every record carries.
OP_TYPES = ("bound", "plan", "insert", "republish")

# Spans the program already records.  The traced run reports the count
# of each, and self-time for the ones both workloads enter (array_eval
# and dp_level read 0 on one of them; their self-times stay in the record).
SPANS = (
    "bound.compile",
    "conditioning.batch",
    "conditioning.truncate",
    "bound.array_eval",
    "bound.object_eval",
    "optimizer.dp_level",
)
BOUND_SPANS = ("bound.compile", "bound.array_eval", "bound.object_eval")


def import_program() -> None:
    """Put the program's sources on the path; exit non-zero without them."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def declared_metrics() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = (len(data) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


class Ops:
    """Attempted and failed operations, per operation type.

    An operation fails when it raises (:meth:`fail`) or when its output
    fails a check (:meth:`wrong`); only the second makes a run incorrect.
    """

    def __init__(self) -> None:
        self.counts = {op: [0, 0] for op in OP_TYPES}
        self.failures: list[str] = []
        self.wrong_outputs = 0

    def attempt(self, op: str, n: int = 1) -> None:
        self.counts[op][0] += n

    def fail(self, op: str, why: str) -> None:
        self.counts[op][1] += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op}: {why}")

    def wrong(self, op: str, why: str) -> None:
        self.wrong_outputs += 1
        self.fail(op, why)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())

    def to_dict(self) -> dict:
        return {
            op: {"attempted": a, "failed": f}
            for op, (a, f) in self.counts.items()
            if a
        }


def build_publish_open(db, root: Path, database: str, refresh_db=None, probe: bool = False):
    """The program's part of one setup: ``SafeBound`` statistics built
    from ``db`` and published into a fresh catalog at ``root``, then the
    published version opened cold in a fresh ``CatalogBackedSafeBound``
    (given ``refresh_db`` for update tracking).  ``probe`` times
    ``StatsCatalog.publish``.  Returns the opened estimator and the
    readings of the setup's layers."""
    from repro.service import CatalogBackedSafeBound, StatsCatalog

    catalog = StatsCatalog(root)
    builder = CatalogBackedSafeBound(catalog, database)
    if probe:
        from probes import Timed

        publish = Timed(catalog, "publish")
    builder.build(db)
    opened = time.perf_counter()
    served = CatalogBackedSafeBound(StatsCatalog(root), database)
    served.refresh(refresh_db)
    open_s = time.perf_counter() - opened
    version = catalog.latest(database)
    return served, {
        "build_s": builder.build_seconds,
        "open_s": open_s,
        "publish_s": publish.seconds[0] if probe else None,
        "sequences": version.num_sequences,
        "stats_bytes": version.file_bytes,
        "archive": str(catalog.archive_path(version)),
    }


def calibration_s() -> float:
    """Seconds for a fixed mix of NumPy and pure-Python work.  Recorded
    with every run (not a metric): the machine's speed drifts by tens of
    percent over minutes, and this reading tells such drift apart from a
    change in the program."""
    import numpy

    data = numpy.random.default_rng(0).random(200_000)
    started = time.perf_counter()
    for _ in range(50):
        numpy.sort(data)
        sum(i * i for i in range(50_000))
    return time.perf_counter() - started


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, inputs: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "calibration_s": args.calibration_s,
        **inputs,
    }


def write_record(args, record: dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return path
