"""The benchmark's inputs.

The databases and query lists are fixed: they come from the program's
workload generators at their own default data seeds, so statistics
size, bound tightness and plan quality are the same in every run and a
change to them is a change in the program.  ``--seed`` drives the
traffic only: the order in which each client cycles through the
queries, and the rows the ingest writer appends.
"""

from __future__ import annotations

import numpy as np

CEB_SCALE = 0.2
CEB_DATA_SEED = 5  # make_stats_ceb's default
JOBL_SCALE = 0.2
JOBL_DATA_SEED = 1  # make_job_light's default

# The ceb-ingest write stream: WRITE_BURSTS bursts, each appending
# ROWS_PER_INSERT rows to every table of INGEST_TABLES (one
# UpdateIngest.insert per table).  Its first FRONT_BURSTS are due in the
# FRONT_S seconds after the warm pass: at the program's default republish
# threshold (padding overhead 0.10) they carry postHistory (3000 rows, the
# smallest table) past it at burst 31.  The timed window starts when the
# rebuilt version has been swapped in.  The other bursts are due evenly
# over the window; they add at most 190 rows per table after the trigger,
# under the threshold, so every run republishes exactly once whatever the
# seed.
#
# The rebuild stays outside the window because its length follows the
# machine's speed (11-19 s beside reads): a window that held part of it
# held a share that varied from run to run, and its tail latency with it.
INGEST_TABLES = ("votes", "comments", "postHistory")
WRITE_BURSTS = 50
ROWS_PER_INSERT = 10
FRONT_BURSTS = 40
FRONT_S = 1.1
# The ingest replay computes exact counts before the stream, after the
# front bursts and after the last burst; a request is checked against the
# latest of these states whose inserts had all returned when it was sent.
CHECKPOINTS = (0, FRONT_BURSTS, WRITE_BURSTS)


def ceb_workload():
    """stats-CEB: 8 tables with a cyclic foreign-key graph, 146 queries."""
    from repro.workloads import make_stats_ceb

    return make_stats_ceb(scale=CEB_SCALE, seed=CEB_DATA_SEED)


def jobl_workload():
    """JOB-Light: 70 star queries over title and its five fact tables.

    The generator builds the whole synthetic IMDB; the planner is given
    only the six tables JOB-Light queries, as in the original benchmark.
    """
    from repro.db.database import Database
    from repro.workloads import make_job_light
    from repro.workloads.imdb import JOB_LIGHT_TABLES

    workload = make_job_light(scale=JOBL_SCALE, seed=JOBL_DATA_SEED)
    db = Database(workload.db.schema)
    for name in JOB_LIGHT_TABLES:
        db.add_table(workload.db.table(name))
    workload.db = db
    return workload


def passes(seed: int, stream: int, n: int):
    """Endless seeded permutations of ``range(n)``: the query order of each
    pass of one client stream."""
    rng = np.random.default_rng([seed, stream])
    while True:
        yield rng.permutation(n).tolist()


def front_offsets() -> list[float]:
    """When each front burst is due, in seconds from the start of the
    stream."""
    return [b * FRONT_S / FRONT_BURSTS for b in range(FRONT_BURSTS)]


def window_offsets(seconds: float) -> list[float]:
    """When each of the other bursts is due, in seconds from the start of
    a timed window of ``seconds``."""
    rest = WRITE_BURSTS - FRONT_BURSTS
    return [b * seconds / rest for b in range(rest)]


def write_stream(db, seed: int) -> list[tuple[int, str, dict]]:
    """The seeded inserts of ceb-ingest, in order, as ``(burst, table,
    rows)``.  Rows are resampled from the table's initial contents, so the
    written data keeps each column's distribution and every foreign key
    points at an existing row; ids continue past the initial ones."""
    rng = np.random.default_rng([seed, 7])
    initial = {name: db.table(name) for name in INGEST_TABLES}
    next_id = {name: int(table.column("id").max()) + 1 for name, table in initial.items()}
    stream = []
    for burst in range(WRITE_BURSTS):
        for name, table in initial.items():
            picks = rng.integers(0, table.num_rows, ROWS_PER_INSERT)
            rows = {col: table.column(col)[picks] for col in table.column_names}
            rows["id"] = np.arange(next_id[name], next_id[name] + ROWS_PER_INSERT)
            next_id[name] += ROWS_PER_INSERT
            stream.append((burst, name, rows))
    return stream


def describe() -> dict:
    """The input make-up, recorded with every run."""
    return {
        "ceb": {"scale": CEB_SCALE, "data_seed": CEB_DATA_SEED, "queries": 146},
        "jobl": {"scale": JOBL_SCALE, "data_seed": JOBL_DATA_SEED, "queries": 70},
        "ingest": {
            "tables": list(INGEST_TABLES),
            "bursts": WRITE_BURSTS,
            "front_bursts": FRONT_BURSTS,
            "front_s": FRONT_S,
            "rows_per_insert": ROWS_PER_INSERT,
            "checkpoint_bursts": list(CHECKPOINTS),
        },
    }
