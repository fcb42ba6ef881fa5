"""Self-test of the benchmark's correctness checks: proves that they fire.

    python3 perfbench/selftest.py

On small JOB-Light inputs it feeds the checks of ``checks.py`` an
estimator wrapper that halves every bound and a plan with a relation
missing, and requires each to be counted as a failed operation with a
wrong output (which makes a run incorrect), while honest bounds and
plans pass and a request that raised counts as failed but not wrong.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import sys

from common import Ops, import_program

SCALE = 0.1
QUERIES = 30


class Halving:
    """An estimator that returns half of every bound of ``inner``."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def estimate_batch(self, queries):
        return [b / 2 for b in self.inner.estimate_batch(queries)]


def main() -> int:
    import_program()
    import checks
    from repro.core.safebound import SafeBound
    from repro.optimizer import Planner
    from repro.workloads import make_job_light

    workload = make_job_light(scale=SCALE, num_queries=QUERIES)
    db, queries = workload.db, workload.queries
    estimator = SafeBound()
    estimator.build(db)
    reference = checks.PlanReference(db, queries)
    bounds = estimator.estimate_batch(queries)
    halved = Halving(estimator).estimate_batch(queries)
    honest_plans = [(i, Planner(db, estimator).plan(q), None) for i, q in enumerate(queries)]

    outcomes = []

    def expect(label: str, ops: Ops, op: str, low: int, high: int, needle: str = "",
               wrong: bool = True) -> None:
        _, failed = ops.counts[op]
        ok = (
            low <= failed <= high
            and ops.wrong_outputs == (failed if wrong else 0)
            and all(needle in f for f in ops.failures)
        )
        outcomes.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {failed} failed {op} operations "
              f"(expected {low}..{high}){'; e.g. ' + ops.failures[0] if ops.failures else ''}")

    ops = Ops()
    checks.check_served(ops, [(i, b, None) for i, b in enumerate(bounds)], reference.counts, bounds)
    expect("honest bounds", ops, "bound", 0, 0)

    ops = Ops()
    checks.check_served(ops, [(i, b, None) for i, b in enumerate(halved)], reference.counts, bounds)
    expect("halved bounds against in-process bounds", ops, "bound", len(queries), len(queries))

    tight = [i for i, (b, t) in enumerate(zip(bounds, reference.counts)) if b / 2 < t]
    ops = Ops()
    checks.check_served(ops, [(i, b, None) for i, b in enumerate(halved)], reference.counts)
    expect("halved bounds against exact counts", ops, "bound", max(len(tight), 1), len(tight), "below exact count")

    ops = Ops()
    checks.check_served(ops, [(0, None, "ConnectionError()")], reference.counts)
    expect("a request that raised", ops, "bound", 1, 1, wrong=False)

    ops = Ops()
    checks.check_plans(ops, queries, honest_plans, reference)
    expect("honest plans", ops, "plan", 0, 0)

    ops = Ops()
    halving_plans = [(i, Planner(db, Halving(estimator)).plan(q), None) for i, q in enumerate(queries)]
    checks.check_plans(ops, queries, halving_plans, reference)
    expect("plans from halved bounds", ops, "plan", 1, len(queries))

    ops = Ops()
    index, planned, _ = next(p for p in honest_plans if len(queries[p[0]].relations) > 1)
    planned.plan = planned.plan.left  # drops at least one relation
    checks.check_plans(ops, queries, [(index, planned, None)], reference)
    expect("a plan with a relation missing", ops, "plan", 1, 1, "plan covers")

    passed = all(outcomes)
    print("selftest " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
