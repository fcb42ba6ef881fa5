"""Correctness checks.  An operation that raised counts as failed, and
one whose output fails a check counts as failed and wrong, in
:class:`common.Ops`; neither aborts the run.

Every reference is computed apart from the program's estimation path:
exact counts come from ``db.executor``, optimal plans from the planner fed
those exact counts, and plan costs from ``PlanSimulator``.
"""

from __future__ import annotations

import math

# Relative slack for comparing simulated costs of two plans.
COST_RTOL = 1e-9


def exact_counts(db, queries) -> list[int]:
    from repro.db.executor import Executor

    executor = Executor(db)
    return [executor.cardinality(q) for q in queries]


def bound_problem(bound, truth) -> str | None:
    """Why ``bound`` is not a valid upper bound of ``truth``, if it is not."""
    if bound is None or not isinstance(bound, (int, float)) or math.isnan(bound):
        return f"no bound ({bound!r})"
    if bound < truth:
        return f"bound {bound!r} below exact count {truth}"
    return None


def check_served(ops, results, truths, reference=None) -> None:
    """``results``: ``(query index, served bound or None, error)`` per
    ``bound`` operation.  Each must dominate its exact count and, when
    ``reference`` (in-process bounds on the same statistics) is given,
    equal it."""
    for index, bound, error in results:
        if error is not None:
            ops.fail("bound", f"query {index}: {error}")
            continue
        problem = bound_problem(bound, truths[index])
        if problem is None and reference is not None and bound != reference[index]:
            problem = f"served {bound!r} != in-process {reference[index]!r}"
        if problem is not None:
            ops.wrong("bound", f"query {index}: {problem}")


def plan_problem(query, planned) -> str | None:
    """Why ``planned.plan`` is not a join tree covering every relation of
    ``query`` exactly once, if it is not."""
    from repro.optimizer.plans import JoinNode, ScanNode

    seen: list[str] = []
    stack = [planned.plan]
    while stack:
        node = stack.pop()
        if isinstance(node, ScanNode):
            seen.append(node.alias)
        elif isinstance(node, JoinNode) and node.left is not None and node.right is not None:
            stack += [node.left, node.right]
        else:
            return f"malformed plan node {node!r}"
    seen, wanted = sorted(map(str, seen)), sorted(map(str, query.relations))
    if seen != wanted:
        return f"plan covers {seen}, query has {wanted}"
    return None


class PlanReference:
    """Exact counts, optimal plans and their simulated costs for a query
    list, computed once and shared by every pass that is checked."""

    def __init__(self, db, queries) -> None:
        from repro.estimators.truth import TrueCardinalityEstimator
        from repro.optimizer import Planner, PlanSimulator

        self.truth = TrueCardinalityEstimator()
        self.truth.build(db)
        self.simulator = PlanSimulator(db, self.truth)
        planner = Planner(db, self.truth)
        self.counts = [self.truth.estimate(q) for q in queries]
        self.costs = [self.simulator.execute(q, planner.plan(q).plan) for q in queries]

    def cost(self, query, planned) -> float:
        return self.simulator.execute(query, planned.plan)


def check_plans(ops, queries, planned, reference: PlanReference) -> list[float]:
    """``planned``: ``(query index, PlannedQuery or None, error)`` per
    ``plan`` operation.  Returns the simulated cost of each well-formed
    plan (NaN for the others)."""
    costs = []
    for index, result, error in planned:
        query = queries[index]
        cost = math.nan
        if error is not None:
            ops.fail("plan", f"query {index}: {error}")
            costs.append(cost)
            continue
        problem = plan_problem(query, result)
        if problem is None:
            problem = bound_problem(result.plan.est_rows, reference.counts[index])
        if problem is None:
            cost = reference.cost(query, result)
            optimal = reference.costs[index]
            if cost < optimal * (1 - COST_RTOL):
                problem = f"plan cost {cost:.6g} below the optimal {optimal:.6g}"
        if problem is not None:
            ops.wrong("plan", f"query {index}: {problem}")
        costs.append(cost)
    return costs
