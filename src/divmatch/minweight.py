"""Exact minimum-weight solver via min-cost circulation.

_flow.reduce_to_circulation (re-exported here) lowers the degree bounds
to a circulation once and warm-starts it from one side's lightest edges.
Its constraint system is totally unimodular, so the fractional optimum
is integral and the edge arcs carrying flow form an optimal matching.
Successive shortest paths on that graph are fully deterministic; which
optimum is returned when several matchings share the minimum weight is
fixed by the arc order and the warm start (on right_only instances,
each right node takes its lightest left nodes, lowest index first).
"""

from __future__ import annotations

import time

from ._flow import FlowNetwork, reduce_to_circulation
from .errors import InternalError
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport


def solve_circulation(net: FlowNetwork) -> tuple[Matching, int]:
    """Min-cost circulation honoring lower bounds.

    Returns (matching of the edge arcs that carry flow, augmentation
    count).  The count is the shortest-path augmentations plus 1 when
    the warm start routed flow.  Raises InternalError if the lower
    bounds cannot be met; callers are expected to have run
    is_feasible_bounds first.
    """
    g = net.graph
    sent, augmentations = g.min_cost_flow(net.source, net.sink)
    if sent != net.need:
        raise InternalError(
            "circulation lower bounds unmet despite feasibility pre-check")
    edges = [(i, j) for i, row in enumerate(net.edge_arcs)
             for j, arc in enumerate(row) if g.flow_on(arc)]
    return Matching(edges), augmentations + (net.warm_side is not None)


def solve_min_weight(inst: Instance) -> SolveReport:
    """Matching of minimum total weight subject to all degree bounds."""
    start = time.perf_counter()
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return SolveReport(
            algorithm="min_weight", status=INFEASIBLE, matching=None,
            total_weight=None, diversity_cost=None,
            wall_time=time.perf_counter() - start, diagnostic=why)
    net = reduce_to_circulation(inst)
    match, augmentations = solve_circulation(net)
    ok, violations = check_matching(inst, match)
    if not ok:
        raise InternalError("decoded optimal matching violates bounds: "
                            + "; ".join(violations))
    return SolveReport(
        algorithm="min_weight", status=OPTIMAL, matching=match,
        total_weight=total_weight(inst, match),
        diversity_cost=diversity_cost(inst, match),
        wall_time=time.perf_counter() - start,
        telemetry={"augmentations": augmentations,
                   "warm_side": net.warm_side})
