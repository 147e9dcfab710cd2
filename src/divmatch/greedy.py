"""Greedy construction of a diverse matching.

Builds the matching in rounds.  In round i every node's effective lower
bound is min(i, its real lower bound); the round visits each node in a
fixed order, left block first, and, while a node sits below its
effective bound, adds the feasible incident edge with the smallest
marginal increase of the cluster concentration cost.  Candidates whose
opposite endpoint is also below its effective bound are preferred, so
one edge settles two debts where possible.

Feasible means: not yet selected, both endpoints strictly under their
upper bounds, and a counting check that the residual lower bounds can
still be met after taking the edge.  The counting check is evaluated
once per pick for all of the node's candidates
(Residual.safe_partners).  It is necessary, not sufficient; a node left
with no feasible incident edge is a dead end and the solve reports
infeasible naming the stuck node rather than backtracking.

When no left bound binds (Instance.right_only), right nodes never
compete for left capacity, so solve_diverse_greedy picks each right
node's edges on its own with one vectorized gain per step.  That path
selects the same edges, in the same tie-break order, with the same
number of gain evaluations as the round-based one.

The result carries no optimality proof: status is feasible_incumbent.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ._residual import Residual
from .errors import InternalError
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import FEASIBLE_INCUMBENT, INFEASIBLE, SolveReport


def _pick(res: Residual, side: str, node: int,
          round_i: int) -> tuple[Optional[tuple[int, int]], int]:
    """(lowest-gain safe edge at node or None, candidates priced).

    Edges whose other endpoint still owes in this round come first; ties
    go to the first candidate in scan order.
    """
    partners = np.array(res.safe_partners(side, node), dtype=np.intp)
    if partners.size == 0:
        return None, 0
    inst = res.inst
    if side == "left":
        rows, cols = node, partners
        opp_owing = res.deg_r[cols] < np.minimum(round_i, res.r_lo[cols])
    else:
        rows, cols = partners, node
        opp_owing = res.deg_l[rows] < np.minimum(round_i, res.l_lo[rows])
    w = inst.weights[rows, cols]
    gains = w * w + 2.0 * w * res.sums.table[cols, inst.clusters[rows]]
    if opp_owing.any():
        gains[~opp_owing] = math.inf
    p = int(partners[np.argmin(gains)])
    return ((node, p) if side == "left" else (p, node)), partners.size


def _round_based(inst: Instance) -> tuple[Optional[Matching], int, str]:
    """Round-based greedy: (matching or None, gain evaluations, dead end)."""
    res = Residual(inst)
    gain_evaluations = 0
    b = inst.bounds
    max_lo = max((0,) + b.l_lo + b.r_lo)
    for round_i in range(1, max_lo + 1):
        for side, count in (("left", inst.m), ("right", inst.n)):
            for node in range(count):
                lo = b.l_lo[node] if side == "left" else b.r_lo[node]
                deg = res.deg_l if side == "left" else res.deg_r
                while deg[node] < min(round_i, lo):
                    edge, priced = _pick(res, side, node, round_i)
                    gain_evaluations += priced
                    if edge is None:
                        owes = min(round_i, lo) - int(deg[node])
                        return None, gain_evaluations, (
                            f"greedy dead end: {side} node {node} owes "
                            f"{owes} more edge(s) but has no feasible "
                            "incident edge")
                    res.take(*edge)
    return res.matching(), gain_evaluations, ""


def _per_right_node(inst: Instance) -> tuple[Matching, int]:
    """Greedy for right_only instances: (matching, gain evaluations).

    Each right node takes its lower bound's worth of edges, cheapest
    marginal gain first, ties to the lowest left index.
    """
    clusters = inst.clusters
    edges = []
    gain_evaluations = 0
    for j in range(inst.n):
        col = inst.weights[:, j]
        sums_c = np.zeros(inst.k, dtype=np.float64)
        taken = np.zeros(inst.m, dtype=bool)
        for _ in range(inst.bounds.r_lo[j]):
            gains = np.where(taken, math.inf, col * col + (2.0 * col) * sums_c[clusters])
            gain_evaluations += int((~taken).sum())
            i = int(np.argmin(gains))
            taken[i] = True
            sums_c[clusters[i]] += col[i]
            edges.append((i, j))
    return Matching(edges), gain_evaluations


def solve_diverse_greedy(inst: Instance) -> SolveReport:
    """Greedy minimization of the concentration cost.

    right_only instances take the per-right-node path (telemetry
    fast_path True); all others the round-based one.
    """
    start = time.perf_counter()
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return SolveReport(
            algorithm="greedy", status=INFEASIBLE, matching=None,
            total_weight=None, diversity_cost=None,
            wall_time=time.perf_counter() - start, diagnostic=why)

    fast = inst.right_only
    if fast:
        match, gain_evaluations = _per_right_node(inst)
    else:
        match, gain_evaluations, dead_end = _round_based(inst)
        if match is None:
            return SolveReport(
                algorithm="greedy", status=INFEASIBLE, matching=None,
                total_weight=None, diversity_cost=None,
                wall_time=time.perf_counter() - start, diagnostic=dead_end,
                telemetry={"gain_evaluations": gain_evaluations})

    ok, violations = check_matching(inst, match)
    if not ok:
        raise InternalError("greedy produced an infeasible matching: "
                            + "; ".join(violations))
    return SolveReport(
        algorithm="greedy", status=FEASIBLE_INCUMBENT, matching=match,
        total_weight=total_weight(inst, match),
        diversity_cost=diversity_cost(inst, match),
        wall_time=time.perf_counter() - start,
        telemetry={"gain_evaluations": gain_evaluations, "fast_path": fast})
