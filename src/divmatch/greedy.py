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
once per pick for all of the node's candidates (Residual.safe_mask),
from the needs, slacks, spare-capacity masks, owed totals and taken
count that the residual keeps; the candidates are then priced from the
residual's w*w and 2*w terms and its cluster sums.  The check is
necessary, not sufficient; a node left with no feasible incident edge
is a dead end and the solve reports infeasible naming the stuck node
rather than backtracking.

When no left bound binds (Instance.right_only), right nodes never
compete for left capacity, so the construction picks each right
node's edges on its own, in take rounds: round t prices every right
node that still owes an edge in one numpy step, one gains column per
node.  That path selects the same edges, in the same tie-break order,
with the same number of gain evaluations as the round-based one.  It is
also exact, so the exact solver runs it too: each right node is a
separable convex allocation, each cluster taken lightest first, and a
cluster's t-th take costs w_t * (2 * P_{t-1} + w_t), which never falls
as t grows, so the cheapest marginal gain each round is optimal (Gross,
RAND RM-1644, 1956; Ibaraki and Katoh, Resource Allocation Problems, 1988).

The result carries no optimality proof: status is feasible_incumbent.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ._residual import Residual
# check_matching, diversity_cost and total_weight go unused here, but
# perfbench/tracing.py's PATCHES patches them in this module by name
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import FEASIBLE_INCUMBENT, INFEASIBLE, SolveReport, _finish


def _pick(res: Residual, side: str, node: int,
          round_i: int) -> tuple[Optional[tuple[int, int]], int]:
    """(lowest-gain safe edge at node or None, candidates priced).

    Edges whose other endpoint still owes in this round come first; ties
    go to the first candidate in scan order.
    """
    partners = res.safe_mask(side, node).nonzero()[0]
    if partners.size == 0:
        return None, 0
    # gain terms of node's edges, one entry per node on the other side
    clusters = res.inst.clusters
    if side == "left":
        deg, lo = res.deg_r, res.r_lo
        w2, tw = res.w2[node], res.tw[node]
        sums = res.table[:, clusters[node]]
    else:
        deg, lo = res.deg_l, res.l_lo
        w2, tw = res.w2[:, node], res.tw[:, node]
        sums = res.table[node][clusters]
    opp_owing = deg[partners] < np.minimum(round_i, lo[partners])
    gains = w2[partners] + tw[partners] * sums[partners]
    if opp_owing.any():
        gains[~opp_owing] = math.inf
    p = int(partners[gains.argmin()])
    return ((node, p) if side == "left" else (p, node)), partners.size


def _round_based(inst: Instance) -> tuple[Optional[Matching], int, str]:
    """Round-based greedy: (matching or None, gain evaluations, dead end)."""
    res = Residual(inst)
    gain_evaluations = 0
    max_lo = max((0,) + inst.bounds.l_lo + inst.bounds.r_lo)
    sides = (("left", res.l_lo, res.deg_l), ("right", res.r_lo, res.deg_r))
    for round_i in range(1, max_lo + 1):
        for side, lo, deg in sides:
            # a pick at one node raises no other degree on its side, so
            # each node's debt for the round is known at the side's start
            debt = np.minimum(round_i, lo) - deg
            for node in np.flatnonzero(debt > 0).tolist():
                owes = int(debt[node])
                while owes:
                    edge, priced = _pick(res, side, node, round_i)
                    gain_evaluations += priced
                    if edge is None:
                        return None, gain_evaluations, (
                            f"greedy dead end: {side} node {node} owes "
                            f"{owes} more edge(s) but has no feasible "
                            "incident edge")
                    res.decide(*edge, True)
                    owes -= 1
    return res.matching(), gain_evaluations, ""


def _per_right_node(inst: Instance) -> tuple[Matching, int, float]:
    """Optimum of a right_only instance: (matching, gain evaluations, cost).

    Each right node takes its lower bound's worth of edges, cheapest
    marginal gain first, ties to the lowest left index.  Take round t
    prices every right node with r_lo > t at once: a column's argmin in
    the gains matrix is that node's pick.  A taken cell's squared weight
    is set to infinity, so its gain is too.  The cost squares the cluster sums.
    """
    w, clusters = inst.weights, inst.clusters
    r_lo = np.array(inst.bounds.r_lo)
    square, double = w * w, 2.0 * w
    sums = np.zeros((inst.k, inst.n))
    rows, cols = [], []
    gain_evaluations = 0
    for t in range(int(r_lo.max(initial=0))):
        active = np.flatnonzero(r_lo > t)
        picks = (square + double * sums[clusters]).argmin(axis=0)[active]
        square[picks, active] = math.inf
        sums[clusters[picks], active] += w[picks, active]
        gain_evaluations += (inst.m - t) * active.size
        rows += picks.tolist()
        cols += active.tolist()
    return (Matching._trusted(zip(rows, cols)), gain_evaluations,
            float((sums * sums).sum()))


def solve_diverse_greedy(inst: Instance) -> SolveReport:
    """Greedy minimization of the concentration cost.

    right_only instances take the per-right-node path (telemetry
    fast_path True); all others the round-based one.
    """
    start = time.perf_counter()
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return _finish("greedy", inst, start, None, INFEASIBLE, why)
    match, gain_evaluations, dead_end = (
        (*_per_right_node(inst)[:2], "") if inst.right_only
        else _round_based(inst))
    telemetry = {"gain_evaluations": gain_evaluations}
    if match is not None:
        telemetry["fast_path"] = inst.right_only
    return _finish("greedy", inst, start, match, FEASIBLE_INCUMBENT,
                   dead_end, telemetry)
