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
from the per-node availability counts the residual keeps.  It is
necessary, not sufficient; a node left with no feasible incident edge
is a dead end and the solve reports infeasible naming the stuck node
rather than backtracking.

When no left bound binds (Instance.right_only), right nodes never
compete for left capacity, so the construction picks each right
node's edges on its own, in take rounds: round t prices every right
node that still owes an edge in one numpy step, one gains column per
node.  That path selects the same edges, in the same tie-break order,
with the same number of gain evaluations as the round-based one.

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
    partners = np.flatnonzero(res.safe_mask(side, node))
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
                    res.decide(*edge, True)
    return res.matching(), gain_evaluations, ""


def _per_right_node(inst: Instance) -> tuple[Matching, int]:
    """Greedy for right_only instances: (matching, gain evaluations).

    Each right node takes its lower bound's worth of edges, cheapest
    marginal gain first, ties to the lowest left index.  Take round t
    prices every right node with r_lo > t at once: a column's argmin in
    the gains matrix is that node's pick.  A taken cell's squared weight
    is set to infinity, so its gain is too.
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
    return Matching._trusted(zip(rows, cols)), gain_evaluations


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
        (*_per_right_node(inst), "") if inst.right_only
        else _round_based(inst))
    telemetry = {"gain_evaluations": gain_evaluations}
    if match is not None:
        telemetry["fast_path"] = inst.right_only
    return _finish("greedy", inst, start, match, FEASIBLE_INCUMBENT,
                   dead_end, telemetry)
