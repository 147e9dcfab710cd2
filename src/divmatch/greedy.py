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


class _GreedyState:
    """Candidate scan and pick rule of one round-based greedy run."""

    def __init__(self, inst: Instance):
        self.res = Residual(inst)
        self.gain_evaluations = 0

    def candidates(self, side: str, node: int) -> list[tuple[int, int]]:
        """Usable incident edges that pass the counting check, in scan order."""
        partners = self.res.safe_partners(side, node)
        if side == "left":
            return [(node, p) for p in partners]
        return [(p, node) for p in partners]

    def pick(self, side: str, node: int, round_i: int) -> tuple[int, int] | None:
        """Lowest-gain feasible edge, preferring doubly-owing edges."""
        cands = self.candidates(side, node)
        if not cands:
            return None
        res = self.res
        best, best_gain, best_pref = None, math.inf, False
        for i, j in cands:
            if side == "left":
                opp_owing = res.deg_r[j] < min(round_i, res.r_lo[j])
            else:
                opp_owing = res.deg_l[i] < min(round_i, res.l_lo[i])
            gain = res.sums.gain(i, j)
            self.gain_evaluations += 1
            # preference first, then gain, then (left, right) via scan order
            if (opp_owing, -gain) > (best_pref, -best_gain):
                best, best_gain, best_pref = (i, j), gain, opp_owing
        return best


def _round_based(inst: Instance) -> tuple[Optional[Matching], int, str]:
    """Round-based greedy: (matching or None, gain evaluations, dead end)."""
    state = _GreedyState(inst)
    res = state.res
    b = inst.bounds
    max_lo = max((0,) + b.l_lo + b.r_lo)
    for round_i in range(1, max_lo + 1):
        for side, count in (("left", inst.m), ("right", inst.n)):
            for node in range(count):
                lo = b.l_lo[node] if side == "left" else b.r_lo[node]
                deg = res.deg_l if side == "left" else res.deg_r
                while deg[node] < min(round_i, lo):
                    edge = state.pick(side, node, round_i)
                    if edge is None:
                        owes = min(round_i, lo) - int(deg[node])
                        return None, state.gain_evaluations, (
                            f"greedy dead end: {side} node {node} owes "
                            f"{owes} more edge(s) but has no feasible "
                            "incident edge")
                    res.take(*edge)
    return res.matching(), state.gain_evaluations, ""


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
