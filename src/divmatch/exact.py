"""Exact minimization of the cluster concentration cost.

solve_diverse_exact picks one of two routes by Instance.right_only.

Right-constrained instances (no left lower bounds, left upper bounds at
least n) decompose: right nodes share no binding constraint, and because
the objective is monotone in edge addition, each right node takes exactly
its lower bound's worth of edges.  Within one right node and one cluster
the cheapest t edges are always the best t edges, so a small dynamic
program over per-cluster take counts finds the node's optimum exactly.

Everything else runs depth-first branch and bound over edge decisions.
A search node fixes some edges in and some out.  The whole search works
on one residual state, the one the greedy solver also uses (taken and
closed masks, degrees, cluster sums).  An undo trail records the
decisions applied to it along the current path: popping a node undoes
the trail back to its parent's depth and applies the node's one
decision.  Its two children are take/forbid steps on that state, undone
after they are priced, and the child with the lower bound is popped
first.  Open nodes live on an explicit stack that never holds more than
one pending sibling per level, so memory stays linear in the depth.

Branching picks the heaviest usable edge incident to an owing node.
The lower bound is the committed cost plus an optimistic completion
estimate: every owing node must still add d edges, each costing at
least its marginal gain against the committed cluster sums, so the d
cheapest such gains sum to a valid floor (taken per side, then the
larger side, since one edge can serve both sides at once).  Because the
objective is monotone, a node whose lower bounds are all met is a
complete candidate solution; its committed edge set is the incumbent
candidate and the subtree closes.  Each node's branch edge is picked
when the node is created, from the same usable-edge mask that priced it.

The search is anytime: a greedy warm start seeds the incumbent and a
millisecond budget stops the search early with the best incumbent.
Every subtree not yet searched hangs off a node on the stack, so the
smallest bound left there (capped by the pruning cutoff) is a certified
lower bound on the optimum; telemetry reports it as lower_bound, with
the relative gap to the returned cost.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ._residual import Residual
from .errors import ConfigError, InternalError
from .greedy import solve_diverse_greedy
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .minweight import solve_min_weight
from .objective import diversity_cost, total_weight
from .report import FEASIBLE_INCUMBENT, INFEASIBLE, OPTIMAL, SolveReport

# relative to the incumbent's cost, so every weight scale prunes alike
PRUNE_TOL = 1e-9


def warm_start(inst: Instance) -> Optional[Matching]:
    """Feasible matching used to seed the incumbent; None if infeasible.

    Greedy usually lands close to the optimum.  When greedy dead-ends on
    a feasible instance the minimum-weight solver supplies the fallback,
    so every feasible instance yields an incumbent.
    """
    rep = solve_diverse_greedy(inst)
    if rep.matching is not None:
        return rep.matching
    rep = solve_min_weight(inst)
    return rep.matching


def _solve_right_constrained(inst: Instance) -> Matching:
    """Per-right-node exact optimum of a right_only instance."""
    b = inst.bounds
    members = [np.nonzero(inst.clusters == c)[0] for c in range(inst.k)]

    edges: list[tuple[int, int]] = []
    for j in range(inst.n):
        demand = b.r_lo[j]
        if demand == 0:
            continue
        col = inst.weights[:, j]
        # cheapest-first member order per cluster, stable on index
        order = [mem[np.argsort(col[mem], kind="stable")] for mem in members]
        prefix = [np.concatenate(([0.0], np.cumsum(col[lefts])))
                  for lefts in order]
        # dp[t] = cheapest concentration cost of t edges using clusters so far
        dp = np.full(demand + 1, math.inf)
        dp[0] = 0.0
        takes: list[np.ndarray] = []
        for c in range(inst.k):
            size = len(order[c])
            nxt = np.full(demand + 1, math.inf)
            choice = np.zeros(demand + 1, dtype=np.int64)
            for t in range(demand + 1):
                for take in range(0, min(t, size) + 1):
                    cand = dp[t - take] + prefix[c][take] ** 2
                    if cand < nxt[t]:
                        nxt[t] = cand
                        choice[t] = take
            dp = nxt
            takes.append(choice)
        if math.isinf(dp[demand]):
            raise InternalError(
                f"right node {j} cannot meet demand {demand} with {inst.m} "
                "left nodes")
        t = demand
        for c in range(inst.k - 1, -1, -1):
            take = int(takes[c][t])
            edges.extend((int(i), j) for i in order[c][:take])
            t -= take
    return Matching(edges)


class _Search:
    """Bound, branching rule and counters of one branch-and-bound run."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.res = Residual(inst)
        self.expanded = 0
        self.pruned = 0

    def completion_bound(self, res: Residual, usable: np.ndarray) -> float:
        """Optimistic extra cost to satisfy all residual lower bounds.

        Called only on states that pass res.counting_feasible(usable), so
        every owing node has at least as many usable edges as it owes.
        """
        w = self.inst.weights
        clusters = self.inst.clusters
        sums = res.sums.table

        total_r = 0.0
        for j in np.nonzero(res.r_lo - res.deg_r > 0)[0]:
            d = int(res.r_lo[j] - res.deg_r[j])
            rows = np.nonzero(usable[:, j])[0]
            col = w[rows, j]
            gains = col * col + (2.0 * col) * sums[j, clusters[rows]]
            total_r += float(np.partition(gains, d - 1)[:d].sum())

        total_l = 0.0
        for i in np.nonzero(res.l_lo - res.deg_l > 0)[0]:
            d = int(res.l_lo[i] - res.deg_l[i])
            cols = np.nonzero(usable[i, :])[0]
            row = w[i, cols]
            gains = row * row + (2.0 * row) * sums[cols, clusters[i]]
            total_l += float(np.partition(gains, d - 1)[:d].sum())

        return max(total_r, total_l)

    def pick_branch_edge(self, res: Residual, usable: np.ndarray) -> int:
        """Heaviest usable edge at an owing node; -1 when none owed.

        Called only on states that pass the counting check (the root
        passes the exact feasibility check), so an owing node always
        has a usable edge.
        """
        owing_l, owing_r = res.owing()
        if not owing_r.any() and not owing_l.any():
            return -1
        pool = usable & owing_r[None, :]
        if not pool.any():
            pool = usable & owing_l[:, None]
        if not pool.any():
            raise InternalError("owing node with no usable edge passed the "
                                "counting check")
        w = np.where(pool, self.inst.weights, -math.inf)
        flat = int(np.argmax(w))  # ties: argmax takes the first, (i, j) lex
        return flat


def solve_diverse_exact(inst: Instance,
                        budget_ms: Optional[float] = None) -> SolveReport:
    """Globally minimize the concentration cost under all degree bounds.

    right_only instances take the per-right-node dynamic program
    (telemetry fast_path True); all others branch and bound.  Completes
    with status optimal, or returns the best incumbent as
    feasible_incumbent when budget_ms elapses first.  The budget is
    honored at branching granularity; a negative or NaN budget raises
    ConfigError.  Telemetry lower_bound is a certified floor on the
    optimum and gap the returned cost's relative distance above it.
    """
    if budget_ms is not None and not budget_ms >= 0:
        raise ConfigError(
            f"budget_ms must be a nonnegative number, got {budget_ms!r}")
    start = time.perf_counter()
    deadline = None if budget_ms is None else start + budget_ms / 1000.0
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return SolveReport(
            algorithm="diverse_exact", status=INFEASIBLE, matching=None,
            total_weight=None, diversity_cost=None,
            wall_time=time.perf_counter() - start, diagnostic=why)

    if inst.right_only:
        fast = _solve_right_constrained(inst)
        ok, violations = check_matching(inst, fast)
        if not ok:
            raise InternalError("decomposed optimum violates bounds: "
                                + "; ".join(violations))
        cost = diversity_cost(inst, fast)
        return SolveReport(
            algorithm="diverse_exact", status=OPTIMAL, matching=fast,
            total_weight=total_weight(inst, fast), diversity_cost=cost,
            wall_time=time.perf_counter() - start,
            telemetry={"fast_path": True, "expanded": 0, "pruned": 0,
                       "incumbent_updates": [], "lower_bound": cost,
                       "gap": 0.0})

    incumbent = warm_start(inst)
    if incumbent is None:
        raise InternalError("feasibility pre-check passed but no warm start")
    best_value = diversity_cost(inst, incumbent)
    cutoff = best_value - PRUNE_TOL * best_value
    updates = [(time.perf_counter() - start, best_value)]

    search = _Search(inst)
    res, n = search.res, inst.n
    # open nodes as (bound, committed, depth, edge, take, branch): edge
    # (flat i * n + j, -1 at the root) is taken or forbidden on the way
    # from the parent, branch is the node's own branch edge
    stack = [(0.0, 0.0, 0, -1, False,
              search.pick_branch_edge(res, res.usable()))]
    trail: list[tuple[int, int, bool]] = []  # decisions applied to res
    timed_out = False

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        bound, committed, depth, edge, take, flat = stack.pop()
        if bound >= cutoff:
            search.pruned += 1
            continue
        if edge >= 0:
            while len(trail) >= depth:
                i, j, took = trail.pop()
                if took:
                    res.untake(i, j)
                else:
                    res.unforbid(i, j)
            i, j = divmod(edge, n)
            if take:
                res.take(i, j)
            else:
                res.forbid(i, j)
            trail.append((i, j, take))
        search.expanded += 1

        if flat == -1:
            # all lower bounds met: the committed set is a full candidate
            match = Matching((int(i), int(j))
                             for i, j in zip(*np.nonzero(res.taken)))
            value = diversity_cost(inst, match)
            if value < cutoff:
                best_value = value
                cutoff = best_value - PRUNE_TOL * best_value
                incumbent = match
                updates.append((time.perf_counter() - start, value))
            continue

        i, j = divmod(flat, n)
        children = []
        for take in (True, False):
            if take:
                child_committed = committed + res.take(i, j)
            else:
                child_committed = committed
                res.forbid(i, j)
            usable = res.usable()
            child_bound = (
                child_committed + search.completion_bound(res, usable)
                if res.counting_feasible(usable) else math.inf)
            if child_bound < cutoff:
                children.append((child_bound, child_committed, depth + 1,
                                 flat, take,
                                 search.pick_branch_edge(res, usable)))
            else:
                search.pruned += 1
            if take:
                res.untake(i, j)
            else:
                res.unforbid(i, j)
        # the last one pushed pops first: the lower bound, take on a tie
        if len(children) == 2 and children[0][0] <= children[1][0]:
            children.reverse()
        stack.extend(children)

    lower_bound = min([cutoff] + [node[0] for node in stack])
    ok, violations = check_matching(inst, incumbent)
    if not ok:
        raise InternalError("exact solver incumbent violates bounds: "
                            + "; ".join(violations))
    status = FEASIBLE_INCUMBENT if timed_out else OPTIMAL
    value = diversity_cost(inst, incumbent)
    if abs(value - best_value) > 1e-9 * max(value, best_value):
        raise InternalError(
            f"incumbent value drifted: tracked {best_value}, actual {value}")
    return SolveReport(
        algorithm="diverse_exact", status=status, matching=incumbent,
        total_weight=total_weight(inst, incumbent),
        diversity_cost=value,
        wall_time=time.perf_counter() - start,
        telemetry={"fast_path": False, "expanded": search.expanded,
                   "pruned": search.pruned, "incumbent_updates": updates,
                   "lower_bound": lower_bound,
                   "gap": (value - lower_bound) / value if value else 0.0})
