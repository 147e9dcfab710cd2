"""Exact minimization of the cluster concentration cost.

solve_diverse_exact picks one of two routes by Instance.right_only.

Right-constrained instances (no left lower bounds, left upper bounds at
least n) decompose: right nodes share no binding constraint, and because
the objective is monotone in edge addition, each right node takes exactly
its lower bound's worth of edges.  Within one right node and one cluster
the cheapest t edges are the best t edges, so one dynamic program over
per-cluster take counts, run for all right nodes at once, is exact.

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

The lower bound is the committed cost plus a completion floor from one
gains matrix: entry (i, j) is edge (i, j)'s marginal gain against the
committed cluster sums, infinite where the edge is not usable.  An
owing node that must still add d edges pays at least the d cheapest
entries of its row (left node) or column (right node); each side's
total is a floor, and the larger one wins (the two are not added: one
edge can pay a debt on both sides).  The bound is infinite where the
counting check fails (a side owes more than the other side can still
take, or an owing node has fewer usable edges than it owes), so the
cutoff prunes such a node like any other.  As the objective is
monotone, a node whose lower bounds are all met is a complete
candidate; its committed edge set is offered as the incumbent and the
subtree closes.

One pricing step handles every node, the root included: usable mask,
bound (which carries the counting check), cutoff, then, for a kept
node, its branch edge (the heaviest usable edge at an owing node).  The
root thus enters the stack with its real bound.

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


def _solve_right_constrained(inst: Instance) -> tuple[Matching, float]:
    """Per-right-node exact optimum of a right_only instance, and its cost.

    dp[j, t] is right node j's cheapest cost of t edges from the clusters
    so far; each cluster's step runs for every right node at once.
    """
    demand = np.array(inst.bounds.r_lo)
    w, n, top = inst.weights, inst.n, int(demand.max())
    cols, rank = np.arange(n), np.arange(top)
    sizes = np.bincount(inst.clusters, minlength=inst.k)
    # each column's left nodes grouped by cluster, cheapest first, stable
    order = np.argsort(w, axis=0, kind="stable")
    order = order[np.argsort(inst.clusters[order], axis=0, kind="stable"),
                  cols]
    # lefts[c, r, j] is cluster c's r-th cheapest member at column j
    start = np.cumsum(sizes) - sizes
    lefts = order[np.minimum(start[:, None] + rank, inst.m - 1)]
    squares = np.cumsum(w[lefts, cols], axis=1) ** 2
    squares[rank >= sizes[:, None]] = math.inf
    # padded[j, top + t] = dp[j, t], infinite below t = 0, so that
    # padded[:, shift] is the (j, take, t) array of dp[j, t - take]
    padded = np.full((n, 2 * top + 1), math.inf)
    padded[:, top] = 0.0
    shift = top + np.arange(top + 1) - np.arange(top + 1)[:, None]
    takes = []
    for sq in squares.transpose(0, 2, 1)[..., None]:
        cand = padded[:, shift]
        cand[:, 1:] += sq
        takes.append(cand.argmin(axis=1))  # ties to the fewest taken
        padded[:, top:] = cand.min(axis=1)
    best = padded[cols, top + demand]
    if np.isinf(best).any():
        j = int(np.argmax(np.isinf(best)))
        raise InternalError(f"right node {j} cannot meet demand "
                            f"{demand[j]} with {inst.m} left nodes")
    edges, t = [], demand
    for c in range(inst.k - 1, -1, -1):
        take = takes[c][cols, t]
        sel = rank[:, None] < take
        edges += zip(lefts[c][sel].tolist(), np.nonzero(sel)[1].tolist())
        t = t - take
    return Matching(edges), sum(best.tolist())


def _cheapest(gains: np.ndarray, need: np.ndarray) -> float:
    """Sum over rows of each row's need[row] smallest gains."""
    rows = np.nonzero(need > 0)[0]
    if rows.size == 0:
        return 0.0
    prefix = np.sort(gains[rows], axis=1).cumsum(axis=1)
    return float(prefix[np.arange(rows.size), need[rows] - 1].sum())


def completion_bound(res: Residual, usable: np.ndarray) -> float:
    """Optimistic extra cost to satisfy all residual lower bounds.

    Infinite exactly when the counting check fails.  An owing node with
    fewer usable edges than it owes makes its _cheapest sum infinite,
    so only the side totals need a test of their own.
    """
    need_l, need_r = res.l_lo - res.deg_l, res.r_lo - res.deg_r
    if (np.maximum(need_l, 0).sum() > (res.r_hi - res.deg_r).sum()
            or np.maximum(need_r, 0).sum() > (res.l_hi - res.deg_l).sum()):
        return math.inf
    w = res.inst.weights
    gains = w * w + (2.0 * w) * res.sums.table[:, res.inst.clusters].T
    gains[~usable] = math.inf
    return max(_cheapest(gains.T, need_r), _cheapest(gains, need_l))


def _branch_edge(res: Residual, usable: np.ndarray) -> int:
    """Flat index i * n + j of the heaviest usable edge at an owing node.

    -1 when no node owes.  A state with a finite bound always has a
    usable edge at an owing node.
    """
    owing_l, owing_r = res.owing()
    if not owing_r.any() and not owing_l.any():
        return -1
    pool = usable & owing_r[None, :]
    if not pool.any():
        pool = usable & owing_l[:, None]
    if not pool.any():
        raise InternalError("owing node with no usable edge has a "
                            "finite bound")
    # ties: argmax takes the first, (i, j) lex
    return int(np.argmax(np.where(pool, res.inst.weights, -math.inf)))


def _price(res: Residual, committed: float,
           cutoff: float) -> Optional[tuple[float, int]]:
    """(bound, branch edge) of res's state, or None if it is pruned."""
    usable = res.usable()
    bound = committed + completion_bound(res, usable)
    if bound >= cutoff:
        return None
    return bound, _branch_edge(res, usable)


def _branch_and_bound(inst: Instance, start: float,
                      deadline: Optional[float]):
    """(incumbent, its tracked cost, lower bound, timed out, telemetry)."""
    incumbent = warm_start(inst)
    if incumbent is None:
        raise InternalError("feasibility pre-check passed but no warm start")
    best_value = diversity_cost(inst, incumbent)
    cutoff = best_value - PRUNE_TOL * best_value
    updates = [(time.perf_counter() - start, best_value)]

    res, n = Residual(inst), inst.n
    root = _price(res, 0.0, cutoff)
    expanded, pruned = 0, int(root is None)
    # open nodes as (bound, committed, depth, edge, take, branch): edge
    # (flat i * n + j, -1 at the root) is taken or forbidden on the way
    # from the parent, branch is the node's own branch edge
    stack = [] if root is None else [(root[0], 0.0, 0, -1, False, root[1])]
    trail: list[tuple[int, int, bool]] = []  # decisions applied to res
    timed_out = False

    while stack:
        if deadline is not None and time.perf_counter() > deadline:
            timed_out = True
            break
        bound, committed, depth, edge, take, flat = stack.pop()
        if bound >= cutoff:
            pruned += 1
            continue
        if edge >= 0:
            while len(trail) >= depth:
                res.undo(*trail.pop())
            i, j = divmod(edge, n)
            res.decide(i, j, take)
            trail.append((i, j, take))
        expanded += 1

        if flat == -1:
            # all lower bounds met: the committed set is a full candidate
            match = res.matching()
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
            child_committed = committed + res.decide(i, j, take)
            priced = _price(res, child_committed, cutoff)
            if priced is None:
                pruned += 1
            else:
                children.append((priced[0], child_committed, depth + 1,
                                 flat, take, priced[1]))
            res.undo(i, j, take)
        # the last one pushed pops first: the lower bound, take on a tie
        if len(children) == 2 and children[0][0] <= children[1][0]:
            children.reverse()
        stack.extend(children)

    lower_bound = min([cutoff] + [node[0] for node in stack])
    return incumbent, best_value, lower_bound, timed_out, {
        "fast_path": False, "expanded": expanded, "pruned": pruned,
        "incumbent_updates": updates}


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
        incumbent, tracked = _solve_right_constrained(inst)
        lower_bound, timed_out = None, False
        telemetry = {"fast_path": True, "expanded": 0, "pruned": 0,
                     "incumbent_updates": []}
    else:
        incumbent, tracked, lower_bound, timed_out, telemetry = (
            _branch_and_bound(inst, start, deadline))

    ok, violations = check_matching(inst, incumbent)
    if not ok:
        raise InternalError("exact solver incumbent violates bounds: "
                            + "; ".join(violations))
    value = diversity_cost(inst, incumbent)
    if abs(value - tracked) > 1e-9 * max(value, tracked):
        raise InternalError(
            f"incumbent value drifted: tracked {tracked}, actual {value}")
    if lower_bound is None:  # the dynamic program's answer is the optimum
        lower_bound = value
    telemetry["lower_bound"] = lower_bound
    telemetry["gap"] = (value - lower_bound) / value if value else 0.0
    return SolveReport(
        algorithm="diverse_exact",
        status=FEASIBLE_INCUMBENT if timed_out else OPTIMAL,
        matching=incumbent, total_weight=total_weight(inst, incumbent),
        diversity_cost=value, wall_time=time.perf_counter() - start,
        telemetry=telemetry)
