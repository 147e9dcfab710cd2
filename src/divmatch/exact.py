"""Exact minimization of the cluster concentration cost.

solve_diverse_exact picks one of two routes by Instance.right_only.

Right-constrained instances (no left lower bounds, left upper bounds at
least n) decompose: right nodes share no binding constraint, and because
the objective is monotone in edge addition, each right node takes exactly
its lower bound's worth of edges.  Each right node is then a separable
convex allocation, which greedy's take rounds (greedy._per_right_node)
solve exactly; greedy's module docstring says why.

Everything else runs depth-first branch and bound over edge decisions.
A search node fixes some edges in and some out.  The whole search works
on one residual state, the one the greedy solver also uses (taken and
closed masks, degrees, cluster sums).  An undo trail records the
decisions applied to it along the current path: popping a node undoes
the trail back to its parent's depth and applies the node's one
decision.  Its two children, take and forbid, are priced from that
state without being applied, and the child with the lower bound is
popped first.  Open nodes live on an explicit stack of scalar tuples
that never holds more than one pending sibling per level, so memory
stays linear in the depth.

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

Pricing is batched per expansion: one step prices both children of a
node, and a batch of one prices the root, which thus enters the stack
with its real bound.  It builds the parent's masked gains matrix once
and derives the take child's from it, sorts the rows of both children
in one call and their columns in another, reads the counting check's
side totals off the upper-bound sums less the taken count, and picks
each kept child's branch edge (the heaviest usable edge at an owing
right node, else at an owing left node).  The matrices are rebuilt from
the residual state at each expansion, never stored on the stack.

Before the search, a Lagrangian bound prices what the completion bound
leaves out: how the left degree bounds interact.  Multipliers move the
left bounds into the objective, which leaves one subproblem per right
node, solved exactly by enumerating each cluster's member subsets (up
to SUBSET_CAP members) and combining the clusters with a dynamic
program over per-cluster take counts (_cluster_dp), with each edge's
multiplier added.  Projected subgradient steps raise the bound toward
the best cost known.  A subproblem solution that meets every left bound
is a feasible matching, and it replaces the incumbent when its fresh
cost is lower.  The bound runs once, at the root, and only if root
pricing leaves the root open; the search then stops as soon as the
incumbent is within PRUNE_TOL of it, so most proofs close at the root
with no node expanded.

The search is anytime: the minimum-weight matching seeds the incumbent,
and so sets the Lagrangian bound's first target, and a millisecond
budget stops the Lagrangian steps and the search early with the best
incumbent.  Every subtree not yet searched hangs off a node on
the stack, so the smallest bound left there (capped by the pruning
cutoff), or the Lagrangian bound where it is higher, is a certified
lower bound on the optimum; telemetry reports it, capped by the
incumbent's cost, as lower_bound, with the relative gap to the returned
cost.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from typing import Optional

import numpy as np

from . import minweight
from ._residual import Residual
from .errors import ConfigError, InternalError
# solve_diverse_greedy, solve_min_weight, check_matching and total_weight
# go unused here, but perfbench/tracing.py's PATCHES patches them in this
# module by name
from .greedy import _per_right_node, solve_diverse_greedy
from .instance import (Instance, Matching, _full_cost, check_matching,
                       is_feasible_bounds)
from .minweight import solve_min_weight
from .objective import diversity_cost, total_weight
from .report import FEASIBLE_INCUMBENT, INFEASIBLE, OPTIMAL, SolveReport, _finish

# relative to the incumbent's cost, so every weight scale prunes alike
PRUNE_TOL = 1e-9
# the Lagrangian bound enumerates every member subset of each cluster,
# so it refuses a cluster above this many members (2^14 subsets)
SUBSET_CAP = 14
# subgradient steps at most per Lagrangian bound
LAGRANGIAN_ITERATIONS = 300


def warm_start(inst: Instance) -> Optional[Matching]:
    """Feasible matching used to seed the incumbent; None if infeasible.

    The minimum-weight matching: the concentration cost squares summed
    weights, so the lightest edges make a strong diverse incumbent, and
    every feasible instance has one.  It runs the circulation directly,
    not solve_min_weight, whose report would check and cost it again.
    """
    if not is_feasible_bounds(inst)[0]:
        return None
    return minweight.solve_circulation(minweight.reduce_to_circulation(inst))[0]


def _cluster_dp(tables: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                sizes: np.ndarray | list[int]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each right node's cheapest count in [lo, hi], and each cluster's share.

    tables[c, j, t - 1] is what right node j pays for cluster c's
    cheapest t members, for t up to top = max(hi), infinite where c has
    fewer than t, that is past sizes[c], its member count.  dp[j, t] is
    right node j's cheapest cost of t members from the clusters so far;
    each cluster's min-plus step runs for every right node at once, over
    takes up to the cluster's size.  Returns best[j], infinite where no
    count in range is reachable, and takes[c, j], cluster c's share of
    it; ties go to the fewest taken, in all and then per cluster.
    """
    k, n, top = tables.shape
    cols, span = np.arange(n), np.arange(top + 1)
    # padded[j, top + t] = dp[j, t], infinite below t = 0, so that
    # padded[:, shift] is the (j, take, t) array of dp[j, t - take]
    padded = np.full((n, 2 * top + 1), math.inf)
    padded[:, top] = 0.0
    shift = top + span - span[:, None]
    steps = []
    for sq, size in zip(tables[..., None], np.minimum(sizes, top).tolist()):
        cand = padded[:, shift[:size + 1]]
        cand[:, 1:] += sq[:, :size]
        steps.append(cand.argmin(axis=1))  # ties to the fewest taken
        padded[:, top:] = cand.min(axis=1)
    dp = np.where((span >= lo[:, None]) & (span <= hi[:, None]),
                  padded[:, top:], math.inf)
    t = dp.argmin(axis=1)
    best = dp[cols, t]
    takes = np.empty((k, n), dtype=np.int64)
    for c in range(k - 1, -1, -1):
        takes[c] = steps[c][cols, t]
        t = t - takes[c]
    return best, takes


@functools.lru_cache(maxsize=None)
def _subsets(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every subset of size members, fewest members first: its bit mask,
    its row of member flags, and the row where each member count starts.

    The tables depend on the size alone, so each is built once and
    shared read-only.
    """
    bits = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
    count = bits.sum(axis=1)
    masks = np.argsort(count, kind="stable")
    flags = bits[masks].astype(bool)
    starts = np.searchsorted(count[masks], np.arange(size + 1))
    for table in (masks, flags, starts):
        table.flags.writeable = False
    return masks, flags, starts


def _lagrangian(inst: Instance, target: float, deadline: Optional[float]
                ) -> tuple[Optional[float], Optional[Matching], float, int]:
    """Lagrangian lower bound that prices the left degree bounds.

    Multipliers y >= 0, one per left bound (deg_i <= L_hi[i], then
    deg_i >= L_lo[i]), move the left bounds into the objective.  What is
    left splits into one subproblem per right node j: between R_lo[j]
    and R_hi[j] edges, paying the squared cluster sums plus
    pi_i = y_hi[i] - y_lo[i] per edge (i, j).  Each cluster's member
    subsets are enumerated, the cheapest of each size kept, and
    _cluster_dp combines the clusters, so every subproblem is solved
    exactly and the sum of their costs, less y_hi . L_hi and plus
    y_lo . L_lo, is a lower bound for any y >= 0.  y = 0 is the first
    iterate, the bound that drops the left bounds.

    y follows projected Polyak steps toward the goal, the lower of
    target (the incumbent's cost) and the best primal: scale 2, halved
    after 5 iterations without a better bound.  A subproblem solution
    that meets every left bound is a feasible matching, a primal, kept
    on its fresh cost.  The loop stops when the bound reaches the goal
    less PRUNE_TOL, when the projected subgradient is zero (the
    solution is then optimal), after LAGRANGIAN_ITERATIONS, or when the
    deadline has passed; the deadline is read before every iteration.

    Returns (best bound, best primal, its cost, iterations): the bound
    is None where a cluster has more than SUBSET_CAP members or no
    iteration ran, and the primal None (cost inf) where none was found.
    """
    members = [np.flatnonzero(inst.clusters == c) for c in range(inst.k)]
    sizes = [len(mem) for mem in members]
    if max(sizes) > SUBSET_CAP:
        return None, None, math.inf, 0
    b, m = inst.bounds, inst.m
    r_lo, r_hi = np.array(b.r_lo), np.array(b.r_hi)
    top = int(r_hi.max())
    # the subgradient is (deg, -deg) + offset, and the bound's own term
    # is y . offset
    offset = np.concatenate((-np.array(b.l_hi), b.l_lo)).astype(float)
    # one flat row per (cluster, member subset), each cluster's rows in
    # blocks of one subset size: pick[r] flags the subset's left nodes
    subsets = [_subsets(size) for size in sizes]
    rows = 1 << np.array(sizes)
    cluster_start = np.cumsum(rows) - rows
    pick = np.zeros((rows.sum(), m), dtype=bool)
    # each subset's summed weight per right node, its members added in
    # index order: no BLAS call, so every machine rounds alike
    sums = np.empty((len(pick), inst.n))
    for mem, (masks, flags, _), r0 in zip(members, subsets,
                                          cluster_start.tolist()):
        pick[r0:r0 + len(masks), mem] = flags
        by_mask = np.zeros((len(masks), inst.n))
        for bit, i in enumerate(mem.tolist()):
            by_mask[1 << bit:2 << bit] = by_mask[:1 << bit] + inst.weights[i]
        sums[r0:r0 + len(masks)] = by_mask[masks]
    squares = sums * sums
    block_start = np.concatenate([r0 + starts for r0, (_, _, starts)
                                  in zip(cluster_start, subsets)])
    row_block = np.repeat(np.arange(len(block_start)),
                          np.diff(block_start, append=len(pick)))
    row_cluster = np.repeat(np.arange(inst.k), rows)
    row_ids, cols = np.arange(len(pick))[:, None], np.arange(inst.n)
    lefts = np.arange(m)[:, None]
    # cluster c's size-t block is block block_first[c] + t, and its
    # minima fill _cluster_dp's tables[c, :, t - 1]
    block_first = np.cumsum(sizes) + np.arange(inst.k) - sizes
    fill_c, fill_t = np.array([(c, t) for c in range(inst.k)
                               for t in range(1, min(sizes[c], top) + 1)],
                              dtype=np.int64).reshape(-1, 2).T
    fill_block = block_first[fill_c] + fill_t
    tables = np.full((inst.k, inst.n, top), math.inf)
    y = np.zeros(2 * m)
    best, primal, value = -math.inf, None, math.inf
    scale, stall, iterations = 2.0, 0, 0
    while iterations < LAGRANGIAN_ITERATIONS:
        if deadline is not None and time.perf_counter() > deadline:
            break
        iterations += 1
        penalty = np.where(pick, y[:m] - y[m:], 0.0).sum(axis=1)
        cost = squares + penalty[:, None]
        mins = np.minimum.reduceat(cost, block_start, axis=0)
        tables[fill_c, :, fill_t - 1] = mins[fill_block]
        sub, takes = _cluster_dp(tables, r_lo, r_hi, sizes)
        bound = math.fsum(sub.tolist()) + float((y * offset).sum())
        # each (cluster, right node)'s subset: the first row of the
        # chosen size block that reaches the block's minimum
        chosen = block_first[:, None] + takes
        hit = ((row_block[:, None] == chosen[row_cluster])
               & (cost == mins[row_block]))
        choice = np.minimum.reduceat(np.where(hit, row_ids, len(pick)),
                                     cluster_start, axis=0)
        x = pick[choice[inst.clusters], lefts]
        deg = x.sum(axis=1)
        grad = np.concatenate((deg, -deg)) + offset
        goal = min(target, value)
        # a primal is costed afresh only if its own squares beat the goal
        if (not (grad > 0).any()
                and float(squares[choice, cols].sum()) < goal):
            rows_i, cols_j = np.nonzero(x)
            match = Matching._trusted(zip(rows_i.tolist(), cols_j.tolist()))
            fresh = diversity_cost(inst, match)
            if fresh < value:
                primal, value = match, fresh
        if bound > best:
            best, stall = bound, 0
        else:
            stall += 1
            if stall == 5:
                scale, stall = scale / 2, 0
        # a multiplier at zero does not move down: project its step out
        grad[(y == 0) & (grad < 0)] = 0.0
        norm = float(grad @ grad)
        goal = min(goal, value)
        if best >= goal - PRUNE_TOL * goal or norm == 0:
            break
        y = np.maximum(y + scale * (goal - bound) / norm * grad, 0.0)
    return (best if iterations else None), primal, value, iterations


class _Pricer:
    """Bounds and branch edges of res's state or of its two children.

    The parent's gains matrix is infinite at every closed edge, full row
    and full column.  Taking (i, j) changes only column j's entries from
    i's cluster, priced on the sum ClusterSums.add would leave, and
    closes (i, j), plus row i or column j if the take fills that node.
    Both children's rows (left nodes) are sorted by one call and their
    columns (right nodes) by another, in one flat buffer, so one index
    reads every owing node's cheapest-need sum.  The buffers belong to
    one solve and carry nothing from one call to the next.
    """

    def __init__(self, res: Residual):
        inst = res.inst
        m, n = inst.m, inst.n
        self.res, self.m, self.n = res, m, n
        self.clusters = inst.clusters
        self.w = inst.weights
        self.usable = np.empty((2, m, n), dtype=bool)
        self.table = np.empty((2, inst.k, n))  # cluster sums, transposed
        self.need = np.empty((2, n + m), dtype=np.int64)
        # sorted prefix sums of each right node's column (cols) and each
        # left node's row (rows) in one flat buffer; base[s, node] is
        # where the node's run starts
        self.prefix = np.empty(4 * m * n)
        self.cols = self.prefix[:2 * m * n].reshape(2, n, m)
        self.rows = self.prefix[2 * m * n:].reshape(2, m, n)
        self.base = np.concatenate((m * np.arange(2 * n).reshape(2, n),
                                    2 * m * n
                                    + n * np.arange(2 * m).reshape(2, m)),
                                   axis=1)
        # no node owes more than its lower bound, so only a run's first
        # max-bound prefix sums are read
        self.heads = ((self.cols, int(res.r_lo.max())),
                      (self.rows, int(res.l_lo.max())))
        # segment[s, node]: which (state, side) sum an owing node joins
        self.segment = 2 * np.arange(2)[:, None] + (np.arange(n + m) >= n)
        # pools[s, 0] marks state s's usable edges at owing right nodes,
        # pools[s, 1] those at owing left nodes
        self.pools = np.empty((2, 2, m, n), dtype=bool)

    def price(self, committed: float, cutoff: float,
              edge: int = -1) -> list[Optional[tuple[float, float, int]]]:
        """(bound, committed cost, branch edge) per state, None if pruned.

        The batch is res's state when edge is -1, else the take and the
        forbid child of flat edge i * n + j, in that order; committed is
        res's.  A branch edge is the flat index of the heaviest usable
        edge at an owing right node, else at an owing left node, ties to
        the first; -1 when no node owes.
        """
        res, m, n = self.res, self.m, self.n
        size = 1 if edge < 0 else 2
        usable, table = self.usable[:size], self.table[:size]
        need, rows = self.need[:size], self.rows[:size]
        usable[:] = res.usable()
        table[:] = res.table.T
        need[:, :n] = res.need_r
        need[:, n:] = res.need_l
        taken = res.n_taken
        commits, takens = [committed], [taken]
        if edge >= 0:
            i, j = divmod(edge, n)
            commits = [committed + res.sums.gain(i, j), committed]
            takens = [taken + 1, taken]
            usable[:, i, j] = False
            table[0, self.clusters[i], j] += self.w[i, j]
            need[0, j] -= 1
            need[0, n + i] -= 1
            if res.deg_l[i] + 1 >= res.l_hi[i]:
                usable[0, i, :] = False
            if res.deg_r[j] + 1 >= res.r_hi[j]:
                usable[0, :, j] = False

        # rows[s, i, j] = w2 + tw * S[j, c(i)], edge (i, j)'s gain
        np.multiply(res.tw, table[:, self.clusters], out=rows)
        rows += res.w2
        rows[~usable] = math.inf
        self.cols[:size] = rows.transpose(0, 2, 1)
        for run, top in self.heads:
            run = run[:size]
            run.sort(axis=2)
            if top > 1:  # else each run's first entry is its only sum read
                head = run[..., :top]
                np.add.accumulate(head, axis=2, out=head)
        owing = need > 0
        debt, segment = need[owing], self.segment[:size][owing]
        cheapest = self.prefix[self.base[:size][owing] + debt - 1]
        owed = np.bincount(segment, debt, 2 * size).tolist()
        sums = np.bincount(segment, cheapest, 2 * size).tolist()  # node order

        pools = self.pools[:size]
        np.logical_and(usable, owing[:, None, :n], out=pools[:, 0])
        np.logical_and(usable, owing[:, n:, None], out=pools[:, 1])
        pools = pools.reshape(size, 2, m * n)
        heaviest = np.where(pools, self.w.ravel(), -math.inf).argmax(
            axis=2).tolist()

        out: list[Optional[tuple[float, float, int]]] = []
        for s in range(size):
            owe_r, owe_l = owed[2 * s], owed[2 * s + 1]
            spare_l, spare_r = res.cap_l - takens[s], res.cap_r - takens[s]
            if owe_l > spare_r or owe_r > spare_l:
                bound = math.inf
            else:
                bound = commits[s] + max(sums[2 * s], sums[2 * s + 1])
            if bound >= cutoff:
                out.append(None)
                continue
            branch = -1
            if owe_r + owe_l > 0:
                side = 0 if pools[s, 0, heaviest[s][0]] else 1
                branch = heaviest[s][side]
                if not pools[s, side, branch]:
                    raise InternalError("owing node with no usable edge has "
                                        "a finite bound")
            out.append((bound, commits[s], branch))
        return out


def _branch_and_bound(inst: Instance, start: float,
                      deadline: Optional[float]):
    """(incumbent, its tracked cost, lower bound, timed out, telemetry)."""
    incumbent = warm_start(inst)
    if incumbent is None:
        raise InternalError("feasibility pre-check passed but no warm start")
    best_value = tracked = diversity_cost(inst, incumbent)
    cutoff = best_value - PRUNE_TOL * best_value
    updates = [(time.perf_counter() - start, best_value)]

    res, n = Residual(inst), inst.n
    pricer = _Pricer(res)
    root = pricer.price(0.0, cutoff)[0]
    lagrangian, iterations = None, 0
    if root is not None:
        lagrangian, primal, value, iterations = _lagrangian(inst, best_value,
                                                            deadline)
        if value < best_value:
            best_value = tracked = value
            cutoff = best_value - PRUNE_TOL * best_value
            incumbent = primal
            updates.append((time.perf_counter() - start, value))
    floor = -math.inf if lagrangian is None else lagrangian
    expanded, pruned, peak_depth = 0, int(root is None), 0
    # open nodes as (bound, committed, depth, edge, take, branch): edge
    # (flat i * n + j, -1 at the root) is taken or forbidden on the way
    # from the parent, branch is the node's own branch edge
    stack = [] if root is None else [(root[0], 0.0, 0, -1, False, root[2])]
    trail: list[tuple[int, int, bool]] = []  # decisions applied to res
    timed_out = False

    # the search ends once the incumbent meets the Lagrangian bound
    while stack and cutoff > floor:
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
        peak_depth = max(peak_depth, depth)

        if flat == -1:
            # all lower bounds met: the committed set is a full candidate,
            # accepted on its fresh cost; its incremental one is tracked
            match = res.matching()
            value = diversity_cost(inst, match)
            if value < cutoff:
                best_value, tracked = value, committed
                cutoff = best_value - PRUNE_TOL * best_value
                incumbent = match
                updates.append((time.perf_counter() - start, value))
            continue

        children = []
        for take, priced in zip((True, False),
                                pricer.price(committed, cutoff, flat)):
            if priced is None:
                pruned += 1
            else:
                children.append((priced[0], priced[1], depth + 1, flat,
                                 take, priced[2]))
        # the last one pushed pops first: the lower bound, take on a tie
        if len(children) == 2 and children[0][0] <= children[1][0]:
            children.reverse()
        stack.extend(children)

    # capped by the incumbent's cost: a bound rounded a few ulps above
    # the optimum cannot make the gap negative
    lower_bound = min(max(min([cutoff] + [node[0] for node in stack]), floor),
                      best_value)
    return incumbent, tracked, lower_bound, timed_out, {
        "fast_path": False, "expanded": expanded, "pruned": pruned,
        "peak_depth": peak_depth, "incumbent_updates": updates,
        "lagrangian_iterations": iterations, "lagrangian_bound": lagrangian}


def solve_diverse_exact(inst: Instance,
                        budget_ms: Optional[float] = None) -> SolveReport:
    """Globally minimize the concentration cost under all degree bounds.

    right_only instances take greedy's take rounds, exact there
    (telemetry fast_path True); all others branch and bound.  Completes
    with status optimal, or returns the best incumbent as
    feasible_incumbent when budget_ms elapses first.  The budget is
    checked before every Lagrangian step and between search nodes only,
    so the warm start and root pricing always run and a feasible
    instance always gets a matching.  A budget that is not a
    nonnegative real number (a bool, numpy's included, a string, a
    complex number, NaN) raises ConfigError.  Telemetry lower_bound is
    a certified floor on the optimum and gap the returned cost's
    relative distance above it.
    """
    if budget_ms is not None and (
            isinstance(budget_ms, bool)
            or not isinstance(budget_ms, numbers.Real) or not budget_ms >= 0):
        raise ConfigError(
            f"budget_ms must be a nonnegative number, got {budget_ms!r}")
    start = time.perf_counter()
    deadline = None if budget_ms is None else start + budget_ms / 1000.0
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return _finish("diverse_exact", inst, start, None, INFEASIBLE, why)

    if inst.right_only:
        incumbent, _, tracked = _per_right_node(inst)
        lower_bound, timed_out = None, False
        telemetry = {"fast_path": True, "expanded": 0, "pruned": 0,
                     "peak_depth": 0, "incumbent_updates": [],
                     "lagrangian_iterations": 0, "lagrangian_bound": None}
    else:
        incumbent, tracked, lower_bound, timed_out, telemetry = (
            _branch_and_bound(inst, start, deadline))

    rep = _finish("diverse_exact", inst, start, incumbent,
                  FEASIBLE_INCUMBENT if timed_out else OPTIMAL,
                  telemetry=telemetry)
    value = rep.diversity_cost
    # the tracked cost adds gains read off sums that heavy edges have
    # passed through, so its rounding scales with the cost of selecting
    # every edge, not with the incumbent's own cost
    if abs(value - tracked) > 1e-9 * _full_cost(inst.weights, inst.clusters,
                                                inst.k):
        raise InternalError(
            f"incumbent value drifted: tracked {tracked}, actual {value}")
    if lower_bound is None:  # the take rounds' answer is the optimum
        lower_bound = value
    # telemetry is the report's own dict
    telemetry["lower_bound"] = lower_bound
    telemetry["gap"] = (value - lower_bound) / value if value else 0.0
    return rep
