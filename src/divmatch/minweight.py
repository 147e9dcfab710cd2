"""Exact minimum-weight solver via min-cost circulation.

The degree-bounded matching problem is a circulation with lower bounds:
a source feeds each left node within its degree interval, every
candidate edge is a unit-capacity arc priced at its weight, right nodes
drain to a sink within their intervals, and a free sink-to-source bypass
lets the edge count float.  reduce_to_circulation removes the lower
bounds by the standard surplus transformation (a super source and super
sink carry each bound as a requirement arc) and returns the lowered
circulation, on whose residual graph successive shortest paths find the
minimum-weight circulation.  Its constraint system is totally unimodular, so the
fractional optimum is integral and the edge arcs carrying flow form an
optimal matching.  Feasibility needs no flow: on the complete bipartite
graph instance.is_feasible_bounds decides it by counting.

The lowering is warm-started so that one side's lower bounds are met
before any shortest path runs.  On the right side, every right node j
takes its r_lo[j] lightest left nodes (ties to the lowest index) and
gets the potential theta_j, the heaviest weight it took; on the left
side, the mirror image, with potential -theta_i on left node i.  Every
residual arc then has a nonnegative reduced cost except arcs out of the
super sink and into or out of the super source, which no shortest path
relaxes.  A side is usable only if no node on the other side goes past
its upper bound; of the usable sides the one that leaves fewer units
unrouted wins (the right side on a tie), and with neither the solve
starts cold.

Successive shortest paths then route one excess at a time (Ahuja,
Magnanti and Orlin, Network Flows, ch. 9).  Each Dijkstra starts at the
head of the super source's first arc that still has capacity, in
adjacency order (the detour arc to the sink, then the requirement arcs
by left node), at distance 0, and never relaxes an arc into or out of
the super source, so those arcs' reduced costs may go negative.  This is
exact for two reasons:
- once every lower bound is met, every arc out of the super source and
  into the super sink is saturated, so no residual cycle passes through
  either and the flow is optimal;
- on a feasible instance, the difference between an optimal flow and
  the current one decomposes into paths and cycles, and one path runs
  over the start arc: from its head to the super sink without touching
  the super source again.
After a right warm start every left node it left short sits at reduced
distance 0 from the super source, so a search from the super source
itself would pop all of them on every path.

Arc order is fixed: supplies by left node, edges in (left, right)
lexicographic order, demands by right node, the bypass, then the
requirement arcs by node id.  Each Dijkstra settles the open node of
smallest (label, node id) and relaxes strictly, so which optimum is
returned among several of the same weight is fixed by the arc order,
the warm start and the start arc of each path.  On right_only instances
the warm start routes everything: each right node takes its lightest
left nodes, lowest index first.

The residual state (_FlowState) keeps no arc list for the m*n edges: a
forward edge (i, j) is open while the flow matrix holds 0 there and
costs the weight itself, and right node j's reverse arcs run over its
matched left nodes in index order.  Only the O(m + n) supply, demand,
bypass, detour and requirement arcs are explicit.  A node relaxes its
arc into the super sink first; once that arc sets the sink's label to
the node's own label the search stops, since no node left open could
beat it and the potential update gives every unsettled node the sink's
distance whatever its label.

Nodes are numbered 0 = source, 1 = sink, then the m left nodes, the n
right nodes, the super source 2 + m + n and the super sink 3 + m + n.
reduce_to_circulation chooses the warm start before any arc is built,
and its FlowNetwork records only that choice.  When the warm start
leaves nothing to route (need 0) its flow is optimal as it stands, so
solve_circulation returns its picks and builds no state; otherwise it
builds the residual state, routes the rest and decodes the matching.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InternalError
# check_matching, diversity_cost and total_weight go unused here, but
# perfbench/tracing.py's PATCHES patches them in this module by name
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport, _finish


def _lightest(w: np.ndarray, lo: np.ndarray):
    """Each column j's lo[j] lightest rows, ties to the lowest row.

    Returns (rows, cols, degrees, theta): the picked cells, how many
    picks each row got, and per column the heaviest weight it took (0
    if it took none).
    """
    m, n = w.shape
    order = np.argsort(w, axis=0, kind="stable")
    take = np.arange(m)[:, None] < lo
    rows = order[take]
    cols = np.nonzero(take)[1]
    last = order[np.maximum(lo - 1, 0), np.arange(n)]
    theta = np.where(lo > 0, w[last, np.arange(n)], 0.0)
    return rows, cols, np.bincount(rows, minlength=m), theta


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """The warm start of one instance's lowered circulation.

    warm_side is "right" or "left" for the side whose lower bounds the
    warm start met, None for a cold start.  picks are its edges as
    (left, right) pairs, and theta holds, per node of warm_side, the
    heaviest weight it took (None for a cold start).  need is the number
    of units still to route from the super source to the super sink
    after the warm start; all lower bounds are met when they arrive.
    Equality is identity: two starts are the same only if they are one.
    """

    inst: Instance = field(repr=False)
    need: int
    warm_side: Optional[str] = None
    picks: list[tuple[int, int]] = field(default_factory=list, repr=False)
    theta: Optional[np.ndarray] = field(default=None, repr=False)


def reduce_to_circulation(inst: Instance) -> FlowNetwork:
    """Warm-start the lowered circulation of inst: the usable side that
    leaves fewer units unrouted, the right side on a tie, or a cold
    start when neither side is usable."""
    b = inst.bounds
    net = FlowNetwork(inst, sum(b.l_lo) + sum(b.r_lo))
    for side, lo, other_lo, other_hi, w in (
            ("right", b.r_lo, b.l_lo, b.l_hi, inst.weights),
            ("left", b.l_lo, b.r_lo, b.r_hi, inst.weights.T)):
        if not any(lo):
            continue
        fed, taker, deg, theta = _lightest(w, np.array(lo))
        if np.any(deg > other_hi):
            continue
        short = int(np.maximum(np.array(other_lo) - deg, 0).sum())
        if net.warm_side is None or short < net.need:
            left, right = (fed, taker) if side == "right" else (taker, fed)
            net = FlowNetwork(inst, short, side,
                              list(zip(left.tolist(), right.tolist())), theta)
        if short == 0:
            break
    return net


def _clamped(reduced: float, tol: float) -> float:
    """0.0 for a reduced cost rounding left below 0; InternalError when
    it is below -tol, which means the potentials broke."""
    if reduced < -tol:
        raise InternalError(f"negative reduced cost {reduced} in Dijkstra")
    return 0.0


class _FlowState:
    """The residual state of net's lowered circulation, warm start applied.

    flow[i][j] is edge (i, j)'s flow and w[i][j] its cost; matched[j]
    lists right node j's matched left nodes in index order.  The other
    arcs are explicit, in the documented order: arc a runs to to[a] with
    residual capacity cap[a], and its reverse is a ^ 1.  adj[u] holds
    the explicit arcs node u relaxes, its arc into the super sink first
    and none into the super source; starts holds the super source's
    arcs.  pot holds the node potentials.
    """

    def __init__(self, net: FlowNetwork):
        inst = net.inst
        m, n = inst.m, inst.n
        b = inst.bounds
        s, t, left0, right0 = 0, 1, 2, 2 + m
        ss, tt = 2 + m + n, 3 + m + n
        self.m = m
        self.w = inst.weights.tolist()
        self.flow = flow = [[0] * n for _ in range(m)]
        self.matched = matched = [[] for _ in range(n)]
        self.to = to = []
        self.cap = cap = []
        self.adj = adj = [[] for _ in range(4 + m + n)]
        self.pot = [0.0] * (4 + m + n)

        def add(u, v, c):
            a = len(to)
            to.extend((v, u))
            cap.extend((c, 0))
            if v == tt:
                adj[u].insert(0, a)
            else:
                adj[u].append(a)
            if u != ss:
                adj[v].append(a + 1)
            return a

        def push(a, units):
            cap[a] -= units
            cap[a ^ 1] += units

        supply = [add(s, left0 + i, hi - lo)
                  for i, (lo, hi) in enumerate(zip(b.l_lo, b.l_hi))]
        demand = [add(right0 + j, t, hi - lo)
                  for j, (lo, hi) in enumerate(zip(b.r_lo, b.r_hi))]
        bypass = add(t, s, min(sum(b.l_hi), sum(b.r_hi)))
        total_l, total_r = sum(b.l_lo), sum(b.r_lo)
        s_tt = add(s, tt, total_l) if total_l > 0 else -1
        ss_t = add(ss, t, total_r) if total_r > 0 else -1
        ss_left = [add(ss, left0 + i, lo) if lo > 0 else -1
                   for i, lo in enumerate(b.l_lo)]
        right_tt = [add(right0 + j, tt, lo) if lo > 0 else -1
                    for j, lo in enumerate(b.r_lo)]
        self.starts = adj[ss]
        if net.warm_side is None:
            return

        # The warm start.  Each node carries its picks on its requirement
        # arc up to its lower bound and the rest on its free (supply or
        # demand) arc; each detour arc carries what its side's requirement
        # arcs carry, and the bypass every pick.
        deg_l, deg_r = [0] * m, [0] * n
        for i, j in sorted(net.picks):
            flow[i][j] = 1
            matched[j].append(i)
            deg_l[i] += 1
            deg_r[j] += 1
        for deg, lows, req, free, detour in (
                (deg_l, b.l_lo, ss_left, supply, s_tt),
                (deg_r, b.r_lo, right_tt, demand, ss_t)):
            met = 0
            for node, (d, lo) in enumerate(zip(deg, lows)):
                if lo > 0:
                    push(req[node], min(d, lo))
                    met += min(d, lo)
                if d > lo:
                    push(free[node], d - lo)
            if met:
                push(detour, met)
        push(bypass, len(net.picks))
        node0, sign = ((right0, 1.0) if net.warm_side == "right"
                       else (left0, -1.0))
        self.pot[node0:node0 + net.theta.size] = (sign * net.theta).tolist()

    def route(self) -> tuple[int, int]:
        """Route from the super source to the super sink by successive
        shortest paths, one excess at a time.

        Each Dijkstra starts at the head of the first start arc that
        still has capacity, at distance 0 with that arc as its parent;
        it settles the open node of smallest (label, node id) and stops
        once that label cannot beat the super sink's.  Every arc it
        relaxes must have a nonnegative reduced cost under pot; one below
        -1e-9 times the summed weights raises InternalError, so rounding
        at any weight scale passes.  Stops once the start arcs are
        saturated or the super sink is out of reach of the next head.
        Returns (units sent, augmentations).
        """
        m = self.m
        w, flow, matched = self.w, self.flow, self.matched
        to, cap, adj, pot = self.to, self.cap, self.adj, self.pot
        num = len(pot)
        left0, right0, ss, tt = 2, 2 + m, num - 2, num - 1
        tol = 1e-9 * sum(map(sum, w))
        inf = math.inf
        sent = augmentations = 0
        for first in self.starts:  # they only fill up, so move on once full
            while cap[first] > 0:
                head = to[first]
                dist = [inf] * num
                label = [inf] * num  # dist while open, inf once settled
                parent = [-1] * num  # an explicit arc, or ~tail for an edge
                dist[head] = label[head] = 0.0
                parent[head] = first
                pot_right = pot[right0:ss]
                while True:
                    d = min(label)
                    if d >= dist[tt]:
                        break
                    u = label.index(d)
                    label[u] = inf
                    pu = pot[u]
                    for a in adj[u]:
                        if cap[a] > 0:
                            v = to[a]
                            reduced = pu - pot[v]
                            if reduced < 0.0:
                                reduced = _clamped(reduced, tol)
                            nd = d + reduced
                            if nd < dist[v]:
                                dist[v] = label[v] = nd
                                parent[v] = a
                                if v == tt and nd == d:
                                    break
                    if dist[tt] == d:  # nothing u relaxes next can matter
                        break
                    if left0 <= u < right0:
                        i = u - left0
                        for v, x, wij, pv in zip(range(right0, ss), flow[i],
                                                 w[i], pot_right):
                            if x:
                                continue
                            reduced = wij + pu - pv
                            if reduced < 0.0:
                                reduced = _clamped(reduced, tol)
                            nd = d + reduced
                            if nd < dist[v]:
                                dist[v] = label[v] = nd
                                parent[v] = ~u
                    elif right0 <= u < ss:
                        j = u - right0
                        for i in matched[j]:
                            v = left0 + i
                            reduced = -w[i][j] + pu - pot[v]
                            if reduced < 0.0:
                                reduced = _clamped(reduced, tol)
                            nd = d + reduced
                            if nd < dist[v]:
                                dist[v] = label[v] = nd
                                parent[v] = ~u
                dt = dist[tt]
                if dt == inf:
                    return sent, augmentations
                pot[:] = [p + (d if d <= dt else dt)
                          for p, d in zip(pot, dist)]
                bottleneck = inf
                v = tt
                while v != ss:
                    a = parent[v]
                    if a >= 0:
                        bottleneck = min(bottleneck, cap[a])
                        v = to[a ^ 1]
                    else:  # an edge, of capacity 1
                        bottleneck = 1
                        v = ~a
                v = tt
                while v != ss:
                    a = parent[v]
                    if a >= 0:
                        cap[a] -= bottleneck
                        cap[a ^ 1] += bottleneck
                        v = to[a ^ 1]
                        continue
                    u = ~a
                    if u < right0:  # forward edge, left u to right v
                        flow[u - left0][v - right0] = 1
                        insort(matched[v - right0], u - left0)
                    else:  # reverse edge, right u to left v
                        flow[v - left0][u - right0] = 0
                        matched[u - right0].remove(v - left0)
                    v = u
                sent += bottleneck
                augmentations += 1
        return sent, augmentations

    def edges(self) -> list[tuple[int, int]]:
        """The edges that carry flow, in (left, right) order."""
        return sorted((i, j) for j, lefts in enumerate(self.matched)
                      for i in lefts)


def solve_circulation(net: FlowNetwork) -> tuple[Matching, int]:
    """Min-cost circulation honoring lower bounds.

    Returns (matching of the edge arcs that carry flow, augmentation
    count).  The count is the shortest-path augmentations plus 1 when
    the warm start routed flow.  With need 0 the warm start's flow is
    already optimal, so its picks are the answer and no state is built.
    Raises InternalError if the lower bounds cannot be met; callers are
    expected to have run is_feasible_bounds first.
    """
    warmed = int(net.warm_side is not None)
    if net.need == 0:
        return Matching._trusted(net.picks), warmed
    state = _FlowState(net)
    sent, augmentations = state.route()
    if sent != net.need:
        raise InternalError(
            "circulation lower bounds unmet despite feasibility pre-check")
    return Matching._trusted(state.edges()), augmentations + warmed


def solve_min_weight(inst: Instance) -> SolveReport:
    """Matching of minimum total weight subject to all degree bounds."""
    start = time.perf_counter()
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return _finish("min_weight", inst, start, None, INFEASIBLE, why)
    net = reduce_to_circulation(inst)
    match, augmentations = solve_circulation(net)
    return _finish("min_weight", inst, start, match, OPTIMAL,
                   telemetry={"augmentations": augmentations,
                              "warm_side": net.warm_side})
