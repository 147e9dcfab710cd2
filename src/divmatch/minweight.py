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
requirement arcs by node id.  Successive shortest paths break ties on
this order (heap ties on node id, strict relaxation), so which optimum
is returned among several of the same weight is fixed by the arc order,
the warm start and the start arc of each path.  On right_only instances
the warm start routes everything: each right node takes its lightest
left nodes, lowest index first.  The supply arcs and the edge block are
laid out in bulk, entry for entry what one Graph.add per arc would give.

Nodes are numbered 0 = source, 1 = sink, then the m left nodes, the n
right nodes, the super source 2 + m + n and the super sink 3 + m + n.
reduce_to_circulation chooses the warm start before any arc is built,
and its FlowNetwork records only that choice.  When the warm start
leaves nothing to route (need 0) its flow is optimal as it stands, so
solve_circulation returns its picks and builds no graph; otherwise it
builds the residual graph, routes the rest and decodes the matching.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InternalError
# check_matching, diversity_cost and total_weight go unused here, but
# perfbench/tracing.py's PATCHES patches them in this module by name
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport, _finish


class Graph:
    """Residual graph: arc a and its reverse a ^ 1 share the arrays.

    pot holds the node potentials that successive shortest paths keep;
    a warm start may set them together with a starting flow.  The flow
    on arc a is cap[a ^ 1].
    """

    def __init__(self, num_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []
        self.pot: list[float] = [0.0] * num_nodes

    def add(self, u: int, v: int, cap: int, cost: float = 0.0) -> int:
        """Add arc u->v; returns its id (the reverse arc is id + 1)."""
        arc = len(self.to)
        self.adj[u].append(arc)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return arc

    def push(self, arc: int, units: int) -> None:
        """Route units more over an arc returned by add."""
        self.cap[arc] -= units
        self.cap[arc ^ 1] += units

    def min_cost_flow(self, s: int, t: int) -> tuple[int, int]:
        """Route flow s->t at minimum cost by successive shortest paths.

        Routes one excess at a time: each Dijkstra starts at the head of
        s's first arc that still has capacity, in adj order, at distance
        0 with that arc as its parent, and never relaxes an arc into or
        out of s.  This is exact because every arc out of s ends
        saturated, so no residual cycle passes through s, and because
        while the flow can still be completed there is a residual path
        from that head to t that avoids s (decompose the difference
        between an optimal flow and the current one).  Arcs into and out
        of s may therefore carry negative reduced costs, and so may arcs
        out of t: Dijkstra stops once no key left can beat t's distance
        (a warm start leaves such arcs so).  Every arc it relaxes must
        have a nonnegative reduced cost under pot.  Stops once the arcs
        out of s are saturated or t is out of reach of the next head.
        Returns (flow, augmentations).  A reduced cost below -1e-9 times
        the summed arc costs means the potentials broke, which raises
        InternalError; the tolerance scales with the weights so rounding
        at any weight scale passes.
        """
        num = len(self.adj)
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        pot = self.pot
        tol = 1e-9 * sum(cost[0::2])
        out_s = adj[s]
        limit = sum(cap[a] for a in out_s)
        flow = 0
        augmentations = 0
        nxt = 0  # arcs out of s only fill up, so the first open one moves on
        while flow < limit:
            while cap[out_s[nxt]] <= 0:
                nxt += 1
            first = out_s[nxt]
            head = to[first]
            dist = [math.inf] * num
            parent_arc = [-1] * num
            dist[head] = 0.0
            parent_arc[head] = first
            heap = [(0.0, head)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                if d >= dist[t]:  # nothing left to pop can beat t
                    break
                pu = pot[u]
                for a in adj[u]:
                    if cap[a] <= 0:
                        continue
                    v = to[a]
                    if v == s:
                        continue
                    reduced = cost[a] + pu - pot[v]
                    if reduced < 0.0:
                        if reduced < -tol:
                            raise InternalError(
                                f"negative reduced cost {reduced} in Dijkstra")
                        reduced = 0.0
                    nd = d + reduced
                    if nd < dist[v]:
                        dist[v] = nd
                        parent_arc[v] = a
                        heapq.heappush(heap, (nd, v))
            dt = dist[t]
            if math.isinf(dt):
                break
            pot[:] = [p + (d if d <= dt else dt) for p, d in zip(pot, dist)]
            bottleneck = math.inf
            v = t
            while v != s:
                a = parent_arc[v]
                bottleneck = min(bottleneck, cap[a])
                v = to[a ^ 1]
            v = t
            while v != s:
                a = parent_arc[v]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                v = to[a ^ 1]
            flow += bottleneck
            augmentations += 1
        return flow, augmentations


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


@dataclass(frozen=True)
class FlowNetwork:
    """The warm start of one instance's lowered circulation.

    warm_side is "right" or "left" for the side whose lower bounds the
    warm start met, None for a cold start.  picks are its edges as
    (left, right) pairs, and theta holds, per node of warm_side, the
    heaviest weight it took (None for a cold start).  need is the number
    of units still to route from the super source to the super sink
    after the warm start; all lower bounds are met when they arrive.
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


def _lower(net: FlowNetwork) -> Graph:
    """The residual graph of net's instance in the documented arc order,
    carrying the warm start's flow and potentials."""
    inst = net.inst
    m, n = inst.m, inst.n
    b = inst.bounds
    s, t = 0, 1
    left0, right0 = 2, 2 + m
    ss, tt = 2 + m + n, 3 + m + n
    g = Graph(4 + m + n)
    # The supply arcs and the edge block in bulk, entry for entry what
    # Graph.add would lay out: reverse arcs have capacity 0 and the
    # negated cost (-0.0 on the supply arcs).
    first, end = 2 * m, 2 * m + 2 * m * n
    supply = range(0, first, 2)
    g.to = [s] * end
    g.to[0:first:2] = range(left0, left0 + m)
    g.to[first:end:2] = list(range(right0, right0 + n)) * m
    g.to[first + 1:end:2] = [u for u in range(left0, left0 + m)
                             for _ in range(n)]
    g.cap = [0] * end
    g.cap[0:first:2] = [hi - lo for lo, hi in zip(b.l_lo, b.l_hi)]
    g.cap[first:end:2] = [1] * (m * n)
    g.cost = [-0.0] * end
    g.cost[0:first:2] = [0.0] * m
    g.cost[first:end:2] = inst.weights.ravel().tolist()
    g.cost[first + 1:end:2] = (-inst.weights).ravel().tolist()
    g.adj[s] = list(supply)
    for i in range(m):
        g.adj[left0 + i] = [2 * i + 1, *range(first + 2 * n * i,
                                              first + 2 * n * (i + 1), 2)]
    for j in range(n):
        g.adj[right0 + j] = list(range(first + 2 * j + 1, end, 2 * n))
    demand = [g.add(right0 + j, t, b.r_hi[j] - b.r_lo[j]) for j in range(n)]
    bypass = g.add(t, s, min(sum(b.l_hi), sum(b.r_hi)))

    total_l, total_r = sum(b.l_lo), sum(b.r_lo)
    s_tt = g.add(s, tt, total_l) if total_l > 0 else -1
    ss_t = g.add(ss, t, total_r) if total_r > 0 else -1
    ss_left = [g.add(ss, left0 + i, lo) if lo > 0 else -1
               for i, lo in enumerate(b.l_lo)]
    right_tt = [g.add(right0 + j, tt, lo) if lo > 0 else -1
                for j, lo in enumerate(b.r_lo)]
    if net.warm_side is None:
        return g

    # The warm start.  Each node carries its picks on its requirement arc
    # up to its lower bound and the rest on its free (supply or demand)
    # arc; each detour arc carries what its side's requirement arcs carry,
    # and the bypass every pick.
    deg_l, deg_r = [0] * m, [0] * n
    for i, j in net.picks:
        g.push(first + 2 * (i * n + j), 1)
        deg_l[i] += 1
        deg_r[j] += 1
    for deg, lows, req, free, detour in (
            (deg_l, b.l_lo, ss_left, supply, s_tt),
            (deg_r, b.r_lo, right_tt, demand, ss_t)):
        met = 0
        for node, (d, lo) in enumerate(zip(deg, lows)):
            if lo > 0:
                g.push(req[node], min(d, lo))
                met += min(d, lo)
            if d > lo:
                g.push(free[node], d - lo)
        if met:
            g.push(detour, met)
    g.push(bypass, len(net.picks))
    node0, sign = ((right0, 1.0) if net.warm_side == "right"
                   else (left0, -1.0))
    g.pot[node0:node0 + net.theta.size] = (sign * net.theta).tolist()
    return g


def solve_circulation(net: FlowNetwork) -> tuple[Matching, int]:
    """Min-cost circulation honoring lower bounds.

    Returns (matching of the edge arcs that carry flow, augmentation
    count).  The count is the shortest-path augmentations plus 1 when
    the warm start routed flow.  With need 0 the warm start's flow is
    already optimal, so its picks are the answer and no graph is built.
    Raises InternalError if the lower bounds cannot be met; callers are
    expected to have run is_feasible_bounds first.
    """
    warmed = int(net.warm_side is not None)
    if net.need == 0:
        return Matching._trusted(net.picks), warmed
    m, n = net.inst.m, net.inst.n
    g = _lower(net)
    sent, augmentations = g.min_cost_flow(2 + m + n, 3 + m + n)
    if sent != net.need:
        raise InternalError(
            "circulation lower bounds unmet despite feasibility pre-check")
    # row i's edge arcs follow the m supply arcs, n to a row; their
    # reverse arcs hold the edges' flows
    edges = [(i, j) for i, row in enumerate(range(2 * m, 2 * m + 2 * m * n,
                                                  2 * n))
             for j, flow in enumerate(g.cap[row + 1:row + 2 * n:2]) if flow]
    return Matching._trusted(edges), augmentations + warmed


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
