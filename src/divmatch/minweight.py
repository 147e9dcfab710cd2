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

The warm start is chosen before any arc is built, and the residual
graph is built on first access (FlowNetwork.graph).  When the warm
start leaves nothing to route (need 0) its flow is optimal as it
stands, so solve_circulation returns its picks and builds no graph.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

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


class _Warm(NamedTuple):
    """A warm start: each taker node takes its lightest edges to fed
    nodes (see the module docstring)."""

    side: str  # the taker side
    short: int  # units the fed side's lower bounds still lack
    edges: list[tuple[int, int]]  # the picks, as (left, right) pairs
    theta: np.ndarray  # per taker node, the heaviest weight it took


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


def _warm_start(inst: Instance) -> Optional[_Warm]:
    """The usable side that leaves fewer units unrouted, the right side
    on a tie, or None when neither side is usable."""
    b = inst.bounds
    lo = {"right": b.r_lo, "left": b.l_lo}
    hi = {"right": b.r_hi, "left": b.l_hi}
    weights = {"right": inst.weights, "left": inst.weights.T}
    best = None
    for side, other in (("right", "left"), ("left", "right")):
        if not any(lo[side]):
            continue
        fed_ids, taker_ids, deg, theta = _lightest(weights[side],
                                                   np.array(lo[side]))
        if np.any(deg > hi[other]):
            continue
        short = int(np.maximum(np.array(lo[other]) - deg, 0).sum())
        if best is None or short < best.short:
            left, right = ((fed_ids, taker_ids) if side == "right"
                           else (taker_ids, fed_ids))
            best = _Warm(side, short, list(zip(left.tolist(), right.tolist())),
                         theta)
        if short == 0:
            break
    return best


def _lower(inst: Instance, warm: Optional[_Warm]) -> Graph:
    """The residual graph of inst in the documented arc order, carrying
    warm's flow and potentials."""
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
    if warm is None:
        return g

    # The warm start.  Each node carries its picks on its requirement arc
    # up to its lower bound and the rest on its free (supply or demand)
    # arc; each detour arc carries what its side's requirement arcs carry,
    # and the bypass every pick.
    deg_l, deg_r = [0] * m, [0] * n
    for i, j in warm.edges:
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
    g.push(bypass, len(warm.edges))
    node0, sign = (right0, 1.0) if warm.side == "right" else (left0, -1.0)
    g.pot[node0:node0 + warm.theta.size] = (sign * warm.theta).tolist()
    return g


@dataclass(frozen=True)
class FlowNetwork:
    """The lowered circulation of one instance, ready for one solve.

    Node layout: 0 = source, 1 = sink, 2..2+m-1 = left nodes,
    2+m..2+m+n-1 = right nodes, then the super source and super sink.
    need is the number of units still to route from the super source to
    the super sink after the warm start; all lower bounds are met when
    they arrive.  warm_side is "right" or "left" for the side whose
    lower bounds the warm start met, None when it routed nothing.
    edge_arcs[i][j] is the arc of edge (i, j).  graph, the residual
    graph with the warm start's flow, is built on first access; a solve
    with need 0 reads the warm start's picks and builds none.  A solve
    leaves its flow in the graph, so each network serves one solve.
    """

    inst: Instance = field(repr=False)
    source: int
    sink: int
    need: int
    edge_arcs: tuple[range, ...] = field(repr=False)
    warm: Optional[_Warm] = field(default=None, repr=False)

    @property
    def warm_side(self) -> Optional[str]:
        return None if self.warm is None else self.warm.side

    @cached_property
    def graph(self) -> Graph:
        return _lower(self.inst, self.warm)


def reduce_to_circulation(inst: Instance) -> FlowNetwork:
    """Lower the degree bounds of inst into one warm-started circulation."""
    m, n = inst.m, inst.n
    # edge arcs follow the m supply arcs
    edge_arcs = tuple(range(2 * m + 2 * n * i, 2 * m + 2 * n * (i + 1), 2)
                      for i in range(m))
    warm = _warm_start(inst)
    b = inst.bounds
    need = sum(b.l_lo) + sum(b.r_lo) if warm is None else warm.short
    return FlowNetwork(inst, 2 + m + n, 3 + m + n, need, edge_arcs, warm)


def solve_circulation(net: FlowNetwork) -> tuple[Matching, int]:
    """Min-cost circulation honoring lower bounds.

    Returns (matching of the edge arcs that carry flow, augmentation
    count).  The count is the shortest-path augmentations plus 1 when
    the warm start routed flow.  With need 0 the warm start's flow is
    already optimal, so its picks are the answer and no graph is built.
    Raises InternalError if the lower bounds cannot be met; callers are
    expected to have run is_feasible_bounds first.
    """
    if net.need == 0:
        picks = [] if net.warm is None else net.warm.edges
        return Matching._trusted(picks), int(net.warm is not None)
    g = net.graph
    sent, augmentations = g.min_cost_flow(net.source, net.sink)
    if sent != net.need:
        raise InternalError(
            "circulation lower bounds unmet despite feasibility pre-check")
    # a row's reverse arcs hold its edges' flows
    edges = [(i, j) for i, row in enumerate(net.edge_arcs)
             for j, flow in enumerate(g.cap[row.start + 1:row.stop:2])
             if flow]
    return Matching._trusted(edges), augmentations + (net.warm_side is not None)


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
