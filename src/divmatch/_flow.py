"""One residual graph and one lowering of the degree bounds to flow.

The degree-bounded matching problem is a circulation with lower bounds:
a source feeds each left node within its degree interval, every
candidate edge is a unit-capacity arc priced at its weight, right nodes
drain to a sink within their intervals, and a free sink-to-source bypass
lets the edge count float.  reduce_to_circulation removes the lower
bounds by the standard surplus transformation (a super source and super
sink carry each bound as a requirement arc) and returns the residual
graph, on which successive shortest paths find the minimum-weight
circulation.  Feasibility needs no flow: on the complete bipartite graph
instance.is_feasible_bounds decides it by counting.

The lowering is warm-started so that one side's lower bounds are met
before any shortest path runs.  On the right side, every right node j
takes its r_lo[j] lightest left nodes (ties to the lowest index) and
gets the potential theta_j, the heaviest weight it took; on the left
side, the mirror image, with potential -theta_i on left node i.  Every
residual arc then has a nonnegative reduced cost except arcs out of the
super sink and into the super source, which no shortest path from the
super source to the super sink uses.  Once every lower bound is met,
every arc out of the super source and into the super sink is saturated,
so no residual cycle passes through either and the flow is optimal.
A side is usable only if no node on the other side goes past its upper
bound; of the usable sides the one that leaves fewer units unrouted
wins (the right side on a tie), and with neither the solve starts cold
(Ahuja, Magnanti and Orlin, Network Flows, ch. 9).

Arc order is fixed: supplies by left node, edges in (left, right)
lexicographic order, demands by right node, the bypass, then the
requirement arcs by node id.  Successive shortest paths break ties on
this order (heap ties on node id, strict relaxation), so which optimum
is returned among several of the same weight is fixed by the arc order
and the warm start.  On right_only instances the warm start routes
everything: each right node takes its lightest left nodes, lowest index
first.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InternalError

if TYPE_CHECKING:
    from .instance import Instance


class Graph:
    """Residual graph: arc a and its reverse a ^ 1 share the arrays.

    pot holds the node potentials that successive shortest paths keep;
    a warm start may set them together with a starting flow.
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

    def flow_on(self, arc: int) -> int:
        """Flow currently routed over an arc returned by add."""
        return self.cap[arc ^ 1]

    def min_cost_flow(self, s: int, t: int) -> tuple[int, int]:
        """Route flow s->t at minimum cost by successive shortest paths.

        Stops once the arcs out of s are saturated or t is out of reach.
        Dijkstra runs on reduced costs under pot: every arc it relaxes
        must have a nonnegative reduced cost.  It never relaxes an arc
        into s and stops once no key left can beat t's distance, so arcs
        out of t and into s may start negative (a warm start leaves them
        so).  Returns (flow, augmentations).  A reduced cost below -1e-9
        times the summed arc costs means the potentials broke, which
        raises InternalError; the tolerance scales with the weights so
        rounding at any weight scale passes.
        """
        num = len(self.adj)
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        pot = self.pot
        tol = 1e-9 * sum(cost[0::2])
        limit = sum(cap[a] for a in adj[s])
        flow = 0
        augmentations = 0
        while flow < limit:
            dist = [math.inf] * num
            parent_arc = [-1] * num
            dist[s] = 0.0
            heap = [(0.0, s)]
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
            for v in range(num):
                pot[v] += min(dist[v], dt)
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


@dataclass(frozen=True)
class FlowNetwork:
    """The lowered circulation of one instance, ready for one solve.

    Node layout: 0 = source, 1 = sink, 2..2+m-1 = left nodes,
    2+m..2+m+n-1 = right nodes, then the super source and super sink.
    need is the number of units still to route from the super source to
    the super sink after the warm start; all lower bounds are met when
    they arrive.  warm_side is "right" or "left" for the side whose
    lower bounds the warm start met, None when it routed nothing.
    edge_arcs[i][j] is the arc of edge (i, j).  A solve leaves its flow
    in the graph, so each network serves one solve.
    """

    graph: Graph = field(repr=False)
    source: int
    sink: int
    need: int
    edge_arcs: tuple[range, ...] = field(repr=False)
    warm_side: Optional[str] = None


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


def reduce_to_circulation(inst: Instance) -> FlowNetwork:
    """Lower the degree bounds of inst into one warm-started residual graph."""
    m, n = inst.m, inst.n
    b = inst.bounds
    s, t = 0, 1
    left0, right0 = 2, 2 + m
    ss, tt = 2 + m + n, 3 + m + n
    g = Graph(4 + m + n)
    supply = [g.add(s, left0 + i, b.l_hi[i] - b.l_lo[i]) for i in range(m)]
    first = len(g.to)
    for u, row in enumerate(inst.weights.tolist(), left0):
        for v, w in enumerate(row, right0):
            g.add(u, v, 1, w)
    edge_arcs = tuple(range(first + 2 * n * i, first + 2 * n * (i + 1), 2)
                      for i in range(m))
    demand = [g.add(right0 + j, t, b.r_hi[j] - b.r_lo[j]) for j in range(n)]
    bypass = g.add(t, s, min(sum(b.l_hi), sum(b.r_hi)))

    total_l, total_r = sum(b.l_lo), sum(b.r_lo)
    s_tt = g.add(s, tt, total_l) if total_l > 0 else -1
    ss_t = g.add(ss, t, total_r) if total_r > 0 else -1
    ss_left = [g.add(ss, left0 + i, lo) if lo > 0 else -1
               for i, lo in enumerate(b.l_lo)]
    right_tt = [g.add(right0 + j, tt, lo) if lo > 0 else -1
                for j, lo in enumerate(b.r_lo)]

    # Warm start (see the module docstring).  The taker side meets its
    # lower bounds with its lightest edges.  A fed node on the other side
    # carries its picks on its requirement arc up to its lower bound and
    # the rest on its source or sink arc; the bypass closes the loop.
    w = inst.weights
    best = None
    for side, total in (("right", total_r), ("left", total_l)):
        if total == 0:
            continue
        if side == "right":
            fed, taker, deg, theta = _lightest(w, np.array(b.r_lo))
            fed_lo, fed_hi = b.l_lo, b.l_hi
        else:
            fed, taker, deg, theta = _lightest(w.T, np.array(b.l_lo))
            fed_lo, fed_hi = b.r_lo, b.r_hi
        if np.any(deg > fed_hi):
            continue
        short = int(np.maximum(np.array(fed_lo) - deg, 0).sum())
        if best is None or short < best[1]:
            best = (side, short, total, fed, taker, deg, theta, fed_lo)
        if short == 0:
            break
    if best is None:
        return FlowNetwork(g, ss, tt, total_l + total_r, edge_arcs)

    side, short, total, fed, taker, deg, theta, fed_lo = best
    if side == "right":
        edges = zip(fed.tolist(), taker.tolist())
        taker0, sign, taker_lo, taker_req = right0, 1.0, b.r_lo, right_tt
        fed_req, fed_free = ss_left, supply
        taker_detour, fed_detour = ss_t, s_tt
    else:
        edges = zip(taker.tolist(), fed.tolist())
        taker0, sign, taker_lo, taker_req = left0, -1.0, b.l_lo, ss_left
        fed_req, fed_free = right_tt, demand
        taker_detour, fed_detour = s_tt, ss_t
    for i, j in edges:
        g.push(edge_arcs[i][j], 1)
    for node, (lo, th) in enumerate(zip(taker_lo, theta.tolist())):
        g.pot[taker0 + node] = sign * th
        if lo > 0:
            g.push(taker_req[node], lo)
    met = 0
    for node, (d, lo) in enumerate(zip(deg.tolist(), fed_lo)):
        if lo > 0:
            g.push(fed_req[node], min(d, lo))
            met += min(d, lo)
        if d > lo:
            g.push(fed_free[node], d - lo)
    g.push(bypass, total)
    g.push(taker_detour, total)
    if met:
        g.push(fed_detour, met)
    return FlowNetwork(g, ss, tt, short, edge_arcs, side)
