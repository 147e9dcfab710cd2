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

Arc order is fixed: supplies by left node, edges in (left, right)
lexicographic order, demands by right node, the bypass, then the
requirement arcs by node id.  Successive shortest paths break ties on
this order (heap ties on node id, strict relaxation), which pins down
which optimum is returned when several matchings share the minimum
weight.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InternalError

if TYPE_CHECKING:
    from .instance import Instance


class Graph:
    """Residual graph: arc a and its reverse a ^ 1 share the arrays."""

    def __init__(self, num_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []

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

    def flow_on(self, arc: int) -> int:
        """Flow currently routed over an arc returned by add."""
        return self.cap[arc ^ 1]

    def min_cost_flow(self, s: int, t: int) -> tuple[int, int]:
        """Max flow s->t at minimum cost by successive shortest paths.

        Dijkstra runs on reduced costs with node potentials; all arc costs
        must start nonnegative.  Returns (flow, augmentations).  A reduced
        cost below -1e-9 times the summed arc costs means the potentials
        broke, which raises InternalError; the tolerance scales with the
        weights so rounding at any weight scale passes.
        """
        num = len(self.adj)
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        tol = 1e-9 * sum(cost[0::2])
        pot = [0.0] * num
        flow = 0
        augmentations = 0
        while True:
            dist = [math.inf] * num
            parent_arc = [-1] * num
            dist[s] = 0.0
            heap = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for a in adj[u]:
                    if cap[a] <= 0:
                        continue
                    v = to[a]
                    reduced = cost[a] + pot[u] - pot[v]
                    if reduced < -tol:
                        raise InternalError(
                            f"negative reduced cost {reduced} in Dijkstra")
                    nd = d + max(reduced, 0.0)
                    if nd < dist[v]:
                        dist[v] = nd
                        parent_arc[v] = a
                        heapq.heappush(heap, (nd, v))
            if math.isinf(dist[t]):
                return flow, augmentations
            for v in range(num):
                if not math.isinf(dist[v]):
                    pot[v] += dist[v]
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


@dataclass(frozen=True)
class FlowNetwork:
    """The lowered circulation of one instance, ready for one solve.

    Node layout: 0 = source, 1 = sink, 2..2+m-1 = left nodes,
    2+m..2+m+n-1 = right nodes, then the super source and super sink.
    All lower bounds are met exactly when a flow of need units reaches
    the super sink.  edge_arcs[i][j] is the arc of edge (i, j).  A solve
    leaves its flow in the graph, so each network serves one solve.
    """

    graph: Graph = field(repr=False)
    source: int
    sink: int
    need: int
    edge_arcs: tuple[range, ...] = field(repr=False)


def reduce_to_circulation(inst: Instance) -> FlowNetwork:
    """Lower the degree bounds of inst into one residual graph."""
    m, n = inst.m, inst.n
    b = inst.bounds
    s, t = 0, 1
    left0, right0 = 2, 2 + m
    ss, tt = 2 + m + n, 3 + m + n
    g = Graph(4 + m + n)
    for i in range(m):
        g.add(s, left0 + i, b.l_hi[i] - b.l_lo[i])
    first = len(g.to)
    for u, row in enumerate(inst.weights.tolist(), left0):
        for v, w in enumerate(row, right0):
            g.add(u, v, 1, w)
    edge_arcs = tuple(range(first + 2 * n * i, first + 2 * n * (i + 1), 2)
                      for i in range(m))
    for j in range(n):
        g.add(right0 + j, t, b.r_hi[j] - b.r_lo[j])
    g.add(t, s, min(sum(b.l_hi), sum(b.r_hi)))

    total_l, total_r = sum(b.l_lo), sum(b.r_lo)
    if total_l > 0:
        g.add(s, tt, total_l)
    if total_r > 0:
        g.add(ss, t, total_r)
    for i, lo in enumerate(b.l_lo):
        if lo > 0:
            g.add(ss, left0 + i, lo)
    for j, lo in enumerate(b.r_lo):
        if lo > 0:
            g.add(right0 + j, tt, lo)
    return FlowNetwork(g, ss, tt, total_l + total_r, edge_arcs)
