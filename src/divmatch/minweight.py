"""Exact minimum-weight solver via min-cost circulation.

The degree-bounded matching problem is a circulation with lower bounds:
a source feeds each left node within its degree interval, every
candidate edge is a unit-capacity arc priced at its weight, right nodes
drain to a sink within their intervals, and a free sink-to-source bypass
lets the edge count float.  reduce_to_circulation removes the lower
bounds by the standard surplus transformation (a super source and super
sink carry each bound as a requirement arc) and returns the residual
graph, on which successive shortest paths find the minimum-weight
circulation.  Its constraint system is totally unimodular, so the
fractional optimum is integral and the edge arcs carrying flow form an
optimal matching.  Feasibility needs no flow: on the complete bipartite
graph instance.is_feasible_bounds decides it by counting.

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
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import InternalError
from .instance import Instance, Matching, check_matching, is_feasible_bounds
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport


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

    # Warm start (see the module docstring), driven by one table per
    # side.  The taker side meets its lower bounds with its lightest
    # edges: its weights have one column per taker node, and step is
    # what one of its nodes adds to edge (i, j)'s arc id, first + 2 *
    # (i * n + j).  A fed node on the other side carries its picks on
    # its requirement arc up to its lower bound and the rest on its free
    # (supply or demand) arc.  The bypass and the taker's detour arc
    # carry the taker's whole bound, and the fed side's detour arc what
    # the picks met of its own.
    sides = {
        "right": SimpleNamespace(
            lo=b.r_lo, hi=b.r_hi, node0=right0, sign=1.0, step=2,
            weights=inst.weights, total=total_r, free=demand, detour=ss_t,
            req=right_tt),
        "left": SimpleNamespace(
            lo=b.l_lo, hi=b.l_hi, node0=left0, sign=-1.0, step=2 * n,
            weights=inst.weights.T, total=total_l, free=supply,
            detour=s_tt, req=ss_left),
    }
    best = None
    for side, other in (("right", "left"), ("left", "right")):
        taker, fed = sides[side], sides[other]
        if taker.total == 0:
            continue
        fed_ids, taker_ids, deg, theta = _lightest(taker.weights,
                                                   np.array(taker.lo))
        if np.any(deg > fed.hi):
            continue
        short = int(np.maximum(np.array(fed.lo) - deg, 0).sum())
        if best is None or short < best[1]:
            best = (side, short, taker, fed, fed_ids, taker_ids, deg, theta)
        if short == 0:
            break
    if best is None:
        return FlowNetwork(g, ss, tt, total_l + total_r, edge_arcs)

    side, short, taker, fed, fed_ids, taker_ids, deg, theta = best
    for fi, ti in zip(fed_ids.tolist(), taker_ids.tolist()):
        g.push(first + fed.step * fi + taker.step * ti, 1)
    g.pot[taker.node0:taker.node0 + theta.size] = (taker.sign * theta).tolist()
    for node, lo in enumerate(taker.lo):
        if lo > 0:
            g.push(taker.req[node], lo)
    met = 0
    for node, (d, lo) in enumerate(zip(deg.tolist(), fed.lo)):
        if lo > 0:
            g.push(fed.req[node], min(d, lo))
            met += min(d, lo)
        if d > lo:
            g.push(fed.free[node], d - lo)
    g.push(bypass, taker.total)
    g.push(taker.detour, taker.total)
    if met:
        g.push(fed.detour, met)
    return FlowNetwork(g, ss, tt, short, edge_arcs, side)


def solve_circulation(net: FlowNetwork) -> tuple[Matching, int]:
    """Min-cost circulation honoring lower bounds.

    Returns (matching of the edge arcs that carry flow, augmentation
    count).  The count is the shortest-path augmentations plus 1 when
    the warm start routed flow.  Raises InternalError if the lower
    bounds cannot be met; callers are expected to have run
    is_feasible_bounds first.
    """
    g = net.graph
    sent, augmentations = g.min_cost_flow(net.source, net.sink)
    if sent != net.need:
        raise InternalError(
            "circulation lower bounds unmet despite feasibility pre-check")
    # a row's reverse arcs hold its edges' flows
    edges = [(i, j) for i, row in enumerate(net.edge_arcs)
             for j, flow in enumerate(g.cap[row.start + 1:row.stop:2])
             if flow]
    return Matching(edges), augmentations + (net.warm_side is not None)


def solve_min_weight(inst: Instance) -> SolveReport:
    """Matching of minimum total weight subject to all degree bounds."""
    start = time.perf_counter()
    feasible, why = is_feasible_bounds(inst)
    if not feasible:
        return SolveReport(
            algorithm="min_weight", status=INFEASIBLE, matching=None,
            total_weight=None, diversity_cost=None,
            wall_time=time.perf_counter() - start, diagnostic=why)
    net = reduce_to_circulation(inst)
    match, augmentations = solve_circulation(net)
    ok, violations = check_matching(inst, match)
    if not ok:
        raise InternalError("decoded optimal matching violates bounds: "
                            + "; ".join(violations))
    return SolveReport(
        algorithm="min_weight", status=OPTIMAL, matching=match,
        total_weight=total_weight(inst, match),
        diversity_cost=diversity_cost(inst, match),
        wall_time=time.perf_counter() - start,
        telemetry={"augmentations": augmentations,
                   "warm_side": net.warm_side})
