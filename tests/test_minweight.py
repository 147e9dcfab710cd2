"""Tests for the exact minimum-weight solver (cost-scaling free, flow based)."""

import hashlib
import math

import numpy as np
import pytest

from divmatch import (
    DegreeBounds,
    EnumerationBudget,
    GeneratorConfig,
    INFEASIBLE,
    Instance,
    Matching,
    OBJECTIVE_WEIGHT,
    OPTIMAL,
    brute_force,
    check_matching,
    gen_instance,
    is_feasible_bounds,
    reduce_to_circulation,
    solve_circulation,
    solve_min_weight,
    total_weight,
)
from divmatch import minweight
from divmatch.minweight import Graph, _lower
from conftest import random_instance


class TestKnownAnswers:
    def test_two_by_two_perfect_matching_tie(self):
        # Both perfect matchings cost 5.  Each side's lightest picks land
        # on one node past its upper bound, so neither warm start is usable
        # and the solve starts cold: the arc order fixes which one wins.
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        bounds = DegreeBounds.broadcast(2, 2, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = solve_min_weight(inst)
        assert rep.status == OPTIMAL
        assert rep.matching.edges == ((0, 0), (1, 1))
        np.testing.assert_allclose(rep.total_weight, 5.0)

    def test_empty_lower_bounds_select_nothing(self):
        weights = np.array([[0.5, 0.25], [0.75, 1.0]])
        bounds = DegreeBounds.broadcast(2, 2, 0, 2, 0, 2)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = solve_min_weight(inst)
        assert rep.status == OPTIMAL
        assert rep.matching.edges == ()
        np.testing.assert_allclose(rep.total_weight, 0.0)

    def test_saturated_right_node_takes_all_lefts(self):
        weights = np.array([[0.9], [0.1], [0.4]])
        bounds = DegreeBounds.broadcast(3, 1, 0, 1, 3, 3)
        inst = Instance(weights, np.array([0, 0, 0]), 1, bounds)
        rep = solve_min_weight(inst)
        assert rep.matching.edges == ((0, 0), (1, 0), (2, 0))


class TestOracleAgreement:
    def test_matches_brute_force_weight(self):
        rng = np.random.default_rng(211)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=60.0)
        checked = 0
        for _ in range(80):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14)
            oracle = brute_force(inst, OBJECTIVE_WEIGHT, budget)
            rep = solve_min_weight(inst)
            assert rep.status == oracle.status
            if rep.status != OPTIMAL:
                continue
            checked += 1
            np.testing.assert_allclose(
                rep.total_weight, oracle.total_weight, rtol=0, atol=1e-9)
            ok, violations = check_matching(inst, rep.matching)
            assert ok, violations
        assert checked >= 30

    def test_infeasible_agrees_with_flow_check(self):
        rng = np.random.default_rng(212)
        seen_infeasible = 0
        for _ in range(120):
            inst = random_instance(rng)
            feasible, _ = is_feasible_bounds(inst)
            rep = solve_min_weight(inst)
            if feasible:
                assert rep.status == OPTIMAL
            else:
                assert rep.status == INFEASIBLE
                assert rep.matching is None
                seen_infeasible += 1
        assert seen_infeasible >= 5


class TestWarmStart:
    def test_right_only_takes_each_columns_lightest(self):
        # The right warm start routes everything: each right node keeps
        # its r_lo lightest left nodes, ties to the lowest index, and no
        # shortest path runs after it.
        rng = np.random.default_rng(231)
        for _ in range(40):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 7))
            weights = np.floor(3 * rng.random((m, n)))
            r_lo = rng.integers(1, m + 1, n)
            bounds = DegreeBounds.broadcast(m, n, 0, n, r_lo, m)
            inst = Instance(weights, np.zeros(m, dtype=int), 1, bounds)
            rep = solve_min_weight(inst)
            assert rep.telemetry["warm_side"] == "right"
            assert rep.telemetry["augmentations"] == 1
            expected = sorted(
                (i, j) for j in range(n)
                for i in sorted(range(m), key=lambda i: (weights[i, j], i))
                [:r_lo[j]])
            assert list(rep.matching.edges) == expected

    def test_large_flow_shape_routed_by_left_start(self):
        # 200x10 with L_lo = 1 and R_lo = 3: every left node's lightest
        # edge already covers each right node three times, so the left
        # warm start is the optimum and no shortest path runs.
        inst = gen_instance(GeneratorConfig(m=200, n=10, k=5, l_lo=1,
                                            l_hi=10, r_lo=3, r_hi=200,
                                            seed=(7, 200)))
        rep = solve_min_weight(inst)
        assert rep.status == OPTIMAL
        assert rep.telemetry["warm_side"] == "left"
        assert rep.telemetry["augmentations"] == 1
        lightest = inst.weights.argmin(axis=1)
        assert rep.matching.edges == tuple(enumerate(lightest.tolist()))

    def test_sides_that_route_alike_go_right(self):
        # Every node's lightest edge is its diagonal one, so either start
        # routes the whole perfect matching; the right side wins the tie.
        weights = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0], [2.0, 1.0, 0.0]])
        bounds = DegreeBounds.broadcast(3, 3, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1, 2]), 3, bounds)
        rep = solve_min_weight(inst)
        assert rep.telemetry["warm_side"] == "right"
        assert rep.telemetry["augmentations"] == 1
        assert rep.matching.edges == ((0, 0), (1, 1), (2, 2))

    def test_neither_side_fits_starts_cold(self):
        # Each right node's lightest left node is node 0, and each left
        # node's lightest right node is node 0: either start overloads a
        # node with upper bound 1.
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        bounds = DegreeBounds.broadcast(2, 2, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        assert reduce_to_circulation(inst).need == 4
        rep = solve_min_weight(inst)
        assert rep.telemetry["warm_side"] is None
        np.testing.assert_allclose(rep.total_weight, 5.0)

    def test_tied_weights_match_brute_force(self):
        rng = np.random.default_rng(232)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=60.0)
        sides = set()
        for trial in range(150):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=16,
                                   per_node=trial % 2 == 1)
            tied = Instance(np.floor(3 * inst.weights), inst.clusters,
                            inst.k, inst.bounds)
            oracle = brute_force(tied, OBJECTIVE_WEIGHT, budget)
            rep = solve_min_weight(tied)
            assert rep.status == oracle.status
            if rep.status != OPTIMAL:
                continue
            sides.add(rep.telemetry["warm_side"])
            assert rep.total_weight == oracle.total_weight
            ok, violations = check_matching(tied, rep.matching)
            assert ok, violations
        assert sides == {"left", "right", None}


def super_nodes(inst):
    """The super source and super sink of inst's lowered graph, in the
    node layout that arc_by_arc_lower and reference_arcs write out."""
    return 2 + inst.m + inst.n, 3 + inst.m + inst.n


def decoded_edges(inst, g):
    """The edges whose arcs carry flow in g, a lowered graph of inst;
    edge (i, j)'s arc follows the m supply arcs, n to a row."""
    m, n = inst.m, inst.n
    return tuple((i, j) for i in range(m) for j in range(n)
                 if g.cap[2 * m + 2 * (i * n + j) + 1])


FIG2_10X10 = GeneratorConfig(m=10, n=10, k=4, l_lo=0, l_hi=10, r_lo=5,
                             seed=(7, 4, 0))
LARGE_100X10 = GeneratorConfig(m=100, n=10, k=5, l_lo=1, l_hi=10, r_lo=3,
                               r_hi=100, seed=(7, 100))


class TestLazyLowering:
    # When the warm start meets every bound (need 0) the solve reads its
    # picks and builds no graph; a graph built anyway carries the same
    # flow and routes nothing more.

    @staticmethod
    def count_lowerings(monkeypatch):
        """The graphs solve_circulation builds from here on."""
        calls = []

        def counting(net):
            calls.append(_lower(net))
            return calls[-1]

        monkeypatch.setattr(minweight, "_lower", counting)
        return calls

    @pytest.mark.parametrize("cfg, side", [
        (FIG2_10X10, "right"),
        (LARGE_100X10, "left"),
        (GeneratorConfig(m=200, n=10, k=5, l_lo=1, l_hi=10, r_lo=3,
                         r_hi=200, seed=(7, 200)), "left"),
    ], ids=["fig2-10x10", "100x10", "200x10"])
    def test_need_zero_solve_builds_no_graph(self, cfg, side, monkeypatch):
        inst = gen_instance(cfg)
        net = reduce_to_circulation(inst)
        assert (net.need, net.warm_side) == (0, side)
        calls = self.count_lowerings(monkeypatch)
        match, augmentations = solve_circulation(net)
        assert augmentations == 1
        rep = solve_min_weight(inst)
        assert calls == []
        assert rep.telemetry == {"augmentations": 1, "warm_side": side}
        assert rep.matching == match

        forced = _lower(net)
        assert forced.min_cost_flow(*super_nodes(inst)) == (0, 0)
        assert decoded_edges(inst, forced) == match.edges

    def test_solve_with_units_left_builds_the_graph_once(self, monkeypatch):
        # Neither warm start fits this perfect matching (see
        # test_neither_side_fits_starts_cold), so the shortest paths run.
        inst = Instance(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]),
                        2, DegreeBounds.broadcast(2, 2, 1, 1, 1, 1))
        net = reduce_to_circulation(inst)
        assert net.need == 4
        calls = self.count_lowerings(monkeypatch)
        match, _ = solve_circulation(net)
        assert len(calls) == 1
        assert decoded_edges(inst, calls[0]) == match.edges
        assert solve_min_weight(inst).matching == match


class TestStartRecord:
    # The three kinds of start a FlowNetwork records.

    def test_right_start_meets_every_bound(self):
        inst = gen_instance(FIG2_10X10)
        net = reduce_to_circulation(inst)
        assert (net.need, net.warm_side) == (0, "right")
        # each right node takes its five lightest left nodes
        lightest = np.argsort(inst.weights, axis=0, kind="stable")[:5]
        assert sorted(net.picks) == sorted(
            (int(i), j) for j in range(inst.n) for i in lightest[:, j])
        np.testing.assert_array_equal(
            net.theta, np.sort(inst.weights, axis=0)[4])

    def test_left_start_meets_every_bound(self):
        inst = gen_instance(LARGE_100X10)
        net = reduce_to_circulation(inst)
        assert (net.need, net.warm_side) == (0, "left")
        lightest = inst.weights.argmin(axis=1)
        assert net.picks == list(enumerate(lightest.tolist()))
        np.testing.assert_array_equal(net.theta, inst.weights.min(axis=1))

    def test_cold_start_records_no_picks(self):
        # test_neither_side_fits_starts_cold's perfect matching
        inst = Instance(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]),
                        2, DegreeBounds.broadcast(2, 2, 1, 1, 1, 1))
        net = reduce_to_circulation(inst)
        assert (net.need, net.warm_side, net.picks, net.theta) == (
            4, None, [], None)


class TestArcStructure:
    # The documented arc order: supplies by left node, edges in (left,
    # right) order, demands by right node, the bypass, s->tt, ss->t,
    # then the requirement arcs ss->left and right->tt by node id, each
    # requirement arc only where its bound is positive.

    @staticmethod
    def reference_arcs(inst):
        """(tail, head, forward cost, capacity) of every forward arc."""
        m, n, b = inst.m, inst.n, inst.bounds
        s, t, left0, right0 = 0, 1, 2, 2 + m
        ss, tt = super_nodes(inst)
        arcs = [(s, left0 + i, 0.0, b.l_hi[i] - b.l_lo[i]) for i in range(m)]
        arcs += [(left0 + i, right0 + j, float(inst.weights[i, j]), 1)
                 for i in range(m) for j in range(n)]
        arcs += [(right0 + j, t, 0.0, b.r_hi[j] - b.r_lo[j])
                 for j in range(n)]
        arcs.append((t, s, 0.0, min(sum(b.l_hi), sum(b.r_hi))))
        if sum(b.l_lo) > 0:
            arcs.append((s, tt, 0.0, sum(b.l_lo)))
        if sum(b.r_lo) > 0:
            arcs.append((ss, t, 0.0, sum(b.r_lo)))
        arcs += [(ss, left0 + i, 0.0, lo) for i, lo in enumerate(b.l_lo)
                 if lo > 0]
        arcs += [(right0 + j, tt, 0.0, lo) for j, lo in enumerate(b.r_lo)
                 if lo > 0]
        return arcs

    @staticmethod
    def built_arcs(g):
        return [(g.to[a + 1], g.to[a], g.cost[a], g.cap[a] + g.cap[a + 1])
                for a in range(0, len(g.to), 2)]

    def test_lowering_follows_the_documented_order(self):
        rng = np.random.default_rng(241)
        zero_lo = 0
        for trial in range(60):
            inst = random_instance(rng, max_m=6, max_n=6, max_cells=36,
                                   per_node=True)
            if trial % 4 == 0:
                b = inst.bounds
                inst = Instance(inst.weights, inst.clusters, inst.k,
                                DegreeBounds.broadcast(inst.m, inst.n, 0,
                                                       b.l_hi, 0, b.r_hi))
            zero_lo += not any(inst.bounds.l_lo) and not any(inst.bounds.r_lo)
            g = _lower(reduce_to_circulation(inst))
            expected = self.reference_arcs(inst)
            assert self.built_arcs(g) == expected
            assert all(g.cost[a + 1] == -g.cost[a]
                       for a in range(0, len(g.to), 2))
            assert all(arcs == sorted(arcs) for arcs in g.adj)
            if is_feasible_bounds(inst)[0]:
                g.min_cost_flow(*super_nodes(inst))
                assert self.built_arcs(g) == expected
        assert zero_lo >= 15


def arc_by_arc_lower(net):
    """The lowered graph built one Graph.add call per arc, in the
    documented order, with net's warm start flow and potentials; the
    reference for _lower's bulk layout."""
    inst = net.inst
    m, n = inst.m, inst.n
    b = inst.bounds
    s, t = 0, 1
    left0, right0 = 2, 2 + m
    ss, tt = super_nodes(inst)
    g = Graph(4 + m + n)
    supply = [g.add(s, left0 + i, b.l_hi[i] - b.l_lo[i]) for i in range(m)]
    first = len(g.to)
    for u, row in enumerate(inst.weights.tolist(), left0):
        for v, w in enumerate(row, right0):
            g.add(u, v, 1, w)
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
    node0, sign = (right0, 1.0) if net.warm_side == "right" else (left0, -1.0)
    g.pot[node0:node0 + net.theta.size] = (sign * net.theta).tolist()
    return g


class TestBulkLowering:
    # _lower lays out the supply arcs and the edge block in bulk; every
    # entry must equal the arc-by-arc build's, the -0.0 costs of the
    # reverse arcs included, so arc ids, adj order and tie-breaks hold.

    @staticmethod
    def assert_same_graph(inst):
        net = reduce_to_circulation(inst)
        g, ref = _lower(net), arc_by_arc_lower(net)
        assert g.adj == ref.adj
        assert g.to == ref.to
        assert g.cap == ref.cap
        assert g.pot == ref.pot
        # == alone would let a 0.0 stand for a -0.0
        signed = [(c, math.copysign(1.0, c)) for c in g.cost]
        assert signed == [(c, math.copysign(1.0, c)) for c in ref.cost]
        return net.warm_side

    def test_random_instances(self):
        rng = np.random.default_rng(271)
        sides = set()
        zero_lo = zero_hi = 0
        for trial in range(120):
            inst = random_instance(rng, max_m=7, max_n=7, max_cells=49,
                                   per_node=True)
            b = inst.bounds
            if trial % 4 == 0:
                b = DegreeBounds.broadcast(inst.m, inst.n, 0, b.l_hi, 0,
                                           b.r_hi)
                inst = Instance(inst.weights, inst.clusters, inst.k, b)
            zero_lo += not any(b.l_lo) and not any(b.r_lo)
            zero_hi += 0 in b.l_hi or 0 in b.r_hi
            sides.add(self.assert_same_graph(inst))
        assert sides == {"right", "left", None}
        assert zero_lo >= 30 and zero_hi >= 30

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(m=10, n=10, k=4, l_lo=0, l_hi=10, r_lo=5,
                        seed=(7, 4, 0)),
        GeneratorConfig(m=8, n=6, k=3, l_lo=1, l_hi=6, r_lo=2, r_hi=8,
                        seed=(7, 8, 6, 3, 0)),
        GeneratorConfig(m=25, n=10, k=5, l_lo=1, l_hi=10, r_lo=3, r_hi=25,
                        seed=(7, 25)),
        GeneratorConfig(m=200, n=100, k=5, l_lo=1, l_hi=100, r_lo=3,
                        r_hi=200, seed=(7, 200)),
    ], ids=["fig2-sweep", "bnb-proof", "large-flow-25x10",
            "large-flow-200x100"])
    def test_benchmark_shapes(self, cfg):
        self.assert_same_graph(gen_instance(cfg))


class TestPinnedAnswers:
    # Digests of min weight's answers.  The 200x100 ones hold edges and
    # augmentations of instances whose optimum is unique; the tied batch
    # holds answers among equal-weight optima, so a change of tie-break
    # (arc order, warm start or start arc) must update it on purpose.

    @staticmethod
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    @pytest.mark.parametrize("seed, augmentations, want", [
        (7, 38 + 1,
         "8c7fd911b93c3fb0b9a44dd2115ec2823a99aa8116b7a8876949d27d83babe00"),
        (1009, 43 + 1,
         "8adb3b30af8902917db5b81afac1ee772c291e14cad53ffb8fb3543c73a027c3"),
    ])
    def test_full_size(self, seed, augmentations, want):
        inst = gen_instance(GeneratorConfig(m=200, n=100, k=5, l_lo=1,
                                            l_hi=100, r_lo=3, r_hi=200,
                                            seed=(seed, 200)))
        rep = solve_min_weight(inst)
        assert rep.telemetry["augmentations"] == augmentations
        assert self.digest((rep.matching.edges, augmentations)) == want

    def test_tied_batch(self):
        rng = np.random.default_rng(262)
        answers = []
        for trial in range(240):
            inst = random_instance(rng, max_m=8, max_n=8, max_cells=64,
                                   per_node=trial % 2 == 1)
            tied = Instance(np.floor(3 * inst.weights), inst.clusters,
                            inst.k, inst.bounds)
            rep = solve_min_weight(tied)
            answers.append(None if rep.matching is None
                           else rep.matching.edges)
        assert sum(a is not None for a in answers) == 143
        assert self.digest(answers) == (
            "0269261baf31af9cbbc9dcedd411abf7f0d6aa16cc046ef9bea30d598d4fd685")


class TestOneExcessStart:
    # Each shortest path starts at the head of the super source's first
    # open arc.  Where several arcs are open (cold starts with lower
    # bounds on both sides, right warm starts that leave two or more left
    # nodes short), min_cost_flow must still send need, at optimal weight.

    @staticmethod
    def route(inst):
        """(weight, kind) of min_cost_flow's answer on a feasible inst;
        kind is "cold" or "right" when the super source starts with two
        or more open arcs after that kind of start, else None."""
        net = reduce_to_circulation(inst)
        g = _lower(net)
        ss, tt = super_nodes(inst)
        opened = sum(g.cap[a] > 0 for a in g.adj[ss])
        b = inst.bounds
        kind = None
        if opened >= 2:
            if net.warm_side is None and any(b.l_lo) and any(b.r_lo):
                kind = "cold"
            elif net.warm_side == "right":
                kind = "right"
        sent, _ = g.min_cost_flow(ss, tt)
        assert sent == net.need
        match = Matching(decoded_edges(inst, g))
        ok, violations = check_matching(inst, match)
        assert ok, violations
        return total_weight(inst, match), kind

    @staticmethod
    def draws(rng, trials, **shape):
        """The feasible ones of trials per-node random instances."""
        for _ in range(trials):
            inst = random_instance(rng, per_node=True, **shape)
            if is_feasible_bounds(inst)[0]:
                yield inst

    def test_matches_brute_force(self):
        rng = np.random.default_rng(281)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=60.0)
        kinds = {"cold": 0, "right": 0, None: 0}
        for inst in self.draws(rng, 900, max_m=4, max_n=4, max_cells=16):
            weight, kind = self.route(inst)
            kinds[kind] += 1
            oracle = brute_force(inst, OBJECTIVE_WEIGHT, budget)
            np.testing.assert_allclose(weight, oracle.total_weight,
                                       rtol=0, atol=1e-9)
        assert kinds["cold"] >= 25 and kinds["right"] >= 10

    def test_matches_linprog(self):
        rng = np.random.default_rng(282)
        kinds = {"cold": 0, "right": 0, None: 0}
        for inst in self.draws(rng, 240, max_m=12, max_n=12, max_cells=144):
            weight, kind = self.route(inst)
            kinds[kind] += 1
            lp = TestLinprog.solve_lp(inst)
            assert lp.status == 0, lp.message
            np.testing.assert_allclose(weight, lp.fun, rtol=1e-9, atol=1e-9)
        assert kinds["cold"] >= 50 and kinds["right"] >= 15


class TestLinprog:
    # An independent solver on the LP relaxation: the degree-bounded
    # polytope is totally unimodular, so its optimum is integral and
    # equals the matching optimum.

    @staticmethod
    def solve_lp(inst):
        pytest.importorskip("scipy")
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix, vstack

        m, n, b = inst.m, inst.n, inst.bounds
        cells = np.arange(m * n)
        rows = csr_matrix((np.ones(m * n), (cells // n, cells)),
                          shape=(m, m * n))
        cols = csr_matrix((np.ones(m * n), (cells % n, cells)),
                          shape=(n, m * n))
        a_ub = vstack([rows, -rows, cols, -cols])
        b_ub = np.concatenate([b.l_hi, np.negative(b.l_lo),
                               b.r_hi, np.negative(b.r_lo)])
        return linprog(inst.weights.ravel(), A_ub=a_ub, b_ub=b_ub,
                       bounds=(0, 1), method="highs")

    def test_agrees_with_linprog(self):
        rng = np.random.default_rng(233)
        solved = 0
        for trial in range(48):
            inst = random_instance(rng, max_m=50, max_n=50, max_cells=2500,
                                   per_node=True)
            if trial % 3 == 0:
                inst = Instance(np.floor(3 * inst.weights), inst.clusters,
                                inst.k, inst.bounds)
            lp = self.solve_lp(inst)
            rep = solve_min_weight(inst)
            assert (rep.status == OPTIMAL) == (lp.status == 0), lp.message
            if rep.status != OPTIMAL:
                assert lp.status == 2
                continue
            solved += 1
            np.testing.assert_allclose(rep.total_weight, lp.fun,
                                       rtol=1e-7, atol=1e-7)
        assert solved >= 40

    def test_agrees_with_linprog_at_full_size(self):
        # run_scaling's 200x100 shape: the right warm start leaves 38
        # left nodes uncovered, routed by 38 Dijkstras.  Each starts at
        # the head of the super source's first open arc (the next
        # uncovered left node) and stops once nothing left to pop can
        # beat the super sink.
        inst = gen_instance(GeneratorConfig(m=200, n=100, k=5, l_lo=1,
                                            l_hi=100, r_lo=3, r_hi=200,
                                            seed=(7, 200)))
        lp = self.solve_lp(inst)
        assert lp.status == 0, lp.message
        rep = solve_min_weight(inst)
        assert rep.status == OPTIMAL
        assert rep.telemetry["warm_side"] == "right"
        assert rep.telemetry["augmentations"] == 38 + 1
        np.testing.assert_allclose(rep.total_weight, lp.fun, rtol=1e-9,
                                   atol=0)


class TestWeightScale:
    def test_huge_weights_solve(self):
        # The reduced-cost guard must scale with the weights: an absolute
        # one raises InternalError on every one of these valid instances.
        for seed in range(30):
            inst = gen_instance(GeneratorConfig(m=30, n=15, k=3, l_lo=1,
                                                r_lo=3, seed=seed))
            big = Instance(inst.weights * 1e12, inst.clusters, inst.k,
                           inst.bounds)
            rep = solve_min_weight(big)
            assert rep.status == OPTIMAL
            ok, violations = check_matching(big, rep.matching)
            assert ok, violations
            np.testing.assert_allclose(
                rep.total_weight,
                1e12 * solve_min_weight(inst).total_weight, rtol=1e-9, atol=0)


class TestStructuralProperties:
    def test_no_slack_edges_above_lower_bounds(self):
        # With strictly positive weights and free left side, the optimum
        # never selects more than the right lower bounds require.
        rng = np.random.default_rng(221)
        for _ in range(40):
            inst = random_instance(rng, right_constrained=True)
            rep = solve_min_weight(inst)
            assert rep.status == OPTIMAL
            assert len(rep.matching.edges) == sum(inst.bounds.r_lo)

    def test_tightening_lower_bounds_never_cheapens(self):
        rng = np.random.default_rng(222)
        for _ in range(30):
            inst = random_instance(rng, right_constrained=True)
            rep = solve_min_weight(inst)
            grown = tuple(min(lo + 1, inst.m) for lo in inst.bounds.r_lo)
            bounds2 = DegreeBounds.broadcast(
                inst.m, inst.n, 0, inst.n, grown,
                tuple(max(hi, lo) for hi, lo in zip(inst.bounds.r_hi, grown)))
            inst2 = Instance(inst.weights, inst.clusters, inst.k, bounds2)
            rep2 = solve_min_weight(inst2)
            assert rep2.status == OPTIMAL
            assert rep2.total_weight >= rep.total_weight - 1e-9

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            inst = random_instance(rng)
            first = solve_min_weight(inst)
            second = solve_min_weight(inst)
            assert first.status == second.status
            if first.matching is not None:
                assert first.matching.edges == second.matching.edges

    def test_report_fields_populated(self):
        rng = np.random.default_rng(224)
        inst = random_instance(rng, right_constrained=True)
        rep = solve_min_weight(inst)
        assert rep.algorithm == "min_weight"
        assert rep.wall_time >= 0.0
        assert "augmentations" in rep.telemetry
        np.testing.assert_allclose(
            rep.total_weight, total_weight(inst, rep.matching), rtol=1e-12)
