"""Tests for the exact diverse solver: fast path, branch and bound, budgets."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from divmatch import (
    ClusterSums,
    ConfigError,
    DegreeBounds,
    EnumerationBudget,
    FEASIBLE_INCUMBENT,
    GeneratorConfig,
    INFEASIBLE,
    Instance,
    InternalError,
    Matching,
    OBJECTIVE_DIVERSITY,
    OPTIMAL,
    brute_force,
    check_matching,
    diversity_cost,
    gen_instance,
    solve_diverse_exact,
    solve_diverse_greedy,
    solve_min_weight,
    warm_start,
)
from divmatch import exact
from divmatch._residual import Residual
from conftest import counting_feasible, dead_end_instance, random_instance


class TestKnownAnswers:
    def test_prefers_cross_cluster_pair(self):
        weights = np.ones((3, 1))
        clusters = np.array([0, 0, 1])
        bounds = DegreeBounds.broadcast(3, 1, 0, 1, 2, 2)
        inst = Instance(weights, clusters, 2, bounds)
        rep = solve_diverse_exact(inst)
        assert rep.status == OPTIMAL
        np.testing.assert_allclose(rep.diversity_cost, 2.0)
        assert rep.matching.edges in (((0, 0), (2, 0)), ((1, 0), (2, 0)))

    def test_infeasible_reported(self):
        bounds = DegreeBounds.broadcast(2, 2, 0, 1, 2, 2)
        inst = Instance(np.ones((2, 2)), np.array([0, 0]), 1, bounds)
        rep = solve_diverse_exact(inst)
        assert rep.status == INFEASIBLE
        assert rep.matching is None


class TestOracleAgreement:
    def test_matches_brute_force_cost_general_bounds(self):
        rng = np.random.default_rng(401)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=120.0)
        via_search = 0
        for _ in range(80):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14)
            oracle = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
            rep = solve_diverse_exact(inst)
            assert rep.status == oracle.status
            if rep.status != OPTIMAL:
                continue
            np.testing.assert_allclose(
                rep.diversity_cost, oracle.diversity_cost, rtol=0, atol=1e-9)
            ok, violations = check_matching(inst, rep.matching)
            assert ok, violations
            # a proof certifies the optimum to within the pruning tolerance
            bound = rep.telemetry["lower_bound"]
            slack = exact.PRUNE_TOL * oracle.diversity_cost + 1e-12
            assert oracle.diversity_cost - slack <= bound
            assert bound <= oracle.diversity_cost + 1e-12
            assert 0.0 <= rep.telemetry["gap"] <= exact.PRUNE_TOL + 1e-12
            if not rep.telemetry.get("fast_path"):
                via_search += 1
        assert via_search >= 25

    def test_fast_path_matches_brute_force(self):
        rng = np.random.default_rng(402)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=120.0)
        for _ in range(60):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14,
                                   right_constrained=True)
            oracle = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
            rep = solve_diverse_exact(inst)
            assert rep.status == OPTIMAL
            assert rep.telemetry.get("fast_path") is True
            np.testing.assert_allclose(
                rep.diversity_cost, oracle.diversity_cost, rtol=0, atol=1e-9)


def _reference_right_dp(inst):
    """The per-right-node loop that the vectorized dynamic program replaced."""
    b = inst.bounds
    members = [np.nonzero(inst.clusters == c)[0] for c in range(inst.k)]
    edges = []
    cost = 0.0
    for j in range(inst.n):
        demand = b.r_lo[j]
        if demand == 0:
            continue
        col = inst.weights[:, j]
        order = [mem[np.argsort(col[mem], kind="stable")] for mem in members]
        prefix = [np.concatenate(([0.0], np.cumsum(col[lefts])))
                  for lefts in order]
        dp = np.full(demand + 1, math.inf)
        dp[0] = 0.0
        takes = []
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
        cost += float(dp[demand])
        t = demand
        for c in range(inst.k - 1, -1, -1):
            take = int(takes[c][t])
            edges.extend((int(i), j) for i in order[c][:take])
            t -= take
    return Matching(edges), cost


class TestRightOnlyDP:
    def test_matches_the_per_node_loop(self):
        rng = np.random.default_rng(1013)
        seen = {"zero demand": 0, "cluster below demand": 0, "k = 1": 0,
                "tied weights": 0, "n = 1": 0}
        for trial in range(320):
            m = int(rng.integers(1, 9))
            n = 1 if trial % 7 == 0 else int(rng.integers(2, 7))
            k = 1 if trial % 5 == 0 else int(rng.integers(1, min(m, 4) + 1))
            weights = rng.random((m, n))
            if trial % 2:
                weights = np.floor(3 * weights)
            clusters = rng.permutation(
                np.concatenate((np.arange(k), rng.integers(0, k, m - k))))
            r_lo = rng.integers(0, m + 1, n)
            bounds = DegreeBounds.broadcast(m, n, 0, n, r_lo, m)
            inst = Instance(weights, clusters, k, bounds)
            assert inst.right_only
            matching, cost = exact._solve_right_constrained(inst)
            ref_matching, ref_cost = _reference_right_dp(inst)
            assert matching.edges == ref_matching.edges
            assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0)
            seen["zero demand"] += bool(np.any(r_lo == 0))
            sizes = np.bincount(clusters, minlength=k)
            seen["cluster below demand"] += bool(sizes.min() < r_lo.max())
            seen["k = 1"] += k == 1
            seen["tied weights"] += trial % 2
            seen["n = 1"] += n == 1
        assert min(seen.values()) >= 30, seen

    def test_unmeetable_demand_names_the_right_node(self):
        # Instance rejects R_lo above m, so a stand-in with the fields the
        # dynamic program reads carries R_lo[1] = 3 against two left nodes.
        bounds = DegreeBounds((0, 0), (2, 2), (1, 3), (2, 3))
        inst = SimpleNamespace(weights=np.ones((2, 2)), m=2, n=2, k=2,
                               clusters=np.array([0, 1]), bounds=bounds)
        with pytest.raises(InternalError, match="right node 1 cannot meet "
                                                "demand 3"):
            exact._solve_right_constrained(inst)


class TestSingleClusterReduction:
    def test_matches_weight_solver_when_one_cluster(self):
        # With one cluster per right node the squared sum is minimized by
        # exactly the cheapest edges, so the diverse optimum carries the
        # same total weight as the plain minimum-weight solution.
        rng = np.random.default_rng(411)
        for _ in range(30):
            inst = random_instance(rng, max_k=1, right_constrained=True)
            diverse = solve_diverse_exact(inst)
            baseline = solve_min_weight(inst)
            np.testing.assert_allclose(
                diverse.total_weight, baseline.total_weight,
                rtol=0, atol=1e-9)


def scaled_instance(cfg, scale):
    inst = gen_instance(cfg)
    return Instance(inst.weights * scale, inst.clusters, inst.k, inst.bounds)


class TestWeightScale:
    # The pruning tolerance must scale with the costs: an absolute one
    # prunes every node at small weights and returns the warm start as
    # optimal.
    def test_tiny_weights_match_brute_force(self):
        inst = scaled_instance(GeneratorConfig(
            m=4, n=4, k=2, l_lo=1, l_hi=4, r_lo=2, seed=(5, 0)), 1e-6)
        rep = solve_diverse_exact(inst)
        oracle = brute_force(inst, OBJECTIVE_DIVERSITY)
        assert rep.status == OPTIMAL
        assert rep.telemetry["expanded"] > 0
        np.testing.assert_allclose(rep.diversity_cost, oracle.diversity_cost,
                                   rtol=1e-9, atol=0)

    def test_scaled_weights_scale_the_optimum(self):
        cfg = GeneratorConfig(m=12, n=8, k=4, l_lo=1, l_hi=8, r_lo=3,
                              seed=(1, 12))
        base = solve_diverse_exact(gen_instance(cfg))
        rep = solve_diverse_exact(scaled_instance(cfg, 1e-5))
        assert base.status == rep.status == OPTIMAL
        assert rep.matching == base.matching
        np.testing.assert_allclose(rep.diversity_cost,
                                   1e-10 * base.diversity_cost, rtol=1e-9,
                                   atol=0)


class TestAnytimeBudget:
    def test_zero_budget_returns_warm_start_incumbent(self):
        rng = np.random.default_rng(421)
        for _ in range(15):
            inst = random_instance(rng, max_m=5, max_n=5, max_cells=25)
            feasible_rep = solve_diverse_greedy(inst)
            rep = solve_diverse_exact(inst, budget_ms=0.0)
            if feasible_rep.status != FEASIBLE_INCUMBENT:
                assert rep.status == INFEASIBLE
                continue
            assert rep.status in (OPTIMAL, FEASIBLE_INCUMBENT)
            ok, violations = check_matching(inst, rep.matching)
            assert ok, violations
            np.testing.assert_allclose(
                rep.diversity_cost, diversity_cost(inst, rep.matching),
                rtol=1e-12)

    def test_incumbent_never_beats_optimum(self):
        rng = np.random.default_rng(422)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=120.0)
        for _ in range(25):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14)
            rep = solve_diverse_exact(inst, budget_ms=0.0)
            if rep.matching is None:
                continue
            oracle = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
            assert rep.diversity_cost >= oracle.diversity_cost - 1e-9

    def test_rejects_negative_or_nan_budget(self):
        inst = random_instance(np.random.default_rng(423))
        for bad in (-1.0, float("nan")):
            with pytest.raises(ConfigError):
                solve_diverse_exact(inst, budget_ms=bad)


class TestCertifiedBound:
    def test_budgeted_bound_brackets_the_optimum(self):
        # Proven optimum of this instance from one unbudgeted solve.
        optimum = 2.395660095501542
        inst = gen_instance(GeneratorConfig(m=10, n=10, k=3, l_lo=1,
                                            l_hi=10, r_lo=3, seed=(1, 10)))
        rep = solve_diverse_exact(inst, budget_ms=300)
        assert rep.status == FEASIBLE_INCUMBENT
        bound = rep.telemetry["lower_bound"]
        assert bound <= optimum <= rep.diversity_cost
        np.testing.assert_allclose(
            rep.telemetry["gap"],
            (rep.diversity_cost - bound) / rep.diversity_cost, rtol=1e-12)


    def test_zero_budget_reports_the_root_bound(self):
        # The root is priced before the search starts, so a budget that
        # stops it before the first expansion still certifies a floor.
        optimum = 2.395660095501542
        inst = gen_instance(GeneratorConfig(m=10, n=10, k=3, l_lo=1,
                                            l_hi=10, r_lo=3, seed=(1, 10)))
        rep = solve_diverse_exact(inst, budget_ms=0)
        assert rep.status == FEASIBLE_INCUMBENT
        assert rep.telemetry["expanded"] == 0
        assert 0.0 < rep.telemetry["lower_bound"] <= optimum
        assert rep.telemetry["gap"] < 1.0


def partition_bound(res, usable):
    """The completion bound priced one owing node at a time."""
    w, clusters, sums = res.inst.weights, res.inst.clusters, res.sums.table
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


def best_completion(res):
    """Cheapest cost of the taken edges plus any subset of the open ones
    that meets every degree bound; inf when no subset does."""
    inst = res.inst
    edges = np.argwhere(~res.closed)
    subsets = (np.arange(1 << len(edges))[:, None]
               >> np.arange(len(edges))) & 1
    deg_l = res.deg_l + subsets @ (edges[:, :1] == np.arange(inst.m))
    deg_r = res.deg_r + subsets @ (edges[:, 1:] == np.arange(inst.n))
    ok = ((deg_l >= res.l_lo) & (deg_l <= res.l_hi)).all(axis=1)
    ok &= ((deg_r >= res.r_lo) & (deg_r <= res.r_hi)).all(axis=1)
    if not ok.any():
        return np.inf
    # per-(right node, cluster) weight each open edge adds
    cells = edges[:, 1] * inst.k + inst.clusters[edges[:, 0]]
    added = np.zeros((len(edges), inst.n * inst.k))
    added[np.arange(len(edges)), cells] = inst.weights[edges[:, 0],
                                                       edges[:, 1]]
    sums = res.sums.table.ravel() + subsets[ok] @ added
    return float((sums * sums).sum(axis=1).min())


class TestCompletionBound:
    def test_admissible_and_equal_to_per_node_pricing(self):
        # Random take/forbid walks on small two-sided instances, each
        # until the counting check fails or no edge is open.  At each
        # state the bound is infinite exactly where the reference check
        # fails; elsewhere it equals per-node pricing, and committed
        # cost plus the bound must not exceed the best completion, found
        # by enumeration.
        rng = np.random.default_rng(451)
        checked = both_sides = totals_only = 0
        for _ in range(200):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=12,
                                   per_node=True)
            res = Residual(inst)
            while True:
                usable = res.usable()
                bound = exact.completion_bound(res, usable)
                feasible = counting_feasible(res, usable)
                assert math.isinf(bound) == (not feasible)
                if not feasible:
                    assert best_completion(res) == np.inf
                    # only the side totals fail: each owing node still
                    # has as many usable edges as it owes
                    totals_only += bool(
                        (res.l_lo - res.deg_l <= usable.sum(axis=1)).all()
                        and (res.r_lo - res.deg_r <= usable.sum(axis=0)).all())
                    break
                np.testing.assert_allclose(
                    bound, partition_bound(res, usable), rtol=1e-12, atol=0)
                best = best_completion(res)
                assert res.sums.cost + bound <= best + 1e-12 * max(1.0, best)
                checked += 1
                owing_l, owing_r = res.owing()
                both_sides += bool(owing_l.any() and owing_r.any())
                open_edges = np.argwhere(~res.closed)
                if len(open_edges) == 0:
                    break
                i, j = (int(v) for v in
                        open_edges[rng.integers(len(open_edges))])
                res.decide(i, j, bool(usable[i, j] and rng.random() < 0.6))
        assert checked >= 500 and both_sides >= 100 and totals_only >= 10


def grouped_sums(inst, mask):
    """Per-(right node, cluster) sums of the masked weights, fsum each."""
    fresh = np.zeros((inst.n, inst.k))
    for j in range(inst.n):
        for c in range(inst.k):
            fresh[j, c] = math.fsum(
                inst.weights[mask[:, j] & (inst.clusters == c), j].tolist())
    return fresh


class TestSumsDrift:
    # The cluster sums are updated in place and never recomputed, so
    # long runs must keep them glued to a fresh grouped recompute of the
    # selection they record.
    INST = gen_instance(GeneratorConfig(m=10, n=10, k=3, l_lo=0, l_hi=10,
                                        r_lo=0, r_hi=10, seed=(426, 10)))

    def test_lifo_walk_on_one_residual(self):
        # 2^17 decide/undo steps in last-in, first-out order, as branch
        # and bound applies them to its one long-lived residual.
        inst = self.INST
        res = Residual(inst)
        rng = np.random.default_rng(426)
        steps = 1 << 17
        push = rng.random(steps) < 0.55
        cells = rng.integers(0, inst.m * inst.n, steps)
        takes = rng.random(steps) < 0.7
        trail = []
        taken = np.zeros((inst.m, inst.n), dtype=bool)
        for step in range(steps):
            i, j = divmod(int(cells[step]), inst.n)
            if trail and (not push[step] or res.closed[i, j]):
                i, j, took = trail.pop()
                res.undo(i, j, took)
                taken[i, j] = False
            elif not res.closed[i, j]:
                took = bool(takes[step])
                res.decide(i, j, took)
                trail.append((i, j, took))
                taken[i, j] = took
            if step % 4096 == 0:
                assert np.array_equal(res.taken, taken)
                assert np.array_equal(res.sums.selected, taken)
                np.testing.assert_allclose(res.sums.table,
                                           grouped_sums(inst, taken),
                                           rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.sums.table, grouped_sums(inst, taken),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.sums.cost,
                                   diversity_cost(inst, res.matching()),
                                   rtol=1e-12, atol=1e-12)
        while trail:
            res.undo(*trail.pop())
        assert not res.taken.any() and not res.closed.any()
        assert not res.deg_l.any() and not res.deg_r.any()
        np.testing.assert_allclose(res.sums.table, 0.0, rtol=0, atol=1e-12)

    def test_random_toggles_on_bare_cluster_sums(self):
        inst = self.INST
        sums = ClusterSums(inst)
        rng = np.random.default_rng(427)
        selected = np.zeros((inst.m, inst.n), dtype=bool)
        for step, cell in enumerate(rng.integers(0, inst.m * inst.n,
                                                 1 << 17).tolist()):
            i, j = divmod(cell, inst.n)
            if selected[i, j]:
                sums.remove(i, j)
            else:
                sums.add(i, j)
            selected[i, j] = not selected[i, j]
            if step % 4096 == 0:
                np.testing.assert_allclose(sums.table,
                                           grouped_sums(inst, selected),
                                           rtol=0, atol=1e-12)
        assert np.array_equal(sums.selected, selected)
        np.testing.assert_allclose(sums.table, grouped_sums(inst, selected),
                                   rtol=0, atol=1e-12)


class TestWarmStart:
    def test_feasible_and_not_better_than_exact(self):
        rng = np.random.default_rng(431)
        for _ in range(30):
            inst = random_instance(rng)
            start = warm_start(inst)
            exact = solve_diverse_exact(inst)
            if exact.status == INFEASIBLE:
                assert start is None
                continue
            assert start is not None
            ok, violations = check_matching(inst, start)
            assert ok, violations
            assert (diversity_cost(inst, start)
                    >= exact.diversity_cost - 1e-9)

    def test_min_weight_fallback_after_greedy_dead_end(self):
        inst = dead_end_instance()
        assert solve_diverse_greedy(inst).matching is None
        start = warm_start(inst)
        assert start == solve_min_weight(inst).matching
        rep = solve_diverse_exact(inst)
        oracle = brute_force(inst, OBJECTIVE_DIVERSITY)
        assert rep.status == OPTIMAL
        assert rep.matching == start == oracle.matching
        np.testing.assert_allclose(rep.diversity_cost, 2.03, rtol=1e-12)
        assert rep.diversity_cost == oracle.diversity_cost


class TestDeterminism:
    def test_same_input_same_output(self):
        rng = np.random.default_rng(441)
        for _ in range(20):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=12)
            a = solve_diverse_exact(inst)
            b = solve_diverse_exact(inst)
            assert a.status == b.status
            if a.matching is not None:
                assert a.matching.edges == b.matching.edges

    def test_telemetry_counts_expansions(self):
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        bounds = DegreeBounds.broadcast(2, 2, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = solve_diverse_exact(inst)
        assert rep.status == OPTIMAL
        assert rep.telemetry["expanded"] >= 1
        assert rep.telemetry["fast_path"] is False
