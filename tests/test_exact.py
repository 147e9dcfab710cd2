"""Tests for the exact diverse solver: fast path, branch and bound, budgets."""

import functools
import hashlib
import json
import math
import operator
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
    is_feasible_bounds,
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


def _reference_cluster_dp(tables, lo, hi):
    """_cluster_dp with every cluster's take axis running to max(hi),
    past the cluster's size, as it did before the axis was capped."""
    k, n, top = tables.shape
    cols, span = np.arange(n), np.arange(top + 1)
    padded = np.full((n, 2 * top + 1), math.inf)
    padded[:, top] = 0.0
    shift = top + span - span[:, None]
    steps = []
    for sq in tables[..., None]:
        cand = padded[:, shift]
        cand[:, 1:] += sq
        steps.append(cand.argmin(axis=1))
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

    def test_capped_dp_matches_the_uncapped_one(self):
        # Small integer costs tie often; entries past a cluster's size
        # are infinite, as its callers build them, and some right nodes
        # get an all-infinite column in one cluster or in every one.
        rng = np.random.default_rng(1019)
        seen = {"tie": 0, "column infinite in one cluster": 0,
                "column infinite everywhere": 0, "size past top": 0,
                "unreachable": 0}
        for trial in range(400):
            k, n, top = (int(v) for v in rng.integers(1, [5, 6, 7]))
            sizes = rng.integers(0, top + 3, k)
            tables = rng.integers(0, 4, (k, n, top)).astype(float)
            tables = np.where(np.arange(top) >= sizes[:, None, None],
                              math.inf, tables)
            if trial % 3 == 0:
                tables[rng.integers(k), rng.integers(n)] = math.inf
                seen["column infinite in one cluster"] += 1
            if trial % 5 == 0:
                tables[:, rng.integers(n)] = math.inf
                seen["column infinite everywhere"] += 1
            hi = rng.integers(0, top + 1, n)
            hi[rng.integers(n)] = top
            lo = rng.integers(0, hi + 1)
            best, takes = exact._cluster_dp(tables, lo, hi, sizes)
            ref_best, ref_takes = _reference_cluster_dp(tables, lo, hi)
            np.testing.assert_array_equal(best, ref_best, err_msg=str(trial))
            np.testing.assert_array_equal(takes, ref_takes,
                                          err_msg=str(trial))
            finite = tables[np.isfinite(tables)]
            seen["tie"] += len(np.unique(finite)) < len(finite)
            seen["size past top"] += bool((sizes > top).any())
            seen["unreachable"] += bool(np.isinf(best).any())
        assert min(seen.values()) >= 60, seen

    def test_unmeetable_demand_names_the_right_node(self):
        # DegreeBounds rejects R_hi above m, so a stand-in with the fields
        # the dynamic program reads carries R_lo[1] = 3 against two left
        # nodes.
        bounds = SimpleNamespace(l_lo=(0, 0), l_hi=(2, 2), r_lo=(1, 3),
                                 r_hi=(2, 3))
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


# bnb-proof-shaped 8x6 seeds whose root the Lagrangian bound leaves open
# (300 steps, no proof) and whose search then accepts a leaf better than
# the bound's best primal
SEARCHED = [(4507, 8, 6, 3, 83), (4507, 8, 6, 4, 104), (11, 8, 6, 3, 54),
            (11, 8, 6, 3, 132), (11, 8, 6, 3, 147)]


def searched_config(seed):
    return GeneratorConfig(m=8, n=6, k=seed[3], l_lo=1, l_hi=6, r_lo=2,
                           r_hi=8, seed=seed)


class TestWeightScale:
    # The pruning tolerance must scale with the costs: an absolute one
    # prunes every node and stops the Lagrangian steps at small weights,
    # and returns the warm start as optimal.
    def test_tiny_weights_match_brute_force(self):
        inst = scaled_instance(GeneratorConfig(
            m=4, n=4, k=2, l_lo=1, l_hi=4, r_lo=2, seed=(5, 0)), 1e-6)
        rep = solve_diverse_exact(inst)
        oracle = brute_force(inst, OBJECTIVE_DIVERSITY)
        assert rep.status == OPTIMAL
        start = diversity_cost(inst, warm_start(inst))
        assert start > 1.1 * oracle.diversity_cost
        np.testing.assert_allclose(rep.diversity_cost, oracle.diversity_cost,
                                   rtol=1e-9, atol=0)
        # an instance whose root the Lagrangian bound leaves open, so the
        # search itself runs at tiny weights
        cfg = searched_config(SEARCHED[0])
        base = solve_diverse_exact(gen_instance(cfg))
        rep = solve_diverse_exact(scaled_instance(cfg, 1e-6))
        assert rep.status == OPTIMAL
        assert rep.telemetry["expanded"] == base.telemetry["expanded"] > 0
        assert rep.matching == base.matching
        np.testing.assert_allclose(rep.diversity_cost,
                                   1e-12 * base.diversity_cost, rtol=1e-9,
                                   atol=0)

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
        for bad in (-1.0, float("nan"), True, np.True_, np.False_, "5", 1j):
            with pytest.raises(ConfigError):
                solve_diverse_exact(inst, budget_ms=bad)

    def test_accepts_numpy_real_budgets(self):
        inst = random_instance(np.random.default_rng(423))
        unbudgeted = solve_diverse_exact(inst)
        for budget in (np.float64(60_000.0), np.int64(60_000)):
            rep = solve_diverse_exact(inst, budget_ms=budget)
            assert rep.status == unbudgeted.status
            assert rep.matching == unbudgeted.matching


# run_scaling's (m, n) shapes, each at k = 5, L_lo = 1 and R_lo = 3
SCALING_SHAPES = ((25, 10), (50, 10), (100, 10), (200, 10), (200, 100))


def scaling_instance(seed, m, n):
    return gen_instance(GeneratorConfig(m=m, n=n, k=5, l_lo=1, l_hi=n,
                                        r_lo=3, r_hi=m, seed=(seed, m)))


class TestCertifiedBound:
    # run_scaling's 50x10 shape at seed (23, 50), k = 5, clusters of 6 to
    # 14 members; its optimum, proven by one unbudgeted solve in 92
    # Lagrangian steps (about 1 s here).
    SCALING_50 = GeneratorConfig(m=50, n=10, k=5, l_lo=1, l_hi=10, r_lo=3,
                                 r_hi=50, seed=(23, 50))
    OPTIMUM_50 = 0.8653686568023496

    def test_budgeted_bound_brackets_the_optimum(self):
        # The budget stops the Lagrangian steps early: the deadline is
        # read before each step, so the solve overruns it by at most one
        # step (a few ms here), and the bound so far is still certified.
        inst = gen_instance(self.SCALING_50)
        rep = solve_diverse_exact(inst, budget_ms=150)
        assert rep.status == FEASIBLE_INCUMBENT
        assert 0 < rep.telemetry["lagrangian_iterations"] < 92
        assert rep.wall_time < 1.0
        bound = rep.telemetry["lower_bound"]
        assert bound <= self.OPTIMUM_50 <= rep.diversity_cost
        np.testing.assert_allclose(
            rep.telemetry["gap"],
            (rep.diversity_cost - bound) / rep.diversity_cost, rtol=1e-12)

    def test_zero_budget_reports_the_root_bound(self):
        # The root is priced before the search starts, so a budget that
        # stops it before the first Lagrangian step and the first
        # expansion still certifies root pricing's floor.
        optimum = 2.395660095501542
        inst = gen_instance(GeneratorConfig(m=10, n=10, k=3, l_lo=1,
                                            l_hi=10, r_lo=3, seed=(1, 10)))
        rep = solve_diverse_exact(inst, budget_ms=0)
        assert rep.status == FEASIBLE_INCUMBENT
        assert rep.telemetry["expanded"] == 0
        assert rep.telemetry["lagrangian_iterations"] == 0
        assert rep.telemetry["lagrangian_bound"] is None
        root = exact._Pricer(Residual(inst)).price(0.0, math.inf)[0][0]
        assert rep.telemetry["lower_bound"] == root
        assert 0.0 < root <= optimum
        assert rep.telemetry["gap"] < 1.0

    def test_lagrangian_bound_certifies_run_scaling_shapes(self):
        # Before the bound, a 5 s search left a 34.6% gap at 25x10 and
        # 19.9% at 50x10 (seed 23).  Both shapes now close at the root.
        inst = gen_instance(GeneratorConfig(m=25, n=10, k=5, l_lo=1, l_hi=10,
                                            r_lo=3, r_hi=25, seed=(7, 25)))
        rep = solve_diverse_exact(inst, budget_ms=2000)
        assert rep.status == OPTIMAL or rep.telemetry["gap"] <= 0.03
        assert rep.telemetry["lower_bound"] <= rep.diversity_cost
        assert rep.telemetry["lagrangian_bound"] is not None
        # the budget only keeps a failing proof from running on
        rep = solve_diverse_exact(gen_instance(self.SCALING_50),
                                  budget_ms=20000)
        assert rep.status == OPTIMAL
        assert rep.telemetry["expanded"] == 0
        assert rep.diversity_cost == pytest.approx(self.OPTIMUM_50, rel=1e-12)

    def test_clusters_above_the_cap_skip_the_lagrangian(self):
        # 100x10 has clusters of 16 to 25 members: 2^16 subsets or more
        # per cluster are refused, and the search runs as before.
        inst = gen_instance(GeneratorConfig(m=100, n=10, k=5, l_lo=1,
                                            l_hi=10, r_lo=3, r_hi=100,
                                            seed=(7, 100)))
        assert np.bincount(inst.clusters).max() > exact.SUBSET_CAP
        rep = solve_diverse_exact(inst, budget_ms=50)
        assert rep.telemetry["lagrangian_iterations"] == 0
        assert rep.telemetry["lagrangian_bound"] is None
        assert rep.telemetry["expanded"] > 0

    @pytest.mark.parametrize("seed", [7, 23])
    def test_bound_is_below_every_cost_found_at_scale(self, seed):
        # run_scaling's shapes are past the oracle's reach, so the bound
        # is checked against every feasible cost the solvers find there.
        for m, n in SCALING_SHAPES:
            inst = scaling_instance(seed, m, n)
            rep = solve_diverse_exact(inst, budget_ms=100)
            bound = rep.telemetry["lower_bound"]
            assert bound <= rep.diversity_cost, (m, n)
            assert bound <= solve_diverse_greedy(inst).diversity_cost, (m, n)
            assert bound <= solve_min_weight(inst).diversity_cost, (m, n)


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


def reference_branch_edge(res, usable):
    """Flat index i * n + j of the heaviest usable edge at an owing right
    node, else at an owing left node, ties to the first; -1 when no node
    owes.  The rule branch and bound has always branched on."""
    owing_l, owing_r = res.deg_l < res.l_lo, res.deg_r < res.r_lo
    if not owing_r.any() and not owing_l.any():
        return -1
    pool = usable & owing_r[None, :]
    if not pool.any():
        pool = usable & owing_l[:, None]
    assert pool.any()
    return int(np.argmax(np.where(pool, res.inst.weights, -math.inf)))


def reference_completion(res, usable):
    """The completion bound, each side's terms added in node order: each
    owing node's row (left) or column (right) of masked gains sorted and
    cumsummed, its need-th prefix taken; inf where a side total fails.
    Each side is a plain left-to-right fold, not sum(), which compensates
    its float additions from Python 3.12 on."""
    need_l, need_r = res.l_lo - res.deg_l, res.r_lo - res.deg_r
    if (np.maximum(need_l, 0).sum() > (res.r_hi - res.deg_r).sum()
            or np.maximum(need_r, 0).sum() > (res.l_hi - res.deg_l).sum()):
        return math.inf
    w = res.inst.weights
    gains = w * w + (2.0 * w) * res.sums.table[:, res.inst.clusters].T
    gains[~usable] = math.inf
    totals = []
    for rows, need in ((gains.T, need_r), (gains, need_l)):
        owing = np.nonzero(need > 0)[0]
        prefix = np.sort(rows[owing], axis=1).cumsum(axis=1)
        totals.append(functools.reduce(
            operator.add, prefix[np.arange(owing.size),
                                 need[owing] - 1].tolist(), 0.0))
    return max(totals)


def price_children(pricer, i, j):
    """(completion bound, branch edge) of the take and the forbid child of
    edge (i, j) from the pricing kernel, bound inf and branch None where
    the kernel prunes the child at an infinite cutoff.

    Each child is priced with its committed cost at exactly zero, so its
    bound is its completion bound alone: the take child from a parent
    committed at minus the edge's gain.
    """
    flat = i * pricer.n + j
    gain = pricer.res.sums.gain(i, j)
    kids = (pricer.price(-gain, math.inf, flat)[0],
            pricer.price(0.0, math.inf, flat)[1])
    assert all(kid is None or kid[1] == 0.0 for kid in kids)
    return [(math.inf, None) if kid is None else (kid[0], kid[2])
            for kid in kids]


class TestCompletionBound:
    def test_admissible_and_equal_to_per_node_pricing(self):
        # Random take/forbid walks on small two-sided instances, each
        # until the counting check fails or no edge is open.  Every state
        # the walk reaches, the empty one first, is priced as a batch of
        # one, as the root is, so its side totals read a taken count
        # deeper than one edge; at each state whose next edge is usable,
        # both children of that edge are priced in one batch.  A priced
        # state's bound is infinite exactly where the reference check
        # fails on it; elsewhere it equals per-node pricing, the
        # committed cost plus the bound does not exceed the best
        # completion, found by enumeration, and the branch edge is the
        # reference rule's.
        rng = np.random.default_rng(451)
        seen = {"checked": 0, "both sides": 0, "totals only": 0}

        def check(res, bound, branch):
            usable = res.usable()
            feasible = counting_feasible(res, usable)
            assert math.isinf(bound) == (not feasible)
            if not feasible:
                assert best_completion(res) == np.inf
                # only the side totals fail: each owing node still has
                # as many usable edges as it owes
                seen["totals only"] += bool(
                    (res.l_lo - res.deg_l <= usable.sum(axis=1)).all()
                    and (res.r_lo - res.deg_r <= usable.sum(axis=0)).all())
                return
            np.testing.assert_allclose(
                bound, partition_bound(res, usable), rtol=1e-12, atol=0)
            best = best_completion(res)
            assert res.sums.cost + bound <= best + 1e-12 * max(1.0, best)
            assert branch == reference_branch_edge(res, usable)
            seen["checked"] += 1
            owing_l, owing_r = res.deg_l < res.l_lo, res.deg_r < res.r_lo
            seen["both sides"] += bool(owing_l.any() and owing_r.any())

        for _ in range(200):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=12,
                                   per_node=True)
            res = Residual(inst)
            pricer = exact._Pricer(res)
            while True:
                state = pricer.price(0.0, math.inf)[0]
                check(res, *((math.inf, None) if state is None
                             else (state[0], state[2])))
                edges = np.argwhere(~res.closed)
                if not counting_feasible(res, res.usable()) or not len(edges):
                    break
                i, j = (int(v) for v in edges[rng.integers(len(edges))])
                usable_edge = bool(res.usable()[i, j])
                # the search branches on usable edges only
                if usable_edge:
                    children = price_children(pricer, i, j)
                    for take, child in zip((True, False), children):
                        res.decide(i, j, take)
                        check(res, *child)
                        res.undo(i, j, take)
                take = usable_edge and rng.random() < 0.6
                res.decide(i, j, take)
        assert seen["checked"] >= 500, seen
        assert seen["both sides"] >= 100, seen
        assert seen["totals only"] >= 10, seen

    def test_bit_identical_sums_with_eight_owing_nodes_or_more(self):
        # A numpy sum adds eight or more terms pairwise, so sides with
        # that many owing nodes tell node order from any other order: the
        # bound must equal the node-order reference bit for bit.
        rng = np.random.default_rng(453)
        wide = 0
        for trial in range(40):
            inst = gen_instance(GeneratorConfig(
                m=10, n=9, k=3, l_lo=1, l_hi=9, r_lo=2, r_hi=10,
                seed=(453, trial)))
            res = Residual(inst)
            pricer = exact._Pricer(res)
            for _ in range(12):
                edges = np.argwhere(res.usable())
                i, j = (int(v) for v in edges[rng.integers(len(edges))])
                children = price_children(pricer, i, j)
                for take, (bound, _) in zip((True, False), children):
                    res.decide(i, j, take)
                    assert bound == reference_completion(res, res.usable())
                    owing_l = res.deg_l < res.l_lo
                    owing_r = res.deg_r < res.r_lo
                    wide += max(owing_l.sum(), owing_r.sum()) >= 8
                    res.undo(i, j, take)
                take = bool(rng.random() < 0.5)
                res.decide(i, j, take)
        assert wide >= 200


# 8x6 instances shaped like the bnb-proof benchmark workload, seed
# (4507, t), k = 3 + t % 2: the optimum's edges as flat i * 6 + j, from
# the search as it stood before pricing was batched per expansion; nodes
# expanded and pruned, Lagrangian steps and the lower bound, recorded
# once the warm start became the minimum-weight matching.  It closes
# every root but trial 11's, which root pricing prunes, with no node
# expanded (the search expanded 47 to 342 nodes per trial before the
# root Lagrangian bound).
PINNED_SEARCHES = [
    ((0, 6, 13, 14, 15, 19, 28, 29, 34, 35, 38, 39, 42), 0, 0, 14,
     0.430347470693294),
    ((0, 5, 6, 8, 13, 21, 22, 26, 31, 35, 39, 46), 0, 0, 27,
     0.4049844289735848),
    ((2, 7, 12, 13, 16, 20, 27, 29, 33, 36, 41, 46), 0, 0, 12,
     0.5563623247129477),
    ((1, 9, 17, 18, 19, 22, 23, 24, 26, 33, 38, 46), 0, 0, 18,
     0.664436876036985),
    ((4, 6, 8, 16, 18, 23, 25, 29, 31, 39, 44, 45), 0, 0, 4,
     1.2848723566715432),
    ((1, 8, 11, 12, 20, 21, 22, 27, 28, 29, 30, 36, 43), 0, 0, 9,
     0.5815920384730653),
    ((2, 7, 14, 15, 16, 18, 19, 21, 28, 35, 36, 47), 0, 0, 13,
     1.1533842898021947),
    ((3, 8, 12, 22, 28, 30, 31, 32, 33, 35, 41, 43), 0, 0, 18,
     1.3565415779966252),
    ((2, 9, 10, 17, 18, 24, 25, 26, 29, 31, 40, 45), 0, 0, 17,
     0.39465076617058037),
    ((0, 2, 3, 7, 15, 23, 24, 34, 35, 38, 40, 43), 0, 0, 6,
     0.7192946794683724),
    ((2, 4, 5, 6, 9, 17, 22, 25, 27, 32, 36, 43), 0, 0, 2,
     0.42113111419263255),
    ((1, 4, 8, 17, 19, 21, 24, 33, 36, 38, 40, 47), 0, 1, 0,
     0.661178298104564),
    ((4, 11, 16, 18, 27, 31, 32, 33, 36, 37, 38, 47), 0, 0, 12,
     0.7700308976175017),
    ((0, 2, 4, 11, 16, 19, 20, 24, 27, 31, 41, 45), 0, 0, 3,
     0.732374599646629),
    ((5, 10, 13, 14, 22, 24, 30, 33, 35, 37, 44, 45), 0, 0, 9,
     0.4938416218967692),
    ((1, 6, 11, 13, 20, 21, 26, 34, 36, 39, 40, 47), 0, 0, 4,
     0.3668404847446395),
]

# SEARCHED's optima as flat i * 6 + j, the search's counters, and the
# lower bound: the pruning cutoff, above the Lagrangian bound left after
# 300 steps
PINNED_OPEN_SEARCHES = [
    ((0, 1, 3, 8, 9, 17, 23, 25, 34, 40, 42, 44), 107, 104,
     0.689807739787015),
    ((2, 7, 8, 10, 15, 21, 25, 30, 35, 40, 42, 47), 86, 83,
     0.4978539381052015),
    ((0, 1, 10, 16, 23, 26, 31, 33, 41, 42, 44, 45), 182, 177,
     0.82656495362333),
    ((2, 9, 12, 19, 20, 23, 28, 31, 39, 40, 41, 42), 105, 104,
     1.1718710314451704),
    ((1, 3, 7, 17, 18, 20, 26, 33, 34, 36, 46, 47), 234, 229,
     0.7713532968093201),
]


class TestPinnedSearch:
    # Neither pricing nor the root bound may change the search: the same
    # nodes are expanded and pruned in the same order, so every counter
    # and the lower bound match to the last bit.
    @pytest.mark.parametrize("trial", range(len(PINNED_SEARCHES)))
    def test_counters_match_the_recorded_search(self, trial):
        edges, expanded, pruned, steps, lower_bound = PINNED_SEARCHES[trial]
        inst = gen_instance(GeneratorConfig(
            m=8, n=6, k=3 + trial % 2, l_lo=1, l_hi=6, r_lo=2, r_hi=8,
            seed=(4507, trial)))
        rep = solve_diverse_exact(inst)
        assert rep.status == OPTIMAL
        assert tuple(i * 6 + j for i, j in rep.matching.edges) == edges
        assert rep.telemetry["expanded"] == expanded
        assert rep.telemetry["pruned"] == pruned
        assert rep.telemetry["lagrangian_iterations"] == steps
        assert rep.telemetry["lower_bound"] == lower_bound

    @pytest.mark.parametrize("trial", range(len(SEARCHED)))
    def test_counters_match_where_the_root_stays_open(self, trial):
        edges, expanded, pruned, lower_bound = PINNED_OPEN_SEARCHES[trial]
        rep = solve_diverse_exact(gen_instance(searched_config(
            SEARCHED[trial])))
        assert rep.status == OPTIMAL
        assert tuple(i * 6 + j for i, j in rep.matching.edges) == edges
        assert rep.telemetry["lagrangian_iterations"] == \
            exact.LAGRANGIAN_ITERATIONS
        assert rep.telemetry["lagrangian_bound"] < lower_bound
        assert rep.telemetry["expanded"] == expanded
        assert rep.telemetry["pruned"] == pruned
        assert rep.telemetry["lower_bound"] == lower_bound

    def test_counter_totals_where_side_totals_bind(self):
        # Per-node bounds, where the counting check's side totals prune
        # too; totals over the searched instances, recorded likewise.
        # Root pricing prunes 78 of the 189 roots against the
        # minimum-weight warm start (70 against greedy's) and the
        # Lagrangian bound closes the other 111 (1,771 nodes expanded
        # and 1,830 pruned before it).
        rng = np.random.default_rng(462)
        searched = expanded = pruned = 0
        for _ in range(300):
            inst = random_instance(rng, max_m=5, max_n=5, max_cells=20,
                                   per_node=True)
            rep = solve_diverse_exact(inst)
            if rep.status == INFEASIBLE or rep.telemetry["fast_path"]:
                continue
            searched += 1
            expanded += rep.telemetry["expanded"]
            pruned += rep.telemetry["pruned"]
        assert (searched, expanded, pruned) == (189, 0, 78)

    def test_drifting_tracked_cost_raises(self, monkeypatch):
        # The search tracks an accepted leaf's cost by adding gains along
        # its path; a gain off by a relative 1e-6 must trip the drift
        # check against the fresh cost.  The search of SEARCHED[0]
        # improves on the Lagrangian bound's primal, so a leaf is
        # accepted.
        gain = ClusterSums.gain
        monkeypatch.setattr(ClusterSums, "gain",
                            lambda self, i, j: gain(self, i, j) * (1 + 1e-6))
        inst = gen_instance(searched_config(SEARCHED[0]))
        with pytest.raises(InternalError, match="drifted"):
            solve_diverse_exact(inst)

    def test_mixed_scale_weights_in_one_cluster_solve(self):
        # Heavy edges share a right node and cluster with light ones.  The
        # search takes and undoes two of them at right node 2, cluster 0,
        # whose sum 230000000.1 + 1.5e8 rounds, so the sum keeps a residue
        # of about 3e-8.  The light leaf it then accepts reads that sum,
        # and its tracked cost is off by a relative 1.5e-6: the drift
        # check must scale with the weights, not with the leaf's cost.
        weights = np.array([[3e-3, 5e-3, 230000000.1],
                            [8e-3, 4e-3, 10e-3],
                            [2e-3, 4e8, 10e-3],
                            [9e-3, 9e-3, 1.5e8],
                            [2e-3, 10e-3, 9e8]])
        bounds = DegreeBounds.broadcast(5, 3, 1, 1, [0, 1, 0], [1, 2, 2])
        inst = Instance(weights, np.array([0, 0, 1, 0, 1]), 2, bounds)
        rep = solve_diverse_exact(inst)
        assert rep.status == OPTIMAL
        assert not rep.telemetry["fast_path"]
        assert rep.diversity_cost < 1e-3


class TestPeakDepth:
    def test_bounds_the_path_to_every_incumbent(self):
        # No path decides an edge twice.  A search incumbent is a leaf
        # whose path took each of its edges by one decision, so the
        # deepest path is at least that long; on SEARCHED the answer is
        # such a leaf, neither the warm start nor the Lagrangian bound's
        # primal.
        rng = np.random.default_rng(461)
        for _ in range(60):
            inst = random_instance(rng, max_m=5, max_n=5, max_cells=20)
            rep = solve_diverse_exact(inst)
            if rep.status == INFEASIBLE:
                continue
            depth = rep.telemetry["peak_depth"]
            assert 0 <= depth <= inst.m * inst.n
            if rep.telemetry["fast_path"]:
                assert depth == 0
        for seed in SEARCHED:
            inst = gen_instance(searched_config(seed))
            rep = solve_diverse_exact(inst)
            start = warm_start(inst)
            primal = exact._lagrangian(inst, diversity_cost(inst, start),
                                       None)[1]
            assert rep.matching not in (start, primal)
            assert inst.m * inst.n >= rep.telemetry["peak_depth"] \
                >= len(rep.matching)

    def test_root_only_search_has_depth_zero(self):
        # The pinned trial whose root is pruned expands nothing.
        inst = gen_instance(GeneratorConfig(
            m=8, n=6, k=4, l_lo=1, l_hi=6, r_lo=2, r_hi=8, seed=(4507, 11)))
        rep = solve_diverse_exact(inst)
        assert rep.telemetry["expanded"] == 0
        assert rep.telemetry["peak_depth"] == 0


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


@functools.lru_cache(maxsize=None)
def tail_draws():
    """The 1,500 draws of the exact solver's tail sequence: draw t is the
    t-th call of random_instance on one generator, up to 8x8 and k = 3,
    per-node bounds on odd t."""
    rng = np.random.default_rng(20261020)
    return tuple(random_instance(rng, max_m=8, max_n=8, max_k=3,
                                 max_cells=64, per_node=t % 2 == 1)
                 for t in range(1500))


# The 20 two-sided feasible draws that a 2 s branch and bound did not
# prove before the Lagrangian bound; 107, 666 and 1134 took 1.9, 11 and
# 3 million nodes unbudgeted (minutes each).
TAIL = (51, 107, 122, 173, 220, 310, 378, 428, 666, 705, 735, 766, 889, 992,
        1024, 1134, 1293, 1315, 1333, 1402)
# proven optima
TAIL_OPTIMA = {107: 13.663150602203139, 1134: 8.84777494000667}
# run on a budget with a gap ceiling: the bound meets 1402's optimum
# only to 1e-9 relative, at the pruning tolerance (and met 1024's only to
# 7e-10 when the steps aimed at greedy's cost)
TAIL_BUDGETED = (1024, 1333, 1402)
# sha256 of the JSON list [[t, edges], ...] of every two-sided feasible
# draw's optimum, in draw order, recorded while the warm start was still
# greedy's; the minimum-weight warm start left every answer as it was
TAIL_SEQUENCE_SHA256 = ("3353be501ba1711f0aef22aaed71e9be"
                        "455df52deea124c1613bb2095c78f544")


class TestTail:
    # Every tail draw now closes at the root: the Lagrangian bound meets
    # an incumbent (the minimum-weight warm start or its own primal)
    # within PRUNE_TOL, in 1 to 284 steps and at most about 25 ms.
    @pytest.mark.parametrize("t", TAIL)
    def test_tail_draw_closes_at_the_root(self, t):
        inst = tail_draws()[t]
        if t in TAIL_BUDGETED:
            rep = solve_diverse_exact(inst, budget_ms=2000)
            assert rep.status in (OPTIMAL, FEASIBLE_INCUMBENT)
            assert rep.telemetry["gap"] <= 1e-3
        else:
            rep = solve_diverse_exact(inst)
            assert rep.status == OPTIMAL
            assert rep.telemetry["expanded"] == 0
        assert not inst.right_only
        assert rep.telemetry["lagrangian_iterations"] > 0
        assert rep.telemetry["lower_bound"] <= rep.diversity_cost
        if t in TAIL_OPTIMA:
            assert rep.diversity_cost == pytest.approx(TAIL_OPTIMA[t],
                                                       rel=1e-12)

    def test_whole_sequence_proves_optimal(self):
        # All 912 two-sided feasible draws, unbudgeted: each proves
        # optimal with its recorded answer.  They expand 480 nodes in
        # all, 2 draws past the root (5,538 nodes and 5 draws with
        # greedy's warm start).
        answers, expanded = [], 0
        for t, inst in enumerate(tail_draws()):
            if inst.right_only or not is_feasible_bounds(inst)[0]:
                continue
            rep = solve_diverse_exact(inst)
            assert rep.status == OPTIMAL, t
            answers.append([t, [list(edge) for edge in rep.matching.edges]])
            expanded += rep.telemetry["expanded"]
        assert len(answers) == 912
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        assert digest == TAIL_SEQUENCE_SHA256
        assert expanded <= 1000


class TestLagrangianBound:
    def test_below_the_oracle_optimum_and_primals_feasible(self):
        # Small two-sided instances, half with per-node bounds: the bound
        # never exceeds the oracle's optimum, and a primal is a feasible
        # matching whose reported cost is its fresh one.  The steps aim
        # at greedy's cost (min weight's where greedy dead-ends), which
        # sits further above the optimum than the warm start's, so the
        # subproblems pass through more primals on the way.
        rng = np.random.default_rng(471)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=120.0)
        seen = {"bound": 0, "primal": 0, "meets optimum": 0}
        for trial in range(150):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14,
                                   per_node=trial % 2 == 1)
            start = warm_start(inst)
            if inst.right_only or start is None:
                continue
            built = solve_diverse_greedy(inst).matching
            target = diversity_cost(inst, start if built is None else built)
            oracle = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
            bound, primal, value, steps = exact._lagrangian(inst, target, None)
            assert 1 <= steps <= exact.LAGRANGIAN_ITERATIONS
            assert bound <= oracle.diversity_cost * (1 + 1e-12) + 1e-12
            seen["bound"] += 1
            seen["meets optimum"] += bound >= oracle.diversity_cost * (
                1 - exact.PRUNE_TOL)
            if primal is not None:
                ok, violations = check_matching(inst, primal)
                assert ok, violations
                assert value == diversity_cost(inst, primal)
                assert value >= oracle.diversity_cost - 1e-12
                seen["primal"] += 1
        assert seen["bound"] >= 80 and seen["primal"] >= 15, seen
        assert seen["meets optimum"] >= 80, seen


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

    def test_is_the_min_weight_matching(self):
        # Every feasible instance has a minimum-weight matching, so the
        # warm start needs no fallback, where greedy dead-ends included;
        # on an infeasible one both are None.
        rng = np.random.default_rng(432)
        for trial in range(40):
            inst = random_instance(rng, per_node=trial % 2 == 1)
            assert warm_start(inst) == solve_min_weight(inst).matching
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


    @pytest.mark.parametrize("seed", [7, 23])
    def test_zero_budget_returns_min_weight_at_scale(self, seed):
        # A zero budget stops before the first Lagrangian step and the
        # first expansion, so the answer is the warm start, which on
        # run_scaling's shapes costs less than greedy's (200x100 at seed
        # 23: 0.0762 against 0.4336).
        for m, n in SCALING_SHAPES:
            inst = scaling_instance(seed, m, n)
            rep = solve_diverse_exact(inst, budget_ms=0)
            assert rep.matching == solve_min_weight(inst).matching, (m, n)
            assert (rep.diversity_cost
                    < solve_diverse_greedy(inst).diversity_cost), (m, n)


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
        # The Lagrangian bound leaves this root open, so the search runs.
        rep = solve_diverse_exact(gen_instance(searched_config(SEARCHED[0])))
        assert rep.status == OPTIMAL
        assert rep.telemetry["expanded"] >= 1
        assert rep.telemetry["fast_path"] is False
