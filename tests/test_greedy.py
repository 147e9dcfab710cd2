"""Tests for the greedy diverse solver and its per-right-node fast path."""

import hashlib
import json
import math

import numpy as np

from divmatch import (
    DegreeBounds,
    EnumerationBudget,
    FEASIBLE_INCUMBENT,
    GeneratorConfig,
    INFEASIBLE,
    Instance,
    OBJECTIVE_DIVERSITY,
    brute_force,
    check_matching,
    diversity_cost,
    gen_instance,
    is_feasible_bounds,
    solve_diverse_exact,
    solve_diverse_greedy,
)
from divmatch import greedy
from divmatch._residual import Residual
from conftest import counting_feasible, random_instance


def spread_instance():
    """One position needing two hires from three candidates, two clusters.

    The cheapest single edge comes from the large cluster; the second
    pick should jump to the other cluster because doubling up squares.
    """
    weights = np.array([[1.0], [1.0], [1.0]])
    clusters = np.array([0, 0, 1])
    bounds = DegreeBounds.broadcast(3, 1, 0, 1, 2, 2)
    return Instance(weights, clusters, 2, bounds)


class TestKnownBehavior:
    def test_prefers_cross_cluster_pair(self):
        rep = solve_diverse_greedy(spread_instance())
        assert rep.status == FEASIBLE_INCUMBENT
        assert rep.matching.edges == ((0, 0), (2, 0))
        np.testing.assert_allclose(rep.diversity_cost, 2.0)

    def test_first_pick_is_cheapest_edge_of_first_owing_node(self):
        # With a single owing right node, the first selected edge has the
        # smallest weight in its column (gain of an empty state is w^2),
        # and later picks never remove it.
        rng = np.random.default_rng(301)
        for _ in range(40):
            m = int(rng.integers(2, 6))
            weights = rng.random((m, 1))
            clusters = np.zeros(m, dtype=int)
            bounds = DegreeBounds.broadcast(m, 1, 0, 1,
                                            int(rng.integers(1, m + 1)), m)
            inst = Instance(weights, clusters, 1, bounds)
            rep = solve_diverse_greedy(inst)
            cheapest = int(np.argmin(weights[:, 0]))
            assert (cheapest, 0) in rep.matching.edges

    def test_infeasible_reported(self):
        bounds = DegreeBounds.broadcast(2, 2, 0, 1, 2, 2)
        inst = Instance(np.ones((2, 2)), np.array([0, 0]), 1, bounds)
        rep = solve_diverse_greedy(inst)
        assert rep.status == INFEASIBLE
        assert rep.matching is None
        assert rep.diagnostic != ""


class TestFeasibilityAndQuality:
    def test_always_feasible_when_instance_is(self):
        rng = np.random.default_rng(311)
        solved = 0
        for _ in range(120):
            inst = random_instance(rng)
            feasible, _ = is_feasible_bounds(inst)
            rep = solve_diverse_greedy(inst)
            if not feasible:
                assert rep.status == INFEASIBLE
                continue
            assert rep.status == FEASIBLE_INCUMBENT, rep.diagnostic
            ok, violations = check_matching(inst, rep.matching)
            assert ok, violations
            np.testing.assert_allclose(
                rep.diversity_cost, diversity_cost(inst, rep.matching),
                rtol=1e-12)
            solved += 1
        assert solved >= 60

    def test_never_beats_brute_force_optimum(self):
        rng = np.random.default_rng(312)
        budget = EnumerationBudget(max_subsets=1 << 16, max_wall_s=60.0)
        for _ in range(50):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14)
            rep = solve_diverse_greedy(inst)
            if rep.status != FEASIBLE_INCUMBENT:
                continue
            oracle = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
            assert rep.diversity_cost >= oracle.diversity_cost - 1e-9

    def test_lower_bounds_only_selection(self):
        # Gains are strictly positive for positive weights, so greedy
        # stops at the smallest feasible edge count.
        rng = np.random.default_rng(313)
        for _ in range(30):
            inst = random_instance(rng, right_constrained=True)
            rep = solve_diverse_greedy(inst)
            assert len(rep.matching.edges) == sum(inst.bounds.r_lo)


class TestDeterminismAndOrder:
    def test_same_input_same_output(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            inst = random_instance(rng)
            a = solve_diverse_greedy(inst)
            b = solve_diverse_greedy(inst)
            assert a.status == b.status
            if a.matching is not None:
                assert a.matching.edges == b.matching.edges


class TestFastPath:
    def test_matches_general_greedy_bit_for_bit(self):
        rng = np.random.default_rng(331)
        for _ in range(200):
            inst = random_instance(rng, right_constrained=True)
            fast, fast_evals = greedy._per_right_node(inst)
            slow, slow_evals, dead_end = greedy._round_based(inst)
            assert dead_end == ""
            assert fast.edges == slow.edges
            assert diversity_cost(inst, fast) == diversity_cost(inst, slow)
            assert fast_evals == slow_evals
            rep = solve_diverse_greedy(inst)
            assert rep.telemetry["fast_path"] is True
            assert rep.matching.edges == fast.edges
            assert rep.telemetry["gain_evaluations"] == fast_evals

    def test_falls_back_when_left_side_constrained(self):
        # Two-sided instances dispatch to the round-based path.
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        bounds = DegreeBounds.broadcast(2, 2, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = solve_diverse_greedy(inst)
        assert rep.status == FEASIBLE_INCUMBENT
        assert rep.telemetry["fast_path"] is False
        slow, slow_evals, _ = greedy._round_based(inst)
        assert rep.matching.edges == slow.edges
        assert rep.telemetry["gain_evaluations"] == slow_evals
        rng = np.random.default_rng(332)
        for _ in range(40):
            inst = random_instance(rng)
            rep = solve_diverse_greedy(inst)
            if rep.status == FEASIBLE_INCUMBENT:
                assert rep.telemetry["fast_path"] is inst.right_only

    def test_counts_gain_evaluations(self):
        inst = spread_instance()
        rep = solve_diverse_greedy(inst)
        assert rep.telemetry["gain_evaluations"] > 0


def reference_partners(res, side, node):
    """The per-candidate check safe_partners() replaces: take, count, restore."""
    usable = res.usable()
    partners = np.nonzero(usable[node] if side == "left" else usable[:, node])[0]
    out = []
    for p in partners.tolist():
        i, j = (node, p) if side == "left" else (p, node)
        res.closed[i, j] = True
        res.deg_l[i] += 1
        res.deg_r[j] += 1
        if counting_feasible(res, res.usable()):
            out.append(p)
        res.closed[i, j] = False
        res.deg_l[i] -= 1
        res.deg_r[j] -= 1
    return out


class TestSafePartners:
    def test_matches_per_candidate_check(self):
        # Random walks of takes and forbids; at every state each node's
        # partner list must equal the take-count-restore reference.
        rng = np.random.default_rng(341)
        checked = partial = 0
        for trial in range(400):
            inst = random_instance(rng, max_m=7, max_n=7, max_cells=49,
                                   per_node=trial % 2 == 0)
            if not is_feasible_bounds(inst)[0]:
                continue
            res = Residual(inst)
            while True:
                usable = res.usable()
                takes = []
                for side, count in (("left", inst.m), ("right", inst.n)):
                    for node in range(count):
                        ref = reference_partners(res, side, node)
                        got = res.safe_partners(side, node)
                        assert got == ref, (trial, side, node)
                        row = usable[node] if side == "left" else usable[:, node]
                        checked += 1
                        partial += 0 < len(ref) < row.sum()
                        if side == "left":
                            takes += [(node, j, True) for j in ref]
                # one random forbid that keeps the counting check
                forbids = []
                for i, j in rng.permutation(np.argwhere(usable)).tolist():
                    res.closed[i, j] = True
                    if counting_feasible(res, res.usable()):
                        forbids = [(i, j, False)]
                    res.closed[i, j] = False
                    if forbids:
                        break
                moves = [m for m in (takes, forbids) if m]
                if not moves:
                    break
                pool = moves[int(rng.integers(len(moves)))]
                res.decide(*pool[int(rng.integers(len(pool)))])
        assert partial >= 1000, (checked, partial)


def reference_pick(res, side, node, round_i):
    """The per-candidate loop _pick replaced: one gain at a time, ranked
    by (preference, -gain) with a strict comparison."""
    partners = res.safe_partners(side, node)
    if side == "left":
        cands = [(node, p) for p in partners]
    else:
        cands = [(p, node) for p in partners]
    if not cands:
        return None, 0
    best, best_gain, best_pref = None, math.inf, False
    for i, j in cands:
        if side == "left":
            opp_owing = res.deg_r[j] < min(round_i, res.r_lo[j])
        else:
            opp_owing = res.deg_l[i] < min(round_i, res.l_lo[i])
        gain = res.sums.gain(i, j)
        # preference first, then gain, then (left, right) via scan order
        if (opp_owing, -gain) > (best_pref, -best_gain):
            best, best_gain, best_pref = (i, j), gain, opp_owing
    return best, len(cands)


class TestPick:
    def test_matches_per_candidate_loop_on_tied_weights(self, monkeypatch):
        # Weights in {0, 1, 2} tie often, so the pick's tie rule (first
        # candidate in scan order) and the doubly-owing preference both
        # decide edges here.
        rng = np.random.default_rng(351)
        dead_ends = 0
        for trial in range(240):
            inst = random_instance(rng, max_m=7, max_n=7, max_cells=49,
                                   per_node=trial % 2 == 0)
            inst = Instance(np.floor(3 * inst.weights), inst.clusters,
                            inst.k, inst.bounds)
            got = greedy._round_based(inst)
            with monkeypatch.context() as patch:
                patch.setattr(greedy, "_pick", reference_pick)
                ref = greedy._round_based(inst)
            assert (got[0] is None) == (ref[0] is None), trial
            if got[0] is not None:
                assert got[0].edges == ref[0].edges, trial
            assert got[1:] == ref[1:], trial
            dead_ends += got[0] is None
        assert 10 <= dead_ends <= 230


SCALING_200X100 = GeneratorConfig(m=200, n=100, k=5, l_lo=1, l_hi=100,
                                  r_lo=3, r_hi=200, seed=(23, 200))


class TestScaling200x100:
    def test_pinned_output(self):
        rep = solve_diverse_greedy(gen_instance(SCALING_200X100))
        assert rep.telemetry["gain_evaluations"] == 42012
        assert rep.diversity_cost == 0.43364405423082375
        edges = json.dumps(sorted(map(list, rep.matching.edges)))
        digest = hashlib.sha256(edges.encode()).hexdigest()[:16]
        assert digest == "9b360d5898440e0d"

    def test_budget_reaches_the_search(self):
        rep = solve_diverse_exact(gen_instance(SCALING_200X100), budget_ms=1000)
        assert rep.status == FEASIBLE_INCUMBENT
        assert rep.telemetry["expanded"] > 0
