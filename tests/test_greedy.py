"""Tests for the greedy diverse solver and its per-right-node fast path."""

import hashlib
import json
import math

import numpy as np
import pytest

from divmatch import (
    DegreeBounds,
    EnumerationBudget,
    FEASIBLE_INCUMBENT,
    GeneratorConfig,
    INFEASIBLE,
    Instance,
    Matching,
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
from divmatch.errors import InternalError
from conftest import counting_feasible, dead_end_instance, random_instance


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


class TestDeadEnd:
    def test_reports_the_stuck_node(self):
        inst = dead_end_instance()
        assert is_feasible_bounds(inst)[0]
        rep = solve_diverse_greedy(inst)
        assert rep.status == INFEASIBLE and rep.matching is None
        assert rep.diagnostic.startswith("greedy dead end: left node 1 ")
        assert rep.telemetry == {"gain_evaluations": 4}


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


def _reference_per_right_node(inst):
    """The per-column loop that _per_right_node's take rounds replaced:
    each right node in turn, one take at a time."""
    clusters = inst.clusters
    edges = []
    gain_evaluations = 0
    for j in range(inst.n):
        col = inst.weights[:, j]
        sums_c = np.zeros(inst.k, dtype=np.float64)
        taken = np.zeros(inst.m, dtype=bool)
        for _ in range(inst.bounds.r_lo[j]):
            gains = np.where(taken, math.inf,
                             col * col + (2.0 * col) * sums_c[clusters])
            gain_evaluations += int((~taken).sum())
            i = int(np.argmin(gains))
            taken[i] = True
            sums_c[clusters[i]] += col[i]
            edges.append((i, j))
    return Matching(edges), gain_evaluations


class TestFastPath:
    def test_matches_per_column_loop(self):
        # Half the draws have half-integer weights in [0, 2), which tie
        # often, so the lowest-left-index tie rule decides edges.
        rng = np.random.default_rng(333)
        seen = {"tied": 0, "r_lo = 0 column": 0, "r_lo = m column": 0}
        for trial in range(320):
            m, n = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            k = int(rng.integers(1, m + 1))
            clusters = rng.permutation(
                np.concatenate((np.arange(k), rng.integers(0, k, m - k))))
            weights = rng.random((m, n))
            if trial % 2:
                weights = np.floor(4 * weights) / 2
            r_lo = rng.integers(0, m + 1, n)
            bounds = DegreeBounds.broadcast(m, n, 0, n, r_lo, m)
            inst = Instance(weights, clusters, k, bounds)
            assert inst.right_only
            got = greedy._per_right_node(inst)
            ref = _reference_per_right_node(inst)
            assert got[0].edges == ref[0].edges, trial
            assert got[1] == ref[1], trial
            seen["tied"] += trial % 2
            seen["r_lo = 0 column"] += bool(np.any(r_lo == 0))
            seen["r_lo = m column"] += bool(np.any(r_lo == m))
        assert min(seen.values()) >= 100, seen

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
    """The per-candidate check safe_mask() replaces: take, count from
    scratch, undo."""
    usable = res.usable()
    partners = np.nonzero(usable[node] if side == "left" else usable[:, node])[0]
    out = []
    for p in partners.tolist():
        i, j = (node, p) if side == "left" else (p, node)
        res.decide(i, j, True)
        if counting_feasible(res, res.usable()):
            out.append(p)
        res.undo(i, j, True)
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
                        got = np.flatnonzero(
                            res.safe_mask(side, node)).tolist()
                        assert got == ref, (trial, side, node)
                        row = usable[node] if side == "left" else usable[:, node]
                        checked += 1
                        partial += 0 < len(ref) < row.sum()
                        if side == "left":
                            takes += [(node, j, True) for j in ref]
                # one random forbid that keeps the counting check
                forbids = []
                for i, j in rng.permutation(np.argwhere(usable)).tolist():
                    res.decide(i, j, False)
                    if counting_feasible(res, res.usable()):
                        forbids = [(i, j, False)]
                    res.undo(i, j, False)
                    if forbids:
                        break
                moves = [m for m in (takes, forbids) if m]
                if not moves:
                    break
                pool = moves[int(rng.integers(len(moves)))]
                res.decide(*pool[int(rng.integers(len(pool)))])
        assert partial >= 1000, (checked, partial)


def kept_counts_hold(res):
    """Whether every value res keeps for the counting check equals a
    count from scratch: needs, free masks, slacks, owed totals and the
    taken count."""
    deg_l, deg_r = res.taken.sum(axis=1), res.taken.sum(axis=0)
    need_l, need_r = res.l_lo - deg_l, res.r_lo - deg_r
    free_l, free_r = deg_l < res.l_hi, deg_r < res.r_hi
    open_ = ~res.closed
    slack_l = (open_ & free_r).sum(axis=1) - need_l
    slack_r = (open_ & free_l[:, None]).sum(axis=0) - need_r
    kept = [(res.deg_l, deg_l), (res.deg_r, deg_r),
            (res.need_l, need_l), (res.need_r, need_r),
            (res.free_l, free_l), (res.free_r, free_r),
            (res.slack_l, slack_l), (res.slack_r, slack_r),
            (res.owed_l, np.maximum(need_l, 0).sum()),
            (res.owed_r, np.maximum(need_r, 0).sum()),
            (res.n_taken, res.taken.sum())]
    return all(np.array_equal(got, want) for got, want in kept)


class TestKeptCounts:
    def test_match_a_count_from_scratch_on_random_walks(self):
        # Takes, forbids of usable and unusable edges, and undos back to
        # the root; the kept values must equal a fresh count after each
        # step.
        rng = np.random.default_rng(361)
        states, fills = 0, [0, 0]  # rows and columns filled
        for trial in range(300):
            inst = random_instance(rng, max_m=7, max_n=7, max_cells=49,
                                   per_node=trial % 2 == 0)
            res = Residual(inst)
            assert kept_counts_hold(res), trial
            trail = []
            for _ in range(60):
                edges = np.argwhere(~res.closed)
                if trail and (len(edges) == 0 or rng.random() < 0.3):
                    res.undo(*trail.pop())
                else:
                    i, j = (int(v) for v in edges[rng.integers(len(edges))])
                    take = bool(res.usable()[i, j] and rng.random() < 0.7)
                    res.decide(i, j, take)
                    trail.append((i, j, take))
                    if take:
                        fills[0] += int(res.deg_l[i] == res.l_hi[i])
                        fills[1] += int(res.deg_r[j] == res.r_hi[j])
                assert kept_counts_hold(res), trial
                states += 1
            while trail:
                res.undo(*trail.pop())
                assert kept_counts_hold(res), trial
                states += 1
            assert not res.closed.any() and not res.deg_l.any()
        assert states >= 20000 and min(fills) >= 1000, (states, fills)

    def test_decide_on_closed_edge_raises(self):
        res = Residual(spread_instance())
        res.decide(0, 0, False)
        with pytest.raises(InternalError, match="closed edge"):
            res.decide(0, 0, False)
        with pytest.raises(InternalError, match="closed edge"):
            res.decide(0, 0, True)
        assert kept_counts_hold(res)

    def test_undo_on_open_edge_raises(self):
        res = Residual(spread_instance())
        with pytest.raises(InternalError, match="open edge"):
            res.undo(1, 0, False)
        res.decide(1, 0, True)
        res.undo(1, 0, True)
        with pytest.raises(InternalError, match="open edge"):
            res.undo(1, 0, True)
        assert kept_counts_hold(res) and not res.taken.any()


def reference_pick(res, side, node, round_i):
    """The per-candidate loop _pick replaced: one gain at a time, ranked
    by (preference, -gain) with a strict comparison."""
    partners = np.flatnonzero(res.safe_mask(side, node)).tolist()
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


class TestPinnedTwoSided:
    def test_pinned_output_at_the_bnb_proof_shape(self):
        # 8x6 with every left node owing one edge and every right node
        # two, as in perfbench's bnb-proof workload: the round-based path
        # with both sides' counting checks in play.
        solves = []
        for k in (3, 4):
            for t in range(4):
                rep = solve_diverse_greedy(gen_instance(GeneratorConfig(
                    m=8, n=6, k=k, l_lo=1, l_hi=6, r_lo=2, r_hi=8,
                    seed=(2026, k, t))))
                assert rep.telemetry["fast_path"] is False
                solves.append([list(map(list, rep.matching.edges)),
                               rep.telemetry["gain_evaluations"]])
        digest = hashlib.sha256(json.dumps(solves).encode()).hexdigest()
        assert digest == ("4f6a43380a9d00c8eaf63813f8e2dc11"
                          "8d647d7562f830aa00617a15084e7784")


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
