"""Tests for the brute-force enumeration oracle."""

import math

import numpy as np
import pytest

from divmatch import (
    ConfigError,
    DegreeBounds,
    EnumerationBudget,
    INFEASIBLE,
    Instance,
    Matching,
    OBJECTIVE_DIVERSITY,
    OBJECTIVE_WEIGHT,
    OPTIMAL,
    SizeCapError,
    brute_force,
    check_matching,
    diversity_cost,
    enumerate_pod,
    is_feasible_bounds,
    pod_lower_bound,
    total_weight,
)
from divmatch import oracle
from conftest import random_instance


class _TickingClock:
    """A stand-in for the time module whose perf_counter advances 1 s
    per reading."""

    def __init__(self):
        self.readings = 0

    def perf_counter(self):
        self.readings += 1
        return float(self.readings)


class TestBudgetDiscipline:
    def test_refuses_oversized_search_space(self):
        weights = np.ones((5, 5))
        bounds = DegreeBounds.broadcast(5, 5, 0, 5, 0, 5)
        inst = Instance(weights, np.zeros(5, dtype=int), 1, bounds)
        budget = EnumerationBudget(max_subsets=1 << 20, max_wall_s=60.0)
        with pytest.raises(SizeCapError):
            brute_force(inst, OBJECTIVE_WEIGHT, budget)

    def test_refuses_on_wall_clock(self):
        weights = np.ones((4, 4))
        bounds = DegreeBounds.broadcast(4, 4, 0, 4, 0, 4)
        inst = Instance(weights, np.zeros(4, dtype=int), 1, bounds)
        budget = EnumerationBudget(max_subsets=1 << 20, max_wall_s=0.0)
        with pytest.raises(SizeCapError):
            brute_force(inst, OBJECTIVE_WEIGHT, budget)

    def test_refuses_mid_scan(self, monkeypatch):
        # brute_force reads the clock at the start, before every block and
        # at the end, so 2.5 s on a clock that ticks 1 s per reading lets
        # two blocks run and refuses the third
        inst = Instance(np.ones((4, 4)), np.zeros(4, dtype=int), 1,
                        DegreeBounds.broadcast(4, 4, 0, 4, 0, 4))
        clock = _TickingClock()
        monkeypatch.setattr(oracle, "time", clock)
        rep = brute_force(inst, OBJECTIVE_WEIGHT,
                          EnumerationBudget(max_wall_s=100.0))
        assert rep.status == OPTIMAL
        assert clock.readings - 2 >= 4
        clock.readings = 0
        with pytest.raises(SizeCapError):
            brute_force(inst, OBJECTIVE_WEIGHT,
                        EnumerationBudget(max_wall_s=2.5))
        assert clock.readings == 4

    @pytest.mark.parametrize("fields", [
        {"max_wall_s": float("nan")}, {"max_wall_s": -1.0},
        {"max_wall_s": True}, {"max_subsets": 0}, {"max_subsets": -4},
        {"max_subsets": True}, {"max_subsets": 1.5},
    ])
    def test_budget_rejects_bad_fields(self, fields):
        with pytest.raises(ConfigError):
            EnumerationBudget(**fields)


class TestKnownAnswers:
    def test_forced_complete_instance(self):
        # Every edge of the 3 x 2 grid is forced by tight bounds, so the
        # unique feasible matching has weight 6 with unit weights.
        weights = np.ones((3, 2))
        bounds = DegreeBounds.broadcast(3, 2, 2, 2, 3, 3)
        inst = Instance(weights, np.array([0, 0, 1]), 2, bounds)
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.status == OPTIMAL
        assert len(rep.matching.edges) == 6
        np.testing.assert_allclose(rep.total_weight, 6.0)

    def test_two_by_two_tie_takes_lexicographic_least(self):
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        bounds = DegreeBounds.broadcast(2, 2, 1, 1, 1, 1)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.matching.edges == ((0, 0), (1, 1))
        np.testing.assert_allclose(rep.total_weight, 5.0)

    def test_empty_lower_bounds(self):
        weights = np.array([[0.5, 0.25], [0.75, 1.0]])
        bounds = DegreeBounds.broadcast(2, 2, 0, 2, 0, 2)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.matching.edges == ()

    def test_infeasible_detected(self):
        bounds = DegreeBounds.broadcast(2, 2, 0, 1, 2, 2)
        inst = Instance(np.ones((2, 2)), np.array([0, 0]), 1, bounds)
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.status == INFEASIBLE
        assert rep.matching is None


class TestSelfConsistency:
    def test_reported_objectives_recompute(self):
        rng = np.random.default_rng(601)
        for _ in range(40):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=14)
            for objective in (OBJECTIVE_WEIGHT, OBJECTIVE_DIVERSITY):
                rep = brute_force(inst, objective)
                feasible, _ = is_feasible_bounds(inst)
                assert (rep.status == OPTIMAL) == feasible
                if rep.matching is None:
                    continue
                ok, violations = check_matching(inst, rep.matching)
                assert ok, violations
                np.testing.assert_allclose(
                    rep.total_weight, total_weight(inst, rep.matching),
                    rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(
                    rep.diversity_cost, diversity_cost(inst, rep.matching),
                    rtol=1e-9, atol=1e-12)

    def test_optimum_beats_random_feasible_subsets(self):
        rng = np.random.default_rng(602)
        for _ in range(25):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=12)
            rep = brute_force(inst, OBJECTIVE_DIVERSITY)
            if rep.matching is None:
                continue
            cells = inst.m * inst.n
            for _ in range(50):
                code = int(rng.integers(0, 1 << cells))
                edges = [(b // inst.n, b % inst.n)
                         for b in range(cells) if code >> b & 1]
                from divmatch import Matching
                match = Matching(edges)
                ok, _ = check_matching(inst, match)
                if not ok:
                    continue
                assert (diversity_cost(inst, match)
                        >= rep.diversity_cost - 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(603)
        for _ in range(15):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=12)
            a = brute_force(inst, OBJECTIVE_DIVERSITY)
            b = brute_force(inst, OBJECTIVE_DIVERSITY)
            assert a.status == b.status
            if a.matching is not None:
                assert a.matching.edges == b.matching.edges

    def test_telemetry_counts_subsets(self):
        weights = np.ones((2, 2))
        bounds = DegreeBounds.broadcast(2, 2, 0, 2, 0, 2)
        inst = Instance(weights, np.array([0, 1]), 2, bounds)
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.telemetry["subsets"] == 16
        assert rep.telemetry["feasible"] == 16


class TestEnumeratePod:
    def test_unit_weights_give_pod_one(self):
        weights = np.ones((3, 2))
        bounds = DegreeBounds.broadcast(3, 2, 0, 2, 1, 3)
        inst = Instance(weights, np.array([0, 0, 1]), 2, bounds)
        pod, eg, reports = enumerate_pod(inst)
        np.testing.assert_allclose(pod, 1.0)
        assert reports["weight"].status == OPTIMAL
        assert reports["diversity"].status == OPTIMAL

    def test_single_cluster_flags_eg(self):
        weights = np.array([[0.2], [0.4]])
        bounds = DegreeBounds.broadcast(2, 1, 0, 1, 2, 2)
        inst = Instance(weights, np.array([0, 0]), 1, bounds)
        pod, eg, _ = enumerate_pod(inst)
        np.testing.assert_allclose(pod, 1.0)
        assert eg is None

    def test_efficiency_floor_holds_when_only_rights_constrained(self):
        # At optimality the efficiency ratio respects the weighted-harmonic
        # per-node floor on instances whose left side is unconstrained.
        rng = np.random.default_rng(604)
        checked = 0
        for _ in range(100):
            inst = random_instance(rng, max_m=4, max_n=3, max_cells=12,
                                   right_constrained=True)
            pod, _, reports = enumerate_pod(inst)
            if pod is None:
                continue
            bound, _ = pod_lower_bound(inst, reports["weight"].matching)
            assert pod >= bound - 1e-9
            checked += 1
        assert checked >= 50


def _reference_brute_force(inst):
    """The full scan over all 2^(m*n) edge subsets that the row-bounded
    product replaced, for both objectives in one pass.  Returns each
    objective's optimal edges (None if infeasible) and the number of
    feasible subsets."""
    m, n = inst.m, inst.n
    num_edges = m * n
    total = 1 << num_edges
    b = inst.bounds
    proj = np.zeros((num_edges, n * inst.k))
    for i in range(m):
        for j in range(n):
            proj[i * n + j, j * inst.k + inst.clusters[i]] = inst.weights[i, j]
    best = {OBJECTIVE_WEIGHT: (math.inf, None),
            OBJECTIVE_DIVERSITY: (math.inf, None)}
    feasible = 0
    for lo in range(0, total, 1 << 14):
        codes = np.arange(lo, min(lo + (1 << 14), total), dtype=np.uint64)
        bits = ((codes[:, None] >> np.arange(num_edges, dtype=np.uint64))
                & np.uint64(1)).astype(np.float64)
        shaped = bits.reshape(len(codes), m, n)
        deg_l, deg_r = shaped.sum(axis=2), shaped.sum(axis=1)
        ok = (np.all(deg_l >= np.array(b.l_lo), axis=1)
              & np.all(deg_l <= np.array(b.l_hi), axis=1)
              & np.all(deg_r >= np.array(b.r_lo), axis=1)
              & np.all(deg_r <= np.array(b.r_hi), axis=1))
        feasible += int(ok.sum())
        if not ok.any():
            continue
        sums = bits @ proj
        for objective, values in (
                (OBJECTIVE_WEIGHT, bits @ inst.weights.reshape(-1)),
                (OBJECTIVE_DIVERSITY, np.einsum("ij,ij->i", sums, sums))):
            values = np.where(ok, values, math.inf)
            chunk_best = float(values.min())
            best_value, best_edges = best[objective]
            if chunk_best > best_value:
                continue
            if chunk_best < best_value:
                best_value, best_edges = chunk_best, None
            for code in codes[values == best_value]:
                edges = tuple((e // n, e % n) for e in range(num_edges)
                              if int(code) >> e & 1)
                if best_edges is None or edges < best_edges:
                    best_edges = edges
            best[objective] = best_value, best_edges
    return {objective: edges for objective, (_, edges) in best.items()}, feasible


class TestPrunedEnumeration:
    def test_matches_the_full_scan(self):
        rng = np.random.default_rng(1307)
        seen = {"1 x n": 0, "m x 1": 0, "right only": 0, "L_hi = 0 row": 0,
                "R_hi = 0 column": 0, "tied weights": 0, "infeasible": 0,
                "optimal": 0}
        for trial in range(320):
            if trial % 8 == 0:
                m, n = 1, int(rng.integers(1, 13))
            elif trial % 8 == 1:
                m, n = int(rng.integers(1, 13)), 1
            else:
                # the reference scan doubles in cost with every cell, so
                # only one instance in eight reaches the full 20 cells
                cells = 20 if trial % 8 == 2 else 12
                m, n = 6, 6
                while m * n > cells:
                    m, n = (int(x) for x in rng.integers(2, 6, 2))
            k = int(rng.integers(1, m + 1))
            clusters = rng.permutation(
                np.concatenate((np.arange(k), rng.integers(0, k, m - k))))
            weights = rng.random((m, n))
            if trial % 2:
                weights = np.floor(3 * weights)
            r_hi = rng.integers(0, m + 1, n)
            r_lo = rng.integers(0, r_hi + 1)
            if trial % 3 == 0:
                l_lo, l_hi = np.zeros(m, dtype=int), np.full(m, n)
            else:
                l_hi = rng.integers(0, n + 1, m)
                l_lo = rng.integers(0, l_hi + 1)
            bounds = DegreeBounds.broadcast(m, n, l_lo, l_hi, r_lo, r_hi)
            inst = Instance(weights, clusters, k, bounds)
            optima, feasible = _reference_brute_force(inst)
            for objective, edges in optima.items():
                rep = brute_force(inst, objective)
                assert rep.telemetry["feasible"] == feasible
                if edges is None:
                    assert rep.status == INFEASIBLE
                    continue
                assert rep.status == OPTIMAL
                assert rep.matching.edges == edges
                match = Matching(edges)
                assert rep.total_weight == total_weight(inst, match)
                assert rep.diversity_cost == diversity_cost(inst, match)
            seen["1 x n"] += m == 1
            seen["m x 1"] += n == 1
            seen["right only"] += inst.right_only
            seen["L_hi = 0 row"] += bool(np.any(l_hi == 0))
            seen["R_hi = 0 column"] += bool(np.any(r_hi == 0))
            seen["tied weights"] += trial % 2
            seen["infeasible"] += rep.status == INFEASIBLE
            seen["optimal"] += rep.status == OPTIMAL
        assert min(seen.values()) >= 30, seen

    def test_enumerates_only_rows_within_their_bounds(self):
        tight = Instance(np.ones((3, 2)), np.array([0, 0, 1]), 2,
                         DegreeBounds.broadcast(3, 2, 2, 2, 3, 3))
        open_ = Instance(np.ones((2, 2)), np.array([0, 1]), 2,
                         DegreeBounds.broadcast(2, 2, 0, 2, 0, 2))
        assert brute_force(tight).telemetry == {
            "subsets": 64, "enumerated": 1, "feasible": 1}
        assert brute_force(open_).telemetry == {
            "subsets": 16, "enumerated": 16, "feasible": 16}

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunk_size_does_not_change_the_answer(self, monkeypatch, chunk):
        rng = np.random.default_rng(1311)
        cases = {
            # one row: the outer half is empty
            "1 x n": (rng.random((1, 6)), [0], 1,
                      (1, 4, (1, 0, 0, 1, 0, 0), 1)),
            "L_hi = 0 row": (rng.random((3, 3)), [0, 1, 0], 2,
                             ((0, 0, 1), (2, 0, 3), 0, 2)),
            # row tables of 4, 16, 6 and 4 masks: the outer half is row 0
            "unequal rows": (rng.random((4, 4)), [0, 1, 2, 0], 3,
                             ((1, 0, 2, 3), (1, 4, 2, 3), 1, 3)),
            "infeasible": (rng.random((3, 3)), [0, 1, 1], 2, (0, 1, 2, 3)),
            "tied weights": (np.floor(3 * rng.random((3, 4))), [0, 1, 0], 2,
                             (1, 3, 1, 2)),
        }
        answers = {}
        for chunk_size in (oracle._CHUNK, chunk):
            monkeypatch.setattr(oracle, "_CHUNK", chunk_size)
            for name, (weights, clusters, k, bounds) in cases.items():
                m, n = weights.shape
                inst = Instance(weights, np.array(clusters), k,
                                DegreeBounds.broadcast(m, n, *bounds))
                for objective in (OBJECTIVE_WEIGHT, OBJECTIVE_DIVERSITY):
                    rep = brute_force(inst, objective)
                    got = (rep.status, rep.telemetry, None
                           if rep.matching is None else rep.matching.edges)
                    assert answers.setdefault((name, objective), got) == got
        assert [answers[name, OBJECTIVE_WEIGHT][0] for name in cases] == [
            OPTIMAL, OPTIMAL, OPTIMAL, INFEASIBLE, OPTIMAL]


class TestAtTheSubsetCap:
    """1 x 20 and 20 x 1 instances hold exactly the default subset cap,
    2^20, and have closed-form weight optima and feasible counts."""

    def test_one_row_of_twenty(self):
        rng = np.random.default_rng(1409)
        r_lo = np.array([1, 0] * 10)[rng.permutation(20)]
        inst = Instance(rng.random((1, 20)) + 0.1, np.array([0]), 1,
                        DegreeBounds.broadcast(1, 20, 0, 20, r_lo, 1))
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        assert rep.matching.edges == tuple(
            (0, j) for j in np.flatnonzero(r_lo).tolist())
        assert rep.telemetry == {"subsets": 1 << 20, "enumerated": 1 << 20,
                                 "feasible": 1 << int(np.sum(r_lo == 0))}

    def test_one_column_of_twenty(self):
        rng = np.random.default_rng(1410)
        weights = (rng.permutation(20) + 1.0).reshape(20, 1)
        inst = Instance(weights, np.arange(20) % 3, 3,
                        DegreeBounds.broadcast(20, 1, 0, 1, 3, 7))
        rep = brute_force(inst, OBJECTIVE_WEIGHT)
        lightest = sorted(np.argsort(weights[:, 0])[:3].tolist())
        assert rep.matching.edges == tuple((i, 0) for i in lightest)
        assert rep.telemetry == {
            "subsets": 1 << 20, "enumerated": 1 << 20,
            "feasible": sum(math.comb(20, d) for d in range(3, 8))}
