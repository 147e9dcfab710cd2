"""Tests for the instance model: bounds, validation, matchings, file I/O."""

import copy
import itertools
import json
import pickle
import re

import numpy as np
import pytest

from divmatch import (
    INFEASIBLE,
    OBJECTIVE_WEIGHT,
    OPTIMAL,
    DegreeBounds,
    Instance,
    InstanceError,
    Matching,
    MatchingError,
    brute_force,
    check_matching,
    is_feasible_bounds,
    load_instance,
    load_matching,
    reduce_to_circulation,
    save_instance,
    save_matching,
    solve_diverse_exact,
    solve_diverse_greedy,
    solve_min_weight,
    transform_max_to_min,
)
from divmatch import instance
from conftest import random_instance


def tiny_instance():
    weights = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    clusters = np.array([0, 0, 1])
    bounds = DegreeBounds.broadcast(3, 2, 0, 2, 1, 3)
    return Instance(weights, clusters, 2, bounds)


def unit_instance(m, n, l_lo, l_hi, r_lo, r_hi):
    """Unit weights, one cluster, per-node bounds."""
    bounds = DegreeBounds.broadcast(m, n, l_lo, l_hi, r_lo, r_hi)
    return Instance(np.ones((m, n)), np.zeros(m, dtype=int), 1, bounds)


def named_culprit(why):
    """(side, node ids) that an infeasibility diagnostic names."""
    side, ids = re.match(r"(left|right) nodes? ([\d, and]+) cannot",
                         why).groups()
    return side, [int(v) for v in re.findall(r"\d+", ids)]


class TestDegreeBounds:
    def test_broadcast_scalars(self):
        b = DegreeBounds.broadcast(3, 2, 0, 2, 1, 3)
        assert b.l_lo == (0, 0, 0)
        assert b.l_hi == (2, 2, 2)
        assert b.r_lo == (1, 1)
        assert b.r_hi == (3, 3)

    def test_broadcast_sequences(self):
        b = DegreeBounds.broadcast(2, 2, [0, 1], [1, 2], (0, 0), (2, 1))
        assert b.l_lo == (0, 1)
        assert b.r_hi == (2, 1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(InstanceError):
            DegreeBounds.broadcast(2, 2, 2, 1, 0, 2)

    def test_rejects_negative_lower(self):
        with pytest.raises(InstanceError):
            DegreeBounds.broadcast(2, 2, -1, 1, 0, 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(InstanceError):
            DegreeBounds.broadcast(3, 2, [0, 0], 2, 1, 3)

    def test_rejects_zero_dim_array(self):
        with pytest.raises(InstanceError, match="L_lo must be an integer"):
            DegreeBounds.broadcast(3, 2, np.array(0), 2, 1, 3)

    def test_direct_construction_stores_python_int_tuples(self):
        b = DegreeBounds([0, 1], np.array([2, 2]), (np.int8(1), 0), [2, 1])
        assert b == DegreeBounds.broadcast(2, 2, [0, 1], 2, [1, 0], [2, 1])
        for field in (b.l_lo, b.l_hi, b.r_lo, b.r_hi):
            assert type(field) is tuple
            assert all(type(v) is int for v in field)


class TestInstanceValidation:
    def test_accepts_valid(self):
        inst = tiny_instance()
        assert inst.m == 3 and inst.n == 2 and inst.k == 2

    def test_rejects_negative_weight(self):
        with pytest.raises(InstanceError):
            Instance(np.array([[-1.0, 2.0]]), np.array([0]), 1,
                     DegreeBounds.broadcast(1, 2, 0, 2, 0, 1))

    def test_rejects_nonfinite_weight(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InstanceError):
                Instance(np.array([[bad, 2.0]]), np.array([0]), 1,
                         DegreeBounds.broadcast(1, 2, 0, 2, 0, 1))

    def test_rejects_cluster_id_out_of_range(self):
        with pytest.raises(InstanceError):
            Instance(np.ones((2, 2)), np.array([0, 2]), 2,
                     DegreeBounds.broadcast(2, 2, 0, 2, 0, 2))

    def test_rejects_unused_cluster_id(self):
        with pytest.raises(InstanceError):
            Instance(np.ones((2, 2)), np.array([0, 0]), 2,
                     DegreeBounds.broadcast(2, 2, 0, 2, 0, 2))

    def test_rejects_upper_bound_above_degree_cap(self):
        with pytest.raises(InstanceError):
            Instance(np.ones((2, 2)), np.array([0, 1]), 2,
                     DegreeBounds.broadcast(2, 2, 0, 3, 0, 2))

    def test_rejects_non_numeric_weight(self):
        with pytest.raises(InstanceError, match="weights"):
            Instance([[1, "a"], [1, 1]], [0, 1], 2,
                     DegreeBounds.broadcast(2, 2, 0, 2, 0, 2))

    def test_rejects_non_integer_k(self):
        with pytest.raises(InstanceError, match="k must be an integer"):
            Instance(np.ones((2, 2)), np.array([0, 1]), 2.5,
                     DegreeBounds.broadcast(2, 2, 0, 2, 0, 2))

    @pytest.mark.parametrize("weights, clusters, fields, named", [
        (None, [0, 1], {"l_lo": (-1, 0)}, "L_lo[0] = -1, L_hi[0] = 2 break"),
        (None, [0, 1], {"l_lo": (0.5, 0)}, "L_lo[0] must be an integer"),
        (None, [0, 1], {"r_hi": (True, 2)}, "R_hi[0] must be an integer"),
        (None, [0, 1], {"l_hi": (2,)}, "L_lo has 2 entries but L_hi has 1"),
        (None, [0, 1], {"r_hi": (2,)}, "R_lo has 2 entries but R_hi has 1"),
        (None, [0, 1], {"l_hi": (3, 2)},
         "L_hi[0] = 3 break 0 <= lo <= hi <= 2"),
        (None, [0, 1], {"r_lo": (2, 1), "r_hi": (1, 1)},
         "R_lo[0] = 2, R_hi[0] = 1 break"),
        (None, [0, 1], {"r_lo": np.array(0)}, "R_lo must be a sequence"),
        ([["0.5", "1"], ["1", "1"]], [0, 1], {},
         "weights must be real numbers"),
        (np.ones((2, 2), dtype=bool), [0, 1], {},
         "weights must be real numbers"),
        (np.ones((2, 2), dtype=complex), [0, 1], {},
         "weights must be real numbers"),
        ([[1.0, None], [1.0, 1.0]], [0, 1], {},
         "weights must be real numbers"),
        (None, 3, {}, "clusters must be a sequence of integers, got 3"),
        (None, None, {}, "clusters must be a sequence of integers, got None"),
    ], ids=["negative-lo", "float-lo", "bool-hi", "short-l-hi",
            "short-r-hi", "hi-above-n", "inverted", "scalar-field",
            "string-weights", "bool-weights", "complex-weights",
            "object-weights", "scalar-clusters", "none-clusters"])
    def test_direct_construction_is_checked(self, weights, clusters, fields,
                                            named):
        bounds = dict(l_lo=(0, 0), l_hi=(2, 2), r_lo=(0, 0), r_hi=(2, 2))
        bounds.update(fields)
        weights = np.ones((2, 2)) if weights is None else weights
        with pytest.raises(InstanceError, match=re.escape(named)):
            Instance(weights, clusters, 2, DegreeBounds(**bounds))

    def test_immutable(self):
        inst = tiny_instance()
        with pytest.raises(AttributeError):
            inst.k = 5
        with pytest.raises(ValueError):
            inst.weights[0, 0] = 99.0

    def test_equality_and_hash(self):
        a, b = tiny_instance(), tiny_instance()
        assert a == b
        assert hash(a) == hash(b)


class TestMatching:
    def test_sorts_edges(self):
        match = Matching([(2, 1), (0, 0), (1, 1)])
        assert match.edges == ((0, 0), (1, 1), (2, 1))

    def test_rejects_duplicates(self):
        with pytest.raises(MatchingError):
            Matching([(0, 0), (0, 0)])

    def test_rejects_negative_index(self):
        with pytest.raises(MatchingError):
            Matching([(-1, 0)])

    def test_rejects_edge_of_three_indices(self):
        with pytest.raises(MatchingError, match="not an"):
            Matching([(0, 1, 2)])

    def test_rejects_edge_that_is_not_a_pair(self):
        with pytest.raises(MatchingError, match="not an"):
            Matching([5])

    def test_index_integer_check(self):
        match = Matching([(np.int64(1), np.int32(0))])
        assert match.edges == ((1, 0),)
        assert type(match.edges[0][0]) is int
        for bad in (0.7, 1.0, True, np.bool_(False), "0"):
            with pytest.raises(MatchingError, match="must be integers"):
                Matching([(bad, 0)])

    def test_solver_built_matchings_equal_checked_ones(self):
        # Solvers build their matchings with the unchecked constructor;
        # the checked one must give the same edges, as Python ints.
        rng = np.random.default_rng(141)
        solved = 0
        for trial in range(120):
            inst = random_instance(rng, max_m=5, max_n=5, max_cells=20,
                                   right_constrained=trial % 3 == 0,
                                   per_node=trial % 3 == 1)
            for solve in (solve_min_weight, solve_diverse_exact,
                          solve_diverse_greedy):
                match = solve(inst).matching
                if match is None:
                    continue
                assert Matching(list(reversed(match.edges))) == match
                assert all(type(i) is int and type(j) is int
                           for i, j in match.edges)
                solved += 1
        assert solved >= 200
        edges = [(2, 1), (0, 3), (1, 0)]
        assert Matching._trusted(edges) == Matching(edges)

    def test_degrees(self):
        match = Matching([(0, 0), (0, 1), (2, 1)])
        deg_l, deg_r = match.degrees(3, 2)
        np.testing.assert_array_equal(deg_l, [2, 0, 1])
        np.testing.assert_array_equal(deg_r, [1, 2])

    def test_degrees_rejects_out_of_range(self):
        match = Matching([(0, 5)])
        with pytest.raises(MatchingError):
            match.degrees(3, 2)


class TestFeasibility:
    def test_matches_exhaustive_search(self):
        # Independent check: the flow-based feasibility test must agree
        # with literally trying every subset of edges.
        rng = np.random.default_rng(101)
        for _ in range(80):
            inst = random_instance(rng, max_m=3, max_n=4, max_cells=12)
            cells = inst.m * inst.n
            found = False
            for code in range(1 << cells):
                edges = [(b // inst.n, b % inst.n)
                         for b in range(cells) if code >> b & 1]
                deg_l = np.zeros(inst.m, dtype=int)
                deg_r = np.zeros(inst.n, dtype=int)
                for i, j in edges:
                    deg_l[i] += 1
                    deg_r[j] += 1
                ok = (np.all(deg_l >= inst.bounds.l_lo)
                      and np.all(deg_l <= inst.bounds.l_hi)
                      and np.all(deg_r >= inst.bounds.r_lo)
                      and np.all(deg_r <= inst.bounds.r_hi))
                if ok:
                    found = True
                    break
            feasible, why = is_feasible_bounds(inst)
            assert feasible == found, why

    def test_diagnostic_names_overloaded_side(self):
        bounds = DegreeBounds.broadcast(2, 2, 0, 1, 2, 2)
        inst = Instance(np.ones((2, 2)), np.array([0, 0]), 1, bounds)
        feasible, why = is_feasible_bounds(inst)
        assert not feasible
        assert why != ""

    def test_diagnostic_names_the_only_culprit(self):
        # Left node 0 needs 2 edges but right node 1 takes none, so only
        # one right node can serve it: the count fails at left node 0 alone.
        inst = unit_instance(2, 2, (2, 0), (2, 2), (0, 0), (2, 0))
        assert is_feasible_bounds(inst) == (
            False, "left node 0 cannot reach its lower bound 2 "
                   "(right-side capacity too small)")

    def test_diagnostic_names_the_overloaded_set(self):
        # Each of left nodes 0 and 1 meets its bound alone, using right
        # nodes 0 and 1, but together they need 4 edges and those two
        # right nodes admit only 2 + 1.
        inst = unit_instance(3, 3, (2, 2, 0), (2, 2, 0), (0, 0, 0), (2, 1, 0))
        assert is_feasible_bounds(inst) == (
            False, "left nodes 0 and 1 cannot reach their lower bounds "
                   "together (they need 4 edges, right-side capacity "
                   "admits 3)")

    def test_diagnostic_ties_go_to_the_lowest_id(self):
        inst = unit_instance(2, 2, (2, 2), (2, 2), (0, 0), (2, 0))
        assert is_feasible_bounds(inst)[1].startswith("left node 0 cannot")

    def test_reversing_node_order_relabels_the_culprit(self):
        rng = np.random.default_rng(11)
        mapped = 0
        for _ in range(2000):
            inst = random_instance(rng, max_m=7, max_n=7, max_cells=49,
                                   per_node=True)
            b = inst.bounds
            rev = Instance(inst.weights[::-1, ::-1], inst.clusters[::-1],
                           inst.k, DegreeBounds(b.l_lo[::-1], b.l_hi[::-1],
                                                b.r_lo[::-1], b.r_hi[::-1]))
            feasible, why = is_feasible_bounds(inst)
            feasible_rev, why_rev = is_feasible_bounds(rev)
            assert feasible_rev == feasible
            if feasible:
                continue
            side, nodes = named_culprit(why)
            side_rev, nodes_rev = named_culprit(why_rev)
            assert (side_rev, len(nodes_rev)) == (side, len(nodes))
            lo = np.array(b.l_lo if side == "left" else b.r_lo)
            unnamed = np.delete(lo, nodes)
            if unnamed.size and lo[nodes].min() == unnamed.max():
                continue  # a tie: another set of the same size fails too
            assert nodes_rev == sorted(len(lo) - 1 - v for v in nodes)
            mapped += 1
        assert mapped >= 500

    def test_counting_agrees_with_min_cost_flow(self):
        # Two independent methods beyond the oracle's sizes: the count
        # inequalities, and whether a maximum flow on the lowered
        # circulation meets every lower bound.
        rng = np.random.default_rng(23)
        infeasible = 0
        for _ in range(500):
            inst = random_instance(rng, max_m=20, max_n=20, max_cells=400,
                                   per_node=True)
            net = reduce_to_circulation(inst)
            sent, _ = net.graph.min_cost_flow(net.source, net.sink)
            feasible, why = is_feasible_bounds(inst)
            assert feasible == (sent == net.need), why
            infeasible += not feasible
        assert infeasible >= 100

    def test_feasible_per_node_bounds_found_feasible(self):
        # Flow pushed back along a reverse arc must credit its partner
        # arc; crediting the wrong one reports this instance infeasible.
        inst = unit_instance(2, 3, (2, 3), (2, 3), (1, 1, 2), (2, 1, 2))
        assert brute_force(inst, OBJECTIVE_WEIGHT).status == OPTIMAL
        assert is_feasible_bounds(inst) == (True, "feasible")
        for solve in (solve_min_weight, solve_diverse_exact,
                      solve_diverse_greedy):
            rep = solve(inst)
            assert rep.status != INFEASIBLE, solve.__name__
            ok, violations = check_matching(inst, rep.matching)
            assert ok, violations

    def test_infeasible_per_node_bounds_found_infeasible(self):
        # Crediting the wrong partner arc reports this instance feasible,
        # and the flow solvers then fail their own lower-bound check.
        inst = unit_instance(4, 2, (0, 0, 1, 2), (0, 0, 2, 2), (1, 3), (3, 3))
        assert brute_force(inst, OBJECTIVE_WEIGHT).status == INFEASIBLE
        feasible, why = is_feasible_bounds(inst)
        assert not feasible, why
        for solve in (solve_min_weight, solve_diverse_exact,
                      solve_diverse_greedy):
            assert solve(inst).status == INFEASIBLE, solve.__name__

    def test_per_node_bounds_match_exhaustive_search(self):
        rng = np.random.default_rng(5)
        infeasible = 0
        for _ in range(300):
            inst = random_instance(rng, max_m=4, max_n=4, max_cells=16,
                                   per_node=True)
            status = brute_force(inst, OBJECTIVE_WEIGHT).status
            feasible, why = is_feasible_bounds(inst)
            assert feasible == (status == OPTIMAL), why
            assert solve_min_weight(inst).status == status
            infeasible += status == INFEASIBLE
        assert infeasible >= 30


def count_overloads(monkeypatch):
    """Count _first_overload calls, one per side an instance is counted on."""
    calls = [0]
    first_overload = instance._first_overload

    def counted(*args):
        calls[0] += 1
        return first_overload(*args)
    monkeypatch.setattr(instance, "_first_overload", counted)
    return calls


class TestKeptVerdict:
    # The first is_feasible_bounds call keeps its verdict on the instance.
    def test_counted_once_across_all_three_solvers(self, monkeypatch):
        calls = count_overloads(monkeypatch)
        rng = np.random.default_rng(131)
        seen = {"feasible two-sided": 0, "infeasible": 0}
        for trial in range(40):
            inst = random_instance(rng, per_node=trial % 2 == 1)
            calls[0] = 0
            verdict = is_feasible_bounds(inst)
            counted = calls[0]
            # one call per side, unless the left side already fails
            assert counted == 2 if verdict[0] else counted in (1, 2)
            for solve in (solve_min_weight, solve_diverse_greedy,
                          solve_diverse_exact):
                solve(inst)
            assert calls[0] == counted
            assert is_feasible_bounds(inst) is verdict
            seen["feasible two-sided"] += verdict[0] and not inst.right_only
            seen["infeasible"] += not verdict[0]
        assert min(seen.values()) >= 5, seen

    def test_equality_and_hash_ignore_it_and_copies_recount(self,
                                                             monkeypatch):
        calls = count_overloads(monkeypatch)
        inst, fresh = tiny_instance(), tiny_instance()
        verdict = is_feasible_bounds(inst)
        assert calls[0] == 2
        assert inst == fresh and hash(inst) == hash(fresh)
        for back in (pickle.loads(pickle.dumps(inst)), copy.copy(inst),
                     copy.deepcopy(inst)):
            calls[0] = 0
            assert back == inst and hash(back) == hash(inst)
            assert is_feasible_bounds(back) == verdict
            assert calls[0] == 2


class TestCheckMatching:
    def test_reports_violations(self):
        inst = tiny_instance()
        ok, violations = check_matching(inst, Matching([(0, 0)]))
        assert not ok
        assert any("right" in v for v in violations)

    def test_accepts_feasible(self):
        inst = tiny_instance()
        ok, violations = check_matching(inst, Matching([(0, 0), (1, 1)]))
        assert ok and violations == []

    def test_relaxing_bounds_preserves_feasibility(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            inst = random_instance(rng)
            m, n = inst.m, inst.n
            code = int(rng.integers(0, 1 << (m * n)))
            edges = [(b // n, b % n) for b in range(m * n) if code >> b & 1]
            match = Matching(edges)
            ok, _ = check_matching(inst, match)
            if not ok:
                continue
            relaxed = DegreeBounds.broadcast(m, n, 0, n, 0, m)
            loose = Instance(inst.weights, inst.clusters, inst.k, relaxed)
            ok2, violations = check_matching(loose, match)
            assert ok2, violations


class TestSerialization:
    def test_pickle_and_copy_round_trip(self):
        inst = tiny_instance()
        match = Matching([(0, 1), (2, 0)])
        for value in (inst, match):
            for back in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                         copy.deepcopy(value)):
                assert type(back) is type(value)
                assert back == value

    def test_round_trip_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = random_instance(rng)
            back = load_instance(save_instance(inst))
            assert back == inst
            np.testing.assert_array_equal(back.weights, inst.weights)

    def test_scalar_bounds_broadcast_on_load(self):
        doc = ('{"m": 1, "n": 2, "weights": [[1.0, 2.0]], "clusters": [0], '
               '"k": 1, '
               '"bounds": {"L_lo": 0, "L_hi": 2, "R_lo": 0, "R_hi": 1}}')
        inst = load_instance(doc)
        assert inst.bounds.l_hi == (2,)
        assert inst.bounds.r_hi == (1, 1)

    @pytest.mark.parametrize("field, value, named", [
        ("clusters", [0, 1.7], "clusters[1]"),
        ("clusters", [0, True], "clusters[1]"),
        ("clusters", [0, "1"], "clusters[1]"),
        ("clusters", 3, "clusters"),
        ("L_lo", [1.5, 0], "L_lo[0]"),
        ("R_hi", [2, "2"], "R_hi[1]"),
        ("L_hi", [2, False], "L_hi[1]"),
        ("R_lo", "1", "R_lo"),
        ("L_lo", True, "L_lo"),
        ("R_lo", 1.5, "R_lo"),
    ])
    def test_non_integer_labels_and_bounds_rejected(self, field, value,
                                                   named):
        doc = {"m": 2, "n": 2, "k": 2, "weights": [[1.0, 2.0], [3.0, 4.0]],
               "clusters": [0, 1],
               "bounds": {"L_lo": 0, "L_hi": 2, "R_lo": 1, "R_hi": 2}}
        (doc if field == "clusters" else doc["bounds"])[field] = value
        with pytest.raises(InstanceError, match=re.escape(named)):
            load_instance(json.dumps(doc))

    def test_numpy_integer_labels_and_bounds_accepted(self):
        b = DegreeBounds.broadcast(2, 2, np.int32(0), np.array([2, 2]),
                                   np.int64(1), [np.int64(2), 2])
        inst = Instance(np.ones((2, 2)), np.array([0, 1], dtype=np.int8), 2,
                        b)
        assert inst.bounds.l_hi == (2, 2)
        assert inst.clusters.tolist() == [0, 1]

    @pytest.mark.parametrize("fields", [
        (0, 3, 1, 2),
        ([0, 1], [3, 2], [1, 1, 0], [2, 2, 2]),
        (np.array([0, 1]), np.array([3, 2], dtype=np.int32),
         np.array([1, 1, 0], dtype=np.uint8), np.array([2, 2, 2])),
        ((np.int64(0), np.int16(1)), (np.int32(3), 2),
         (1, np.uint64(1), 0), (np.int8(2),) * 3),
    ], ids=["scalars", "lists", "arrays", "numpy-int-tuples"])
    def test_bounds_from_any_input_round_trip(self, fields):
        bounds = (DegreeBounds.broadcast(2, 3, *fields)
                  if np.isscalar(fields[0]) else DegreeBounds(*fields))
        inst = Instance(np.arange(6.0).reshape(2, 3), [0, 1], 2, bounds)
        back = load_instance(save_instance(inst))
        assert back == inst
        assert hash(back) == hash(inst)

    @pytest.mark.parametrize("entry, named", [
        (True, "weights[0][1] is not a number"),
        ("2", "weights must be real numbers"),
        (None, "weights must be real numbers"),
    ])
    def test_non_number_weight_rejected_on_load(self, entry, named):
        doc = {"m": 1, "n": 2, "k": 1, "weights": [[1.0, entry]],
               "clusters": [0],
               "bounds": {"L_lo": 0, "L_hi": 2, "R_lo": 0, "R_hi": 1}}
        with pytest.raises(InstanceError, match=re.escape(named)):
            load_instance(json.dumps(doc))

    def test_malformed_edges_rejected_on_load(self):
        for edges in ([[0, 1, 2]], [5], [["0", 1]], [[True, 0]]):
            with pytest.raises(MatchingError):
                load_matching(json.dumps({"edges": edges}))

    def test_missing_field_is_named(self):
        with pytest.raises(InstanceError, match="bounds"):
            load_instance('{"m": 1, "n": 1, "weights": [[1.0]], '
                          '"clusters": [0], "k": 1}')

    def test_bad_json_is_located(self):
        with pytest.raises(InstanceError, match="line 1"):
            load_instance("{not json")

    def test_matching_round_trip(self):
        match = Matching([(1, 0), (0, 1)])
        assert load_matching(save_matching(match)).edges == match.edges


class TestMaxToMin:
    def test_flips_ordering(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            inst = random_instance(rng)
            flipped = transform_max_to_min(inst)
            np.testing.assert_allclose(
                flipped.weights, inst.weights.max() - inst.weights)
            assert flipped.bounds == inst.bounds
            assert np.all(flipped.weights >= 0.0)
            # The heaviest original edge becomes the cheapest.
            heavy = np.unravel_index(np.argmax(inst.weights),
                                     inst.weights.shape)
            np.testing.assert_allclose(flipped.weights[heavy], 0.0)


class TestEdgeEnumerationOrder:
    def test_lexicographic_pairs(self):
        # Edge (i, j) lives at flat slot i * n + j everywhere in the
        # package; spot check the convention on a 2 x 3 grid.
        n = 3
        flat = [(b // n, b % n) for b in range(6)]
        assert flat == list(itertools.product(range(2), range(3)))
