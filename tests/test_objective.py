"""Tests for the two objectives and their incremental/quadratic forms."""

import numpy as np
import pytest

from divmatch import (
    BlockMatrix,
    ClusterSums,
    DegreeBounds,
    Instance,
    InternalError,
    Matching,
    SizeCapError,
    diversity_cost,
    quadratic_form_cost,
    total_weight,
)
from conftest import random_instance


def pair_instance():
    """Three candidates, one position, two clusters, unit-ish weights.

    Selecting two candidates from the same cluster costs (1+1)^2 = 4,
    while a cross-cluster pair costs 1^2 + 1^2 = 2.
    """
    weights = np.ones((3, 1))
    clusters = np.array([0, 0, 1])
    bounds = DegreeBounds.broadcast(3, 1, 0, 1, 2, 2)
    return Instance(weights, clusters, 2, bounds)


def scratch_diversity(inst, edges):
    """Reference implementation: group sums, then square, with plain floats."""
    total = 0.0
    for j in range(inst.n):
        for c in range(inst.k):
            s = sum(float(inst.weights[i, jj]) for i, jj in edges
                    if jj == j and inst.clusters[i] == c)
            total += s * s
    return total


class TestTotalWeight:
    def test_empty_matching(self):
        inst = pair_instance()
        np.testing.assert_allclose(total_weight(inst, Matching([])), 0.0)

    def test_sums_selected_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            inst = random_instance(rng)
            code = int(rng.integers(0, 1 << (inst.m * inst.n)))
            edges = [(b // inst.n, b % inst.n)
                     for b in range(inst.m * inst.n) if code >> b & 1]
            expected = sum(float(inst.weights[i, j]) for i, j in edges)
            np.testing.assert_allclose(
                total_weight(inst, Matching(edges)), expected, rtol=1e-12)


class TestDiversityCost:
    def test_same_cluster_pair_costs_four(self):
        inst = pair_instance()
        np.testing.assert_allclose(
            diversity_cost(inst, Matching([(0, 0), (1, 0)])), 4.0)

    def test_cross_cluster_pair_costs_two(self):
        inst = pair_instance()
        np.testing.assert_allclose(
            diversity_cost(inst, Matching([(0, 0), (2, 0)])), 2.0)

    def test_matches_reference_on_random_matchings(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            inst = random_instance(rng)
            code = int(rng.integers(0, 1 << (inst.m * inst.n)))
            edges = [(b // inst.n, b % inst.n)
                     for b in range(inst.m * inst.n) if code >> b & 1]
            np.testing.assert_allclose(
                diversity_cost(inst, Matching(edges)),
                scratch_diversity(inst, edges), rtol=1e-12)


class TestClusterSums:
    def test_gain_equals_cost_delta(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            inst = random_instance(rng)
            sums = ClusterSums(inst)
            selected = []
            cost = 0.0
            for _ in range(int(rng.integers(1, inst.m * inst.n + 1))):
                i = int(rng.integers(0, inst.m))
                j = int(rng.integers(0, inst.n))
                if (i, j) in selected:
                    continue
                gain = sums.gain(i, j)
                delta = sums.add(i, j)
                selected.append((i, j))
                cost += delta
                np.testing.assert_allclose(gain, delta, rtol=1e-12)
                np.testing.assert_allclose(
                    cost, scratch_diversity(inst, selected), rtol=1e-9,
                    atol=1e-12)

    def test_remove_reverses_add(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng)
        sums = ClusterSums(inst)
        delta = sums.add(0, 0)
        back = sums.remove(0, 0)
        np.testing.assert_allclose(delta, back, rtol=1e-12)
        np.testing.assert_allclose(sums.gain(0, 0),
                                   float(inst.weights[0, 0]) ** 2,
                                   rtol=1e-12)

    def test_double_add_rejected(self):
        inst = pair_instance()
        sums = ClusterSums(inst)
        sums.add(0, 0)
        with pytest.raises(InternalError):
            sums.add(0, 0)

    def test_remove_absent_rejected(self):
        inst = pair_instance()
        sums = ClusterSums(inst)
        with pytest.raises(InternalError):
            sums.remove(1, 0)

    def test_long_edit_script_stays_accurate(self):
        # Interleaved adds and removes; the sums are never recomputed, so
        # the cost read from them must stay glued to the ground truth.
        rng = np.random.default_rng(23)
        inst = random_instance(rng, max_m=4, max_n=4)
        sums = ClusterSums(inst)
        selected = set()
        for _ in range(5000):
            i = int(rng.integers(0, inst.m))
            j = int(rng.integers(0, inst.n))
            if (i, j) in selected:
                sums.remove(i, j)
                selected.discard((i, j))
            else:
                sums.add(i, j)
                selected.add((i, j))
        np.testing.assert_allclose(
            sums.cost, scratch_diversity(inst, sorted(selected)),
            rtol=1e-9, atol=1e-9)


class TestBlockMatrix:
    def test_cost_agrees_with_direct_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng, max_m=4, max_n=4)
            block = BlockMatrix(inst)
            code = int(rng.integers(0, 1 << (inst.m * inst.n)))
            edges = [(b // inst.n, b % inst.n)
                     for b in range(inst.m * inst.n) if code >> b & 1]
            match = Matching(edges)
            np.testing.assert_allclose(
                block.cost(match), diversity_cost(inst, match),
                rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                quadratic_form_cost(inst, match), diversity_cost(inst, match),
                rtol=1e-9, atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(32)
        inst = random_instance(rng, max_m=4, max_n=4)
        dense = BlockMatrix(inst).matrix
        np.testing.assert_allclose(dense, dense.T)

    def test_zero_across_right_nodes_and_clusters(self):
        inst = pair_instance()
        block = BlockMatrix(inst)
        dense = block.matrix
        # Candidates 0 and 2 sit in different clusters: no coupling.
        assert dense[block.index(0, 0), block.index(2, 0)] == 0.0
        # Same cluster couples with the weight product.
        np.testing.assert_allclose(
            dense[block.index(0, 0), block.index(1, 0)], 1.0)

    def test_size_cap(self):
        weights = np.ones((200, 200))
        clusters = np.zeros(200, dtype=int)
        bounds = DegreeBounds.broadcast(200, 200, 0, 200, 0, 200)
        inst = Instance(weights, clusters, 1, bounds)
        with pytest.raises(SizeCapError):
            BlockMatrix(inst)


class TestSupermodularity:
    def test_marginal_gains_never_shrink(self):
        # Adding an edge first can only make another edge cheaper-or-equal
        # to add, never more expensive: spot check on random pairs.
        rng = np.random.default_rng(41)
        for _ in range(50):
            inst = random_instance(rng)
            cells = inst.m * inst.n
            code = int(rng.integers(0, 1 << cells))
            base = [(b // inst.n, b % inst.n)
                    for b in range(cells) if code >> b & 1]
            free = [(i, j) for i in range(inst.m) for j in range(inst.n)
                    if (i, j) not in base]
            if len(free) < 2:
                continue
            pick = rng.choice(len(free), size=2, replace=False)
            e, f = free[int(pick[0])], free[int(pick[1])]
            sums = ClusterSums(inst)
            for i, j in base:
                sums.add(i, j)
            before = sums.gain(*e)
            sums.add(*f)
            after = sums.gain(*e)
            assert after >= before
