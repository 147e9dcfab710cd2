"""Tests for entropy, entropy gain, price of diversity, and the bound."""

import math

import numpy as np

from divmatch import (
    DegreeBounds,
    Instance,
    Matching,
    MetricsReport,
    OBJECTIVE_DIVERSITY,
    OBJECTIVE_WEIGHT,
    brute_force,
    compute_metrics,
    entropy_gain,
    entropy_profile,
    node_bound_term,
    node_entropy,
    pod_lower_bound,
    price_of_diversity,
    solve_diverse_exact,
    solve_min_weight,
)
from conftest import random_instance


def homogeneous_instance(k=3, per_cluster=2, n=1, r_lo=3):
    m = k * per_cluster
    weights = np.ones((m, n))
    clusters = np.repeat(np.arange(k), per_cluster)
    bounds = DegreeBounds.broadcast(m, n, 0, n, r_lo, m)
    return Instance(weights, clusters, k, bounds)


class TestNodeEntropy:
    def test_single_cluster_is_zero(self):
        inst = homogeneous_instance(k=1, per_cluster=3)
        match = Matching([(0, 0), (1, 0), (2, 0)])
        np.testing.assert_allclose(node_entropy(inst, match, 0), 0.0)

    def test_uniform_spread_is_log_k(self):
        inst = homogeneous_instance(k=3, per_cluster=2, r_lo=3)
        match = Matching([(0, 0), (2, 0), (4, 0)])
        np.testing.assert_allclose(node_entropy(inst, match, 0), math.log(3))

    def test_two_one_split(self):
        # Three selected edges split 2/1 across clusters; plug the
        # proportions straight into the entropy formula for the target.
        inst = homogeneous_instance(k=2, per_cluster=2, r_lo=3)
        match = Matching([(0, 0), (1, 0), (2, 0)])
        expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        np.testing.assert_allclose(node_entropy(inst, match, 0), expected)

    def test_no_edges_gives_none(self):
        inst = homogeneous_instance(r_lo=0)
        assert node_entropy(inst, Matching([]), 0) is None

    def test_bounded_by_log_k(self):
        rng = np.random.default_rng(501)
        for _ in range(60):
            inst = random_instance(rng)
            cells = inst.m * inst.n
            code = int(rng.integers(1, 1 << cells))
            edges = [(b // inst.n, b % inst.n)
                     for b in range(cells) if code >> b & 1]
            match = Matching(edges)
            for j, h in enumerate(entropy_profile(inst, match)):
                if h is None:
                    continue
                assert -1e-12 <= h <= math.log(inst.k) + 1e-12

    def test_label_permutation_invariant(self):
        rng = np.random.default_rng(502)
        for _ in range(20):
            inst = random_instance(rng, max_k=3)
            perm = rng.permutation(inst.k)
            relabeled = Instance(inst.weights, perm[inst.clusters], inst.k,
                                 inst.bounds)
            cells = inst.m * inst.n
            code = int(rng.integers(1, 1 << cells))
            edges = [(b // inst.n, b % inst.n)
                     for b in range(cells) if code >> b & 1]
            match = Matching(edges)
            for j in range(inst.n):
                a = node_entropy(inst, match, j)
                b = node_entropy(relabeled, match, j)
                if a is None:
                    assert b is None
                else:
                    np.testing.assert_allclose(a, b, rtol=1e-12)


class TestEntropyGain:
    def test_identical_matchings_give_one(self):
        inst = homogeneous_instance(k=2, per_cluster=2, r_lo=2)
        match = Matching([(0, 0), (2, 0)])
        eg, note = entropy_gain(inst, match, match)
        np.testing.assert_allclose(eg, 1.0)
        assert note == ""

    def test_zero_denominator_flagged(self):
        # Baseline concentrates on one cluster: entropy 0, ratio undefined.
        inst = homogeneous_instance(k=2, per_cluster=2, r_lo=2)
        base = Matching([(0, 0), (1, 0)])
        diverse = Matching([(0, 0), (2, 0)])
        eg, note = entropy_gain(inst, base, diverse)
        assert eg is None
        assert note != ""

    def test_diverse_spread_beats_concentrated_baseline(self):
        inst = homogeneous_instance(k=3, per_cluster=2, r_lo=3)
        base = Matching([(0, 0), (1, 0), (2, 0)])
        diverse = Matching([(0, 0), (2, 0), (4, 0)])
        eg, _ = entropy_gain(inst, base, diverse)
        assert eg > 1.0


class TestPriceOfDiversity:
    def test_identical_weights_give_one(self):
        np.testing.assert_allclose(price_of_diversity(3.5, 3.5), 1.0)

    def test_ratio_orientation(self):
        np.testing.assert_allclose(price_of_diversity(1.0, 2.0), 0.5)

    def test_zero_diverse_weight_gives_none(self):
        assert price_of_diversity(0.0, 0.0) is None


class TestBoundTerm:
    def test_unconstrained_node_contributes_one(self):
        np.testing.assert_allclose(node_bound_term(5.0, 1), 1.0)
        np.testing.assert_allclose(node_bound_term(5.0, 0), 1.0)

    def test_zero_min_weight_limit(self):
        # As the weight spread grows without bound the term tends to
        # 1 / sqrt(r_lo - 1); for r_lo = 5 that is exactly 0.5.
        assert node_bound_term(math.inf, 5) == 0.5

    def test_finite_spread_value(self):
        # Two unit weights, r_lo = 2: z = 2, so the term must equal
        # 2 / (1 + sqrt(1) * sqrt(3)).
        expected = 2.0 / (1.0 + math.sqrt(2 ** 2 - 1))
        np.testing.assert_allclose(node_bound_term(2.0, 2), expected,
                                   rtol=1e-12)

    def test_nonincreasing_in_lower_bound(self):
        for z in (1.5, 2.0, 5.0, 50.0):
            terms = [node_bound_term(z, r) for r in range(1, 8)
                     if r <= 1 or z >= 1.0]
            for a, b in zip(terms, terms[1:]):
                assert b <= a + 1e-12


class TestPodLowerBound:
    def test_all_unconstrained_is_one(self):
        inst = homogeneous_instance(k=2, per_cluster=1, r_lo=1)
        base = solve_min_weight(inst)
        bound, _ = pod_lower_bound(inst, base.matching)
        np.testing.assert_allclose(bound, 1.0)

    def test_empty_baseline_is_flagged_vacuous(self):
        inst = homogeneous_instance(k=2, per_cluster=1, r_lo=0)
        bound, note = pod_lower_bound(inst, Matching([]))
        np.testing.assert_allclose(bound, 1.0)
        assert "vacuous" in note

    def test_unit_weights_two_needed(self):
        inst = homogeneous_instance(k=2, per_cluster=1, r_lo=2)
        base = solve_min_weight(inst)
        bound, note = pod_lower_bound(inst, base.matching)
        expected = 2.0 / (1.0 + math.sqrt(3.0))
        np.testing.assert_allclose(bound, expected, rtol=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(511)
        for _ in range(40):
            inst = random_instance(rng)
            base = solve_min_weight(inst)
            if base.matching is None:
                continue
            bound, _ = pod_lower_bound(inst, base.matching)
            assert 0.0 < bound <= 1.0 + 1e-12


    def test_weighted_harmonic_floor_on_right_only_instance(self):
        # Right bounds only, so the floor's premise holds.  Node 0 takes
        # one edge (term 1); node 1 takes four, its baseline rows (weight
        # 1.0 each, spread z = 4) all share cluster 0, so the diverse part
        # swaps three of them for rows of weight 1.7.  PoD = 4.01 / 6.11: under the plain average
        # of the terms (0.759), above the harmonic mean weighted by
        # baseline weight (0.520).
        weights = np.array([[0.01, 1.0]] * 4 + [[5.0, 1.7]] * 3)
        clusters = np.array([0, 0, 0, 0, 1, 2, 3])
        bounds = DegreeBounds.broadcast(7, 2, 0, 2, [1, 4], 7)
        inst = Instance(weights, clusters, 4, bounds)
        base = solve_min_weight(inst)
        diverse = solve_diverse_exact(inst)
        oracle_w = brute_force(inst, OBJECTIVE_WEIGHT)
        oracle_d = brute_force(inst, OBJECTIVE_DIVERSITY)
        np.testing.assert_allclose(base.total_weight, oracle_w.total_weight,
                                   rtol=1e-12)
        np.testing.assert_allclose(diverse.diversity_cost,
                                   oracle_d.diversity_cost, rtol=1e-12)
        pod = price_of_diversity(base.total_weight, diverse.total_weight)
        np.testing.assert_allclose(pod, 4.01 / 6.11, rtol=1e-9)
        bound, note = pod_lower_bound(inst, base.matching)
        assert note == ""
        terms = [1.0, node_bound_term(4.0, 4)]
        expected = (0.01 + 4.0) / (0.01 / terms[0] + 4.0 / terms[1])
        np.testing.assert_allclose(bound, expected, rtol=1e-12)
        np.testing.assert_allclose(bound, 0.520, atol=5e-4)
        assert pod >= bound
        plain_average = sum(terms) / len(terms)
        np.testing.assert_allclose(plain_average, 0.759, atol=5e-4)
        assert pod < plain_average

    def test_zero_baseline_weight_is_flagged_vacuous(self):
        inst = Instance(np.zeros((3, 1)), np.array([0, 1, 1]), 2,
                        DegreeBounds.broadcast(3, 1, 0, 1, 2, 3))
        base = solve_min_weight(inst)
        bound, note = pod_lower_bound(inst, base.matching)
        assert bound == 1.0
        assert "vacuous" in note

    def test_left_bounds_flag_the_premise(self):
        inst = Instance(np.ones((2, 2)), np.array([0, 1]), 2,
                        DegreeBounds.broadcast(2, 2, 1, 2, 1, 2))
        base = solve_min_weight(inst)
        diverse = solve_diverse_exact(inst)
        _, note = pod_lower_bound(inst, base.matching)
        assert "right-side bounds only" in note
        report = compute_metrics(inst, base, diverse)
        assert "right-side bounds only" in report.diagnostic
        open_inst = Instance(np.ones((2, 2)), np.array([0, 1]), 2,
                             DegreeBounds.broadcast(2, 2, 0, 2, 1, 2))
        _, note = pod_lower_bound(open_inst,
                                  solve_min_weight(open_inst).matching)
        assert note == ""


class TestComputeMetrics:
    def test_assembles_report(self):
        rng = np.random.default_rng(521)
        inst = random_instance(rng, right_constrained=True)
        base = solve_min_weight(inst)
        diverse = solve_diverse_exact(inst)
        metrics = compute_metrics(inst, base, diverse, instance_id="t0")
        assert isinstance(metrics, MetricsReport)
        np.testing.assert_allclose(metrics.weight_baseline,
                                   base.total_weight, rtol=1e-12)
        np.testing.assert_allclose(metrics.weight_diverse,
                                   diverse.total_weight, rtol=1e-12)
        if metrics.pod is not None:
            np.testing.assert_allclose(
                metrics.pod, base.total_weight / diverse.total_weight,
                rtol=1e-12)

    def test_csv_row_shape(self):
        rng = np.random.default_rng(522)
        inst = random_instance(rng, right_constrained=True)
        base = solve_min_weight(inst)
        diverse = solve_diverse_exact(inst)
        metrics = compute_metrics(inst, base, diverse, instance_id="row")
        header_fields = MetricsReport.CSV_HEADER.split(",")
        row_fields = metrics.to_csv_row().split(",")
        assert len(row_fields) == len(header_fields)
        assert row_fields[0] == "row"

    def test_none_fields_serialize_empty(self):
        report = MetricsReport(
            instance_id="x", m=2, n=2, k=1, r_lo=(1, 1),
            weight_baseline=None, weight_diverse=None, pod=None,
            pod_bound=None, eg=None, entropy_baseline=(None, None),
            entropy_diverse=(None, None), avg_entropy_baseline=None,
            avg_entropy_diverse=None, status_baseline="infeasible",
            status_diverse="infeasible", wall_s_baseline=0.0,
            wall_s_diverse=0.0)
        fields = report.to_csv_row().split(",")
        assert "" in fields
