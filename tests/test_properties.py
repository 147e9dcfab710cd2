"""Metamorphic properties of the solvers, drawn by hypothesis.

Weights are small integers, so every sum is exact and ties are common:
the properties pin the tie-break as well as the optimum.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from divmatch import (OPTIMAL, DegreeBounds, Instance, solve_diverse_exact,
                      solve_diverse_greedy, solve_min_weight)


@st.composite
def instances(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=m * n,
                                     max_size=m * n)), dtype=float)
    l_hi = [draw(st.integers(0, n)) for _ in range(m)]
    r_hi = [draw(st.integers(0, m)) for _ in range(n)]
    l_lo = [draw(st.integers(0, hi)) for hi in l_hi]
    r_lo = [draw(st.integers(0, hi)) for hi in r_hi]
    bounds = DegreeBounds.broadcast(m, n, l_lo, l_hi, r_lo, r_hi)
    return Instance(weights.reshape(m, n), np.zeros(m, dtype=int), 1, bounds)


def _permuted(inst, rows, cols, labels):
    """inst with left nodes in order rows, right nodes in order cols and
    cluster c renamed labels[c]."""
    b = inst.bounds
    bounds = DegreeBounds.broadcast(
        inst.m, inst.n, [b.l_lo[i] for i in rows], [b.l_hi[i] for i in rows],
        [b.r_lo[j] for j in cols], [b.r_hi[j] for j in cols])
    return Instance(inst.weights[np.ix_(rows, cols)],
                    np.array(labels)[inst.clusters[rows]], inst.k, bounds)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(), st.integers(-30, 30))
def test_power_of_two_scaling_keeps_the_argmin(inst, exponent):
    scale = 2.0 ** exponent
    base = solve_min_weight(inst)
    scaled = solve_min_weight(Instance(inst.weights * scale, inst.clusters,
                                       inst.k, inst.bounds))
    assert scaled.status == base.status
    if base.status == OPTIMAL:
        assert scaled.matching.edges == base.matching.edges
        assert scaled.total_weight == scale * base.total_weight


@settings(max_examples=150, deadline=None, derandomize=True)
@given(instances(), st.randoms(use_true_random=False))
def test_node_permutations_keep_the_optimum(inst, random):
    rows = random.sample(range(inst.m), inst.m)
    cols = random.sample(range(inst.n), inst.n)
    base = solve_min_weight(inst)
    permuted = solve_min_weight(_permuted(inst, rows, cols, [0]))
    assert permuted.status == base.status
    if base.status == OPTIMAL:
        assert permuted.total_weight == base.total_weight


@st.composite
def clustered_instances(draw):
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    k = draw(st.integers(1, m))
    # every cluster id appears at least once
    clusters = draw(st.permutations(list(range(k)) + draw(
        st.lists(st.integers(0, k - 1), min_size=m - k, max_size=m - k))))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=m * n,
                                     max_size=m * n)), dtype=float)
    # half open on the left (the solvers' fast paths), half two-sided
    # with lower bounds in the upper half, so that most of them branch
    open_left = draw(st.booleans())
    l_hi = [n if open_left else draw(st.integers(0, n)) for _ in range(m)]
    r_hi = [draw(st.integers(0, m)) for _ in range(n)]
    l_lo = [0 if open_left else draw(st.integers(hi // 2, hi))
            for hi in l_hi]
    r_lo = [draw(st.integers(hi // 2, hi)) for hi in r_hi]
    bounds = DegreeBounds.broadcast(m, n, l_lo, l_hi, r_lo, r_hi)
    return Instance(weights.reshape(m, n), clusters, k, bounds)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(clustered_instances(), st.sampled_from([-3, 5]))
def test_power_of_two_scaling_keeps_the_diverse_answers(inst, exponent):
    scale = 2.0 ** exponent
    scaled_inst = Instance(inst.weights * scale, inst.clusters, inst.k,
                           inst.bounds)
    for solve, counters in ((solve_diverse_exact, ("expanded", "pruned",
                                                "lagrangian_iterations")),
                            (solve_diverse_greedy, ("gain_evaluations",))):
        base, scaled = solve(inst), solve(scaled_inst)
        assert scaled.status == base.status
        assert scaled.diagnostic == base.diagnostic
        for key in counters:
            assert scaled.telemetry.get(key) == base.telemetry.get(key)
        if base.matching is not None:
            assert scaled.matching.edges == base.matching.edges
            assert scaled.diversity_cost == scale * scale * base.diversity_cost


@settings(max_examples=400, deadline=None, derandomize=True)
@given(clustered_instances(), st.randoms(use_true_random=False))
def test_permutations_and_relabels_keep_the_exact_optimum(inst, random):
    rows = random.sample(range(inst.m), inst.m)
    cols = random.sample(range(inst.n), inst.n)
    labels = random.sample(range(inst.k), inst.k)
    base = solve_diverse_exact(inst)
    left, right, ids = range(inst.m), range(inst.n), range(inst.k)
    for variant in (_permuted(inst, rows, right, ids),
                    _permuted(inst, left, cols, ids),
                    _permuted(inst, left, right, labels)):
        rep = solve_diverse_exact(variant)
        assert rep.status == base.status
        if base.status == OPTIMAL:
            np.testing.assert_allclose(rep.diversity_cost,
                                       base.diversity_cost, rtol=1e-9,
                                       atol=0)
