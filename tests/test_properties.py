"""Metamorphic properties of the minimum-weight solver, drawn by hypothesis.

Weights are small integers, so every sum is exact and ties are common:
the properties pin the tie-break as well as the optimum.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from divmatch import OPTIMAL, DegreeBounds, Instance, solve_min_weight


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


def _permuted(inst, rows, cols):
    b = inst.bounds
    bounds = DegreeBounds.broadcast(
        inst.m, inst.n, [b.l_lo[i] for i in rows], [b.l_hi[i] for i in rows],
        [b.r_lo[j] for j in cols], [b.r_hi[j] for j in cols])
    return Instance(inst.weights[np.ix_(rows, cols)], inst.clusters, 1,
                    bounds)


@settings(max_examples=150, deadline=None)
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


@settings(max_examples=150, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_node_permutations_keep_the_optimum(inst, random):
    rows = random.sample(range(inst.m), inst.m)
    cols = random.sample(range(inst.n), inst.n)
    base = solve_min_weight(inst)
    permuted = solve_min_weight(_permuted(inst, rows, cols))
    assert permuted.status == base.status
    if base.status == OPTIMAL:
        assert permuted.total_weight == base.total_weight
