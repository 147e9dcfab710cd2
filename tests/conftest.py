"""Shared helpers for the test suite."""

import numpy as np

from divmatch import DegreeBounds, Instance


def random_instance(rng, max_m=5, max_n=5, max_k=3, max_cells=20,
                    right_constrained=False, per_node=False):
    """One random instance with uniform weights and random bounds.

    Sizes are drawn until m * n fits under max_cells so the brute-force
    oracle stays applicable.  With right_constrained the left side gets
    no lower bounds and full upper bounds, the shape where each right
    node's subproblem is independent.  With per_node every node draws
    its own upper bound (zero allowed) and a lower bound below it.
    """
    while True:
        m = int(rng.integers(2, max_m + 1))
        n = int(rng.integers(2, max_n + 1))
        if m * n <= max_cells:
            break
    k = int(rng.integers(1, min(max_k, m) + 1))
    weights = rng.random((m, n))
    clusters = rng.integers(0, k, m)
    while len(np.unique(clusters)) < k:
        clusters = rng.integers(0, k, m)
    if per_node:
        l_hi = rng.integers(0, n + 1, m)
        r_hi = rng.integers(0, m + 1, n)
        bounds = DegreeBounds.broadcast(m, n, rng.integers(0, l_hi + 1), l_hi,
                                        rng.integers(0, r_hi + 1), r_hi)
        return Instance(weights, clusters, k, bounds)
    if right_constrained:
        l_lo, l_hi = 0, n
    else:
        l_hi = int(rng.integers(1, n + 1))
        l_lo = int(rng.integers(0, l_hi + 1))
    r_hi = int(rng.integers(1, m + 1))
    r_lo = int(rng.integers(0, r_hi + 1))
    bounds = DegreeBounds.broadcast(m, n, l_lo, l_hi, r_lo, r_hi)
    return Instance(weights, clusters, k, bounds)
