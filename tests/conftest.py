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


def counting_feasible(res, usable):
    """Reference counting check: necessary conditions for completing all
    of res's lower bounds.

    Each side's total need must fit in the other side's spare capacity,
    and each owing node must have at least as many usable edges as it
    owes.  usable is res.usable(); on owing nodes, which are under their
    upper bounds, it counts the open edges to nodes with spare capacity.
    """
    need_l = np.maximum(res.l_lo - res.deg_l, 0)
    need_r = np.maximum(res.r_lo - res.deg_r, 0)
    if need_l.sum() > (res.r_hi - res.deg_r).sum():
        return False
    if need_r.sum() > (res.l_hi - res.deg_l).sum():
        return False
    return not ((need_l > usable.sum(axis=1)).any()
                or (need_r > usable.sum(axis=0)).any())
