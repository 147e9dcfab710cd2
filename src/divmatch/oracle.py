"""Brute-force ground truth for small instances.

Returns the subset of the m*n candidate edges that satisfies every
degree bound and minimizes the requested objective, found by exhaustive
enumeration so it can anchor tests of the real solvers.  Only subsets
whose left rows meet their bounds are generated: each row i has a table
of the n-bit masks with popcount in [L_lo[i], L_hi[i]], and the
candidates are the mixed-radix product of those tables, decoded in
fixed-size chunks.  Each chunk keeps the candidates whose right degrees,
summed from per-row column counts along the same decode, lie in
[R_lo, R_hi]; only those reach the objective.  The subset cap still
counts all 2^(m*n) subsets, so the instances refused do not depend on
the bounds.

Ties on the objective are broken toward the lexicographically smallest
sorted edge list.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics as _metrics
from .errors import ConfigError, SizeCapError
from .instance import Instance, Matching
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport

OBJECTIVE_WEIGHT = "weight"
OBJECTIVE_DIVERSITY = "diversity"

_CHUNK = 1 << 14


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard ceilings for enumeration; exceeding either is a refusal.

    The oracle never truncates a search: an instance too large for the
    budget raises SizeCapError so a partial scan can never masquerade
    as ground truth.
    """

    max_subsets: int = 1 << 20
    max_wall_s: float = 120.0

    def __post_init__(self):
        cap, wall = self.max_subsets, self.max_wall_s
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ConfigError(f"max_subsets must be a positive integer, got {cap!r}")
        # a NaN wall budget would never refuse, so it is refused here
        if isinstance(wall, bool) or not isinstance(wall, numbers.Real) or not wall >= 0:
            raise ConfigError(f"max_wall_s must be a nonnegative number, got {wall!r}")


def _row_table(n: int, lo: int, hi: int) -> np.ndarray:
    """0/1 columns of one left row's n-bit masks with popcount in [lo, hi],
    one mask per row, in ascending mask order."""
    masks = np.arange(1 << n, dtype=np.uint32)
    degree = np.zeros(len(masks), dtype=np.int8)
    for j in range(n):
        degree += (masks >> j & 1).astype(np.int8)
    masks = masks[(degree >= lo) & (degree <= hi)]
    cols = np.empty((len(masks), n), dtype=np.int8)
    for j in range(n):
        cols[:, j] = masks >> j & 1
    return cols


def _objective_matrix(inst: Instance, objective: str) -> np.ndarray:
    """Edge-indexed coefficients: the weight vector, or the projection of
    each edge onto its (right node, cluster) weight sum."""
    if objective == OBJECTIVE_WEIGHT:
        return inst.weights.reshape(-1)
    m, n, k = inst.m, inst.n, inst.k
    edge = np.arange(m * n)
    proj = np.zeros((m * n, n * k), dtype=np.float64)
    proj[edge, edge % n * k + inst.clusters[edge // n]] = inst.weights.ravel()
    return proj


def brute_force(inst: Instance, objective: str = OBJECTIVE_WEIGHT,
                budget: Optional[EnumerationBudget] = None) -> SolveReport:
    """Exhaustive minimization of one objective over all feasible edge subsets."""
    if objective not in (OBJECTIVE_WEIGHT, OBJECTIVE_DIVERSITY):
        raise ValueError(f"unknown objective {objective!r}")
    budget = budget or EnumerationBudget()
    m, n = inst.m, inst.n
    total = 1 << (m * n)
    if total > budget.max_subsets:
        raise SizeCapError(
            f"{total} edge subsets exceed the enumeration budget "
            f"of {budget.max_subsets}; refusing rather than truncating")

    start = time.perf_counter()
    b = inst.bounds
    cols = [_row_table(n, b.l_lo[i], b.l_hi[i]) for i in range(m)]
    radix = [len(c) for c in cols]
    # mixed-radix digits, the last row varying fastest
    stride = [math.prod(radix[i + 1:]) for i in range(m)]
    enumerated = math.prod(radix)
    # degrees fit in int8: the subset cap keeps m and n far below 127
    r_lo, r_hi = np.array(b.r_lo, np.int8), np.array(b.r_hi, np.int8)
    coef = _objective_matrix(inst, objective)
    best_value = math.inf
    best_edges: Optional[tuple[tuple[int, int], ...]] = None
    feasible_count = 0

    for lo in range(0, enumerated, _CHUNK):
        if time.perf_counter() - start > budget.max_wall_s:
            raise SizeCapError(
                f"enumeration exceeded {budget.max_wall_s} s wall budget; "
                "refusing rather than truncating")
        index = np.arange(lo, min(lo + _CHUNK, enumerated), dtype=np.int64)
        digits = [index // s % r for s, r in zip(stride, radix)]
        deg_r = sum(c[d] for c, d in zip(cols, digits))
        ok = np.all((deg_r >= r_lo) & (deg_r <= r_hi), axis=1)
        feasible_count += int(ok.sum())
        if not ok.any():
            continue
        bits = np.hstack([c[d[ok]] for c, d in zip(cols, digits)]
                         ).astype(np.float64)
        values = bits @ coef
        if objective == OBJECTIVE_DIVERSITY:
            values = np.einsum("ij,ij->i", values, values)
        chunk_best = float(values.min())
        if chunk_best > best_value:
            continue
        if chunk_best < best_value:
            best_value = chunk_best
            best_edges = None
        for row in bits[values == best_value]:
            edges = tuple(divmod(e, n) for e in np.flatnonzero(row).tolist())
            if best_edges is None or edges < best_edges:
                best_edges = edges

    wall = time.perf_counter() - start
    telemetry = {"subsets": total, "enumerated": enumerated,
                 "feasible": feasible_count}
    if best_edges is None:
        return SolveReport(
            algorithm="oracle", status=INFEASIBLE, matching=None,
            total_weight=None, diversity_cost=None, wall_time=wall,
            diagnostic="no edge subset satisfies the degree bounds",
            telemetry=telemetry)
    match = Matching(best_edges)
    return SolveReport(
        algorithm="oracle", status=OPTIMAL, matching=match,
        total_weight=total_weight(inst, match),
        diversity_cost=diversity_cost(inst, match),
        wall_time=wall, telemetry=telemetry)


def enumerate_pod(inst: Instance, budget: Optional[EnumerationBudget] = None,
                  ) -> tuple[Optional[float], Optional[float],
                             dict[str, SolveReport]]:
    """True price of diversity and entropy gain from brute-force optima.

    Returns (pod, eg, witnesses) where witnesses holds the two oracle
    reports under keys 'weight' and 'diversity'.  pod or eg is None when
    undefined (zero diverse weight, zero baseline entropy) or when either
    side is infeasible.
    """
    base = brute_force(inst, OBJECTIVE_WEIGHT, budget)
    div = brute_force(inst, OBJECTIVE_DIVERSITY, budget)
    witnesses = {"weight": base, "diversity": div}
    if base.matching is None or div.matching is None:
        return None, None, witnesses
    pod = _metrics.price_of_diversity(base.total_weight, div.total_weight)
    eg, _ = _metrics.entropy_gain(inst, base.matching, div.matching)
    return pod, eg, witnesses
