"""Brute-force ground truth for small instances.

Returns the subset of the m*n candidate edges that satisfies every
degree bound and minimizes the requested objective, found by exhaustive
enumeration so it can anchor tests of the real solvers.  Only subsets
whose left rows meet their bounds are generated: each row i has a table
of the n-bit masks with popcount in [L_lo[i], L_hi[i]], and the
candidates are the product of those tables, met in the middle: the
outer rows' combinations are decoded once and crossed with each chunk
of the inner rows'.  Each combination carries its partial objective and
its right-degree key sum_j deg_j * (m+1)^j.  No degree exceeds m, so a
pair's key is the sum of its halves' keys, and one table lookup keeps
the pairs whose right degrees lie in [R_lo, R_hi]; only those are
priced.  The subset cap still counts all 2^(m*n) subsets, so the
instances refused do not depend on the bounds.

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
# diversity_cost and total_weight go unused here, but
# perfbench/tracing.py's PATCHES patches them in this module by name
from .objective import diversity_cost, total_weight
from .report import INFEASIBLE, OPTIMAL, SolveReport, _finish

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
    """One left row's n-bit masks with popcount in [lo, hi], ascending."""
    masks = np.arange(1 << n, dtype=np.uint32)
    degree = np.zeros(len(masks), dtype=np.int8)
    for j in range(n):
        degree += (masks >> j & 1).astype(np.int8)
    return masks[(degree >= lo) & (degree <= hi)]


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


def _decode(tables: list[np.ndarray], index: np.ndarray, coef: np.ndarray,
            place: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge bits, right-degree keys and partial objectives of the entries
    at `index` of the product of `tables`, the last varying fastest."""
    masks, stride = np.empty((len(index), len(tables)), np.uint32), 1
    for r in reversed(range(len(tables))):
        masks[:, r] = tables[r][index // stride % len(tables[r])]
        stride *= len(tables[r])
    bits = (masks[:, :, None] >> np.arange(len(place), dtype=np.uint32) & 1
            ).astype(np.int8).reshape(len(index), -1)
    return bits, bits @ np.tile(place, len(tables)), bits @ coef


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
    # one table per distinct (L_lo, L_hi) pair; _decode only reads them
    shared = {pair: _row_table(n, *pair) for pair in set(zip(b.l_lo, b.l_hi))}
    tables = [shared[pair] for pair in zip(b.l_lo, b.l_hi)]
    radix = [len(t) for t in tables]
    enumerated = math.prod(radix)
    # outer rows: the longest prefix whose product is <= sqrt(enumerated)
    split = max(s for s in range(m + 1)
                if math.prod(radix[:s]) ** 2 <= enumerated)
    place = (m + 1) ** np.arange(n, dtype=np.int64)
    deg = np.arange(m + 1)
    allowed = np.ones(1, dtype=bool)  # indexed by key
    for r_lo, r_hi in zip(b.r_lo, b.r_hi):  # column 0: the lowest digit
        allowed = np.logical_and.outer((r_lo <= deg) & (deg <= r_hi),
                                       allowed).ravel()
    coef = _objective_matrix(inst, objective)
    bits_o, key_o, part_o = _decode(
        tables[:split], np.arange(math.prod(radix[:split])), coef[:split * n],
        place)
    n_inner = enumerated // len(key_o)
    step = max(1, _CHUNK // len(key_o))
    best_value = math.inf
    best_edges: Optional[tuple[tuple[int, int], ...]] = None
    feasible_count = 0

    for lo in range(0, n_inner, step):
        if time.perf_counter() - start > budget.max_wall_s:
            raise SizeCapError(
                f"enumeration exceeded {budget.max_wall_s} s wall budget; "
                "refusing rather than truncating")
        bits_i, key_i, part_i = _decode(
            tables[split:], np.arange(lo, min(lo + step, n_inner)),
            coef[split * n:], place)
        pair_o, pair_i = np.nonzero(allowed[key_o[:, None] + key_i])
        feasible_count += len(pair_o)
        if not len(pair_o):
            continue
        values = part_o[pair_o] + part_i[pair_i]
        if objective == OBJECTIVE_DIVERSITY:
            values = np.einsum("ij,ij->i", values, values)
        chunk_best = float(values.min())
        if chunk_best > best_value:
            continue
        if chunk_best < best_value:
            best_value = chunk_best
            best_edges = None
        tied = values == best_value
        for row in np.hstack((bits_o[pair_o[tied]], bits_i[pair_i[tied]])):
            edges = tuple(divmod(e, n) for e in np.flatnonzero(row).tolist())
            if best_edges is None or edges < best_edges:
                best_edges = edges

    telemetry = {"subsets": total, "enumerated": enumerated,
                 "feasible": feasible_count}
    if best_edges is None:
        return _finish("oracle", inst, start, None, INFEASIBLE,
                       "no edge subset satisfies the degree bounds",
                       telemetry)
    return _finish("oracle", inst, start, Matching(best_edges), OPTIMAL,
                   telemetry=telemetry)


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
