"""Objective functions: total weight and the cluster concentration cost.

Both objectives are minimized.  Total weight is the plain sum of selected
edge weights.  The concentration cost penalizes a right node whose selected
weight piles up inside few clusters: for each right node and each cluster,
square the summed weight of the selected edges arriving from that cluster,
then add everything up.  Spreading the same total weight across more
clusters always lowers this cost, so minimizing it pushes solutions toward
cluster-diverse neighborhoods.

The cost is a quadratic form: with x the 0/1 edge-selection vector there is
a symmetric matrix B, block-diagonal per right node, with
B[(i,j),(i',j)] = w(i,j) * w(i',j) whenever i and i' share a cluster, and
x^T B x equals the concentration cost.  BlockMatrix materializes B for
small instances as an independent cross-check and for inspection; solvers
never build it.

ClusterSums is the incremental form used inside solvers: the sums table
and the selection mask, with constant-time marginal gains and updates.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .errors import InternalError, SizeCapError
from .instance import Instance, Matching

# Cap on dense quadratic-form entries (about 80 MB of float64).
BLOCK_MATRIX_CAP = 10 ** 7


def total_weight(inst: Instance, match: Matching) -> float:
    """Sum of selected edge weights, compensated summation."""
    w = inst.weights
    return math.fsum(w[i, j] for i, j in match)


def diversity_cost(inst: Instance, match: Matching) -> float:
    """Cluster concentration cost of a matching, computed from scratch.

    Groups selected edges by (right node, cluster of left node), sums each
    group with fsum, squares, and fsums the squares.  This is the reference
    evaluation; solvers keep the same number incrementally.
    """
    w = inst.weights
    clusters = inst.clusters
    groups: dict[tuple[int, int], list[float]] = defaultdict(list)
    for i, j in match:
        groups[(j, int(clusters[i]))].append(float(w[i, j]))
    return math.fsum(math.fsum(g) ** 2 for g in groups.values())


class ClusterSums:
    """Per-(right node, cluster) selected weight and the selection itself.

    Keeps the sums table, sums[j][c], and the m x n mask of selected
    edges under single-edge adds and removes.  gain() prices an add
    without applying it; the same number is what a solver should add to
    its objective when it commits the edge.  The sums are updated in
    place and never recomputed from scratch; the rounding of the updates
    stays orders of magnitude below the solvers' tolerances, and
    solve_diverse_exact checks its tracked cost against a fresh one.
    cost is read from the table on demand, for inspection only.

    Double-adding an edge, or removing one that is not selected, raises
    InternalError: callers own dedup and this class enforces it.
    """

    __slots__ = ("_inst", "_sums", "_selected")

    def __init__(self, inst: Instance):
        self._inst = inst
        self._sums = np.zeros((inst.n, inst.k), dtype=np.float64)
        self._selected = np.zeros((inst.m, inst.n), dtype=bool)

    @property
    def cost(self) -> float:
        """Concentration cost of the selection: fsum of the squared sums."""
        return math.fsum((self._sums * self._sums).ravel().tolist())

    @property
    def table(self) -> np.ndarray:
        """Read-only view of the sums, indexed [right node, cluster]."""
        view = self._sums.view()
        view.flags.writeable = False
        return view

    @property
    def selected(self) -> np.ndarray:
        """Read-only view of the selection mask, indexed [left, right]."""
        view = self._selected.view()
        view.flags.writeable = False
        return view

    def gain(self, i: int, j: int) -> float:
        """Cost increase if edge (i, j) were added right now."""
        w = float(self._inst.weights[i, j])
        c = int(self._inst.clusters[i])
        return w * w + 2.0 * w * float(self._sums[j, c])

    def add(self, i: int, j: int) -> float:
        """Apply an add; returns the cost increase."""
        if self._selected[i, j]:
            raise InternalError(f"edge ({i}, {j}) added twice")
        delta = self.gain(i, j)
        self._sums[j, self._inst.clusters[i]] += float(self._inst.weights[i, j])
        self._selected[i, j] = True
        return delta

    def remove(self, i: int, j: int) -> float:
        """Apply a remove; returns the cost decrease."""
        if not self._selected[i, j]:
            raise InternalError(f"edge ({i}, {j}) removed but not selected")
        self._sums[j, self._inst.clusters[i]] -= float(self._inst.weights[i, j])
        self._selected[i, j] = False
        return self.gain(i, j)


class BlockMatrix:
    """Dense symmetric matrix B with x^T B x = concentration cost.

    Edge (i, j) maps to index i * n + j.  B is block-diagonal when rows
    and columns are grouped by right node; inside right node j's block,
    the (i, i') entry is w(i, j) * w(i', j) if i and i' share a cluster
    and 0 otherwise.  Intended for inspection and cross-checks on small
    instances; construction refuses above the entry cap rather than
    silently allocating gigabytes.
    """

    __slots__ = ("matrix", "_n")

    def __init__(self, inst: Instance):
        m, n = inst.m, inst.n
        dim = m * n
        if dim * dim > BLOCK_MATRIX_CAP:
            raise SizeCapError(
                f"quadratic form needs {dim * dim} entries, cap is "
                f"{BLOCK_MATRIX_CAP}; "
                "use diversity_cost or ClusterSums instead")
        same = inst.clusters[:, None] == inst.clusters[None, :]
        B = np.zeros((dim, dim), dtype=np.float64)
        w = inst.weights
        for j in range(n):
            idx = np.arange(m) * n + j
            block = np.where(same, np.outer(w[:, j], w[:, j]), 0.0)
            B[np.ix_(idx, idx)] = block
        self.matrix = B
        self._n = n

    def index(self, i: int, j: int) -> int:
        return i * self._n + j

    def cost(self, match: Matching) -> float:
        """Evaluate x^T B x for the matching's selection vector."""
        x = np.zeros(self.matrix.shape[0], dtype=np.float64)
        for i, j in match:
            x[self.index(i, j)] = 1.0
        return float(x @ self.matrix @ x)

    def write_csv(self, fh) -> None:
        """Dump the full matrix, one row per line, repr-precision floats."""
        for row in self.matrix:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def quadratic_form_cost(inst: Instance, match: Matching) -> float:
    """Concentration cost via the explicit matrix; cross-check path."""
    return BlockMatrix(inst).cost(match)
