"""Residual state of a partial selection, shared by the diverse solvers.

Greedy and branch and bound both ask of a partial edge set which nodes
still owe edges, which edges can still be added, whether the residual
lower bounds can still be met and what the next edge would cost.  An
edge is taken, forbidden (by a branching decision) or open; closed
marks taken or forbidden edges, so for greedy, which never forbids,
closed equals taken.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance, Matching
from .objective import ClusterSums


class Residual:
    """Masks, degrees and cluster sums of one partial selection.

    Starts empty; solvers change it one edge at a time.
    """

    __slots__ = ("inst", "l_lo", "l_hi", "r_lo", "r_hi", "taken", "closed",
                 "deg_l", "deg_r", "sums")

    def __init__(self, inst: Instance):
        self.inst = inst
        b = inst.bounds
        self.l_lo = np.array(b.l_lo, dtype=np.int64)
        self.l_hi = np.array(b.l_hi, dtype=np.int64)
        self.r_lo = np.array(b.r_lo, dtype=np.int64)
        self.r_hi = np.array(b.r_hi, dtype=np.int64)
        self.taken = np.zeros((inst.m, inst.n), dtype=bool)
        self.closed = np.zeros((inst.m, inst.n), dtype=bool)
        self.deg_l = np.zeros(inst.m, dtype=np.int64)
        self.deg_r = np.zeros(inst.n, dtype=np.int64)
        self.sums = ClusterSums(inst)

    def take(self, i: int, j: int) -> float:
        """Select edge (i, j); returns its gain."""
        self.taken[i, j] = True
        self.closed[i, j] = True
        self.deg_l[i] += 1
        self.deg_r[j] += 1
        return self.sums.add(i, j)

    def untake(self, i: int, j: int) -> None:
        self.taken[i, j] = False
        self.closed[i, j] = False
        self.deg_l[i] -= 1
        self.deg_r[j] -= 1
        self.sums.remove(i, j)

    def decide(self, i: int, j: int, take: bool) -> float:
        """Take or forbid edge (i, j); returns the cost increase."""
        if take:
            return self.take(i, j)
        self.closed[i, j] = True
        return 0.0

    def undo(self, i: int, j: int, took: bool) -> None:
        """Reverse decide(i, j, took)."""
        if took:
            self.untake(i, j)
        else:
            self.closed[i, j] = False

    def matching(self) -> Matching:
        """The taken edges."""
        return Matching(np.argwhere(self.taken).tolist())

    def owing(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the left and right nodes below their lower bounds."""
        return self.deg_l < self.l_lo, self.deg_r < self.r_lo

    def usable(self) -> np.ndarray:
        """Open edges whose endpoints both sit under their upper bounds."""
        out = ~self.closed
        out &= (self.deg_l < self.l_hi)[:, None]
        out &= (self.deg_r < self.r_hi)[None, :]
        return out

    def counting_feasible(self, usable: np.ndarray | None = None) -> bool:
        """Necessary conditions for completing all lower bounds.

        Each side's total need must fit in the other side's spare
        capacity, and each owing node must have at least as many open
        edges to nodes with spare capacity as it owes.  usable, when
        given, is this state's usable(); on owing nodes, which are under
        their upper bounds, it counts the same edges.
        """
        need_l = np.maximum(self.l_lo - self.deg_l, 0)
        need_r = np.maximum(self.r_lo - self.deg_r, 0)
        if need_l.sum() > (self.r_hi - self.deg_r).sum():
            return False
        if need_r.sum() > (self.l_hi - self.deg_l).sum():
            return False
        if need_l.any():
            avail = usable if usable is not None else (
                ~self.closed & (self.deg_r < self.r_hi)[None, :])
            if (need_l > avail.sum(axis=1)).any():
                return False
        if need_r.any():
            avail = usable if usable is not None else (
                ~self.closed & (self.deg_l < self.l_hi)[:, None])
            if (need_r > avail.sum(axis=0)).any():
                return False
        return True

    def guard(self, i: int, j: int) -> bool:
        """Would taking (i, j) keep the counting check alive?

        Leaves the cluster sums alone: they do not enter the check, and
        every sums mutation counts toward a from-scratch resync.
        """
        self.closed[i, j] = True
        self.deg_l[i] += 1
        self.deg_r[j] += 1
        ok = self.counting_feasible()
        self.closed[i, j] = False
        self.deg_l[i] -= 1
        self.deg_r[j] -= 1
        return ok
