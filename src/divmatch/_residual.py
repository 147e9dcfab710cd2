"""Residual state of a partial selection, shared by the diverse solvers.

Greedy and branch and bound both ask of a partial edge set which nodes
still owe edges, which edges can still be added and what the next edge
would cost.  An edge is taken, forbidden (by a branching decision) or
open; closed marks taken or forbidden edges, so for greedy, which never
forbids, closed equals taken.

Both also ask whether the residual lower bounds can still be met; one
counting check answers that.  Greedy takes from safe_partners the edges
that keep it, and branch and bound's completion bound
(exact.completion_bound) is infinite exactly where it fails.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance, Matching
from .objective import ClusterSums


class Residual:
    """Masks, degrees and cluster sums of one partial selection.

    Starts empty; solvers change it one edge at a time.  It keeps no
    availability counters: the counting check is evaluated from counts
    taken per call, for all of a node's candidates at once.
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

    def safe_partners(self, side: str, node: int) -> list[int]:
        """Partners of node whose edge is usable and passes the counting
        check once taken, ascending.

        The counting check holds the necessary conditions for completing
        all lower bounds.  Each side's total need must fit in the other
        side's spare capacity, and each owing node must have at least as
        many usable edges (open, to nodes with spare capacity) as it
        owes.

        One pass over the masks serves every candidate.  Taking (a, b)
        closes that edge, lowers the need of a and b by one, spends one
        unit of spare capacity on each side and, if b (a) fills up,
        closes b's column (a's row) to every other node.  So a candidate
        fails only if the state already fails or it drains something
        tight: a node whose need equals its usable count, or a side whose
        total need equals the other side's spare capacity.  Leaves the
        state and the cluster sums alone.
        """
        sides = [(self.l_lo, self.l_hi, self.deg_l),
                 (self.r_lo, self.r_hi, self.deg_r)]
        open_ = ~self.closed
        if side != "left":
            sides.reverse()
            open_ = open_.T
        (lo_a, hi_a, deg_a), (lo_b, hi_b, deg_b) = sides
        need_a, need_b = np.maximum(lo_a - deg_a, 0), np.maximum(lo_b - deg_b, 0)
        spare_a, spare_b = hi_a - deg_a, hi_b - deg_b
        cand = open_[node] & (spare_b > 0)
        if spare_a[node] <= 0 or not cand.any():
            return []
        avail_a = (open_ & (spare_b > 0)).sum(axis=1)
        avail_b = (open_ & (spare_a > 0)[:, None]).sum(axis=0)
        # the state fails, or a's side owes more than b's side can take
        if ((need_a > avail_a).any() or (need_b > avail_b).any()
                or need_a.sum() - (need_a[node] > 0) > spare_b.sum() - 1):
            return []
        fail = need_b.sum() - (need_b > 0) > spare_a.sum() - 1
        # b fills up: its column closes to the tight nodes on a's side
        tight_a = (need_a > 0) & (need_a == avail_a)
        tight_a[node] = False
        fail |= (spare_b == 1) & open_[tight_a].any(axis=0)
        # a fills up: its row closes to every b' but the one taken
        if spare_a[node] == 1:
            drained = (need_b > 0) & (need_b == avail_b) & open_[node]
            fail |= drained.sum() - drained > 0
        return np.flatnonzero(cand & ~fail).tolist()
