"""Residual state of a partial selection, shared by the diverse solvers.

Greedy and branch and bound both ask of a partial edge set which nodes
still owe edges, which edges can still be added and what the next edge
would cost.  An edge is taken, forbidden (by a branching decision) or
open; closed marks taken or forbidden edges, so for greedy, which never
forbids, closed equals taken.  The selection is recorded once: the
taken mask is the cluster sums' own selection mask, and decide/undo
are the only ways to change it.

Both also ask whether the residual lower bounds can still be met; one
counting check answers that.  Greedy takes from safe_mask the edges
that keep it, and branch and bound's completion bound (priced by
exact._Pricer) is infinite exactly where it fails.  safe_mask reads
per-node availability counts that decide and undo keep, so a pick
costs no pass over the m x n masks.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError
from .instance import Instance, Matching
from .objective import ClusterSums


class Residual:
    """Masks, degrees, availability counts and cluster sums of one
    partial selection.

    Starts empty; solvers change it one edge at a time with decide and
    reverse that with undo.  taken is a read-only view of sums.selected.
    avail_l[i] counts the open edges (i, j) whose right node j sits under
    r_hi[j], and avail_r[j] the open edges (i, j) whose left node i sits
    under l_hi[i]; only __init__, decide and undo change them.  cap_l
    and cap_r are the sums of the left and right upper bounds.
    """

    __slots__ = ("inst", "l_lo", "l_hi", "r_lo", "r_hi", "taken", "closed",
                 "deg_l", "deg_r", "avail_l", "avail_r", "cap_l", "cap_r",
                 "sums")

    def __init__(self, inst: Instance):
        self.inst = inst
        b = inst.bounds
        self.l_lo = np.array(b.l_lo, dtype=np.int64)
        self.l_hi = np.array(b.l_hi, dtype=np.int64)
        self.r_lo = np.array(b.r_lo, dtype=np.int64)
        self.r_hi = np.array(b.r_hi, dtype=np.int64)
        self.cap_l, self.cap_r = sum(b.l_hi), sum(b.r_hi)
        self.sums = ClusterSums(inst)
        self.taken = self.sums.selected
        self.closed = np.zeros((inst.m, inst.n), dtype=bool)
        self.deg_l = np.zeros(inst.m, dtype=np.int64)
        self.deg_r = np.zeros(inst.n, dtype=np.int64)
        self.avail_l = np.full(inst.m, np.count_nonzero(self.r_hi),
                               dtype=np.int64)
        self.avail_r = np.full(inst.n, np.count_nonzero(self.l_hi),
                               dtype=np.int64)

    def decide(self, i: int, j: int, take: bool) -> None:
        """Take or forbid open edge (i, j).

        Closing the edge drops it from each endpoint's count where the
        other endpoint has spare capacity; a take that fills right node j
        (left node i) drops column j's (row i's) open edges from the
        other side's counts.
        """
        closed, deg_l, deg_r = self.closed, self.deg_l, self.deg_r
        if closed[i, j]:
            raise InternalError(f"decide on closed edge ({i}, {j})")
        closed[i, j] = True
        if deg_r[j] < self.r_hi[j]:
            self.avail_l[i] -= 1
        if deg_l[i] < self.l_hi[i]:
            self.avail_r[j] -= 1
        if not take:
            return
        deg_l[i] += 1
        deg_r[j] += 1
        if deg_r[j] == self.r_hi[j]:
            self.avail_l -= ~closed[:, j]
        if deg_l[i] == self.l_hi[i]:
            self.avail_r -= ~closed[i]
        self.sums.add(i, j)

    def undo(self, i: int, j: int, took: bool) -> None:
        """Reverse decide(i, j, took), its steps in the opposite order."""
        closed, deg_l, deg_r = self.closed, self.deg_l, self.deg_r
        if not closed[i, j]:
            raise InternalError(f"undo on open edge ({i}, {j})")
        if took:
            if deg_l[i] == self.l_hi[i]:
                self.avail_r += ~closed[i]
            if deg_r[j] == self.r_hi[j]:
                self.avail_l += ~closed[:, j]
            deg_l[i] -= 1
            deg_r[j] -= 1
            self.sums.remove(i, j)
        if deg_r[j] < self.r_hi[j]:
            self.avail_l[i] += 1
        if deg_l[i] < self.l_hi[i]:
            self.avail_r[j] += 1
        closed[i, j] = False

    def matching(self) -> Matching:
        """The taken edges."""
        rows, cols = np.nonzero(self.taken)
        return Matching._trusted(zip(rows.tolist(), cols.tolist()))

    def usable(self) -> np.ndarray:
        """Open edges whose endpoints both sit under their upper bounds."""
        out = ~self.closed
        out &= (self.deg_l < self.l_hi)[:, None]
        out &= (self.deg_r < self.r_hi)[None, :]
        return out

    def safe_mask(self, side: str, node: int) -> np.ndarray:
        """Mask over the other side's nodes of node's safe partners.

        The counting check holds the necessary conditions for completing
        all lower bounds.  Each side's total need must fit in the other
        side's spare capacity, and each owing node must have at least as
        many usable edges (open, to nodes with spare capacity) as it
        owes; avail_l and avail_r are those counts.

        One reading of the counts serves every candidate.  Taking (a, b)
        closes that edge, lowers the need of a and b by one, spends one
        unit of spare capacity on each side and, if b (a) fills up,
        closes b's column (a's row) to every other node.  So a candidate
        fails only if the state already fails or it drains something
        tight: a node whose need equals its usable count, or a side whose
        total need equals the other side's spare capacity.  The masks of
        tight nodes are built only when some node is tight.  Leaves the
        state and the cluster sums alone.
        """
        sides = [(self.l_lo, self.l_hi, self.deg_l, self.avail_l, self.cap_l),
                 (self.r_lo, self.r_hi, self.deg_r, self.avail_r, self.cap_r)]
        closed = self.closed  # rows are a's nodes
        if side != "left":
            sides.reverse()
            closed = closed.T
        (lo_a, hi_a, deg_a, avail_a, cap_a), side_b = sides
        lo_b, hi_b, deg_b, avail_b, cap_b = side_b
        open_node = ~closed[node]
        spare_b = hi_b - deg_b
        cand = open_node & (spare_b > 0)
        spare_node = int(hi_a[node] - deg_a[node])
        if spare_node <= 0 or not cand.any():
            return np.zeros_like(cand)
        need_a, need_b = lo_a - deg_a, lo_b - deg_b
        slack_a, slack_b = avail_a - need_a, avail_b - need_b
        least_a, least_b = int(slack_a.min()), int(slack_b.min())
        if least_a < 0 or least_b < 0:  # the state fails
            return np.zeros_like(cand)
        # a's side owes more than b's side can take
        spare_b_total = int(spare_b.sum())
        owed_a = int(np.maximum(need_a, 0).sum()) - int(need_a[node] > 0)
        if owed_a > spare_b_total - 1:
            return np.zeros_like(cand)
        # b's side owes what a's side can take: b must owe too (both
        # sides have spent the same number of taken edges)
        spare_a_total = spare_b_total + cap_a - cap_b
        short = int(np.maximum(need_b, 0).sum()) - (spare_a_total - 1)
        if short > 1:
            return np.zeros_like(cand)
        if short == 1:
            cand &= need_b > 0
        # b fills up: its column closes to the tight nodes on a's side
        if least_a == 0:
            tight = (slack_a == 0) & (need_a > 0)
            tight[node] = False
            if tight.any():
                cand &= ~((spare_b == 1) & ~closed[tight].all(axis=0))
        # a fills up: its row closes to every b' but the one taken
        if spare_node == 1 and least_b == 0:
            drained = (slack_b == 0) & (need_b > 0) & open_node
            count = int(drained.sum())
            if count > 1:
                return np.zeros_like(cand)
            if count == 1:
                cand &= drained
        return cand
