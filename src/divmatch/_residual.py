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
exact._Pricer) is infinite exactly where it fails.  decide and undo
keep every value the check reads: each node's need, slack (usable
edges less need) and spare-capacity mask, each side's owed total, and
the taken count, which gives each side's spare total.  So a pick costs
no pass over the m x n masks, and besides its candidate mask
safe_mask's only whole-array work is the two sides' slack minima,
unless some slack is 0.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError
from .instance import Instance, Matching
from .objective import ClusterSums


class Residual:
    """Masks, degrees, kept counts and cluster sums of one partial
    selection.

    Starts empty; solvers change it one edge at a time with decide and
    reverse that with undo, the only two edits of the kept values below.
    taken and table are read-only views of sums.selected and sums.table,
    and edge (i, j)'s gain is w2[i, j] + tw[i, j] * table[j, c(i)], with
    w2 = w * w and tw = 2 * w.  Per node, on each side (suffix _l or
    _r):

    - need is lo - deg, negative where the node sits above its lower
      bound;
    - free marks the nodes under their upper bound (deg < hi);
    - slack is the node's usable count less its need: left node i counts
      its open edges (i, j) with free_r[j], right node j its open edges
      (i, j) with free_l[i].

    Per side, owed is the summed positive need.  n_taken counts the
    taken edges, so the spare capacity left on either side is its
    upper-bound sum (cap_l, cap_r) less n_taken.
    """

    __slots__ = ("inst", "l_lo", "l_hi", "r_lo", "r_hi", "taken", "table",
                 "w2", "tw", "closed", "deg_l", "deg_r", "need_l", "need_r",
                 "free_l", "free_r", "slack_l", "slack_r", "owed_l", "owed_r",
                 "n_taken", "cap_l", "cap_r", "sums")

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
        self.table = self.sums.table
        w = inst.weights
        self.w2, self.tw = w * w, 2.0 * w
        self.closed = np.zeros((inst.m, inst.n), dtype=bool)
        self.deg_l = np.zeros(inst.m, dtype=np.int64)
        self.deg_r = np.zeros(inst.n, dtype=np.int64)
        self.need_l, self.need_r = self.l_lo.copy(), self.r_lo.copy()
        self.free_l, self.free_r = self.l_hi > 0, self.r_hi > 0
        self.slack_l = np.count_nonzero(self.free_r) - self.need_l
        self.slack_r = np.count_nonzero(self.free_l) - self.need_r
        self.owed_l, self.owed_r = sum(b.l_lo), sum(b.r_lo)
        self.n_taken = 0

    def decide(self, i: int, j: int, take: bool) -> None:
        """Take or forbid open edge (i, j).

        Closing the edge drops it from each endpoint's usable count where
        the other endpoint is free, and a take lowers both endpoints'
        needs, so a take of a usable edge leaves both slacks alone.  A
        take that fills right node j (left node i) drops column j's (row
        i's) open edges from the other side's usable counts.
        """
        closed, deg_l, deg_r = self.closed, self.deg_l, self.deg_r
        need_l, need_r = self.need_l, self.need_r
        if closed[i, j]:
            raise InternalError(f"decide on closed edge ({i}, {j})")
        closed[i, j] = True
        take = bool(take)  # numpy bools do not subtract
        shift = take - bool(self.free_r[j])
        if shift:
            self.slack_l[i] += shift
        shift = take - bool(self.free_l[i])
        if shift:
            self.slack_r[j] += shift
        if not take:
            return
        self.n_taken += 1
        deg_l[i] += 1
        deg_r[j] += 1
        self.owed_l -= bool(need_l[i] > 0)
        self.owed_r -= bool(need_r[j] > 0)
        need_l[i] -= 1
        need_r[j] -= 1
        if deg_r[j] == self.r_hi[j]:
            self.free_r[j] = False
            self.slack_l -= ~closed[:, j]
        if deg_l[i] == self.l_hi[i]:
            self.free_l[i] = False
            self.slack_r -= ~closed[i]
        self.sums.add(i, j)

    def undo(self, i: int, j: int, took: bool) -> None:
        """Reverse decide(i, j, took), its steps in the opposite order."""
        closed, deg_l, deg_r = self.closed, self.deg_l, self.deg_r
        need_l, need_r = self.need_l, self.need_r
        if not closed[i, j]:
            raise InternalError(f"undo on open edge ({i}, {j})")
        if took:
            if deg_l[i] == self.l_hi[i]:
                self.free_l[i] = True
                self.slack_r += ~closed[i]
            if deg_r[j] == self.r_hi[j]:
                self.free_r[j] = True
                self.slack_l += ~closed[:, j]
            need_r[j] += 1
            need_l[i] += 1
            self.owed_r += bool(need_r[j] > 0)
            self.owed_l += bool(need_l[i] > 0)
            deg_r[j] -= 1
            deg_l[i] -= 1
            self.n_taken -= 1
            self.sums.remove(i, j)
        took = bool(took)
        shift = took - bool(self.free_l[i])
        if shift:
            self.slack_r[j] -= shift
        shift = took - bool(self.free_r[j])
        if shift:
            self.slack_l[i] -= shift
        closed[i, j] = False

    def matching(self) -> Matching:
        """The taken edges."""
        rows, cols = np.nonzero(self.taken)
        return Matching._trusted(zip(rows.tolist(), cols.tolist()))

    def usable(self) -> np.ndarray:
        """Open edges whose endpoints are both free."""
        out = ~self.closed
        out &= self.free_l[:, None]
        out &= self.free_r
        return out

    def safe_mask(self, side: str, node: int) -> np.ndarray:
        """Mask over the other side's nodes of node's safe partners.

        The counting check holds the necessary conditions for completing
        all lower bounds.  Each side's total need must fit in the other
        side's spare capacity, and each owing node must have at least as
        many usable edges (open, to free nodes) as it owes, that is a
        slack of at least 0.

        One reading of the kept values serves every candidate.  Taking
        (a, b) closes that edge, lowers the need of a and b by one,
        spends one unit of spare capacity on each side and, if b (a)
        fills up, closes b's column (a's row) to every other node.  So a
        candidate fails only if the state already fails or it drains
        something tight: a node whose slack is 0, or a side whose total
        need equals the other side's spare capacity.  The masks of tight
        nodes are built only when some slack is 0.  Leaves the state and
        the cluster sums alone.
        """
        sides = [(self.l_hi, self.deg_l, self.need_l, self.free_l,
                  self.slack_l, self.owed_l, self.cap_l),
                 (self.r_hi, self.deg_r, self.need_r, self.free_r,
                  self.slack_r, self.owed_r, self.cap_r)]
        closed = self.closed  # rows are a's nodes
        if side != "left":
            sides.reverse()
            closed = closed.T
        (hi_a, deg_a, need_a, _, slack_a, owed_a, cap_a), side_b = sides
        hi_b, deg_b, need_b, free_b, slack_b, owed_b, cap_b = side_b
        open_node = ~closed[node]
        cand = open_node & free_b
        spare_node = int(hi_a[node] - deg_a[node])
        least_a, least_b = int(slack_a.min()), int(slack_b.min())
        # node is full, or the state fails
        if spare_node <= 0 or least_a < 0 or least_b < 0:
            return np.zeros_like(cand)
        # a's side owes more than b's side can take
        if owed_a - (need_a[node] > 0) > cap_b - self.n_taken - 1:
            return np.zeros_like(cand)
        # b's side owes what a's side can take: b must owe too
        short = owed_b - (cap_a - self.n_taken - 1)
        if short > 1:
            return np.zeros_like(cand)
        if short == 1:
            cand &= need_b > 0
        # b fills up: its column closes to the tight nodes on a's side
        if least_a == 0:
            tight = (slack_a == 0) & (need_a > 0)
            tight[node] = False
            if tight.any():
                cand &= ~((hi_b - deg_b == 1) & ~closed[tight].all(axis=0))
        # a fills up: its row closes to every b' but the one taken
        if spare_node == 1 and least_b == 0:
            drained = (slack_b == 0) & (need_b > 0) & open_node
            count = int(drained.sum())
            if count > 1:
                return np.zeros_like(cand)
            if count == 1:
                cand &= drained
        return cand
