"""Problem instances, matchings, and their JSON formats.

An instance is a complete bipartite graph: every (left, right) pair is a
candidate edge.  Left nodes carry a hard cluster label; both sides carry
per-node degree bounds.  Weights are costs: lower is better.

Instance file format (UTF-8 JSON):

    {"m": int, "n": int, "k": int,
     "weights": [[row of n reals] x m],
     "clusters": [int x m],
     "bounds": {"L_lo": int | [int x m], "L_hi": int | [int x m],
                "R_lo": int | [int x n], "R_hi": int | [int x n]}}

Scalar bounds broadcast to every node on their side; internally bounds are
always per-node.  Matching file format: {"edges": [[i, j], ...]} with the
pairs sorted by (i, j).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InstanceError, MatchingError


def _is_int(value) -> bool:
    """A Python or numpy integer; bools, floats and strings are not."""
    # the type test is a shortcut for plain ints, the common case
    return type(value) is int or (isinstance(value, (int, np.integer))
                                  and not isinstance(value, bool))


def _as_int(value, field: str) -> int:
    """An integer field's value; anything _is_int rejects raises."""
    if not _is_int(value):
        raise InstanceError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _is_sequence(value) -> bool:
    """A list, tuple or array of one or more dimensions (0-d is scalar)."""
    return (isinstance(value, (list, tuple))
            or isinstance(value, np.ndarray) and value.ndim > 0)


def _full_cost(weights: np.ndarray, clusters: np.ndarray, k: int) -> float:
    """The concentration cost of selecting every edge, an upper bound on
    every matching's: sum over right nodes j and clusters c of (sum of
    weights[i, j] over i in c) squared; inf where that overflows."""
    n = weights.shape[1]
    cells = (clusters[:, None] * n + np.arange(n)).ravel()
    full = np.bincount(cells, weights.ravel(), k * n)
    with np.errstate(over="ignore"):
        return float((full * full).sum())


@dataclass(frozen=True)
class DegreeBounds:
    """Per-node degree intervals for both sides of the graph.

    Every construction checks itself: entries are integers (Python or
    numpy, not bools), stored as tuples of Python ints; each side's lo
    and hi have equal length; 0 <= lo <= hi <= the other side's size.
    """

    l_lo: tuple[int, ...]
    l_hi: tuple[int, ...]
    r_lo: tuple[int, ...]
    r_hi: tuple[int, ...]

    def __post_init__(self):
        for name in ("l_lo", "l_hi", "r_lo", "r_hi"):
            field, value = name.capitalize(), getattr(self, name)
            if not _is_sequence(value):
                raise InstanceError(
                    f"{field} must be a sequence of integers, got {value!r}")
            object.__setattr__(self, name, tuple(
                [v if type(v) is int else _as_int(v, f"{field}[{i}]")
                 for i, v in enumerate(value)]))
        for side, lo, hi, limit in (("L", self.l_lo, self.l_hi, len(self.r_lo)),
                                    ("R", self.r_lo, self.r_hi, len(self.l_lo))):
            if len(lo) != len(hi):
                raise InstanceError(f"{side}_lo has {len(lo)} entries but "
                                    f"{side}_hi has {len(hi)}")
            for i, (a, b) in enumerate(zip(lo, hi)):
                if not 0 <= a <= b <= limit:
                    raise InstanceError(
                        f"{side}_lo[{i}] = {a}, {side}_hi[{i}] = {b} break "
                        f"0 <= lo <= hi <= {limit}, the other side's size")

    @staticmethod
    def broadcast(m: int, n: int, l_lo, l_hi, r_lo, r_hi) -> "DegreeBounds":
        """Build bounds from scalars or per-node sequences; here only a
        sequence's length is checked, against m or n."""
        fields = []
        for field, value, length in (("L_lo", l_lo, m), ("L_hi", l_hi, m),
                                     ("R_lo", r_lo, n), ("R_hi", r_hi, n)):
            if not _is_sequence(value):
                value = (_as_int(value, field),) * length
            elif len(value) != length:
                raise InstanceError(
                    f"{field} bound has length {len(value)}, expected {length}")
            fields.append(value)
        return DegreeBounds(*fields)


class Instance:
    """Immutable weighted bipartite instance with clusters and bounds.

    Construction validates everything: weights must be finite and
    nonnegative, cluster ids must cover {0..k-1} with no gaps (an empty
    cluster is a rejected input, not a silent renumbering), bounds must
    be a DegreeBounds (which checks itself) sized m by n, and the
    concentration cost of selecting every edge must be finite.
    Instances are safe to share across concurrent solver runs.

    The first is_feasible_bounds call keeps its verdict in a private
    slot, so every later call on the instance, by any solver, reads it
    back.  Equality, hashing and pickling ignore the slot: a pickled or
    copied instance is rebuilt through __init__ and counts afresh.
    """

    __slots__ = ("_weights", "_clusters", "_k", "_bounds", "_feasible")

    def __init__(self, weights, clusters: Sequence[int], k: int, bounds: DegreeBounds):
        try:
            w = np.asarray(weights)
        except (TypeError, ValueError) as exc:
            raise InstanceError(f"weights must be real numbers: {exc}") from None
        # bools, strings, objects and complex numbers are refused, not cast
        if w.dtype.kind not in "iuf":
            raise InstanceError(f"weights must be real numbers, got dtype {w.dtype}")
        w = w.astype(np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise InstanceError(f"weights must be a 2-D m x n table, got shape {w.shape}")
        for bad, what in ((~np.isfinite(w), "is not finite"),
                          (w < 0, "is negative")):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise InstanceError(f"weights[{i}][{j}] {what}")
        m, n = w.shape

        k = _as_int(k, "k")
        if k < 1:
            raise InstanceError(f"k must be positive, got {k}")
        if not _is_sequence(clusters):
            raise InstanceError(
                f"clusters must be a sequence of integers, got {clusters!r}")
        c = np.array([_as_int(x, f"clusters[{i}]")
                      for i, x in enumerate(clusters)], dtype=np.int64)
        if c.shape != (m,):
            raise InstanceError(f"clusters has length {c.shape[0]}, expected m = {m}")
        for i, ci in enumerate(c):
            if ci < 0 or ci >= k:
                raise InstanceError(f"clusters[{i}] = {ci} outside 0..{k - 1}")
        used = np.unique(c)
        if len(used) != k:
            missing = sorted(set(range(k)) - set(used.tolist()))
            raise InstanceError(f"cluster ids {missing} unused; k = {k} must be tight")
        # every solver costs its answer, so that cost must stay finite
        if not np.isfinite(_full_cost(w, c, k)):
            raise InstanceError("weights too large: the concentration cost "
                                "of selecting every edge overflows")

        if not isinstance(bounds, DegreeBounds):
            raise InstanceError("bounds must be a DegreeBounds")
        if len(bounds.l_lo) != m or len(bounds.r_lo) != n:
            raise InstanceError("bounds sized for a different instance")

        w.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_clusters", c)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_feasible", None)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not __setattr__
        return type(self), (self._weights, self._clusters, self._k,
                            self._bounds)

    @property
    def m(self) -> int:
        return self._weights.shape[0]

    @property
    def n(self) -> int:
        return self._weights.shape[1]

    @property
    def k(self) -> int:
        return self._k

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def clusters(self) -> np.ndarray:
        return self._clusters

    @property
    def bounds(self) -> DegreeBounds:
        return self._bounds

    @property
    def right_only(self) -> bool:
        """True when no left bound binds: every L_lo = 0 and L_hi = n.

        Right nodes then never compete for left capacity, so each right
        node's edges can be chosen independently.
        """
        b = self._bounds
        return max(b.l_lo) == 0 and min(b.l_hi) == self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self._k == other._k
            and self._bounds == other._bounds
            and np.array_equal(self._weights, other._weights)
            and np.array_equal(self._clusters, other._clusters)
        )

    def __hash__(self):
        return hash((self._weights.tobytes(), self._clusters.tobytes(),
                     self._k, self._bounds))

    def __repr__(self):
        return f"Instance(m={self.m}, n={self.n}, k={self.k})"


class Matching:
    """An immutable set of selected (left, right) edges.

    Edges are kept canonically sorted by (left, right).  Indices must be
    integers (Python or numpy, not bools); duplicates and negative
    indices are rejected; range checks against a concrete instance
    happen in check_matching.
    """

    __slots__ = ("_edges",)

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        pairs = []
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise MatchingError(f"edge {e!r} is not an (i, j) pair") from None
            if not (_is_int(i) and _is_int(j)):
                raise MatchingError(
                    f"edge indices must be integers, got ({i!r}, {j!r})")
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise MatchingError(f"edge ({i}, {j}) has a negative index")
            pairs.append((i, j))
        pairs.sort()
        for a, b in zip(pairs, pairs[1:]):
            if a == b:
                raise MatchingError(f"duplicate edge {a}")
        object.__setattr__(self, "_edges", tuple(pairs))

    @classmethod
    def _trusted(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        """Matching of edges a solver built itself: unique pairs of
        nonnegative Python ints.  Only sorts them; report._finish still
        checks every solver's output against its instance."""
        self = object.__new__(cls)
        object.__setattr__(self, "_edges", tuple(sorted(pairs)))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Matching is immutable")

    def __reduce__(self):
        return type(self), (self._edges,)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def __contains__(self, edge) -> bool:
        return tuple(edge) in self._edges

    def __iter__(self):
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self):
        return hash(self._edges)

    def __repr__(self):
        return f"Matching({list(self._edges)!r})"

    def degrees(self, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Left and right degree vectors under this matching."""
        dl = np.zeros(m, dtype=np.int64)
        dr = np.zeros(n, dtype=np.int64)
        for i, j in self._edges:
            if i >= m or j >= n:
                raise MatchingError(f"edge ({i}, {j}) out of range for {m} x {n}")
            dl[i] += 1
            dr[j] += 1
        return dl, dr


# ---------------------------------------------------------------------------
# feasibility and validation
# ---------------------------------------------------------------------------

def _first_overload(lo: np.ndarray, hi_other: np.ndarray):
    """Smallest node set whose lower bounds the other side cannot absorb.

    Taking lo in decreasing order (ties to the lower id), the first a
    nodes need the most edges of any a nodes, while the other side
    admits at most sum_j min(a, hi_other[j]) edges into any a nodes.
    Returns (sorted node ids, edges needed, edges admitted) for the
    smallest a that fails, or None when none does.
    """
    order = np.argsort(-lo, kind="stable")
    need = np.cumsum(lo[order])
    sizes = np.arange(1, len(lo) + 1)[:, None]
    admit = np.minimum(sizes, hi_other).sum(axis=1)
    over = np.flatnonzero(need > admit)
    if over.size == 0:
        return None
    a = int(over[0])
    return sorted(order[:a + 1].tolist()), int(need[a]), int(admit[a])


def is_feasible_bounds(inst: Instance) -> tuple[bool, str]:
    """Decide whether any matching can satisfy all degree bounds.

    Exact test by counting.  Some matching fits every bound if and only if
      (left)  for a = 1..m, the a largest L_lo sum to at most
              sum_j min(a, R_hi[j]), and
      (right) for b = 1..n, the b largest R_lo sum to at most
              sum_i min(b, L_hi[i]).
    Both are necessary: a left nodes share at most min(a, R_hi[j]) edges
    with right node j.  On the complete bipartite graph they are also
    sufficient.  Every left-right pair is an edge, so the number of edges
    a cut of the lowered circulation severs depends only on how many
    nodes it holds on each side, and Hoffman's circulation theorem
    reduces to the Gale-Ryser inequalities: (left) holds exactly when
    some matching meets every left lower bound within both upper bounds,
    (right) the same for the right side, and on a bipartite graph two
    such matchings imply one that meets all four bounds (the linking
    property of degree-constrained subgraphs).

    Returns (feasible, diagnostic).  The diagnostic names the first
    inequality that fails, left before right and the smallest set
    first: a single node ("left node i cannot reach its lower bound
    ...") or the node set, the edges it needs and the capacity the
    other side admits.  It depends on the bounds alone, so the first
    call's result is kept on the instance and returned by every later
    one.
    """
    if inst._feasible is None:
        # two calls that race both count and store the same verdict
        object.__setattr__(inst, "_feasible", _count_feasible(inst.bounds))
    return inst._feasible


def _count_feasible(b: DegreeBounds) -> tuple[bool, str]:
    """is_feasible_bounds' verdict on bounds b, counted afresh."""
    for side, other, lo, hi_other in (("left", "right", b.l_lo, b.r_hi),
                                      ("right", "left", b.r_lo, b.l_hi)):
        found = _first_overload(np.array(lo), np.array(hi_other))
        if found is None:
            continue
        nodes, need, admitted = found
        if len(nodes) == 1:
            return False, (f"{side} node {nodes[0]} cannot reach its lower "
                           f"bound {need} ({other}-side capacity too small)")
        names = ", ".join(map(str, nodes[:-1])) + f" and {nodes[-1]}"
        return False, (f"{side} nodes {names} cannot reach their lower bounds "
                       f"together (they need {need} edges, {other}-side "
                       f"capacity admits {admitted})")
    return True, "feasible"


def check_matching(inst: Instance, match: Matching) -> tuple[bool, list[str]]:
    """Verify all degree bounds; returns (ok, per-node violation list)."""
    dl, dr = match.degrees(inst.m, inst.n)
    b = inst.bounds
    violations = []
    for side, deg, lo, hi in (("left", dl, b.l_lo, b.l_hi),
                              ("right", dr, b.r_lo, b.r_hi)):
        for i, (d, a, c) in enumerate(zip(deg.tolist(), lo, hi)):
            if not a <= d <= c:
                violations.append(f"{side} {i}: degree {d} outside [{a}, {c}]")
    return not violations, violations


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def load_instance(text: str) -> Instance:
    """Parse an instance document; errors name the offending field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for field in ("m", "n", "k", "weights", "clusters", "bounds"):
        if field not in doc:
            raise InstanceError(f"missing field {field!r}")
    # only what the constructors cannot check: m, n, JSON shapes, bools
    m, n = doc["m"], doc["n"]
    for name, v in (("m", m), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InstanceError(f"{name} must be a positive integer, got {v!r}")
    w = doc["weights"]
    if not isinstance(w, list) or len(w) != m:
        raise InstanceError(f"weights must have m = {m} rows")
    for i, row in enumerate(w):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceError(f"weights row {i} must have n = {n} entries")
        for j, v in enumerate(row):
            if isinstance(v, bool):
                raise InstanceError(f"weights[{i}][{j}] is not a number")
    if not isinstance(doc["clusters"], list):
        raise InstanceError("clusters must be a list of labels")
    bounds_doc = doc["bounds"]
    if not isinstance(bounds_doc, dict):
        raise InstanceError("bounds must be an object")
    fields = ("L_lo", "L_hi", "R_lo", "R_hi")
    for field in fields:
        if field not in bounds_doc:
            raise InstanceError(f"bounds missing field {field!r}")
    bounds = DegreeBounds.broadcast(m, n, *(bounds_doc[f] for f in fields))
    return Instance(w, doc["clusters"], doc["k"], bounds)


def save_instance(inst: Instance) -> str:
    """Serialize with full decimal precision; load(save(x)) == x."""
    doc = {
        "m": inst.m,
        "n": inst.n,
        "k": inst.k,
        "weights": [[float(v) for v in row] for row in inst.weights],
        "clusters": [int(c) for c in inst.clusters],
        "bounds": {f.capitalize(): list(v) for f, v in asdict(inst.bounds).items()},
    }
    return json.dumps(doc)


def load_matching(text: str) -> Matching:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatchingError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "edges" not in doc:
        raise MatchingError("matching document must be an object with an 'edges' field")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise MatchingError("'edges' must be a list of [i, j] pairs")
    return Matching(edges)


def save_matching(match: Matching) -> str:
    return json.dumps({"edges": [[i, j] for i, j in match.edges]})


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def transform_max_to_min(inst: Instance) -> Instance:
    """Flip rating-style weights (higher is better) into costs.

    Every weight becomes (global max weight) - weight; clusters and bounds
    are unchanged.  Apply this before solving data where larger numbers
    mean better matches.
    """
    top = float(inst.weights.max())
    return Instance(top - inst.weights, inst.clusters, inst.k, inst.bounds)
