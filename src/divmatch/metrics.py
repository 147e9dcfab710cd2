"""Diversity and efficiency metrics for comparing two matchings.

The baseline matching minimizes total weight; the diverse matching
minimizes the cluster concentration cost.  The metrics quantify what the
diverse rule gains in cluster spread (entropy gain) and what it costs in
weight (price of diversity), plus an a-priori worst-case floor on that
price computed from the baseline matching alone.

All entropies use the natural logarithm and are reported in nats; the
entropy gain is a ratio, so the base would cancel in it anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .instance import Instance, Matching
from .objective import _groups


def _csv_cell(value) -> str:
    """One CSV cell: None empty, a float by repr, anything else by str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def node_entropy(inst: Instance, match: Matching,
                 right_node: int) -> Optional[float]:
    """Shannon entropy (nats) of the cluster mix of one right node's edges.

    p_c is the proportion of the node's selected edges whose left
    endpoint lies in cluster c; terms with p_c = 0 contribute nothing.
    A node with no selected edges has no distribution: returns None,
    and callers exclude it from averages.
    """
    if not 0 <= right_node < inst.n:
        raise IndexError(f"right node {right_node} outside 0..{inst.n - 1}")
    return entropy_profile(inst, match)[right_node]


def entropy_profile(inst: Instance, match: Matching) -> list[Optional[float]]:
    """node_entropy for every right node, None where undefined."""
    counts: list[list[int]] = [[] for _ in range(inst.n)]
    for (j, _), group in _groups(inst, match).items():
        counts[j].append(len(group))
    profile = []
    for node in counts:
        deg = sum(node)
        profile.append(None if deg == 0 else -math.fsum(
            (c / deg) * math.log(c / deg) for c in node))
    return profile


def entropy_gain(inst: Instance, baseline: Matching,
                 diverse: Matching) -> tuple[Optional[float], str]:
    """Ratio of average node entropies (nats): diverse over baseline.

    A right node with no edges in either matching is excluded from both
    averages, so the two sides always average over the same node set.
    Returns (value, diagnostic); value is None when the baseline average
    is zero (every baseline neighborhood single-cluster) or when no node
    is defined on both sides, with the diagnostic saying which.
    """
    pairs = [(b, d) for b, d in zip(entropy_profile(inst, baseline),
                                    entropy_profile(inst, diverse))
             if b is not None and d is not None]
    if not pairs:
        return None, "no right node has selected edges in both matchings"
    avg_b, avg_d = (math.fsum(side) / len(pairs) for side in zip(*pairs))
    if avg_b == 0.0:
        return None, ("baseline average entropy is zero (all single-cluster "
                      "neighborhoods); entropy gain is undefined")
    return avg_d / avg_b, ""


def price_of_diversity(weight_baseline: float,
                       weight_diverse: float) -> Optional[float]:
    """Baseline weight over diverse weight; at most 1 when both optimal.

    Under minimization the baseline weight is the smaller, so the ratio
    measures retained efficiency (1 means diversity was free).  A zero
    diverse weight leaves the ratio undefined: returns None.
    """
    if weight_diverse == 0.0:
        return None
    return weight_baseline / weight_diverse


def node_bound_term(z: float, r_lo: int) -> float:
    """Worst-case efficiency floor for one right node.

    z is the node's baseline weight spread: summed selected weight over
    the minimum selected weight, with z = inf denoting a zero minimum.
    A node owing at most one edge cannot trade weight for spread, so its
    term is 1.  As z grows the term falls toward the universal limit
    1 / sqrt(r_lo - 1).
    """
    if r_lo <= 1:
        return 1.0
    root = math.sqrt(r_lo - 1)
    if math.isinf(z):
        return 1.0 / root
    return z / (1.0 + root * math.sqrt(z * z - 1.0))


def pod_lower_bound(inst: Instance,
                    baseline: Matching) -> tuple[float, str]:
    """Worst-case floor on the price of diversity, from the baseline alone.

    Premise: lower bounds sit on the right side only, i.e. every left
    node has L_lo = 0 and L_hi = n.  Each right node j is then its own
    subproblem, and an optimal diverse part D_j weighs at most
    W_B_j / t_j, where W_B_j is the node's baseline weight and
    t_j = node_bound_term(z_j, r_lo[j]) with z_j the spread of the
    node's baseline-selected weights.  Summing over nodes gives
    PoD >= sum(W_B_j) / sum(W_B_j / t_j): the harmonic mean of the
    terms, weighted by baseline weight.  (The plain average of the terms
    is not implied and can exceed the true ratio.)  When the premise
    fails the value is computed the same way but is not a floor, and
    the diagnostic says so.

    Nodes with no selected edges carry no information and are excluded;
    the diagnostic lists them.  With zero summed baseline weight the
    bound degenerates to 1 (vacuous, flagged).
    """
    by_node: list[list[float]] = [[] for _ in range(inst.n)]
    for (j, _), group in _groups(inst, baseline).items():
        by_node[j].extend(group)
    baseline_w = []
    diverse_cap = []
    skipped = []
    for j, sel in enumerate(by_node):
        if not sel:
            skipped.append(j)
            continue
        lo = min(sel)
        total = math.fsum(sel)
        z = math.inf if lo == 0.0 else total / lo
        baseline_w.append(total)
        diverse_cap.append(total / node_bound_term(z, inst.bounds.r_lo[j]))
    total_b = math.fsum(baseline_w)
    notes = []
    if total_b == 0.0:
        notes.append("baseline has no selected weight; bound is vacuous")
    if skipped:
        notes.append("right nodes without selected edges excluded: "
                     + ", ".join(str(j) for j in skipped))
    if not inst.right_only:
        notes.append("left degree bounds present; the premise of "
                     "right-side bounds only fails, so pod_bound is not "
                     "a floor")
    bound = 1.0 if total_b == 0.0 else total_b / math.fsum(diverse_cap)
    return bound, "; ".join(notes)


@dataclass(frozen=True)
class MetricsReport:
    """Side-by-side comparison of a baseline and a diverse solve.

    pod and eg are None when undefined (see the metric functions);
    diagnostic explains any None.  Serializes to one CSV row with
    empty cells for undefined values.
    """

    instance_id: str
    m: int
    n: int
    k: int
    r_lo: tuple[int, ...]
    weight_baseline: Optional[float]
    weight_diverse: Optional[float]
    pod: Optional[float]
    pod_bound: Optional[float]
    eg: Optional[float]
    status_baseline: str
    status_diverse: str
    wall_s_baseline: float
    wall_s_diverse: float
    diagnostic: str = ""

    CSV_HEADER = ("instance_id,m,n,k,r_lo,weight_baseline,weight_diverse,"
                  "pod,pod_bound,eg,status_baseline,status_diverse,"
                  "wall_s_baseline,wall_s_diverse")

    def to_csv_row(self) -> str:
        r_lo = (self.r_lo[0] if len(set(self.r_lo)) == 1
                else "|".join(str(v) for v in self.r_lo))
        return ",".join(_csv_cell(r_lo if c == "r_lo" else getattr(self, c))
                        for c in self.CSV_HEADER.split(","))


def compute_metrics(inst: Instance, baseline_report, diverse_report,
                    instance_id: str = "") -> MetricsReport:
    """Assemble a MetricsReport from two finished SolveReports.

    Both reports must carry matchings (solves that found something);
    metric values that are undefined stay None with the reason in the
    diagnostic field.
    """
    mb, md = baseline_report.matching, diverse_report.matching
    if mb is None or md is None:
        raise ValueError("metrics need two solved matchings")
    eg, eg_diag = entropy_gain(inst, mb, md)
    pod = price_of_diversity(baseline_report.total_weight,
                             diverse_report.total_weight)
    pod_diag = "" if pod is not None else "diverse weight is zero; PoD undefined"
    bound, bound_diag = pod_lower_bound(inst, mb)
    diag = "; ".join(d for d in (eg_diag, pod_diag, bound_diag) if d)
    return MetricsReport(
        instance_id=instance_id,
        m=inst.m, n=inst.n, k=inst.k,
        r_lo=inst.bounds.r_lo,
        weight_baseline=baseline_report.total_weight,
        weight_diverse=diverse_report.total_weight,
        pod=pod,
        pod_bound=bound,
        eg=eg,
        status_baseline=baseline_report.status,
        status_diverse=diverse_report.status,
        wall_s_baseline=baseline_report.wall_time,
        wall_s_diverse=diverse_report.wall_time,
        diagnostic=diag,
    )
