"""Instance generation and benchmark batteries.

Random instances use numpy's default generator (PCG64), a named and
documented PRNG, so a seed plus a config reproduces every instance bit
for bit.  Cluster labels are drawn in blocks of doubling row counts,
and the first draw in stream order that uses every cluster is kept, so
an instance is the one a row-by-row redraw gives (a test pins this),
while a config near the refusal cut costs a few hundred block draws,
not one interpreter round trip per draw.  Batch runs derive one child
seed per trial from the master seed as the sequence [master, sweep
value, trial index]; the CSVs they emit are byte-identical across runs
except for wall-time cells and the cells of an exact solve that stopped
on its budget (such as `run_scaling`'s `cost_exact` on a large shape):
those depend on how far the clock let the search go.

Three batteries mirror the synthetic experiments this package is asked
to support: a cluster-count sweep comparing the diverse solvers against
the weight-minimizing baseline over many random trials, a right-side
lower-bound sweep on one fixed weight matrix, and a size sweep timing
all three solvers as the left side grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .exact import solve_diverse_exact
from .greedy import solve_diverse_greedy
from .instance import DegreeBounds, Instance, _is_int, _is_sequence
from .metrics import MetricsReport, _csv_cell, compute_metrics
from .minweight import solve_min_weight

SCALING_BUDGET_MS = 60_000.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape, bounds, and seed for one random instance.

    Weights are i.i.d. uniform on [0, 1); cluster labels are uniform on
    {0..k-1}, redrawn in full until every cluster is nonempty (a config
    whose one draw does so with probability below 1e-6 is refused).
    Draws come in blocks of 1, 2, 4, ... label vectors, and the first
    covering vector in stream order is kept, so the labels are those of
    a one-vector-at-a-time redraw.  Bounds are scalars broadcast to
    every node; upper bounds default to the loosest legal value (the
    opposite side's size).  m, n and k are integers and seed is a
    nonnegative integer or a nonempty sequence of them; gen_instance
    refuses anything else before it draws.
    """

    m: int
    n: int
    k: int
    l_lo: int = 0
    l_hi: Optional[int] = None
    r_lo: int = 1
    r_hi: Optional[int] = None
    seed: int | Sequence[int] = 0


# labels per draw block: caps a block and its coverage table at about
# 64K entries whatever m is
_LABEL_BLOCK = 1 << 16


def gen_instance(cfg: GeneratorConfig) -> Instance:
    """Draw one instance from the config's seeded distribution."""
    for name in ("m", "n", "k"):
        if not _is_int(getattr(cfg, name)):
            raise ConfigError(
                f"{name} must be an integer, got {getattr(cfg, name)!r}")
    seeds = cfg.seed if _is_sequence(cfg.seed) else (cfg.seed,)
    if not (len(seeds) and all(_is_int(s) and s >= 0 for s in seeds)):
        raise ConfigError("seed must be a nonnegative integer or a nonempty "
                          f"sequence of them, got {cfg.seed!r}")
    # Python ints, so k ** m below cannot wrap
    m, n, k = int(cfg.m), int(cfg.n), int(cfg.k)
    if min(m, n, k) < 1:
        raise ConfigError("m, n, k must all be positive")
    if k > m:
        raise ConfigError(
            f"k = {k} clusters cannot all be nonempty with m = {m} "
            "left nodes")
    draws = k ** m
    # covered of the k^m equally likely draws hold all k labels (inclusion-
    # exclusion); the sum runs only where the union bound cannot show
    # covered / k^m >= 1e-6
    if (draws - k * (k - 1) ** m) * 10**6 < draws:
        covered = sum((-1) ** i * math.comb(k, i) * (k - i) ** m
                      for i in range(k + 1))
        if covered * 10**6 < draws:
            raise ConfigError(
                f"a draw of m = {m} uniform labels covers all k = {k} "
                f"clusters with probability {covered / draws:.3g}, below "
                "1e-6; refusing to redraw until it does")
    bounds = DegreeBounds.broadcast(
        m, n,
        cfg.l_lo, n if cfg.l_hi is None else cfg.l_hi,
        cfg.r_lo, m if cfg.r_hi is None else cfg.r_hi)
    rng = np.random.default_rng(cfg.seed)
    weights = rng.random((m, n))
    return Instance(weights, _draw_labels(rng, m, k), k, bounds)


def _draw_labels(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """The first vector of m labels in rng's stream that uses all k.

    Vectors are drawn as (rows, m) blocks, rows doubling from 1 up to
    _LABEL_BLOCK labels a block.  PCG64 yields the same labels drawn one
    vector at a time or as one block, so the first covering row of the
    first block that has one is where a vector-by-vector redraw stops.
    """
    cap = max(1, _LABEL_BLOCK // m)
    rows = 1
    while True:
        block = rng.integers(0, k, size=(rows, m))
        # hit[r, c]: row r holds label c
        hit = np.zeros((rows, k), dtype=bool)
        hit.flat[block + np.arange(0, rows * k, k)[:, None]] = True
        covering = np.flatnonzero(hit.all(axis=1))
        if covering.size:
            return block[covering[0]]
        rows = min(2 * rows, cap)


def _csv_table(header: str, rows: list[dict]) -> str:
    """CSV of dict rows in header order, one _csv_cell per value."""
    cols = header.split(",")
    lines = [header] + [",".join(_csv_cell(row[c]) for c in cols)
                        for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrialRow:
    """One battery trial: metrics plus the raw solver objectives."""

    trial: int
    sweep_value: int
    seed_label: str
    report: MetricsReport
    exact_cost: Optional[float] = None
    greedy_cost: Optional[float] = None


@dataclass
class TrialBatch:
    """Results of one multi-trial battery.

    Aggregation is per sweep value and order-independent.  Wall-time
    cells are the only CSV content not determined by (seed, config).
    """

    rows: list[TrialRow] = field(default_factory=list)

    TRIALS_HEADER = "trial,k,seed," + MetricsReport.CSV_HEADER
    SUMMARY_HEADER = ("k,trials,pod_mean,pod_p5,pod_p95,"
                      "eg_mean,eg_p5,eg_p95,eg_defined,agreement_rate")

    def to_trials_csv(self) -> str:
        lines = [self.TRIALS_HEADER]
        for row in self.rows:
            lines.append(f"{row.trial},{row.sweep_value},{row.seed_label},"
                         + row.report.to_csv_row())
        return "\n".join(lines) + "\n"

    def per_sweep_values(self) -> list[int]:
        return sorted({row.sweep_value for row in self.rows})

    def summary(self) -> list[dict]:
        out = []
        for k in self.per_sweep_values():
            grp = [row for row in self.rows if row.sweep_value == k]
            pods = [r.report.pod for r in grp if r.report.pod is not None]
            egs = [r.report.eg for r in grp if r.report.eg is not None]
            scored = [r for r in grp
                      if r.greedy_cost is not None and r.exact_cost is not None]
            agree = [1.0 if abs(r.greedy_cost - r.exact_cost)
                     <= 1e-9 * max(r.greedy_cost, r.exact_cost) else 0.0
                     for r in scored]
            out.append({
                "k": k,
                "trials": len(grp),
                "pod_mean": float(np.mean(pods)) if pods else None,
                "pod_p5": float(np.percentile(pods, 5)) if pods else None,
                "pod_p95": float(np.percentile(pods, 95)) if pods else None,
                "eg_mean": float(np.mean(egs)) if egs else None,
                "eg_p5": float(np.percentile(egs, 5)) if egs else None,
                "eg_p95": float(np.percentile(egs, 95)) if egs else None,
                "eg_defined": len(egs),
                "agreement_rate": (sum(agree) / len(agree)) if agree else None,
            })
        return out

    def to_summary_csv(self) -> str:
        return _csv_table(self.SUMMARY_HEADER, self.summary())


def run_cluster_sweep(k_values: Sequence[int] = tuple(range(2, 11)),
                      trials: int = 100, m: int = 10, n: int = 10,
                      r_lo: int = 5, seed: int = 7) -> TrialBatch:
    """Sweep the cluster count, many random trials per value.

    Per trial: generate an instance with the left side open (L_lo = 0,
    L_hi = n), solve the weight baseline, the exact diverse objective
    and the greedy heuristic, then record metrics.  Every trial is
    feasible, as DegreeBounds enforces r_lo <= m, and right_only, so the
    exact solve is greedy's take rounds and needs no budget.
    """
    batch = TrialBatch()
    for k in k_values:
        for trial in range(trials):
            cfg = GeneratorConfig(m=m, n=n, k=k, l_lo=0, l_hi=n,
                                  r_lo=r_lo, seed=(seed, k, trial))
            inst = gen_instance(cfg)
            base = solve_min_weight(inst)
            div = solve_diverse_exact(inst)
            grd = solve_diverse_greedy(inst)
            rep = compute_metrics(inst, base, div, f"k{k}_t{trial}")
            batch.rows.append(TrialRow(trial, k, str(seed), rep,
                                       exact_cost=div.diversity_cost,
                                       greedy_cost=grd.diversity_cost))
    return batch


def run_bounds_sweep(m: int = 8, n: int = 4, k: int = 3,
                     seed: int = 11) -> TrialBatch:
    """Sweep the right-side lower bound r_lo = 1..m on one weight matrix.

    The weight matrix and clusters are drawn once; only the bounds move,
    and with the left side open every r_lo is feasible and right_only
    (exact's take rounds, no budget needed).  At r_lo = m
    every right node must take every left node, the matching is unique,
    and the price of diversity is exactly 1.
    """
    base_cfg = GeneratorConfig(m=m, n=n, k=k, l_lo=0, l_hi=n, r_lo=1,
                               seed=(seed,))
    proto = gen_instance(base_cfg)
    batch = TrialBatch()
    for r_lo in range(1, m + 1):
        bounds = DegreeBounds.broadcast(m, n, 0, n, r_lo, m)
        inst = Instance(proto.weights, proto.clusters, k, bounds)
        base = solve_min_weight(inst)
        div = solve_diverse_exact(inst)
        rep = compute_metrics(inst, base, div, f"rlo{r_lo}")
        batch.rows.append(TrialRow(0, r_lo, str(seed), rep,
                                   exact_cost=div.diversity_cost))
    return batch


SCALING_HEADER = ("m,n,k,r_lo,l_lo,budget_ms,"
                  "wall_s_baseline,status_baseline,"
                  "wall_s_exact,status_exact,"
                  "wall_s_greedy,status_greedy,"
                  "weight_baseline,cost_exact,cost_greedy")


def run_scaling(sizes: Sequence[int] = (25, 50, 100, 200), n: int = 10,
                k: int = 5, r_lo: int = 3, l_lo: int = 1, seed: int = 23,
                budget_ms: float = SCALING_BUDGET_MS) -> list[dict]:
    """Time all three solvers as the left side grows.

    The exact solver runs under the given budget (recorded beside every
    timing) and is expected to return an incumbent, not an optimum, at
    the larger sizes.  Wall times come from the solvers themselves and
    exclude generation and serialization.
    """
    rows = []
    for m in sizes:
        cfg = GeneratorConfig(m=m, n=n, k=k, l_lo=l_lo, l_hi=n,
                              r_lo=r_lo, r_hi=m, seed=(seed, m))
        inst = gen_instance(cfg)
        base = solve_min_weight(inst)
        div = solve_diverse_exact(inst, budget_ms=budget_ms)
        grd = solve_diverse_greedy(inst)
        rows.append({
            "m": m, "n": n, "k": k, "r_lo": r_lo, "l_lo": l_lo,
            "budget_ms": budget_ms,
            "wall_s_baseline": base.wall_time,
            "status_baseline": base.status,
            "wall_s_exact": div.wall_time,
            "status_exact": div.status,
            "wall_s_greedy": grd.wall_time,
            "status_greedy": grd.status,
            "weight_baseline": base.total_weight,
            "cost_exact": div.diversity_cost,
            "cost_greedy": grd.diversity_cost,
        })
    return rows


def scaling_csv(rows: list[dict]) -> str:
    return _csv_table(SCALING_HEADER, rows)
