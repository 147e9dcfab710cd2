"""Seeded instance sets for the four benchmark workloads.

Every instance comes from divmatch's public GeneratorConfig/gen_instance,
so a (workload, seed) pair reproduces its instances bit for bit.  The
instance set of a workload is fixed by the seed alone; how fast the
program runs changes how often each instance is revisited, never which
instances are measured.

Two sets copy a repository battery exactly: fig2-sweep with seed s is
run_cluster_sweep(trials=FIG2_TRIALS, seed=s), and large-flow with seed s
is run_scaling(seed=s) plus run_scaling(sizes=(200,), n=100, seed=s).
The other two fix their shapes and bounds and let the seed draw the
weights and cluster labels, as the batteries do: the oracle's cost is
2^(m*n) subsets and the branch-and-bound cost grows steeply with shape,
so drawing shapes per seed would make the workload's total cost depend
on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from divmatch import bench
from divmatch.bench import GeneratorConfig
from divmatch.instance import Instance

DEFAULT_SEED = 7
# Never used while tuning a change; a claimed gain must also hold here.
HELD_OUT_SEED = 1009

FIG2_TRIALS = 20
BNB_TRIALS = 128
SMALL_REPEATS = 6
# acceptance battery seed (tests/test_acceptance.py)
SMALL_DESIGN_SEED = 20260815


def _fig2_sweep(seed: int) -> list[tuple[str, GeneratorConfig]]:
    # run_cluster_sweep: m = n = 10, r_lo = 5, left side open,
    # child seed (master, k, trial).
    return [(f"k{k}_t{t}",
             GeneratorConfig(m=10, n=10, k=k, l_lo=0, l_hi=10, r_lo=5,
                             seed=(seed, k, t)))
            for k in range(2, 11) for t in range(FIG2_TRIALS)]


def _bnb_proof(seed: int) -> list[tuple[str, GeneratorConfig]]:
    # Two-sided bounds: every left node takes an edge, every right node
    # two.  8x6 keeps the per-instance proof time light-tailed (0.02 to
    # 0.2 s, coefficient of variation about 0.6), so the seed moves the
    # workload's total by a few percent; wider shapes hold instances that
    # take minutes to prove, which no fixed-length run can time.  k
    # alternates so a partial pass sees both.
    shapes = ((8, 3), (8, 4))
    return [(f"{m}x6_k{k}_t{t}",
             GeneratorConfig(m=m, n=6, k=k, l_lo=1, l_hi=6, r_lo=2, r_hi=m,
                             seed=(seed, m, 6, k, t)))
            for t in range(BNB_TRIALS) for m, k in shapes]


def _large_flow(seed: int) -> list[tuple[str, GeneratorConfig]]:
    # run_scaling: k = 5, l_lo = 1, r_lo = 3, child seed (master, m).
    shapes = ((25, 10), (50, 10), (100, 10), (200, 10), (200, 100))
    return [(f"{m}x{n}",
             GeneratorConfig(m=m, n=n, k=5, l_lo=1, l_hi=n, r_lo=3, r_hi=m,
                             seed=(seed, m)))
            for m, n in shapes]


def _small_verified(seed: int) -> list[tuple[str, GeneratorConfig]]:
    # The acceptance battery's distribution: sides 2..5, at most 20 cells,
    # k <= 3, random two-sided scalar bounds.  Each of the 15 shapes comes
    # SMALL_REPEATS times, and k and the bounds are drawn once, from the
    # battery's seed, so the seed draws weights and clusters only.
    # Redrawing the bounds per seed made the seed-to-seed spread of the
    # summed solver times 1.4 to 1.8 times as large: an infeasible instance
    # returns after the feasibility test, a feasible one runs the solver.
    shapes = [(m, n) for m in range(2, 6) for n in range(2, 6) if m * n <= 20]
    rng = np.random.default_rng(SMALL_DESIGN_SEED)
    out = []
    for rep in range(SMALL_REPEATS):
        for m, n in shapes:
            k = int(rng.integers(1, min(3, m) + 1))
            l_hi = int(rng.integers(1, n + 1))
            l_lo = int(rng.integers(0, l_hi + 1))
            r_hi = int(rng.integers(1, m + 1))
            r_lo = int(rng.integers(0, r_hi + 1))
            out.append((f"{m}x{n}_r{rep}",
                        GeneratorConfig(m=m, n=n, k=k, l_lo=l_lo, l_hi=l_hi,
                                        r_lo=r_lo, r_hi=r_hi,
                                        seed=(seed, m, n, rep))))
    return out


@dataclass(frozen=True)
class Workload:
    """One instance distribution and the steps run on each instance.

    steps name the public entry points the harness calls per instance,
    in order.  all_feasible marks sets whose bounds are feasible by
    construction, so any solver that returns no matching has failed.
    """

    name: str
    steps: tuple[str, ...]
    all_feasible: bool
    configs: Callable[[int], list[tuple[str, GeneratorConfig]]]

    def generate(self, seed: int) -> list[tuple[str, Instance]]:
        """The labelled instances for one seed, in visiting order."""
        return [(label, bench.gen_instance(cfg))
                for label, cfg in self.configs(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("fig2-sweep", ("min_weight", "exact", "greedy", "metrics"),
             True, _fig2_sweep),
    Workload("bnb-proof", ("min_weight", "exact", "greedy"), True,
             _bnb_proof),
    Workload("large-flow", ("min_weight", "greedy"), True, _large_flow),
    Workload("small-verified",
             ("min_weight", "exact", "greedy", "oracle_weight",
              "oracle_diversity"), False, _small_verified),
)}
