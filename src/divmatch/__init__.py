"""Degree-bounded bipartite matching with a cluster diversity objective.

The package solves two minimization problems over complete bipartite
graphs with per-node degree intervals: plain total edge weight, and a
quadratic concentration cost that favors spreading each right node's
selected weight across left-side clusters.  It ships an exact flow-based
weight solver, an exact branch-and-bound diversity solver with an
anytime budget, a round-based greedy heuristic, a brute-force oracle,
comparison metrics, and a benchmark CLI.
"""

from .bench import (GeneratorConfig, TrialBatch, TrialRow, gen_instance,
                    run_bounds_sweep, run_cluster_sweep, run_scaling,
                    scaling_csv)
from .errors import (ConfigError, DivMatchError, InstanceError,
                     InternalError, MatchingError, SizeCapError)
from .exact import solve_diverse_exact, warm_start
from .greedy import solve_diverse_greedy
from .instance import (DegreeBounds, Instance, Matching, check_matching,
                       is_feasible_bounds, load_instance, load_matching,
                       save_instance, save_matching, transform_max_to_min)
from .metrics import (MetricsReport, compute_metrics, entropy_gain,
                      entropy_profile, node_bound_term, node_entropy,
                      pod_lower_bound, price_of_diversity)
from .minweight import (FlowNetwork, reduce_to_circulation, solve_circulation,
                        solve_min_weight)
from .objective import (BlockMatrix, ClusterSums, diversity_cost,
                        quadratic_form_cost, total_weight)
from .oracle import (EnumerationBudget, OBJECTIVE_DIVERSITY,
                     OBJECTIVE_WEIGHT, brute_force, enumerate_pod)
from .report import FEASIBLE_INCUMBENT, INFEASIBLE, OPTIMAL, SolveReport

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix", "ClusterSums", "ConfigError", "DegreeBounds",
    "DivMatchError", "EnumerationBudget", "FEASIBLE_INCUMBENT",
    "FlowNetwork", "GeneratorConfig", "INFEASIBLE", "Instance",
    "InstanceError", "InternalError", "Matching", "MatchingError",
    "MetricsReport", "OBJECTIVE_DIVERSITY", "OBJECTIVE_WEIGHT", "OPTIMAL",
    "SizeCapError", "SolveReport", "TrialBatch", "TrialRow", "brute_force",
    "check_matching", "compute_metrics", "diversity_cost", "entropy_gain",
    "entropy_profile", "enumerate_pod", "gen_instance",
    "is_feasible_bounds", "load_instance", "load_matching",
    "node_bound_term", "node_entropy", "pod_lower_bound",
    "price_of_diversity", "quadratic_form_cost", "reduce_to_circulation",
    "run_bounds_sweep", "run_cluster_sweep", "run_scaling",
    "save_instance", "save_matching", "scaling_csv", "solve_circulation",
    "solve_diverse_exact", "solve_diverse_greedy", "solve_min_weight",
    "total_weight", "transform_max_to_min", "warm_start",
]
