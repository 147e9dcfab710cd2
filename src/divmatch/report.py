"""Solver result container shared by all three solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from . import instance, objective
from .errors import InternalError
from .instance import Instance, Matching

# A solve ends in exactly one of these states.
OPTIMAL = "optimal"                      # proven best objective
FEASIBLE_INCUMBENT = "feasible_incumbent"  # feasible, no optimality proof
INFEASIBLE = "infeasible"                # no matching (see SolveReport)

STATUSES = (OPTIMAL, FEASIBLE_INCUMBENT, INFEASIBLE)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    matching is None exactly when the status is infeasible: the bounds
    admit no matching, or greedy dead-ended (the diagnostic says which).
    Every solver's report is built by _finish, which checks the matching
    against the bounds and evaluates both objective values from scratch
    on it, never copying them from solver internals.  telemetry holds
    solver-specific counters (augmentation counts, branch nodes, prune
    counts and the like); keys vary by algorithm.
    """

    algorithm: str
    status: str
    matching: Optional[Matching]
    total_weight: Optional[float]
    diversity_cost: Optional[float]
    wall_time: float
    diagnostic: str = ""
    telemetry: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if (self.matching is None) != (self.status == INFEASIBLE):
            verb = "must not carry" if self.matching is not None else "requires"
            raise ValueError(f"status {self.status} {verb} a matching")

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready dictionary; edge list sorted, floats untouched."""
        return {
            "algorithm": self.algorithm,
            "status": self.status,
            "edges": None if self.matching is None
                     else [[i, j] for i, j in self.matching.edges],
            "total_weight": self.total_weight,
            "diversity_cost": self.diversity_cost,
            "wall_time": self.wall_time,
            "diagnostic": self.diagnostic,
            "telemetry": self.telemetry,
        }


def _finish(algorithm: str, inst: Instance, start: float,
            match: Optional[Matching], status: str, diagnostic: str = "",
            telemetry: Optional[dict[str, Any]] = None) -> SolveReport:
    """A solver's report: infeasible when match is None, else status.

    A matching that breaks a bound raises InternalError naming the
    algorithm; one that passes is costed once.  wall_time runs from
    start.  The report keeps telemetry itself, not a copy.
    """
    weight = cost = None
    if match is None:
        status = INFEASIBLE
    else:
        ok, violations = instance.check_matching(inst, match)
        if not ok:
            raise InternalError(f"{algorithm} returned a matching that "
                                "violates bounds: " + "; ".join(violations))
        weight = objective.total_weight(inst, match)
        cost = objective.diversity_cost(inst, match)
    return SolveReport(algorithm, status, match, weight, cost,
                       time.perf_counter() - start, diagnostic,
                       {} if telemetry is None else telemetry)
