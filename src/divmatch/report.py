"""Solver result container shared by all three solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .instance import Matching

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
    Objective values are evaluated from scratch on the returned
    matching, never copied from solver internals.  telemetry holds
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
