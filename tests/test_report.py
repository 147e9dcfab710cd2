"""Tests for the one ending every solver shares (report._finish)."""

import numpy as np
import pytest

from divmatch import (
    DegreeBounds,
    GeneratorConfig,
    Instance,
    InternalError,
    Matching,
    OPTIMAL,
    gen_instance,
    solve_diverse_exact,
    solve_diverse_greedy,
    solve_min_weight,
)
from divmatch import exact, greedy, instance, minweight
from conftest import dead_end_instance


def right_only_instance():
    """Every right node owes one edge; no left bound binds."""
    bounds = DegreeBounds.broadcast(3, 2, 0, 2, 1, 3)
    return Instance(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
                    [0, 1, 1], 2, bounds)


class TestOutputCheck:
    # Each solver's own construction is replaced by one that hands back
    # the empty matching, which leaves both right nodes short.
    @pytest.mark.parametrize("solve, module, name, answer, algorithm", [
        pytest.param(solve_min_weight, minweight, "solve_circulation",
                     lambda net: (Matching(), 0), "min_weight",
                     id="min_weight"),
        pytest.param(solve_diverse_greedy, greedy, "_per_right_node",
                     lambda inst: (Matching(), 0, 0.0), "greedy",
                     id="greedy"),
        pytest.param(solve_diverse_exact, exact, "_per_right_node",
                     lambda inst: (Matching(), 0, 0.0), "diverse_exact",
                     id="diverse_exact"),
    ])
    def test_violation_raises_naming_the_solver(self, monkeypatch, solve,
                                                module, name, answer,
                                                algorithm):
        monkeypatch.setattr(module, name, answer)
        with pytest.raises(InternalError,
                           match=f"^{algorithm} returned a matching that "
                                 "violates bounds: right 0: degree 0 outside"):
            solve(right_only_instance())


def bnb_proof_instance():
    return gen_instance(GeneratorConfig(m=8, n=6, k=3, l_lo=1, l_hi=6,
                                        r_lo=2, r_hi=8, seed=(7, 8, 6, 3, 0)))


class TestSingleCount:
    # A two-sided exact solve calls is_feasible_bounds twice, in its gate
    # and in its warm start, but the instance keeps the first verdict, so
    # its bounds are counted once (one _first_overload per side); its
    # answer is checked once.  The warm start runs min weight's
    # circulation, not a solver, so greedy's dead end changes nothing.
    @pytest.mark.parametrize("make", [
        pytest.param(bnb_proof_instance, id="bnb_proof"),
        pytest.param(dead_end_instance, id="greedy_dead_end"),
    ])
    def test_two_sided_exact_solve(self, monkeypatch, make):
        calls = {"is_feasible_bounds": 0, "_first_overload": 0,
                 "check_matching": 0, "solve_diverse_greedy": 0,
                 "solve_min_weight": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        for module in (exact, greedy, minweight, instance):
            counted(module, "is_feasible_bounds")
        counted(instance, "_first_overload")
        counted(instance, "check_matching")  # report._finish's lookup
        counted(exact, "solve_diverse_greedy")
        counted(exact, "solve_min_weight")
        inst = make()
        assert not inst.right_only
        rep = solve_diverse_exact(inst)
        assert rep.status == OPTIMAL
        assert calls == {"is_feasible_bounds": 2, "_first_overload": 2,
                         "check_matching": 1, "solve_diverse_greedy": 0,
                         "solve_min_weight": 0}
