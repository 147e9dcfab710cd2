"""Command-line harness.

Commands: gen, solve, metrics, run-fig2, run-bounds, run-scaling,
convert-max-min.  Exit codes: 0 success, 2 usage or bad input, 3 no
matching returned (the bounds are infeasible, or greedy dead-ended; the
message says which), 5 internal error (including a failed --verify
cross-check).  Every failure also writes a one-line JSON error document
to stderr so scripts can parse outcomes without scraping messages.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .bench import (GeneratorConfig, SCALING_BUDGET_MS, gen_instance,
                    run_bounds_sweep, run_cluster_sweep, run_scaling,
                    scaling_csv)
from .errors import (ConfigError, DivMatchError, InstanceError,
                     InternalError, MatchingError, SizeCapError)
from .exact import solve_diverse_exact
from .greedy import solve_diverse_greedy
from .instance import (check_matching, load_instance, load_matching,
                       save_instance, transform_max_to_min)
from .metrics import MetricsReport, compute_metrics
from .minweight import solve_min_weight
from .objective import diversity_cost, total_weight
from .oracle import OBJECTIVE_DIVERSITY, OBJECTIVE_WEIGHT, brute_force
from .report import INFEASIBLE, OPTIMAL

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 5


def _error_doc(kind: str, message: str, code: int) -> None:
    print(json.dumps({"error": kind, "message": message, "exit_code": code}),
          file=sys.stderr)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _read(path: str) -> str:
    return Path(path).read_text()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(m=args.m, n=args.n, k=args.k, l_lo=args.l_lo,
                          l_hi=args.l_hi, r_lo=args.r_lo, r_hi=args.r_hi,
                          seed=args.seed)
    inst = gen_instance(cfg)
    _write(args.out, save_instance(inst))
    return EXIT_OK


def _verify_against_oracle(alg: str, inst, rep) -> str:
    """Cross-check a solve against brute force; raises on disagreement."""
    objective = OBJECTIVE_WEIGHT if alg == "wbm" else OBJECTIVE_DIVERSITY
    try:
        oracle = brute_force(inst, objective)
    except SizeCapError as exc:
        return f"skipped: {exc}"
    if rep.status == INFEASIBLE:
        if oracle.status == INFEASIBLE:
            return "ok"
        if alg == "greedy":
            return "greedy dead end on a feasible instance"
        raise InternalError("solver reported infeasible but the oracle "
                            "found a feasible matching")
    if oracle.status == INFEASIBLE:
        raise InternalError("solver returned a matching on an instance the "
                            "oracle calls infeasible")
    # tolerances relative to the weight sum (its square for the cost)
    scale = float(inst.weights.sum())
    tol_w, tol_d = 1e-9 * scale, 1e-9 * scale * scale
    if alg == "wbm":
        if abs(rep.total_weight - oracle.total_weight) > tol_w:
            raise InternalError(
                f"weight optimum mismatch: solver {rep.total_weight}, "
                f"oracle {oracle.total_weight}")
    elif rep.status == OPTIMAL:
        if abs(rep.diversity_cost - oracle.diversity_cost) > tol_d:
            raise InternalError(
                f"diversity optimum mismatch: solver {rep.diversity_cost}, "
                f"oracle {oracle.diversity_cost}")
    elif rep.diversity_cost < oracle.diversity_cost - tol_d:
        raise InternalError(
            "solver value beats the exhaustive optimum; impossible")
    return "ok"


def _cmd_solve(args) -> int:
    inst = load_instance(_read(args.instance))
    if args.alg == "wbm":
        rep = solve_min_weight(inst)
    elif args.alg == "dwbm":
        rep = solve_diverse_exact(inst, budget_ms=args.budget_ms)
    else:
        rep = solve_diverse_greedy(inst)
    doc = rep.to_doc()
    if args.verify:
        doc["verify"] = _verify_against_oracle(args.alg, inst, rep)
    _write(args.output, json.dumps(doc))
    if rep.status == INFEASIBLE:
        _error_doc("infeasible", rep.diagnostic, EXIT_INFEASIBLE)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _load_solved(path: str, inst) -> SimpleNamespace:
    """Read a solve output (or bare matching) into a report-shaped view."""
    doc = json.loads(_read(path))
    if not isinstance(doc, dict) or "edges" not in doc or doc["edges"] is None:
        raise MatchingError(f"{path} holds no edge list")
    match = load_matching(json.dumps({"edges": doc["edges"]}))
    ok, violations = check_matching(inst, match)
    if not ok:
        raise MatchingError(f"{path} violates the instance bounds: "
                            + "; ".join(violations))
    wall_time = doc.get("wall_time", 0.0)
    if (isinstance(wall_time, bool) or not isinstance(wall_time, (int, float))
            or not math.isfinite(wall_time)):
        raise MatchingError(f"{path} has a wall_time that is not a real "
                            f"number: {wall_time!r}")
    return SimpleNamespace(
        matching=match,
        total_weight=total_weight(inst, match),
        diversity_cost=diversity_cost(inst, match),
        status=doc.get("status", "unknown"),
        wall_time=float(wall_time))


def _cmd_metrics(args) -> int:
    inst = load_instance(_read(args.instance))
    base = _load_solved(args.baseline, inst)
    div = _load_solved(args.diverse, inst)
    rep = compute_metrics(inst, base, div, instance_id=args.instance)
    _write(args.out, MetricsReport.CSV_HEADER + "\n" + rep.to_csv_row() + "\n")
    return EXIT_OK


def _cmd_run_fig2(args) -> int:
    batch = run_cluster_sweep(
        k_values=tuple(range(args.k_min, args.k_max + 1)),
        trials=args.trials, m=args.m, n=args.n, r_lo=args.r_lo,
        seed=args.seed, budget_ms=args.budget_ms)
    prefix = args.out or "fig2"
    Path(f"{prefix}_trials.csv").write_text(batch.to_trials_csv())
    Path(f"{prefix}_summary.csv").write_text(batch.to_summary_csv())
    sys.stdout.write(batch.to_summary_csv())
    return EXIT_OK


def _cmd_run_bounds(args) -> int:
    batch = run_bounds_sweep(m=args.m, n=args.n, k=args.k, seed=args.seed,
                             budget_ms=args.budget_ms)
    _write(args.out, batch.to_trials_csv())
    return EXIT_OK


def _cmd_run_scaling(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ConfigError("--sizes must be comma-separated integers, got "
                          f"{args.sizes!r}") from None
    rows = run_scaling(sizes=sizes, n=args.n, k=args.k, r_lo=args.r_lo,
                       l_lo=args.l_lo, seed=args.seed,
                       budget_ms=args.budget_ms)
    _write(args.out, scaling_csv(rows))
    return EXIT_OK


def _cmd_convert(args) -> int:
    inst = load_instance(_read(args.instance))
    _write(args.output, save_instance(transform_max_to_min(inst)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="divmatch",
        description="Degree-bounded bipartite matching with a cluster "
                    "diversity objective: solvers, metrics, benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--l-lo", type=int, default=0)
    g.add_argument("--l-hi", type=int, default=None)
    g.add_argument("--r-lo", type=int, default=1)
    g.add_argument("--r-hi", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("--alg", choices=("wbm", "dwbm", "greedy"), required=True)
    s.add_argument("--budget-ms", type=float, default=None,
                   help="time budget for --alg dwbm (default unlimited)")
    s.add_argument("--verify", action="store_true",
                   help="cross-check against brute force when small enough")
    s.add_argument("instance")
    s.add_argument("output")
    s.set_defaults(func=_cmd_solve)

    m = sub.add_parser("metrics",
                       help="compare a baseline and a diverse solution")
    m.add_argument("instance")
    m.add_argument("baseline")
    m.add_argument("diverse")
    m.add_argument("--out", default=None)
    m.set_defaults(func=_cmd_metrics)

    f = sub.add_parser("run-fig2",
                       help="cluster-count sweep battery (synthetic)")
    f.add_argument("--k-min", type=int, default=2)
    f.add_argument("--k-max", type=int, default=10)
    f.add_argument("--trials", type=int, default=100)
    f.add_argument("--m", type=int, default=10)
    f.add_argument("--n", type=int, default=10)
    f.add_argument("--r-lo", type=int, default=5)
    f.add_argument("--seed", type=int, default=7)
    f.add_argument("--budget-ms", type=float, default=SCALING_BUDGET_MS)
    f.add_argument("--out", default=None,
                   help="output prefix (default fig2)")
    f.set_defaults(func=_cmd_run_fig2)

    b = sub.add_parser("run-bounds",
                       help="right lower-bound sweep on one instance")
    b.add_argument("--m", type=int, default=8)
    b.add_argument("--n", type=int, default=4)
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--seed", type=int, default=11)
    b.add_argument("--budget-ms", type=float, default=SCALING_BUDGET_MS)
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_run_bounds)

    c = sub.add_parser("run-scaling", help="solver wall times vs size")
    c.add_argument("--sizes", default="25,50,100,200",
                   help="comma-separated left-side sizes")
    c.add_argument("--n", type=int, default=10)
    c.add_argument("--k", type=int, default=5)
    c.add_argument("--r-lo", type=int, default=3)
    c.add_argument("--l-lo", type=int, default=1)
    c.add_argument("--seed", type=int, default=23)
    c.add_argument("--budget-ms", type=float, default=SCALING_BUDGET_MS)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_run_scaling)

    x = sub.add_parser("convert-max-min",
                       help="turn higher-is-better weights into costs")
    x.add_argument("instance")
    x.add_argument("output")
    x.set_defaults(func=_cmd_convert)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InstanceError, MatchingError, ConfigError, SizeCapError,
            OSError, json.JSONDecodeError) as exc:
        _error_doc(type(exc).__name__, str(exc), EXIT_USAGE)
        return EXIT_USAGE
    except InternalError as exc:
        _error_doc("InternalError", str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL
    except DivMatchError as exc:
        _error_doc(type(exc).__name__, str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last-resort guard
        _error_doc(type(exc).__name__, str(exc), EXIT_INTERNAL)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
