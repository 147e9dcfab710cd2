"""Closed-loop measurement of one workload, with answer checks.

One client visits the workload's instances in order, pass after pass,
starting each visit when the previous one has returned, until the time
is up; the first pass always completes, so every instance is measured at
least once.  A visit runs every step of the workload (the solvers, the
oracle, the metrics), then checks every answer.  Per-instance figures
are medians over that instance's visits, and workload figures are built
from them, so where a run stops inside a pass does not change the mix
of instances the figures describe.  Between steps the run times a fixed
reference kernel (reference.py) and scales each step's time to the
reference speed around it, so that a slow-down of the shared host does
not read as one of divmatch.

Answers are checked without stopping the run: each failed check marks
the solve it blames as failed and is logged.  Every visit's answers are
hashed; an answer that differs from the same instance's first answer is
a failure, and the first answers of all instances form the workload
digest, which two builds that promise identical output must share.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from divmatch import exact, greedy, instance, metrics, minweight, objective
from divmatch import oracle
from divmatch.report import (FEASIBLE_INCUMBENT, INFEASIBLE, OPTIMAL,
                             SolveReport)

from reference import SpeedProbe
from tracing import Tracer

# Objectives are compared with a tolerance relative to the instance's cost
# scale: the weight of all cells, squared for the concentration cost.
REL_TOL = 1e-9

# Entry points are looked up at call time so that the tracer's wrappers,
# when installed, see the benchmark's own calls too.
STEPS = {
    "min_weight": lambda inst, done: minweight.solve_min_weight(inst),
    "exact": lambda inst, done: exact.solve_diverse_exact(inst),
    "greedy": lambda inst, done: greedy.solve_diverse_greedy(inst),
    "oracle_weight": lambda inst, done: oracle.brute_force(
        inst, oracle.OBJECTIVE_WEIGHT),
    "oracle_diversity": lambda inst, done: oracle.brute_force(
        inst, oracle.OBJECTIVE_DIVERSITY),
    "metrics": lambda inst, done: metrics.compute_metrics(
        inst, done["min_weight"], done["exact"]),
}

EXPECTED_STATUS = {
    "min_weight": (OPTIMAL, INFEASIBLE),
    "exact": (OPTIMAL, INFEASIBLE),
    "greedy": (FEASIBLE_INCUMBENT, INFEASIBLE),
    "oracle_weight": (OPTIMAL, INFEASIBLE),
    "oracle_diversity": (OPTIMAL, INFEASIBLE),
}

# Summed wall time of an entry point's calls, keyed by end-to-end metric.
ENTRY_POINTS = {
    "min_weight_s": ("min_weight",),
    "greedy_s": ("greedy",),
    "exact_s": ("exact",),
    "oracle_s": ("oracle_weight", "oracle_diversity"),
}

# How often the untraced visits pause to time the reference kernel.
PROBE_EVERY_S = 0.1

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Visit:
    """Everything one visit to one instance produced."""

    latency: float
    step_s: dict[str, float]
    results: dict[str, object]
    problems: dict[str, list[str]]
    answers: dict[str, str]
    # kernel samples the speed probe had taken when each step began
    probe_at: list[int]


def _answer(result) -> str:
    """Canonical text of a step's answer, without timings."""
    if isinstance(result, SolveReport):
        edges = None if result.matching is None else result.matching.edges
        return repr((result.status, edges))
    if result is None:
        return "error"
    return repr((result.pod, result.pod_bound, result.eg))


def _check_report(wl, inst, step, rep, problems) -> None:
    if rep.status not in EXPECTED_STATUS[step]:
        problems.append(f"unexpected status {rep.status}")
    if rep.matching is None:
        if wl.all_feasible:
            problems.append(f"no matching on a feasible instance: "
                            f"{rep.status} ({rep.diagnostic})")
        return
    ok, violations = instance.check_matching(inst, rep.matching)
    if not ok:
        problems.append("matching violates bounds: " + "; ".join(violations))
    if rep.total_weight != objective.total_weight(inst, rep.matching):
        problems.append("reported weight differs from total_weight")
    if rep.diversity_cost != objective.diversity_cost(inst, rep.matching):
        problems.append("reported cost differs from diversity_cost")


def check_answers(wl, inst, results, problems) -> None:
    """Append every failed check to the list of the step it blames."""
    for step, rep in results.items():
        if isinstance(rep, SolveReport):
            _check_report(wl, inst, step, rep, problems[step])
    sound = {s: r for s, r in results.items()
             if r is not None and not problems[s]}
    tol_w = REL_TOL * float(inst.weights.sum())
    tol_d = REL_TOL * float(inst.weights.sum()) ** 2
    mw, ex, gr = sound.get("min_weight"), sound.get("exact"), sound.get("greedy")
    ow, od = sound.get("oracle_weight"), sound.get("oracle_diversity")

    def solved(rep):
        return rep is not None and rep.matching is not None

    if ow is not None and od is not None and solved(ow) != solved(od):
        problems["oracle_diversity"].append(
            "feasibility disagrees with the weight oracle")
    feasible_ref = ow or od or mw
    for step, rep in (("min_weight", mw), ("exact", ex), ("greedy", gr)):
        if (rep is not None and feasible_ref is not None
                and rep is not feasible_ref
                and solved(rep) != solved(feasible_ref)):
            problems[step].append(
                f"{rep.status} but the reference solve is "
                f"{feasible_ref.status}")
    if solved(mw) and solved(ow) and abs(
            mw.total_weight - ow.total_weight) > tol_w:
        problems["min_weight"].append(
            f"weight {mw.total_weight!r} != oracle {ow.total_weight!r}")
    if solved(ex) and solved(od) and abs(
            ex.diversity_cost - od.diversity_cost) > tol_d:
        problems["exact"].append(
            f"cost {ex.diversity_cost!r} != oracle {od.diversity_cost!r}")
    if solved(gr) and solved(od) and (
            gr.diversity_cost < od.diversity_cost - tol_d):
        problems["oracle_diversity"].append(
            f"greedy cost {gr.diversity_cost!r} beats the oracle optimum "
            f"{od.diversity_cost!r}")
    if solved(mw):
        for step, rep in (("greedy", gr), ("exact", ex)):
            if solved(rep) and mw.total_weight > rep.total_weight + tol_w:
                problems["min_weight"].append(
                    f"weight {mw.total_weight!r} above {step}'s "
                    f"{rep.total_weight!r}")
    if solved(ex) and solved(gr) and ex.status == OPTIMAL and (
            ex.diversity_cost > gr.diversity_cost + tol_d):
        problems["exact"].append(
            f"optimal cost {ex.diversity_cost!r} above greedy's "
            f"{gr.diversity_cost!r}")
    rep = results.get("metrics")
    if rep is not None and not (
            solved(mw) and solved(ex)
            and rep.weight_baseline == mw.total_weight
            and rep.weight_diverse == ex.total_weight):
        problems["metrics"].append("weights differ from the solver reports")


def visit(wl, inst, probe: SpeedProbe | None = None) -> Visit:
    """Run every step of the workload on one instance, then check.

    With a speed probe, the reference kernel may run after a step; its
    time is left out of the visit's latency.
    """
    start = time.perf_counter()
    paused = 0.0
    step_s, results, probe_at = {}, {}, []
    problems = {step: [] for step in wl.steps}
    for step in wl.steps:
        if probe is not None:
            probe_at.append(len(probe.samples))
        t0 = time.perf_counter()
        try:
            results[step] = STEPS[step](inst, results)
        except Exception as exc:  # a failed solve is counted, not fatal
            results[step] = None
            problems[step].append(f"raised {type(exc).__name__}: {exc}")
        step_s[step] = time.perf_counter() - t0
        if probe is not None:
            paused += probe.maybe_sample()
    check_answers(wl, inst, results, problems)
    answers = {step: _answer(results[step]) for step in wl.steps}
    return Visit(time.perf_counter() - start - paused, step_s, results,
                 problems, answers, probe_at)


def greedy_excess(results) -> float | None:
    """greedy cost / proven optimum - 1, where exact proved an optimum."""
    ex, gr = results.get("exact"), results.get("greedy")
    if (ex is None or gr is None or ex.status != OPTIMAL
            or gr.matching is None or ex.diversity_cost <= 0.0):
        return None
    return gr.diversity_cost / ex.diversity_cost - 1.0


def layer_values(spans, inst) -> dict[str, float]:
    """Raw per-layer sums of one traced visit, keyed by span or counter."""
    v: dict[str, float] = defaultdict(float)
    for s in spans:
        v["self:" + s.name] += s.self_time
        v["calls:" + s.name] += 1
        if s.name == "minweight.solve_circulation":
            v["augmentations"] += s.result[1]
        elif s.name == "greedy.solve_diverse_greedy":
            v["gain_evaluations"] += s.result.telemetry.get(
                "gain_evaluations", 0)
        elif s.name == "exact.solve_diverse_exact":
            tel = s.result.telemetry
            if tel.get("fast_path"):
                v["exact.fast_path"] += s.duration
            elif "expanded" in tel:
                v["exact.search"] += s.self_time
                v["expanded"] += tel["expanded"]
                v["pruned"] += tel["pruned"]
        elif s.name == "exact.warm_start":
            v["warm_start"] += s.duration
            best = s.parent.result if s.parent is not None else None
            if (s.result is not None and isinstance(best, SolveReport)
                    and best.status == OPTIMAL and best.diversity_cost > 0):
                start_cost = objective.diversity_cost(inst, s.result)
                v["warm_start_excess_sum"] += (
                    start_cost / best.diversity_cost - 1.0)
                v["warm_start_excess_n"] += 1
        elif s.name == "oracle.brute_force":
            objective_name = (s.args[1] if len(s.args) > 1
                              else oracle.OBJECTIVE_WEIGHT)
            v["oracle." + objective_name] += s.self_time
            v["subsets"] += s.result.telemetry["subsets"]
            v["feasible"] += s.result.telemetry["feasible"]
    return v


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def per_layer(raw: dict[str, float], gen_s: float,
              trace_overhead: float) -> dict[str, float]:
    """Per-layer metrics from raw sums over one pass of the instance set."""
    raw = defaultdict(float, raw)

    def self_s(name):
        return raw["self:" + name]

    def ran(name):
        return raw["calls:" + name] > 0

    out = {
        "bench.gen_s": gen_s,
        "instance.feasible_s": self_s("instance.is_feasible_bounds"),
        "instance.feasible_calls": raw["calls:instance.is_feasible_bounds"],
        "instance.check_s": self_s("instance.check_matching"),
        "objective.diversity_cost_s": self_s("objective.diversity_cost"),
        "objective.total_weight_s": self_s("objective.total_weight"),
        "harness.self_s": self_s("harness.visit"),
        "trace_overhead": trace_overhead,
    }
    if ran("minweight.solve_circulation"):
        circ = self_s("minweight.solve_circulation")
        out.update({
            "minweight.reduce_s": self_s("minweight.reduce_to_circulation"),
            "minweight.circulation_s": circ,
            "minweight.augmentations": raw["augmentations"],
            "minweight.us_per_augmentation": _ratio(
                1e6 * circ, raw["augmentations"]),
        })
    if ran("greedy.solve_diverse_greedy"):
        greedy_s = self_s("greedy.solve_diverse_greedy")
        out.update({
            "greedy.self_s": greedy_s,
            "greedy.gain_evaluations": raw["gain_evaluations"],
            "greedy.evals_per_s": _ratio(raw["gain_evaluations"], greedy_s),
        })
    if ran("exact.solve_diverse_exact"):
        out["exact.fast_path_s"] = raw["exact.fast_path"]
        if ran("exact.warm_start"):
            search = raw["exact.search"]
            expanded, pruned = raw["expanded"], raw["pruned"]
            out.update({
                "exact.warm_start_s": raw["warm_start"],
                "exact.warm_start_excess": _ratio(
                    raw["warm_start_excess_sum"], raw["warm_start_excess_n"]),
                "exact.search_s": search,
                "exact.expanded": expanded,
                "exact.pruned": pruned,
                "exact.prune_ratio": _ratio(pruned, expanded + pruned),
                "exact.nodes_per_s": _ratio(expanded, search),
            })
    if ran("metrics.compute_metrics"):
        out["metrics.compute_s"] = self_s("metrics.compute_metrics")
    if ran("oracle.brute_force"):
        oracle_s = raw["oracle.weight"] + raw["oracle.diversity"]
        out.update({
            "oracle.weight_s": raw["oracle.weight"],
            "oracle.diversity_s": raw["oracle.diversity"],
            "oracle.subsets": raw["subsets"],
            "oracle.feasible_ratio": _ratio(raw["feasible"], raw["subsets"]),
            "oracle.subsets_per_s": _ratio(raw["subsets"], oracle_s),
        })
    return {k: v for k, v in out.items() if v is not None}


@dataclass
class _PerInstance:
    """Samples gathered for one instance across its visits."""

    latency: list[float] = field(default_factory=list)
    step_s: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    probe_at: list[list[int]] = field(default_factory=list)
    traced_latency: list[float] = field(default_factory=list)
    layers: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    answers: dict[str, str] | None = None
    greedy_excess: float | None = None


def _sum_of_medians(samples) -> float:
    return math.fsum(statistics.median(s) for s in samples if s)


def _throughput(latencies) -> float:
    return len(latencies) / _sum_of_medians(latencies)


def _latency_figures(latencies: list[list[float]]) -> dict[str, float]:
    meds = sorted(statistics.median(lat) for lat in latencies)
    out = {"instances_per_s": _throughput(latencies),
           "instance_p50_s": statistics.median(meds)}
    for pct in TAIL_PERCENTILES:
        if len(meds) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            # nearest rank, so the value is one instance's latency
            rank = math.ceil(pct / 100.0 * len(meds)) - 1
            out.update({"instance_tail_s": meds[rank],
                        "instance_tail_pct": pct,
                        "instance_tail_samples": len(meds)})
            break
    return out


def _e2e_figures(wl, latencies: list[list[float]],
                 step_s: list[dict[str, list[float]]]) -> dict[str, float]:
    """End-to-end figures from each instance's visit and step times."""
    e2e = _latency_figures(latencies)
    for metric, steps in ENTRY_POINTS.items():
        if any(step in wl.steps for step in steps):
            e2e[metric] = math.fsum(
                _sum_of_medians([s[step] for s in step_s])
                for step in steps if step in wl.steps)
    return e2e


def _at_reference_speed(wl, p: _PerInstance, probe: SpeedProbe):
    """An instance's visit and step times, scaled to reference speed.

    Each step is scaled by the kernel times around it; the rest of the
    visit (the answer checks) by those around the last step.
    """
    latency, step_s = [], defaultdict(list)
    for k, probe_at in enumerate(p.probe_at):
        times = [p.step_s[step][k] for step in wl.steps]
        scales = [probe.scale_around(at) for at in probe_at]
        for step, t, f in zip(wl.steps, times, scales):
            step_s[step].append(t * f)
        rest = p.latency[k] - math.fsum(times)
        latency.append(math.fsum(step_s[step][k] for step in wl.steps)
                       + rest * scales[-1])
    return latency, step_s


def measure(wl, cases, seconds: float, traced: bool) -> dict:
    """Visit the instances for `seconds` (at least one pass) and report.

    With traced set, every instance is visited twice per pass, once
    under the tracer; the untraced visits give the end-to-end figures and
    the traced ones the per-layer figures.  The untraced visits also time
    the reference kernel every PROBE_EVERY_S; "e2e" holds the end-to-end
    figures with each step scaled to the reference speed around it,
    "wall_e2e" the unscaled ones.
    """
    per = [_PerInstance() for _ in cases]
    tracer = Tracer() if traced else None
    probe = SpeedProbe(PROBE_EVERY_S)
    attempted = failed = passes = visits = 0
    log: list[str] = []

    def record(i, label, v: Visit):
        nonlocal attempted, failed
        p = per[i]
        if p.answers is None:
            p.answers = v.answers
            p.greedy_excess = greedy_excess(v.results)
        for step in wl.steps:
            if v.answers[step] != p.answers[step]:
                v.problems[step].append("answer differs from the first visit")
            attempted += 1
            if v.problems[step]:
                failed += 1
                if len(log) < 20:
                    log.append(f"{label} {step}: " + "; ".join(v.problems[step]))

    def plain(i, label, inst):
        nonlocal visits
        v = visit(wl, inst, probe)
        record(i, label, v)
        per[i].probe_at.append(v.probe_at)
        per[i].latency.append(v.latency)
        for step, t in v.step_s.items():
            per[i].step_s[step].append(t)
        visits += 1

    def traced_visit(i, label, inst):
        # timed outside the tracer, so patching counts as tracing cost
        tracer.instance_id = i
        t0 = time.perf_counter()
        with tracer.installed():
            with tracer.span("harness.visit"):
                tv = visit(wl, inst)
        per[i].traced_latency.append(time.perf_counter() - t0)
        record(i, label, tv)
        for key, val in layer_values(tracer.take(), inst).items():
            per[i].layers[key].append(val)

    start = time.perf_counter()
    deadline = start + seconds
    done = False
    while not done:
        # The traced and untraced visits swap places every pass, so
        # neither always meets an instance first.
        order = (plain,) if tracer is None else (
            (plain, traced_visit) if passes % 2 == 0
            else (traced_visit, plain))
        for i, (label, inst) in enumerate(cases):
            if passes > 0 and time.perf_counter() >= deadline:
                done = True
                break
            for run_visit in order:
                run_visit(i, label, inst)
        else:
            passes += 1
            done = time.perf_counter() >= deadline
    wall = time.perf_counter() - start

    wall_e2e = _e2e_figures(wl, [p.latency for p in per],
                            [p.step_s for p in per])
    e2e = _e2e_figures(wl, *zip(*(_at_reference_speed(wl, p, probe)
                                  for p in per)))
    excess = [p.greedy_excess for p in per if p.greedy_excess is not None]
    if excess:
        e2e["greedy_excess"] = math.fsum(excess) / len(excess)
    e2e["failed_frac"] = failed / attempted
    wall_e2e.update((k, e2e[k]) for k in ("greedy_excess", "failed_frac")
                    if k in e2e)

    digest = hashlib.sha256()
    for (label, _), p in zip(cases, per):
        digest.update(repr((label, sorted(p.answers.items()))).encode())

    out = {
        "e2e": e2e, "wall_e2e": wall_e2e, "reference": probe.summary(),
        "attempted": attempted, "failed": failed,
        "problems": log, "digest": digest.hexdigest(),
        "instances": len(cases), "passes": passes, "visits": visits,
        "wall_s": wall,
    }
    if tracer is not None:
        keys = sorted({k for p in per for k in p.layers})
        raw = {k: _sum_of_medians([p.layers[k] for p in per]) for k in keys}
        traced_wall = _sum_of_medians([p.traced_latency for p in per])
        selfs = {k[len("self:"):]: v for k, v in raw.items()
                 if k.startswith("self:")}
        out["raw_layers"] = raw
        out["trace_self_s"] = selfs
        out["trace_wall_s"] = traced_wall
        out["trace_accounted_frac"] = math.fsum(selfs.values()) / traced_wall
        out["trace_overhead"] = (
            _throughput([p.traced_latency for p in per])
            / wall_e2e["instances_per_s"])
    return out
