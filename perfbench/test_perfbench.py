"""Tests of the benchmark's own inputs, checks and tracer."""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from divmatch import EnumerationBudget, solve_min_weight
from divmatch import minweight

import harness
import reference
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _fingerprint(cases):
    return [(label, inst.weights.tobytes(), inst.clusters.tobytes(), inst.k,
             inst.bounds) for label, inst in cases]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_regenerates_bit_identical_instances(name):
    wl = workloads.WORKLOADS[name]
    first = _fingerprint(wl.generate(workloads.DEFAULT_SEED))
    assert first == _fingerprint(wl.generate(workloads.DEFAULT_SEED))
    assert first != _fingerprint(wl.generate(workloads.HELD_OUT_SEED))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED,
                                  workloads.HELD_OUT_SEED])
def test_small_verified_fits_the_default_oracle_budget(seed):
    budget = EnumerationBudget()
    cases = workloads.WORKLOADS["small-verified"].generate(seed)
    for _, inst in cases:
        assert 1 << (inst.m * inst.n) <= budget.max_subsets
    assert any(not solve_min_weight(inst).matching for _, inst in cases)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _small_case():
    cases = workloads.WORKLOADS["small-verified"].generate(
        workloads.DEFAULT_SEED)
    return next(inst for _, inst in cases
                if inst.m * inst.n <= 9 and solve_min_weight(inst).matching)


def test_visit_passes_all_checks_on_correct_answers():
    wl = workloads.WORKLOADS["small-verified"]
    v = harness.visit(wl, _small_case())
    assert all(not p for p in v.problems.values()), v.problems


def test_wrong_answers_are_blamed_on_their_solver():
    wl = workloads.WORKLOADS["small-verified"]
    inst = _small_case()
    good = harness.visit(wl, inst).results
    bad = dict(good,
               min_weight=replace(good["min_weight"],
                                  total_weight=good["min_weight"].total_weight
                                  + 1.0),
               exact=replace(good["exact"], status="feasible_incumbent"))
    problems = {step: [] for step in wl.steps}
    harness.check_answers(wl, inst, bad, problems)
    assert problems["min_weight"] and problems["exact"]
    assert not any(problems[s] for s in ("greedy", "oracle_weight",
                                         "oracle_diversity"))


def test_tracer_restores_functions_and_nests_spans():
    original = minweight.solve_min_weight
    tracer = Tracer()
    inst = _small_case()
    with tracer.installed():
        assert minweight.solve_min_weight is not original
        with tracer.span("harness.visit") as root:
            minweight.solve_min_weight(inst)
    assert minweight.solve_min_weight is original
    spans = tracer.take()
    assert spans[0] is root and root.child_time > 0
    names = {s.name for s in spans}
    assert {"minweight.solve_min_weight", "minweight.solve_circulation",
            "instance.is_feasible_bounds"} <= names
    assert np.isclose(sum(s.self_time for s in spans), root.duration)


def test_reference_scaling_touches_times_and_rates_only():
    scaled = reference.to_reference(
        {"instances_per_s": 10.0, "min_weight_s": 1.0, "peak_rss_mb": 40.0,
         "minweight.us_per_augmentation": 3.0, "exact.expanded": 7.0,
         "trace_overhead": 0.5}, 0.5)
    assert scaled == {"instances_per_s": 20.0, "min_weight_s": 0.5,
                      "peak_rss_mb": 40.0,
                      "minweight.us_per_augmentation": 1.5,
                      "exact.expanded": 7.0, "trace_overhead": 0.5}


def test_probe_time_is_left_out_of_the_visit():
    wl = workloads.WORKLOADS["small-verified"]
    probe = reference.SpeedProbe(every_s=0.0)
    inst = _small_case()
    start = time.perf_counter()
    v = harness.visit(wl, inst, probe)
    wall = time.perf_counter() - start
    assert len(probe.samples) == len(wl.steps)
    assert 0 < v.latency <= wall - sum(probe.samples)
    assert reference.kernel() == reference.EXPECTED
