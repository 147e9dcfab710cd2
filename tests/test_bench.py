"""Tests for instance generation and the benchmark sweeps."""

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from divmatch import (
    ConfigError,
    GeneratorConfig,
    gen_instance,
    run_bounds_sweep,
    run_cluster_sweep,
    run_scaling,
    save_instance,
    scaling_csv,
    solve_diverse_exact,
    solve_diverse_greedy,
    solve_min_weight,
)


def mask_wall_cells(csv_text):
    """Blank the two trailing wall-clock columns of every data row."""
    lines = csv_text.strip().splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-2:] = ["T", "T"]
        masked.append(",".join(cells))
    return "\n".join(masked)


class TestGenerator:
    def test_deterministic(self):
        a = gen_instance(GeneratorConfig(m=6, n=4, k=3, r_lo=2, seed=42))
        b = gen_instance(GeneratorConfig(m=6, n=4, k=3, r_lo=2, seed=42))
        assert save_instance(a) == save_instance(b)

    def test_seed_changes_weights(self):
        a = gen_instance(GeneratorConfig(m=6, n=4, k=3, r_lo=2, seed=1))
        b = gen_instance(GeneratorConfig(m=6, n=4, k=3, r_lo=2, seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_every_cluster_inhabited(self):
        for seed in range(20):
            inst = gen_instance(GeneratorConfig(m=5, n=3, k=4, r_lo=1,
                                                seed=seed))
            assert len(np.unique(inst.clusters)) == 4

    def test_weights_in_unit_interval(self):
        inst = gen_instance(GeneratorConfig(m=8, n=5, k=2, r_lo=1, seed=3))
        assert np.all(inst.weights >= 0.0) and np.all(inst.weights < 1.0)

    def test_rejects_more_clusters_than_candidates(self):
        with pytest.raises(ConfigError):
            gen_instance(GeneratorConfig(m=2, n=2, k=3, r_lo=1, seed=0))

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigError):
            gen_instance(GeneratorConfig(m=0, n=2, k=1, r_lo=0, seed=0))

    def test_refuses_labels_that_almost_never_cover_every_cluster(self):
        # one draw of 30 labels holds all 30 with probability 30! / 30^30,
        # about 1.3e-12, so redrawing until it does would not end
        with pytest.raises(ConfigError, match="probability"):
            gen_instance(GeneratorConfig(m=30, n=2, k=30))

    def test_as_many_clusters_as_left_nodes(self):
        inst = gen_instance(GeneratorConfig(m=10, n=2, k=10))
        assert sorted(inst.clusters.tolist()) == list(range(10))

    def test_rejects_negative_seed(self):
        for seed in (-1, (3, -2)):
            with pytest.raises(ConfigError, match="seed"):
                gen_instance(GeneratorConfig(m=2, n=2, k=1, seed=seed))


FIG2_SEED7_DIGEST = (
    "b064103a1c81b474837a9888ac3fa437e24f508efe75934546e81e2872cfb461")


class TestClusterSweep:
    def test_reproducible_modulo_wall_time(self):
        kwargs = dict(k_values=(2, 3), trials=5, m=6, n=6, r_lo=3, seed=13)
        a = run_cluster_sweep(**kwargs)
        b = run_cluster_sweep(**kwargs)
        assert mask_wall_cells(a.to_trials_csv()) == \
            mask_wall_cells(b.to_trials_csv())
        assert a.to_summary_csv() == b.to_summary_csv()

    def test_summary_aggregates_per_k(self):
        batch = run_cluster_sweep(k_values=(2, 4), trials=6, m=6, n=6,
                                  r_lo=3, seed=17)
        lines = batch.to_summary_csv().strip().splitlines()
        assert lines[0].startswith("k,trials")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "6"
        pod_mean = float(first[2])
        assert 0.0 < pod_mean <= 1.0 + 1e-9

    def test_agreement_is_relative_to_the_cost_scale(self):
        batch = run_cluster_sweep(k_values=(2,), trials=1, m=4, n=4,
                                  r_lo=2, seed=19)

        def rate(greedy_cost, exact_cost):
            row = replace(batch.rows[0], greedy_cost=greedy_cost,
                          exact_cost=exact_cost)
            return replace(batch, rows=[row]).summary()[0]["agreement_rate"]

        # 30% apart at 1e-12 disagrees; a last-digit difference at 1e6 agrees.
        assert rate(1.3e-12, 1.0e-12) == 0.0
        assert rate(1e6 * (1 + 1e-14), 1e6) == 1.0
        assert rate(0.0, 0.0) == 1.0

    def test_seed7_answers_are_pinned(self):
        # The 180 instances of run_cluster_sweep(trials=20) at its default
        # seed 7: every solver's status and edges, hashed.  The fig2
        # sweep's metrics are floats that a libm change can move; its
        # answers are not.
        answers = []
        for k in range(2, 11):
            for trial in range(20):
                inst = gen_instance(GeneratorConfig(
                    m=10, n=10, k=k, l_lo=0, l_hi=10, r_lo=5,
                    seed=(7, k, trial)))
                for solve in (solve_min_weight, solve_diverse_exact,
                              solve_diverse_greedy):
                    rep = solve(inst)
                    answers.append([rep.status, rep.matching.edges])
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        assert digest == FIG2_SEED7_DIGEST

    def test_seed7_metrics_are_pinned(self):
        # The same 180 instances through run_cluster_sweep: the fsum of
        # each metric column and the count of undefined entropy gains.
        reports = [row.report for row in run_cluster_sweep(trials=20).rows]
        assert len(reports) == 180
        assert sum(r.eg is None for r in reports) == 0
        for field, want in (("pod", 176.19037879451696),
                            ("pod_bound", 87.3455263182777),
                            ("eg", 194.24376900994386)):
            got = math.fsum(getattr(r, field) for r in reports)
            assert got == pytest.approx(want, rel=1e-12), field

    def test_trials_csv_has_expected_shape(self):
        batch = run_cluster_sweep(k_values=(2,), trials=4, m=5, n=5,
                                  r_lo=2, seed=19)
        lines = batch.to_trials_csv().strip().splitlines()
        assert len(lines) == 5
        header_cols = lines[0].count(",")
        assert all(line.count(",") == header_cols for line in lines[1:])


class TestTrialsCsv:
    def test_sweep_column_is_the_swept_value(self):
        # The trials header has two k columns: the first is the swept
        # value (R_lo in the bounds sweep), the second the instance's k.
        cluster = run_cluster_sweep(k_values=(2, 3), trials=2, m=6, n=6,
                                    r_lo=3)
        for batch, swept in ((run_bounds_sweep(), "r_lo"), (cluster, "k")):
            lines = batch.to_trials_csv().strip().splitlines()
            header = lines[0].split(",")
            assert header[:3] == ["trial", "k", "seed"]
            col = header.index(swept, 3)
            assert len(lines) > 1
            for line in lines[1:]:
                cells = line.split(",")
                assert cells[1] == cells[col]


class TestSweepPremise:
    def test_every_row_is_right_only(self):
        # Both sweeps keep the left side open, so every instance is
        # right_only: the exact solve is its dynamic program, which no
        # budget stops, and pod_bound is a floor under pod.
        cluster = run_cluster_sweep(k_values=(2, 4), trials=3, m=6, n=6,
                                    r_lo=3)
        for batch in (cluster, run_bounds_sweep()):
            for row in batch.rows:
                rep = row.report
                assert "premise" not in rep.diagnostic, rep.instance_id
                assert rep.pod >= rep.pod_bound - 1e-12, rep.instance_id


class TestBoundsSweep:
    def test_endpoint_rows(self):
        batch = run_bounds_sweep(m=6, n=3, k=2, seed=11)
        by_lo = {row.sweep_value: row.report for row in batch.rows}
        assert set(by_lo) == set(range(1, 7))
        # Full saturation forces both solvers onto the same matching.
        assert by_lo[6].pod == 1.0
        # The unconstrained end must run without crashing; eg may be
        # undefined there but then carries a diagnostic.
        rep = by_lo[1]
        assert rep.eg is None or rep.eg > 0.0
        if rep.eg is None:
            assert rep.diagnostic != ""

    def test_statuses_and_walls_recorded(self):
        batch = run_bounds_sweep(m=5, n=3, k=2, seed=29)
        for row in batch.rows:
            assert row.report.status_baseline in ("optimal", "infeasible")
            assert row.report.wall_s_baseline >= 0.0


class TestScaling:
    def test_rows_cover_requested_sizes(self):
        rows = run_scaling(sizes=(10, 20), n=5, k=3, r_lo=2, l_lo=1,
                           seed=23, budget_ms=300.0)
        assert [row["m"] for row in rows] == [10, 20]
        for row in rows:
            assert row["status_greedy"] == "feasible_incumbent"
            assert row["wall_s_greedy"] >= 0.0
            assert row["cost_greedy"] >= row["cost_exact"] - 1e-9

    def test_csv_shape(self):
        rows = run_scaling(sizes=(10,), n=5, k=3, r_lo=2, l_lo=1,
                           seed=23, budget_ms=200.0)
        text = scaling_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("m,n,k")
        assert len(lines) == 2

    def test_greedy_growth_is_polynomial(self):
        # Doubling the left side should scale the greedy wall time by a
        # factor consistent with a low-degree polynomial; fit the log-log
        # slope over a geometric size ladder and allow generous noise.
        sizes = (25, 50, 100, 200)
        times = []
        for m in sizes:
            cfg = GeneratorConfig(m=m, n=10, k=5, l_lo=1, r_lo=3, seed=31)
            inst = gen_instance(cfg)
            start = time.perf_counter()
            rep = solve_diverse_greedy(inst)
            times.append(time.perf_counter() - start)
            assert rep.status == "feasible_incumbent"
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope < 3.0, (sizes, times, slope)
