"""End-to-end tests for the command line interface."""

import json

import numpy as np
import pytest

from divmatch import (
    OPTIMAL,
    GeneratorConfig,
    Instance,
    InternalError,
    SolveReport,
    diversity_cost,
    gen_instance,
    load_instance,
    save_instance,
    solve_diverse_greedy,
    total_weight,
)
from divmatch.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    _verify_against_oracle,
    main,
)
from conftest import dead_end_instance


def write_instance(tmp_path, name="inst.json", m=4, n=3, k=2, r_lo=1,
                   seed=5):
    path = tmp_path / name
    code = main(["gen", "--m", str(m), "--n", str(n), "--k", str(k),
                 "--r-lo", str(r_lo), "--seed", str(seed),
                 "--out", str(path)])
    assert code == EXIT_OK
    return path


def write_infeasible_instance(tmp_path):
    path = tmp_path / "impossible.json"
    doc = {
        "m": 2, "n": 2, "k": 1,
        "weights": [[1.0, 1.0], [1.0, 1.0]],
        "clusters": [0, 0],
        "bounds": {"L_lo": 0, "L_hi": 1, "R_lo": 2, "R_hi": 2},
    }
    path.write_text(json.dumps(doc))
    return path


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        path = write_instance(tmp_path)
        inst = load_instance(path.read_text())
        assert inst.m == 4 and inst.n == 3 and inst.k == 2

    def test_deterministic_per_seed(self, tmp_path):
        a = write_instance(tmp_path, "a.json", seed=9)
        b = write_instance(tmp_path, "b.json", seed=9)
        assert a.read_text() == b.read_text()

    def test_bad_config_exits_usage(self, tmp_path, capsys):
        code = main(["gen", "--m", "2", "--n", "2", "--k", "5",
                     "--r-lo", "1", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert json.loads(err)["error"]


class TestSolve:
    @pytest.mark.parametrize("alg", ["wbm", "dwbm", "greedy"])
    def test_round_trip(self, alg, tmp_path):
        inst_path = write_instance(tmp_path)
        out = tmp_path / f"{alg}.json"
        code = main(["solve", "--alg", alg, str(inst_path), str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["status"] in ("optimal", "feasible_incumbent")
        assert doc["edges"]
        assert doc["total_weight"] > 0.0

    def test_diverse_never_cheaper_than_exact(self, tmp_path):
        inst_path = write_instance(tmp_path, m=5, n=4, k=3, r_lo=2)
        docs = {}
        for alg in ("dwbm", "greedy"):
            out = tmp_path / f"{alg}.json"
            assert main(["solve", "--alg", alg, str(inst_path),
                         str(out)]) == EXIT_OK
            docs[alg] = json.loads(out.read_text())
        assert (docs["greedy"]["diversity_cost"]
                >= docs["dwbm"]["diversity_cost"] - 1e-9)

    def test_verify_flag_cross_checks(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        out = tmp_path / "v.json"
        code = main(["solve", "--alg", "wbm", "--verify",
                     str(inst_path), str(out)])
        assert code == EXIT_OK

    def test_verify_names_greedy_dead_end(self, tmp_path, capsys):
        path = tmp_path / "dead_end.json"
        path.write_text(save_instance(dead_end_instance()))
        out = tmp_path / "sol.json"
        code = main(["solve", "--alg", "greedy", "--verify", str(path),
                     str(out)])
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out.read_text())
        assert doc["verify"] == "greedy dead end on a feasible instance"
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible"
        assert err["message"].startswith("greedy dead end: left node 1 ")

    def test_verify_agrees_on_infeasible(self, tmp_path, capsys):
        path = write_infeasible_instance(tmp_path)
        out = tmp_path / "sol.json"
        code = main(["solve", "--alg", "dwbm", "--verify", str(path),
                     str(out)])
        assert code == EXIT_INFEASIBLE
        assert json.loads(out.read_text())["verify"] == "ok"

    def test_verify_skips_above_the_oracle_cap(self, tmp_path):
        inst_path = write_instance(tmp_path, m=5, n=5, k=2, r_lo=2)
        out = tmp_path / "sol.json"
        code = main(["solve", "--alg", "greedy", "--verify", str(inst_path),
                     str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["verify"].startswith("skipped: ")

    def test_verify_tolerance_scales_with_weights(self):
        # At weights of order 1e-6 costs are of order 1e-12, so an
        # absolute 1e-9 tolerance would pass any matching as optimal.
        proto = gen_instance(GeneratorConfig(m=4, n=4, k=2, l_lo=1, l_hi=4,
                                             r_lo=2, seed=(5, 0)))
        inst = Instance(proto.weights * 1e-6, proto.clusters, proto.k,
                        proto.bounds)
        match = solve_diverse_greedy(inst).matching
        claimed = SolveReport(
            algorithm="diverse_exact", status=OPTIMAL, matching=match,
            total_weight=total_weight(inst, match),
            diversity_cost=diversity_cost(inst, match), wall_time=0.0)
        with pytest.raises(InternalError, match="diversity optimum mismatch"):
            _verify_against_oracle("dwbm", inst, claimed)

    def test_infeasible_exits_three(self, tmp_path, capsys):
        path = write_infeasible_instance(tmp_path)
        out = tmp_path / "sol.json"
        code = main(["solve", "--alg", "wbm", str(path), str(out)])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "infeasible" in json.loads(err)["error"]

    def test_per_node_infeasible_exits_three(self, tmp_path, capsys):
        # Per-node bounds no matching meets: exit 3, not an internal
        # error (5) from a feasibility check that let it through.
        path = tmp_path / "per_node.json"
        path.write_text(json.dumps({
            "m": 4, "n": 2, "k": 1, "weights": [[1.0, 1.0]] * 4,
            "clusters": [0, 0, 0, 0],
            "bounds": {"L_lo": [0, 0, 1, 2], "L_hi": [0, 0, 2, 2],
                       "R_lo": [1, 3], "R_hi": [3, 3]}}))
        code = main(["solve", "--alg", "wbm", str(path),
                     str(tmp_path / "sol.json")])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in json.loads(capsys.readouterr().err)["error"]

    def test_missing_file_exits_usage(self, tmp_path, capsys):
        code = main(["solve", "--alg", "wbm",
                     str(tmp_path / "nope.json"),
                     str(tmp_path / "out.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("which", ["input", "output"])
    def test_directory_path_exits_usage(self, which, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        paths = {"input": str(inst_path), "output": str(tmp_path / "out.json")}
        paths[which] = str(tmp_path)
        code = main(["solve", "--alg", "wbm", paths["input"], paths["output"]])
        assert code == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == EXIT_USAGE

    def test_stdout_output(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        code = main(["solve", "--alg", "greedy", str(inst_path), "-"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "greedy"


class TestMetrics:
    def test_produces_csv(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        base = tmp_path / "base.json"
        div = tmp_path / "div.json"
        assert main(["solve", "--alg", "wbm", str(inst_path),
                     str(base)]) == EXIT_OK
        assert main(["solve", "--alg", "dwbm", str(inst_path),
                     str(div)]) == EXIT_OK
        out = tmp_path / "metrics.csv"
        code = main(["metrics", str(inst_path), str(base), str(div),
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("instance_id,")
        pod_idx = lines[0].split(",").index("pod")
        pod = float(lines[1].split(",")[pod_idx])
        assert 0.0 < pod <= 1.0 + 1e-9

    def test_rejects_mismatched_solution(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        other = write_infeasible_instance(tmp_path)
        sol = tmp_path / "sol.json"
        assert main(["solve", "--alg", "wbm", str(inst_path),
                     str(sol)]) == EXIT_OK
        # A solution paired with the wrong instance violates its bounds.
        code = main(["metrics", str(other), str(sol), str(sol)])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("wall_time", [None, "x"])
    def test_bad_wall_time_exits_usage(self, wall_time, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        sol = tmp_path / "sol.json"
        assert main(["solve", "--alg", "wbm", str(inst_path),
                     str(sol)]) == EXIT_OK
        doc = json.loads(sol.read_text())
        doc["wall_time"] = wall_time
        sol.write_text(json.dumps(doc))
        code = main(["metrics", str(inst_path), str(sol), str(sol)])
        assert code == EXIT_USAGE
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MatchingError"


class TestSweepCommands:
    def test_run_fig2_writes_both_csvs(self, tmp_path, capsys):
        prefix = tmp_path / "sweep"
        code = main(["run-fig2", "--k-min", "2", "--k-max", "3",
                     "--trials", "3", "--m", "5", "--n", "5",
                     "--r-lo", "2", "--seed", "7",
                     "--out", str(prefix)])
        assert code == EXIT_OK
        trials = (tmp_path / "sweep_trials.csv").read_text()
        summary = (tmp_path / "sweep_summary.csv").read_text()
        assert trials.startswith("trial,k,seed,")
        assert summary.startswith("k,trials,")
        assert len(trials.strip().splitlines()) == 7
        assert len(summary.strip().splitlines()) == 3

    def test_run_bounds_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["run-bounds", "--m", "4", "--n", "3", "--k", "2",
                     "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5

    def test_run_scaling_csv(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = main(["run-scaling", "--sizes", "10,20", "--n", "5",
                     "--k", "3", "--r-lo", "2", "--budget-ms", "200",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("m,n,k")
        assert len(lines) == 3


class TestConvert:
    def test_max_to_min_round_trip(self, tmp_path):
        inst_path = write_instance(tmp_path)
        out = tmp_path / "flipped.json"
        code = main(["convert-max-min", str(inst_path), str(out)])
        assert code == EXIT_OK
        orig = load_instance(inst_path.read_text())
        flipped = load_instance(out.read_text())
        np.testing.assert_allclose(
            flipped.weights, orig.weights.max() - orig.weights)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_corrupt_instance_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        code = main(["solve", "--alg", "wbm", str(path),
                     str(tmp_path / "o.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert json.loads(err)["error"]

    def test_non_integer_cluster_label_exits_usage(self, tmp_path, capsys):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "k": 2, "weights": [[1.0, 2.0], [3.0, 4.0]],
            "clusters": [0, "x"],
            "bounds": {"L_lo": 0, "L_hi": 2, "R_lo": 1, "R_hi": 2}}))
        code = main(["solve", "--alg", "wbm", str(path),
                     str(tmp_path / "o.json")])
        assert code == EXIT_USAGE
        assert "clusters[1]" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("alg", ["wbm", "dwbm", "greedy"])
    def test_overflowing_weights_exit_usage(self, alg, tmp_path, capsys):
        # Selecting every edge costs 52e308, past the float maximum: the
        # instance is refused, not solved into an internal error (5).
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "m": 2, "n": 2, "k": 1,
            "weights": [[1e154, 2e154], [3e154, 4e154]], "clusters": [0, 0],
            "bounds": {"L_lo": 1, "L_hi": 2, "R_lo": 1, "R_hi": 2}}))
        code = main(["solve", "--alg", alg, str(path),
                     str(tmp_path / "o.json")])
        assert code == EXIT_USAGE
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InstanceError"
        assert "overflows" in doc["message"]

    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_bad_budget_exits_usage(self, budget, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        code = main(["solve", "--alg", "dwbm", "--budget-ms", budget,
                     str(inst_path), str(tmp_path / "o.json")])
        assert code == EXIT_USAGE
        assert "budget_ms" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("edge", [[0.7, 0], [True, 0], ["x", 0]])
    def test_non_integer_edge_index_exits_usage(self, edge, tmp_path, capsys):
        inst_path = write_instance(tmp_path)
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"edges": [edge, [1, 1]]}))
        code = main(["metrics", str(inst_path), str(sol), str(sol)])
        assert code == EXIT_USAGE
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "MatchingError"
        assert "must be integers" in doc["message"]

    def test_non_integer_size_exits_usage(self, tmp_path, capsys):
        code = main(["run-scaling", "--sizes", "5,a",
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_USAGE
        assert "--sizes" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command", ["run-fig2", "run-bounds"])
    def test_sweeps_take_no_budget(self, command, capsys):
        # both sweeps' instances are right_only, which no budget stops
        assert main([command, "--budget-ms", "100"]) == EXIT_USAGE

    def test_uncoverable_clusters_exit_usage(self, tmp_path, capsys):
        code = main(["gen", "--m", "30", "--n", "2", "--k", "30",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "probability" in json.loads(capsys.readouterr().err)["message"]

    def test_negative_seed_exits_usage(self, tmp_path, capsys):
        code = main(["gen", "--m", "4", "--n", "3", "--k", "2",
                     "--seed", "-1", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "seed" in json.loads(capsys.readouterr().err)["message"]
