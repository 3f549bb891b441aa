"""Command-line surface: config merging, echo round-trip, exit codes, outputs."""

import json

import numpy as np
import pytest

from potpda.cli import CONFIG_KEYS, ConfigError, main, parse_config
from potpda.measures import save_dataset
from potpda.synthbench import TaskSpec, generate_pda_task
from potpda.warmpot import TrainConfig


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


@pytest.fixture()
def tiny_task(tmp_path):
    ds = generate_pda_task(TaskSpec(K=3, shared=2, d=2, n_s=24, n_t=16, seed=0))
    path = tmp_path / "task.csv"
    save_dataset(ds, path)
    return path


FAST_FLAGS = ["--total-iters", "15", "--ramp-iters", "5", "--batch-size", "8",
              "--lr", "0.03", "--eps", "2.0", "--solver-tol", "1e-6",
              "--solver-max-iter", "300"]


class TestParseConfig:
    def test_defaults_follow_standard_preset(self):
        cfg = parse_config()
        assert cfg.eps == 7.0
        assert cfg.alpha_max == 0.8
        assert cfg.beta == 0.35
        assert cfg.eta1 == 0.125
        assert cfg.eta2 == 1.75
        assert cfg.lr == 0.001
        assert cfg.batch_size == 65
        assert cfg.ramp_iters == 2500 and cfg.total_iters == 5000

    def test_defaults_come_from_the_dataclasses(self):
        cfg = parse_config()
        assert set(cfg.values) == set(CONFIG_KEYS)
        assert cfg.train_config() == TrainConfig()
        assert cfg.task_spec() == TaskSpec()

    def test_alternate_preset(self):
        cfg = parse_config(preset="imagenet-caltech-like")
        assert cfg.alpha_max == 0.08
        assert cfg.eta1 == 0.92
        assert cfg.eta2 == 5.47
        assert cfg.beta == 0.72
        assert cfg.eps == 5.59

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr = 0.5\nbeta = 0.9  # comment\n")
        cfg = parse_config(path, {"lr": "0.25"})
        assert cfg.lr == 0.25
        assert cfg.beta == 0.9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="unknown config key: momentum"):
            parse_config(path)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(flags={"beta": "1.5"})

    def test_echo_round_trips(self, tmp_path):
        cfg = parse_config(flags={"lr": "0.125", "weight_scheme": "arpm"})
        echo_path = tmp_path / "echo.txt"
        echo_path.write_text(cfg.echo())
        again = parse_config(echo_path)
        assert again.values == cfg.values


class TestSolveCommand:
    def test_exact_solve_on_oracle_instance(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [0.6, 0.4], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5, 0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0, 2.0], [3.0, 0.0]], delimiter=",")
        code, payload = run_cli(capsys, [
            "solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5",
            "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["cost"] == pytest.approx(0.1, abs=1e-9)
        plan = np.loadtxt(payload["plan_path"], delimiter=",")
        np.testing.assert_allclose(plan, [[0.1, 0.0], [0.0, 0.4]], atol=1e-9)

    def test_entropic_method(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [0.6, 0.4], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5, 0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0, 2.0], [3.0, 0.0]], delimiter=",")
        code, payload = run_cli(capsys, [
            "solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5",
            "--method", "entropic", "--eps", "0.03", "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["converged"] is True
        assert payload["cost"] == pytest.approx(0.1, rel=0.02)

    def test_infeasible_alpha_is_computation_failure(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [0.5], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0]], delimiter=",")
        code = main(["solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--cost", str(tmp_path / "C.csv"), "--alpha", "0.9",
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 1


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_config_value_exits_two(self, tiny_task, tmp_path, capsys):
        code = main(["train", "--data", str(tiny_task), "--beta", "7",
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    def test_unknown_config_key_in_file_exits_two(self, tiny_task, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("warp_speed = 9\n")
        code = main(["train", "--data", str(tiny_task), "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command", [["train"], ["weights", "--scheme", "warmpot"],
                                         ["weights", "--scheme", "arpm"]])
    @pytest.mark.parametrize("column, value", [(1, "nan"), (1, "-inf"), (0, "validation")])
    def test_malformed_task_csv_exits_two(self, tiny_task, tmp_path, capsys,
                                          command, column, value):
        lines = tiny_task.read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = value
        lines[1] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(command + ["--data", str(bad), "--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err


class TestBoundCheckCommand:
    def test_small_run_reports_zero_violations(self, tmp_path, capsys):
        code, payload = run_cli(capsys, [
            "bound-check", "--theorem", "1", "--trials", "10",
            "--seed", "3", "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["violations"] == 0
        reports = (tmp_path / "out" / "bound_reports_theorem1.csv").read_text().splitlines()
        assert len(reports) == 11


class TestTrainCommand:
    def test_produces_artifacts(self, tiny_task, tmp_path, capsys):
        out = tmp_path / "run"
        code, payload = run_cli(capsys, ["train", "--data", str(tiny_task),
                                         "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "params.json").exists()
        assert (out / "weights_hist.csv").exists()
        assert (out / "config_echo.txt").exists()
        assert 0.0 <= payload["target_accuracy"] <= 1.0

    def test_deterministic_trace_bytes(self, tiny_task, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _ = run_cli(capsys, ["train", "--data", str(tiny_task),
                                       "--seed", "7", "--out", str(out)] + FAST_FLAGS)
            assert code == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestWeightsCommand:
    def test_warmpot_weights_json_and_histogram(self, tiny_task, tmp_path, capsys):
        out = tmp_path / "w"
        code, payload = run_cli(capsys, ["weights", "--scheme", "warmpot",
                                         "--data", str(tiny_task), "--alpha", "0.5",
                                         "--out", str(out)])
        assert code == 0
        assert payload["total"] == pytest.approx(0.5, abs=1e-8)
        hist_lines = (out / "weights_hist.csv").read_text().splitlines()
        assert hist_lines[0] == "bin_low,bin_high,count"
        assert len(hist_lines) == 21

    def test_uniform_weights(self, tiny_task, tmp_path, capsys):
        code, payload = run_cli(capsys, ["weights", "--scheme", "uniform",
                                         "--data", str(tiny_task),
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["total"] == pytest.approx(1.0)

    def test_warmpot_full_mass_uses_capped_simplex_route(self, tiny_task, tmp_path, capsys):
        code, payload = run_cli(capsys, ["weights", "--scheme", "warmpot",
                                         "--data", str(tiny_task), "--alpha", "1.0",
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["total"] == pytest.approx(1.0, abs=1e-8)

    def test_arpm_weights(self, tiny_task, tmp_path, capsys):
        code, payload = run_cli(capsys, ["weights", "--scheme", "arpm",
                                         "--data", str(tiny_task),
                                         "--arpm-steps", "3",
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["total"] == pytest.approx(1.0, abs=1e-8)

    def test_ba3us_requires_params(self, tiny_task, tmp_path, capsys):
        code = main(["weights", "--scheme", "ba3us", "--data", str(tiny_task),
                     "--out", str(tmp_path / "w")])
        capsys.readouterr()
        assert code == 2

    def test_ba3us_with_trained_params(self, tiny_task, tmp_path, capsys):
        out = tmp_path / "run"
        code, payload = run_cli(capsys, ["train", "--data", str(tiny_task),
                                         "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        code, payload = run_cli(capsys, ["weights", "--scheme", "ba3us",
                                         "--data", str(tiny_task),
                                         "--params", payload["params_path"],
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert all(v >= 0 for v in payload["weights"])


class TestMakeTask:
    def test_generates_loadable_task(self, tmp_path, capsys):
        out = tmp_path / "mt"
        code, payload = run_cli(capsys, ["make-task", "--task-K", "3", "--task-shared", "2",
                                         "--task-n-s", "12", "--task-n-t", "8",
                                         "--out", str(out)])
        assert code == 0
        from potpda.measures import load_dataset

        ds = load_dataset(payload["task_path"])
        assert ds.n_s == 12 and ds.n_t == 8

    def test_max_iter_alias(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [1.0], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [1.0], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[2.0]], delimiter=",")
        code, payload = run_cli(capsys, [
            "solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5", "--method", "entropic",
            "--max-iter", "50", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "solver_max_iter = 50" in (tmp_path / "out" / "config_echo.txt").read_text()


class TestBenchAndSweep:
    def test_bench_writes_results(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code, payload = run_cli(capsys, [
            "bench", "--schemes", "warmpot,uniform", "--seeds", "2",
            "--task-n-s", "24", "--task-n-t", "16", "--task-K", "3",
            "--task-shared", "2", "--task-d", "2", "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 3
        assert set(payload["schemes"]) == {"warmpot", "uniform"}

    def test_sweep_rows_match_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, payload = run_cli(capsys, [
            "sweep", "--param", "beta", "--grid", "0.4,0.8",
            "--task-n-s", "24", "--task-n-t", "16", "--task-K", "3",
            "--task-shared", "2", "--task-d", "2", "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        assert [r["value"] for r in payload["rows"]] == [0.4, 0.8]
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
