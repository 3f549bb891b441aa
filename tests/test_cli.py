"""Command-line surface: config merging, echo round-trip, exit codes, outputs."""

import copy
import csv
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from potpda import synthbench
from potpda.cli import CONFIG_KEYS, ConfigError, build_parser, main, parse_config
from potpda.measures import PdaDataset, load_dataset, save_dataset
from potpda.pot import exact_partial_ot
from potpda.synthbench import TaskSpec, generate_pda_task
from potpda.warmpot import TrainConfig
from potpda.weights import ArpmConfig


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


# parameters that fit tiny_task's 2-d inputs and 3 source classes
TINY_PARAMS = {"W_f": [[1.0, 0.0], [0.0, 1.0]], "W_g": [[0.5, -0.5], [-0.5, 0.5], [0.0, 0.1]],
               "bias": [0.0, 0.1, -0.1]}

TINY_TASK_FLAGS = ["--task-n-s", "24", "--task-n-t", "16", "--task-K", "3",
                   "--task-shared", "2", "--task-d", "2"]

FAST_FLAGS = ["--total-iters", "15", "--ramp-iters", "5", "--batch-size", "8",
              "--lr", "0.03", "--eps", "2.0", "--solver-tol", "1e-6",
              "--solver-max-iter", "300"]


class TestParseConfig:
    def test_defaults_follow_standard_preset(self):
        cfg = parse_config()
        assert cfg.train.eps == 7.0
        assert cfg.train.alpha_max == 0.8
        assert cfg.train.beta == 0.35
        assert cfg.train.eta1 == 0.125
        assert cfg.train.eta2 == 1.75
        assert cfg.train.lr == 0.001
        assert cfg.train.batch_size == 65
        assert cfg.train.ramp_iters == 2500 and cfg.train.total_iters == 5000

    def test_defaults_come_from_the_dataclasses(self):
        cfg = parse_config()
        assert set(cfg.values) == set(CONFIG_KEYS)
        assert cfg.train == TrainConfig()
        assert cfg.task == TaskSpec()

    def test_keys_are_the_dataclass_fields(self):
        # no key reaches into a nested config
        task_keys = {f"task_{f.name}" for f in dataclasses.fields(TaskSpec) if f.name != "seed"}
        train_keys = {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(CONFIG_KEYS) == train_keys | task_keys

    def test_arpm_rho_builds_the_arpm_config(self):
        assert parse_config(flags={"arpm_rho": "1"}).train.arpm == ArpmConfig(rho=1.0)

    def test_alternate_preset(self):
        cfg = parse_config(preset="imagenet-caltech-like")
        assert cfg.train.alpha_max == 0.08
        assert cfg.train.eta1 == 0.92
        assert cfg.train.eta2 == 5.47
        assert cfg.train.beta == 0.72
        assert cfg.train.eps == 5.59

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("lr = 0.5\nbeta = 0.9  # comment\n")
        cfg = parse_config(path, {"lr": "0.25"})
        assert cfg.train.lr == 0.25
        assert cfg.train.beta == 0.9

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
        assert payload["converged"] is True
        assert isinstance(payload["n_iter"], int) and payload["n_iter"] >= 0
        assert 0.0 <= payload["max_violation"] <= 1e-9
        plan = np.loadtxt(payload["plan_path"], delimiter=",")
        np.testing.assert_allclose(plan, [[0.1, 0.0], [0.0, 0.4]], atol=1e-9)

    def test_exact_solve_on_costs_below_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        C = -10.0 * rng.random((4, 4))
        np.savetxt(tmp_path / "a.csv", np.full(4, 0.25), delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.full(4, 0.25), delimiter=",")
        np.savetxt(tmp_path / "C.csv", C, delimiter=",")
        code, payload = run_cli(capsys, [
            "solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5", "--method", "exact",
            "--out", str(tmp_path / "out")])
        assert code == 0
        assert 0.0 <= payload["max_violation"] <= 1e-9
        plan = np.loadtxt(payload["plan_path"], delimiter=",")
        assert plan.sum() == pytest.approx(0.5, abs=1e-9)
        assert payload["cost"] == pytest.approx(float(np.sum(C * plan)), abs=1e-9)

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
        assert 1 <= payload["n_iter"] < 5000
        assert 0.0 <= payload["residual"] <= 1e-7
        assert 0.0 <= payload["max_violation"] <= 1e-6

    def test_infeasible_alpha_is_computation_failure(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [0.5], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0]], delimiter=",")
        code = main(["solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--cost", str(tmp_path / "C.csv"), "--alpha", "0.9",
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 1

    def test_unserialisable_payload_leaves_stdout_empty(self, tmp_path, capsys, monkeypatch):
        import potpda.cli

        def nan_cost(a, b, C, alpha):
            plan, _ = exact_partial_ot(a, b, C, alpha)
            return plan, float("nan")

        monkeypatch.setattr(potpda.cli, "exact_partial_ot", nan_cost)
        np.savetxt(tmp_path / "a.csv", [0.6, 0.4], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5, 0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0, 2.0], [3.0, 0.0]], delimiter=",")
        code = main(["solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5",
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_eps_overflowing_every_cost_is_computation_failure(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [0.6, 0.4], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [0.5, 0.5], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[1.0, 2.0], [3.0, 1.0]], delimiter=",")
        code = main(["solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
                     "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5",
                     "--method", "entropic", "--eps", "1e-310", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and "eps=1e-310" in captured.err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--alpha", "0.5"], ["--solver-max", "7"],
                                      ["--alpha", "0.5", "--solver-max", "7"],
                                      ["--feat-dim", "3"], ["--arpm-steps", "3"],
                                      ["--arpm-step-size", "0.1"],
                                      ["--weight-update-every", "2"]], ids=" ".join)
    def test_prefix_of_a_flag_is_not_an_alias(self, tiny_task, tmp_path, capsys, argv):
        # prefix matching would read the first three as --alpha-max and
        # --solver-max-iter; the feature map is square, so no flag sets its
        # size, arpm scales its fixed number of steps to its ball, and the
        # model-following schemes refresh their weights on every step
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(tiny_task), "--out", str(out)] + argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "unrecognized arguments" in captured.err and argv[0] in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--beta", "7"), ("--solver-tol", "1e-5"),
                                             ("--arpm-rho", "-1")])
    def test_bad_config_value_exits_two(self, tiny_task, tmp_path, capsys, flag, value):
        # a solver tol past the feasibility check would let a converged plan fail it
        code = main(["train", "--data", str(tiny_task), flag, value,
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("line", ["warp_speed = 9", "feat_dim = 3", "arpm_steps = 3",
                                      "arpm_step_size = 0.1", "weight_update_every = 2"])
    def test_unknown_config_key_in_file_exits_two(self, tiny_task, tmp_path, capsys, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(line + "\n")
        code = main(["train", "--data", str(tiny_task), "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag, name", [("--data", "nope.csv"), ("--data", "dir"),
                                            ("--config", "dir")])
    def test_missing_input_exits_two(self, tiny_task, tmp_path, capsys, flag, name):
        (tmp_path / "dir").mkdir()
        inputs = {"--data": str(tiny_task), flag: str(tmp_path / name)}
        code = main(["train", *(arg for item in inputs.items() for arg in item),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("below", [False, True])
    def test_out_naming_a_file_exits_two(self, tiny_task, tmp_path, capsys, below):
        out = tiny_task / "run" if below else tiny_task
        code = main(["train", "--data", str(tiny_task), "--out", str(out)] + FAST_FLAGS)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1 and "--out" in captured.err

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


    @pytest.mark.parametrize("name, text", [
        ("a", ""), ("b", ""), ("cost", ""), ("cost", "1,nan\n3,0\n"),
        ("cost", "1,two\n3,0\n"), ("cost", "1,2,3\n3,0,1\n"), ("a", "-0.1\n0.4\n"),
    ], ids=["empty a", "empty b", "empty cost", "nan cost", "unparseable cost",
            "cost shape", "negative mass"])
    def test_malformed_solve_input_exits_two(self, tmp_path, capsys, name, text):
        inputs = {"a": "0.6\n0.4\n", "b": "0.5\n0.5\n", "cost": "1,2\n3,0\n", name: text}
        paths = {key: tmp_path / f"{key}.csv" for key in inputs}
        for key, content in inputs.items():
            paths[key].write_text(content)
        code = main(["solve", "--a", str(paths["a"]), "--b", str(paths["b"]),
                     "--cost", str(paths["cost"]), "--alpha", "0.3",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(paths[name]) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("fault", ["no split column", "no y column", "short row",
                                       "inf label"])
    def test_structurally_malformed_task_csv_exits_two(self, tiny_task, tmp_path, capsys, fault):
        rows = [line.split(",") for line in tiny_task.read_text().splitlines()]
        header = rows[0]
        if fault == "no split column":
            rows = [r[1:] for r in rows]
        elif fault == "no y column":
            col = header.index("y")
            rows = [r[:col] + r[col + 1:] for r in rows]
        elif fault == "short row":
            rows[3] = rows[3][:2]
        else:
            rows[1][header.index("y")] = "inf"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("label", ["-1", "1.5"])
    def test_train_rejects_labels_that_are_not_class_indices(self, tiny_task, tmp_path, capsys,
                                                             label):
        lines = tiny_task.read_text().splitlines()
        header = lines[0].split(",")
        y = header.index("y")
        for k, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[0] == "source" and cells[y] == "2":
                cells[y] = label
                lines[k] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "nonnegative integers" in err

    @pytest.mark.parametrize("label, code", [("1e15", 2), ("24", 2), ("23", 0)])
    def test_train_rejects_source_labels_past_the_source_rows(self, tiny_task, tmp_path, capsys,
                                                              label, code):
        # a head has a row per class up to the largest label: 1e15 would
        # size it at 28 PiB; 23 is the largest label below tiny_task's 24
        # source rows
        lines = tiny_task.read_text().splitlines()
        y = lines[0].split(",").index("y")
        for k, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[0] == "source" and cells[y] == "2":
                cells[y] = label
                lines[k] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train", "--data", str(bad), "--out", str(tmp_path / "out")]
                    + FAST_FLAGS) == code
        err = capsys.readouterr().err
        assert (tmp_path / "out" / "trace.csv").exists() == (code == 0)
        if code:
            assert str(bad) in err
            assert "source labels must lie below the number of source rows, 24" in err
            assert len(err.strip().splitlines()) == 1

    def test_train_rejects_hidden_labels_that_are_not_class_indices(self, tiny_task, tmp_path,
                                                                    capsys):
        # 0.5 added to every hidden label, which the outlier mask would
        # truncate back onto its class
        lines = tiny_task.read_text().splitlines()
        y = lines[0].split(",").index("y_hidden")
        for k, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[0] == "target":
                cells[y] = repr(int(cells[y]) + 0.5)
                lines[k] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "hidden target labels must be nonnegative integers" in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_config_file_that_is_not_utf8_exits_two(self, tiny_task, tmp_path, capsys):
        bad = tmp_path / "cfg.txt"
        bad.write_bytes("lr = 0.5  # caf\xe9\n".encode("latin-1"))
        code = main(["train", "--data", str(tiny_task), "--config", str(bad),
                     "--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["bound-check", "--theorem", "1", "--trials", "0"],
        ["bound-check", "--theorem", "1", "--trials", "-3"],
        ["bench", "--seeds", "0"],
        ["sweep", "--param", "beta", "--grid", "1.5"],
        ["sweep", "--param", "beta", "--grid", "abc"],
        ["make-task", "--task-shared", "9"],
        ["make-task", "--task-d", "0"],
        ["make-task", "--seed", "-1"],
        ["bound-check", "--theorem", "1", "--seed", "-1"],
        *(["weights", "--scheme", "warmpot", "--data", "{task}", "--alpha", alpha]
          for alpha in ("0", "-0.5", "nan", "5")),
        *(["solve", "--a", "{a}", "--b", "{b}", "--cost", "{cost}", "--alpha", alpha]
          for alpha in ("0", "nan")),
        *(["weights", "--scheme", scheme, "--data", "{task}", "--alpha", alpha]
          for scheme, alpha in (("uniform", "0.5"), ("arpm", "0.3"), ("ba3us", "0.5"))),
        ["bench", "--schemes", ","],
        ["sweep", "--param", "beta", "--grid", ","],
        ["sweep", "--param", "alpha_max", "--grid", " , "],
    ], ids=" ".join)
    def test_bad_count_grid_or_cross_key_value_exits_two(self, tiny_task, tmp_path, capsys, argv):
        inputs = {"task": tiny_task}
        for name, text in (("a", "0.6\n0.4\n"), ("b", "0.5\n0.5\n"), ("cost", "1,2\n3,0\n")):
            inputs[name] = tmp_path / f"{name}.csv"
            inputs[name].write_text(text)
        argv = [arg.format(**inputs) for arg in argv]
        code = main(argv + ["--out", str(tmp_path / "out")] + FAST_FLAGS)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        if "--alpha" in argv:
            assert "--alpha" in err

    @pytest.mark.parametrize("scheme", ["warmpot", "ba3us"])
    @pytest.mark.parametrize("text", [
        "{", "[1, 2]", json.dumps({k: v for k, v in TINY_PARAMS.items() if k != "W_g"}),
        json.dumps({**TINY_PARAMS, "bias": [0.0, float("nan"), 0.0]}),
        json.dumps({**TINY_PARAMS, "W_f": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
        json.dumps({**TINY_PARAMS, "W_g": [[0.5, -0.5, 0.0]] * 3}),
        json.dumps({**TINY_PARAMS, "bias": [0.0, 0.1]}),
    ], ids=["truncated", "not an object", "no W_g", "nan entry", "W_f columns",
            "W_g columns", "bias length"])
    def test_malformed_params_exits_two(self, tiny_task, tmp_path, capsys, scheme, text):
        bad = tmp_path / "params.json"
        bad.write_text(text)
        code = main(["weights", "--scheme", scheme, "--data", str(tiny_task),
                     "--params", str(bad), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err
        assert len(err.strip().splitlines()) == 1

    def test_params_whose_logits_overflow_exit_two(self, tiny_task, tmp_path, capsys):
        huge = tmp_path / "params.json"
        huge.write_text(json.dumps({**TINY_PARAMS, "W_f": [[1e300, 0.0], [0.0, 1.0]],
                                    "W_g": [[1e300, 0.0], [0.0, 1.0], [0.0, 0.0]]}))
        code = main(["weights", "--scheme", "ba3us", "--data", str(tiny_task),
                     "--params", str(huge), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(huge) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("scheme", ["warmpot", "arpm"])
    def test_params_whose_features_overflow_exit_two(self, tiny_task, tmp_path, capsys, scheme):
        huge = tmp_path / "params.json"
        huge.write_text(json.dumps({**TINY_PARAMS, "W_f": [[1e300, 0.0], [0.0, 1.0]],
                                    "W_g": [[1e300, 0.0], [0.0, 1.0], [0.0, 0.0]]}))
        code = main(["weights", "--scheme", scheme, "--data", str(tiny_task),
                     "--params", str(huge), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(huge) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("scheme", ["warmpot", "arpm"])
    def test_task_whose_distances_overflow_exits_two(self, tiny_task, tmp_path, capsys, scheme):
        lines = tiny_task.read_text().splitlines()
        for split, value in (("source", "1e300"), ("target", "-1e300")):
            row = next(i for i, line in enumerate(lines) if line.startswith(split))
            cells = lines[row].split(",")
            cells[1] = value
            lines[row] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["weights", "--scheme", scheme, "--data", str(bad),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err
        assert len(err.strip().splitlines()) == 1

    def test_params_with_the_uniform_scheme_exits_two(self, tiny_task, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(TINY_PARAMS))
        code = main(["weights", "--scheme", "uniform", "--data", str(tiny_task),
                     "--params", str(params), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--params" in err
        assert len(err.strip().splitlines()) == 1

    def test_ramp_longer_than_schedule_exits_two(self, tiny_task, tmp_path, capsys):
        code = main(["train", "--data", str(tiny_task), "--ramp-iters", "6000",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "ramp_iters" in err


_SPECIAL_VALUES = ["", "nan", "inf", "-inf", "1e400", "1e300", "-1", "0", "0.5", "1_0",
                   "source", "target", "validation", "split", "x", "xa", "x0", "x9",
                   "y", "y_hidden", '"', ",", "warmpot", "arpm"]
_TEXT = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.text(max_size=8))
_KEY_VALUE_LINES = st.lists(
    st.tuples(st.sampled_from(sorted(CONFIG_KEYS)) | st.text(max_size=10), _TEXT), max_size=6,
).map(lambda pairs: "\n".join(f"{k} = {v}" for k, v in pairs).encode())
# (row, column, edit, text); row 0 is the header, and three edits cannot empty a row
_CSV_EDITS = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 6),
                                st.sampled_from(["set", "drop", "add"]), _TEXT),
                      min_size=1, max_size=3)
_JSON_VALUES = st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -1.0, 0.0, 0.5,
                                "x", None, True, [], {}, [1.0, 2.0], [[0.5]]])
# (key, row, column, edit, value): an edit acts on an entry of a block, or
# replaces or deletes the block; the text may then be cut short
_PARAM_EDITS = st.lists(st.tuples(st.sampled_from(["W_f", "W_g", "bias", "extra"]),
                                  st.integers(0, 3), st.integers(0, 3),
                                  st.sampled_from(["set", "drop", "add", "replace", "delete"]),
                                  _JSON_VALUES),
                        min_size=1, max_size=3)
_FUZZ = settings(max_examples=100, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    @_FUZZ
    @given(content=_KEY_VALUE_LINES | st.text(max_size=40).map(str.encode) | st.binary(max_size=40))
    def test_parse_config_returns_or_raises_config_error(self, tmp_path, content):
        path = tmp_path / "cfg.txt"
        path.write_bytes(content)
        try:
            parse_config(path)
        except ConfigError:
            pass

    @_FUZZ
    @given(edits=_CSV_EDITS)
    def test_mutated_task_csv_exits_zero_or_two(self, tiny_task, tmp_path, capsys, edits):
        rows = [line.split(",") for line in tiny_task.read_text().splitlines()]
        for row, col, op, text in edits:
            cells = rows[row % len(rows)]
            col %= len(cells)
            if op == "set":
                cells[col] = text
            elif op == "drop":
                del cells[col]
            else:
                cells.insert(col, text)
        bad = tmp_path / "mutated.csv"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")
        code = main(["weights", "--scheme", "uniform", "--data", str(bad),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "Traceback" not in err


    @_FUZZ
    @given(edits=_PARAM_EDITS, cut=st.none() | st.integers(0, 150))
    def test_mutated_params_exits_zero_or_two(self, tiny_task, tmp_path, capsys, edits, cut):
        blob = json.loads(json.dumps(TINY_PARAMS))
        for key, row, col, op, value in edits:
            block = blob.get(key)
            if op == "delete":
                blob.pop(key, None)
                continue
            value = copy.deepcopy(value)
            if op == "replace" or not (isinstance(block, list) and block):
                blob[key] = value
                continue
            row %= len(block)
            if isinstance(block[row], list) and block[row]:
                block, row = block[row], col % len(block[row])
            if op == "set":
                block[row] = value
            elif op == "drop":
                del block[row]
            else:
                block.insert(row, value)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(blob)[:cut])
        code = main(["weights", "--scheme", "ba3us", "--data", str(tiny_task),
                     "--params", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "Traceback" not in err


class TestBoundCheckCommand:
    def test_small_run_reports_zero_violations(self, tmp_path, capsys):
        code, payload = run_cli(capsys, [
            "bound-check", "--theorem", "1", "--trials", "10",
            "--seed", "3", "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["violations"] == 0
        reports = (tmp_path / "out" / "bound_reports_theorem1.csv").read_text().splitlines()
        assert len(reports) == 11

    @pytest.mark.parametrize("theorem", ["1", "2"])
    def test_instance_with_saturated_labels_exits_zero(self, tmp_path, capsys, theorem):
        # seed 469 draws, in trial 3, clipped labels that are all 0 or 1
        code, payload = run_cli(capsys, [
            "bound-check", "--theorem", theorem, "--trials", "25",
            "--seed", "469", "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["violations"] == 0


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

    @pytest.mark.parametrize("max_iter", [300, 1])
    def test_trace_records_sweeps_and_output_counts_nonconverged_plans(
            self, tiny_task, tmp_path, capsys, max_iter):
        # a one-sweep cap stops every plan whose caps bind before its
        # scalings are stationary
        out = tmp_path / "run"
        code, payload = run_cli(capsys, ["train", "--data", str(tiny_task), "--out", str(out)]
                                + FAST_FLAGS + ["--solver-max-iter", str(max_iter)])
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        converged = [int(r["solver_converged"]) for r in rows]
        iters = [int(r["solver_iters"]) for r in rows]
        assert payload["solver_nonconverged"] == converged.count(0)
        assert all(1 <= n <= max_iter for n in iters)
        assert all(n == max_iter for n, c in zip(iters, converged) if not c)
        if max_iter == 1:
            assert payload["solver_nonconverged"] > 0
        else:
            assert payload["solver_nonconverged"] == 0 and max(iters) > 1

    def test_trace_header_follows_the_readme_column_order(self, tiny_task, tmp_path, capsys):
        out = tmp_path / "run"
        code, _ = run_cli(capsys, ["train", "--data", str(tiny_task), "--out", str(out)]
                          + FAST_FLAGS)
        assert code == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == ("iter,alpha,objective,plan_mass,solver_converged,solver_iters,"
                          "solver_residual,outlier_weight_share")

    def test_deterministic_trace_bytes(self, tiny_task, tmp_path, capsys):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code, _ = run_cli(capsys, ["train", "--data", str(tiny_task),
                                       "--seed", "7", "--out", str(out)] + FAST_FLAGS)
            assert code == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


    def test_every_trace_cell_reads_as_a_number(self, tmp_path, capsys):
        # at alpha_max = beta = 1 the ramp reaches the batch's largest mass,
        # the smaller marginal total, and the plan's alpha is clipped to it
        code, payload = run_cli(capsys, ["make-task", "--out", str(tmp_path / "mt")])
        assert code == 0
        out = tmp_path / "run"
        code, _ = run_cli(capsys, ["train", "--data", payload["task_path"], "--alpha-max", "1",
                                   "--beta", "1", "--batch-size", "7", "--total-iters", "20",
                                   "--ramp-iters", "10", "--out", str(out)])
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 20
        for row in rows:
            for cell in row:
                float(cell)

    def test_diverging_training_names_the_iteration(self, tiny_task, tmp_path, capsys):
        code = main(["train", "--data", str(tiny_task), "--lr", "1e30", "--total-iters", "50",
                     "--ramp-iters", "25", "--batch-size", "16", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "Warning" not in lines[0]
        assert lines[0].startswith("error: training diverged at iteration ")

    def test_parameters_overflowing_on_the_first_step_name_it(self, tiny_task, tmp_path, capsys):
        code = main(["train", "--data", str(tiny_task), "--lr", "1e200", "--total-iters", "50",
                     "--ramp-iters", "25", "--batch-size", "16", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: training diverged at iteration 1: overflow ")


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

    @pytest.mark.parametrize("alpha", ["1.0", "0.5"])
    def test_warmpot_weights_are_the_exact_plan_row_sums(self, tiny_task, tmp_path, capsys, alpha):
        ds = load_dataset(tiny_task)
        beta = TrainConfig().beta
        a = np.full(ds.n_s, 1.0 / (beta * ds.n_s))
        b = np.full(ds.n_t, 1.0 / ds.n_t)
        plan, _ = exact_partial_ot(a, b, cdist(ds.source_x, ds.target_x), float(alpha))
        code, payload = run_cli(capsys, ["weights", "--scheme", "warmpot",
                                         "--data", str(tiny_task), "--alpha", alpha,
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["weights"] == plan.matrix.sum(axis=1).tolist()

    def test_warmpot_full_mass_on_one_source_row(self, tiny_task, tmp_path, capsys):
        ds = load_dataset(tiny_task)
        one_row = tmp_path / "one_row.csv"
        save_dataset(PdaDataset(ds.source_x[:1], ds.source_y[:1], ds.target_x), one_row)
        code, payload = run_cli(capsys, ["weights", "--scheme", "warmpot",
                                         "--data", str(one_row), "--alpha", "1.0",
                                         "--out", str(tmp_path / "w")])
        assert code == 0
        assert payload["weights"] == pytest.approx([1.0], abs=1e-12)

    def test_arpm_weights(self, tiny_task, tmp_path, capsys):
        code, payload = run_cli(capsys, ["weights", "--scheme", "arpm",
                                         "--data", str(tiny_task),
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

    def test_solver_max_iter_flag(self, tmp_path, capsys):
        np.savetxt(tmp_path / "a.csv", [1.0], delimiter=",")
        np.savetxt(tmp_path / "b.csv", [1.0], delimiter=",")
        np.savetxt(tmp_path / "C.csv", [[2.0]], delimiter=",")
        code, payload = run_cli(capsys, [
            "solve", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
            "--cost", str(tmp_path / "C.csv"), "--alpha", "0.5", "--method", "entropic",
            "--solver-max-iter", "50", "--out", str(tmp_path / "out")])
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

    @pytest.mark.parametrize("command", [["bench", "--schemes", "warmpot", "--seeds", "1"],
                                         ["sweep", "--param", "beta", "--grid", "0.5"]])
    def test_fewer_source_rows_than_classes_still_train(self, tmp_path, capsys, command):
        # generated labels are round-robin, so they stay below the number of
        # source rows that train requires even when the classes outnumber them
        code, payload = run_cli(capsys, command + ["--out", str(tmp_path), "--task-K", "5",
                                                   "--task-shared", "2", "--task-n-s", "3",
                                                   "--task-n-t", "16", "--task-d", "2"]
                                + FAST_FLAGS)
        assert code == 0
        rows = payload["schemes"].values() if command[0] == "bench" else payload["rows"]
        assert all(row["acc_mean"] is not None for row in rows)

    def test_bench_unknown_scheme_exits_two(self, tmp_path, capsys):
        code = main(["bench", "--schemes", "warmpot,bogus", "--seeds", "1",
                     "--out", str(tmp_path / "bench")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "bogus" in captured.err

    def test_bench_prints_null_for_a_scheme_whose_seeds_all_fail(self, tmp_path, capsys):
        # the learning rate overflows the weights within a few steps, as in
        # test_synthbench's failure-marker test
        code = main(["bench", "--schemes", "uniform", "--seeds", "1",
                     "--task-K", "4", "--task-shared", "2", "--task-d", "2",
                     "--task-n-s", "40", "--task-n-t", "24", "--task-separation", "4.0",
                     "--task-noise", "1.0", "--total-iters", "20", "--ramp-iters", "10",
                     "--batch-size", "16", "--eps", "2.0", "--lr", "1e300",
                     "--out", str(tmp_path / "bench")])
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        assert payload["schemes"]["uniform"] == {"acc_mean": None, "acc_std": None,
                                                 "outlier_share": None,
                                                 "solver_nonconverged": None}

    def test_sweep_rows_match_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, payload = run_cli(capsys, [
            "sweep", "--param", "beta", "--grid", "0.4,0.8",
            "--task-n-s", "24", "--task-n-t", "16", "--task-K", "3",
            "--task-shared", "2", "--task-d", "2", "--out", str(out)] + FAST_FLAGS)
        assert code == 0
        assert [r["value"] for r in payload["rows"]] == [0.4, 0.8]
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_bench_counts_the_nonconverged_steps_of_its_training_runs(self, tmp_path, capsys):
        # one sweep per solve: seed 0 finishes with flagged steps, and seed 1
        # stops on a flagged plan that breaks its caps, so it counts none
        flags = TINY_TASK_FLAGS + FAST_FLAGS + ["--solver-max-iter", "1"]
        expected, finished = 0, []
        for seed in ("0", "1"):
            task = tmp_path / f"task{seed}"
            code, _ = run_cli(capsys, ["make-task", "--seed", seed, "--out", str(task)]
                              + TINY_TASK_FLAGS)
            assert code == 0
            code, payload = run_cli(capsys, ["train", "--data", str(task / "task.csv"),
                                             "--seed", seed, "--out", str(tmp_path / "run")] + flags)
            finished.append(code == 0)
            if code == 0:
                expected += payload["solver_nonconverged"]
        assert finished == [True, False]
        code, payload = run_cli(capsys, ["bench", "--schemes", "warmpot", "--seeds", "2",
                                         "--out", str(tmp_path / "bench")] + flags)
        assert code == 0
        assert payload["schemes"]["warmpot"]["solver_nonconverged"] == expected > 0
        with open(tmp_path / "bench" / "results.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["solver_nonconverged"] == str(expected)
        assert row["failures"].startswith("seed 1: FloatingPointError: training diverged at ")
        assert "constraint violation" in row["failures"]

    def test_sweep_whose_seed_diverges_prints_null_and_marks_it(self, tmp_path, capsys):
        # the diverging flags of test_bench_prints_null_for_a_scheme_whose_seeds_all_fail
        code = main(["sweep", "--param", "beta", "--grid", "0.5",
                     "--task-K", "4", "--task-shared", "2", "--task-d", "2",
                     "--task-n-s", "40", "--task-n-t", "24", "--total-iters", "20",
                     "--ramp-iters", "10", "--batch-size", "16", "--eps", "2.0", "--lr", "1e300",
                     "--out", str(tmp_path / "sweep")])
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        assert payload["rows"] == [{"param": "beta", "value": 0.5, "acc_mean": None,
                                    "acc_std": None, "outlier_share": None,
                                    "solver_nonconverged": None}]
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["failures"].startswith("seed 0: FloatingPointError: training diverged at ")

    def test_sweep_point_matches_bench_at_that_value(self, tmp_path, capsys):
        flags = TINY_TASK_FLAGS + FAST_FLAGS + ["--seeds", "2"]
        code, swept = run_cli(capsys, ["sweep", "--param", "beta", "--grid", "0.5",
                                       "--out", str(tmp_path / "sweep")] + flags)
        assert code == 0
        code, benched = run_cli(capsys, ["bench", "--schemes", "warmpot", "--beta", "0.5",
                                         "--out", str(tmp_path / "bench")] + flags)
        assert code == 0
        (row,) = swept["rows"]
        assert {k: v for k, v in row.items() if k not in ("param", "value")} == \
            benched["schemes"]["warmpot"]

    def test_out_of_range_grid_value_rejected_before_any_training(self, tmp_path, capsys,
                                                                  monkeypatch):
        calls = []
        monkeypatch.setattr(synthbench, "train", lambda *args: calls.append(args))
        code = main(["sweep", "--param", "beta", "--grid", "0.5,1.5",
                     "--out", str(tmp_path / "sweep")] + FAST_FLAGS)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "--grid" in captured.err
        assert calls == []

    def test_sweep_parameter_outside_its_choices_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--param", "lr", "--grid", "0.5"])
        assert exc.value.code == 2


def readme_commands() -> list:
    """Every `potpda ...` command in the README's bash blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["potpda"]:
                commands.append(argv[1:])
    return commands


def test_readme_lists_its_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    args = build_parser().parse_args(argv)
    flags = {key: getattr(args, f"cfg_{key}") for key in CONFIG_KEYS}
    parse_config(args.config, flags, preset=args.preset)
