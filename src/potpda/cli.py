"""Command-line entry point: solve, weights, bound-check, train, bench, sweep."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .bounds import bound_check
from .measures import load_dataset, save_dataset
from .pot import SolverConfig, entropic_partial_ot, exact_partial_ot
from .synthbench import (
    TaskSpec,
    compare_schemes,
    final_source_weights,
    generate_pda_task,
    sensitivity_sweep,
    target_accuracy,
)
from .warmpot import ModelParams, TrainConfig, train
from .weights import (
    ArpmConfig,
    gamma_constrained_weights,
    marginal_weights,
    scheme_arpm,
    scheme_ba3us,
    scheme_uniform,
    weight_histogram,
)

__all__ = ["RunConfig", "parse_config", "dispatch", "main", "ConfigError"]

SCHEMES = ("warmpot", "uniform", "ba3us", "arpm")

PRESETS = {
    "default": {},
    "imagenet-caltech-like": {
        "alpha_max": 0.08,
        "eta1": 0.92,
        "eta2": 5.47,
        "beta": 0.72,
        "eps": 5.59,
    },
}


class ConfigError(ValueError):
    """Unknown key or out-of-range value; maps to exit code 2."""


def _in_unit(x):
    return 0 < x <= 1


def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _at_least_one(x):
    return x >= 1


def _any(x):
    return True


# key -> (python type, range predicate); the defaults live in the dataclasses
CONFIG_KEYS = {
    "alpha_max": (float, _in_unit),
    "ramp_iters": (int, _at_least_one),
    "total_iters": (int, _at_least_one),
    "beta": (float, _in_unit),
    "eta1": (float, _nonneg),
    "eta2": (float, _nonneg),
    "eps": (float, _positive),
    "lr": (float, _nonneg),
    "batch_size": (int, _at_least_one),
    "seed": (int, _any),
    "solver_max_iter": (int, _at_least_one),
    "solver_tol": (float, _positive),
    "weight_scheme": (str, lambda s: s in SCHEMES),
    "weight_update_every": (int, _at_least_one),
    "arpm_rho": (float, _nonneg),
    "arpm_steps": (int, _at_least_one),
    "arpm_step_size": (float, _positive),
    "feat_dim": (int, _nonneg),
    "task_K": (int, _at_least_one),
    "task_shared": (int, _at_least_one),
    "task_d": (int, _at_least_one),
    "task_n_s": (int, _at_least_one),
    "task_n_t": (int, _at_least_one),
    "task_separation": (float, _positive),
    "task_noise": (float, _positive),
}
# config key -> ArpmConfig field; every other TrainConfig field is its own key,
# and each TaskSpec field but the shared seed is its key minus "task_"
_ARPM_KEYS = {"arpm_rho": "rho", "arpm_steps": "subgradient_steps", "arpm_step_size": "step_size"}
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name != "arpm"]
_TASK_FIELDS = [f.name for f in fields(TaskSpec) if f.name != "seed"]


def _default_values() -> dict:
    train, spec = TrainConfig(), TaskSpec()
    values = {name: getattr(train, name) for name in _TRAIN_FIELDS}
    values.update({key: getattr(train.arpm, name) for key, name in _ARPM_KEYS.items()})
    values.update({f"task_{name}": getattr(spec, name) for name in _TASK_FIELDS})
    return values


@dataclass(frozen=True)
class RunConfig:
    """Flat validated key-value configuration shared by every subcommand."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    def echo(self) -> str:
        return "".join(f"{k} = {v!r}\n" for k, v in sorted(self.values.items()))

    def train_config(self) -> TrainConfig:
        v = self.values
        arpm = ArpmConfig(**{name: v[key] for key, name in _ARPM_KEYS.items()})
        return TrainConfig(arpm=arpm, **{name: v[name] for name in _TRAIN_FIELDS})

    def task_spec(self) -> TaskSpec:
        v = self.values
        return TaskSpec(seed=v["seed"], **{name: v[f"task_{name}"] for name in _TASK_FIELDS})

    def solver_config(self) -> SolverConfig:
        v = self.values
        return SolverConfig(eps=v["eps"], max_iter=v["solver_max_iter"], tol=v["solver_tol"])


def _coerce(key: str, raw) -> object:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key: {key}")
    typ, check = CONFIG_KEYS[key]
    try:
        if isinstance(raw, str):
            value = typ(raw.strip().strip("'\"")) if typ is not str else raw.strip().strip("'\"")
        else:
            value = typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if not check(value):
        raise ConfigError(f"value out of range for {key}: {value!r}")
    return value


def read_keyvalue_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        out[key] = raw
    return out


def parse_config(file=None, flags=None, preset: str = "default") -> RunConfig:
    """Defaults, then preset, then file, then flags; every value validated."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset: {preset}")
    values = _default_values()
    values.update(PRESETS[preset])
    if file is not None:
        for key, raw in read_keyvalue_file(file).items():
            values[key] = _coerce(key, raw)
    for key, raw in (flags or {}).items():
        if raw is None:
            continue
        values[key] = _coerce(key, raw)
    return RunConfig(values)


def _write_echo(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_echo.txt").write_text(cfg.echo())


def _load_task(path):
    """A malformed task CSV is an input error, reported with the file's name."""
    try:
        return load_dataset(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_vector(path) -> np.ndarray:
    return np.atleast_1d(np.loadtxt(path, delimiter=",", dtype=float))


def _load_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


def _params_to_dict(params: ModelParams) -> dict:
    return {"W_f": params.W_f.tolist(), "W_g": params.W_g.tolist(), "bias": params.bias.tolist()}


def _params_from_file(path) -> ModelParams:
    blob = json.loads(Path(path).read_text())
    return ModelParams(np.asarray(blob["W_f"]), np.asarray(blob["W_g"]), np.asarray(blob["bias"]))


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_histogram(path: Path, counts: np.ndarray) -> None:
    edges = np.linspace(0.0, 1.0, len(counts) + 1)
    rows = [[repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
            for i, c in enumerate(counts)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        writer.writerows(rows)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_solve(args, cfg: RunConfig, out_dir: Path) -> int:
    a = _load_vector(args.a)
    b = _load_vector(args.b)
    C = _load_matrix(args.cost)
    if args.method == "exact":
        plan, cost = exact_partial_ot(a, b, C, args.alpha)
    else:
        plan = entropic_partial_ot(a, b, C, args.alpha, cfg.solver_config())
        cost = plan.cost(C)
    plan_path = out_dir / "plan.csv"
    np.savetxt(plan_path, plan.matrix, delimiter=",")
    _emit({"cost": cost, "converged": plan.converged, "plan_path": str(plan_path)})
    return 0


def _cmd_weights(args, cfg: RunConfig, out_dir: Path) -> int:
    ds = _load_task(args.data)
    params = _params_from_file(args.params) if args.params else None
    feats_s = params.features(ds.source_x) if params else ds.source_x
    feats_t = params.features(ds.target_x) if params else ds.target_x

    scheme = args.scheme
    if scheme == "uniform":
        wv = scheme_uniform(ds.n_s)
        normalized = wv.values * ds.n_s
    elif scheme == "ba3us":
        if params is None:
            raise ConfigError("ba3us weights need --params for target predictions")
        wv = scheme_ba3us(params.predict(ds.target_x), ds.source_y, ds.n_t)
        normalized = np.clip(wv.values / max(wv.values.max(), 1e-300), 0.0, 1.0)
    elif scheme == "arpm":
        wv = scheme_arpm(feats_s, feats_t, cfg.train_config().arpm)
        normalized = np.clip(wv.values / max(wv.values.max(), 1e-300), 0.0, 1.0)
    else:
        alpha = args.alpha if args.alpha is not None else cfg.alpha_max
        if alpha >= 1.0:
            wv = gamma_constrained_weights(feats_s, feats_t, cfg.beta)
        else:
            a = np.full(ds.n_s, 1.0 / (cfg.beta * ds.n_s))
            b = np.full(ds.n_t, 1.0 / ds.n_t)
            plan, _ = exact_partial_ot(a, b, cdist(feats_s, feats_t), alpha)
            wv, _ = marginal_weights(plan)
        normalized = np.clip(wv.values * cfg.beta * ds.n_s, 0.0, 1.0)

    hist = weight_histogram(normalized)
    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, hist)
    _emit({"scheme": scheme, "weights": wv.values.tolist(), "total": wv.total,
           "histogram_path": str(hist_path)})
    return 0


def _cmd_bound_check(args, cfg: RunConfig, out_dir: Path) -> int:
    result = bound_check(args.theorem, args.trials, cfg.seed)
    reports_path = out_dir / f"bound_reports_theorem{args.theorem}.csv"
    header = ["trial", "n_s", "n_t", "alpha", "beta", "gamma", "lhs", "rhs", "slack"]
    _write_csv(reports_path, header, [[r[h] for h in header] for r in result["records"]])
    _emit({"theorem": result["theorem"], "trials": result["trials"],
           "violations": result["violations"], "max_slack": result["max_slack"],
           "min_slack": result["min_slack"], "reports_path": str(reports_path)})
    return 0


def _cmd_train(args, cfg: RunConfig, out_dir: Path) -> int:
    ds = _load_task(args.data)
    train_cfg = cfg.train_config()
    params, trace = train(ds, train_cfg)

    trace_path = out_dir / "trace.csv"
    header = list(trace[0].keys())
    _write_csv(trace_path, header, [[row[h] for h in header] for row in trace])

    params_path = out_dir / "params.json"
    params_path.write_text(json.dumps(_params_to_dict(params), indent=2))

    _, normalized = final_source_weights(params, ds, train_cfg)
    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, weight_histogram(normalized))

    payload = {"trace_path": str(trace_path), "params_path": str(params_path),
               "histogram_path": str(hist_path), "final_objective": trace[-1]["objective"]}
    if ds.target_y_hidden is not None:
        payload["target_accuracy"] = target_accuracy(params, ds)
    _emit(payload)
    return 0


def _cmd_bench(args, cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.task_spec()
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme: {s}")
    results = compare_schemes(spec, cfg.train_config(), schemes, args.seeds)

    results_path = out_dir / "results.csv"
    rows = []
    for r in results:
        rows.append([r.scheme, r.acc_mean, r.acc_std, r.outlier_share,
                     ";".join(repr(a) for a in r.accuracies),
                     ";".join(r.failures)])
    _write_csv(results_path, ["scheme", "acc_mean", "acc_std", "outlier_share",
                              "accuracies", "failures"], rows)
    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, results[0].histogram if results else np.zeros(20, dtype=int))
    _emit({"results_path": str(results_path), "histogram_path": str(hist_path),
           "schemes": {r.scheme: {"acc_mean": r.acc_mean, "acc_std": r.acc_std,
                                  "outlier_share": r.outlier_share} for r in results}})
    return 0


def _cmd_sweep(args, cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.task_spec()
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    seeds = list(range(args.seeds)) if args.seeds else None
    rows = sensitivity_sweep(spec, cfg.train_config(), args.param, grid, seeds)
    sweep_path = out_dir / "sweep.csv"
    _write_csv(sweep_path, ["param", "value", "acc_mean", "acc_std"],
               [[r["param"], r["value"], r["acc_mean"], r["acc_std"]] for r in rows])
    _emit({"sweep_path": str(sweep_path), "rows": rows})
    return 0


def _cmd_make_task(args, cfg: RunConfig, out_dir: Path) -> int:
    ds = generate_pda_task(cfg.task_spec())
    path = out_dir / "task.csv"
    save_dataset(ds, path)
    _emit({"task_path": str(path), "n_s": ds.n_s, "n_t": ds.n_t})
    return 0


COMMANDS = {
    "solve": _cmd_solve,
    "weights": _cmd_weights,
    "bound-check": _cmd_bound_check,
    "train": _cmd_train,
    "bench": _cmd_bench,
    "sweep": _cmd_sweep,
    "make-task": _cmd_make_task,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--preset", default="default", choices=sorted(PRESETS))
    common.add_argument("--out", default="potpda_out", help="output directory")
    for key in CONFIG_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None)
    common.add_argument("--max-iter", dest="cfg_solver_max_iter")

    parser = argparse.ArgumentParser(prog="potpda",
                                     description="Partial-transport toolkit for partial domain adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="solve one partial transport instance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("exact", "entropic"), default="exact")

    p = sub.add_parser("weights", parents=[common], help="compute source weights under a scheme")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--params", help="params.json from a training run")
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("bound-check", parents=[common], help="random-instance bound validity sweep")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("train", parents=[common], help="run the training procedure")
    p.add_argument("--data", required=True)

    p = sub.add_parser("bench", parents=[common], help="compare weighting schemes on a synthetic task")
    p.add_argument("--spec", help="task spec key = value file")
    p.add_argument("--schemes", default="warmpot,uniform")
    p.add_argument("--seeds", type=int, default=6)

    p = sub.add_parser("sweep", parents=[common], help="sensitivity sweep over an alignment knob")
    p.add_argument("--spec", help="task spec key = value file")
    p.add_argument("--param", choices=("alpha_max", "beta"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values in (0, 1]")
    p.add_argument("--seeds", type=int, default=0)

    p = sub.add_parser("make-task", parents=[common], help="generate a synthetic task CSV")
    return parser


def dispatch(args: argparse.Namespace) -> int:
    flags = {key: getattr(args, f"cfg_{key}", None) for key in CONFIG_KEYS}
    config_file = getattr(args, "config", None)
    spec_file = getattr(args, "spec", None)
    if spec_file:
        if config_file:
            raise ConfigError("pass either --config or --spec, not both")
        config_file = spec_file
    cfg = parse_config(config_file, flags, preset=args.preset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_echo(cfg, out_dir)
    return COMMANDS[args.command](args, cfg, out_dir)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
