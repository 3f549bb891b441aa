"""Command-line entry point: solve, weights, bound-check, train, bench, sweep."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .bounds import bound_check
from .measures import feature_cost_matrix, load_dataset, save_dataset
from .pot import entropic_partial_ot, exact_partial_ot
from .synthbench import (
    BenchResult,
    TaskSpec,
    final_source_weights,
    generate_pda_task,
    run_ablation,
    target_accuracy,
)
from .warmpot import SCHEMES, ModelParams, TrainConfig, _source_classes, class_labels, train
from .weights import (
    gamma_constrained_weights,
    marginal_weights,  # noqa: F401 - wrapped by name in perfbench/spans.py
    scheme_arpm,
    scheme_ba3us,
    scheme_uniform,
    weight_histogram,
)

__all__ = ["RunConfig", "parse_config", "dispatch", "main", "ConfigError"]

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
    """Unknown key, bad value or malformed input file; maps to exit code 2."""


# each TrainConfig field is its own config key, and each TaskSpec field but
# the shared seed is its key minus "task_"
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig)]
_TASK_FIELDS = [f.name for f in fields(TaskSpec) if f.name != "seed"]


def _flatten(train_cfg: TrainConfig, spec: TaskSpec) -> dict:
    values = {name: getattr(train_cfg, name) for name in _TRAIN_FIELDS}
    values.update({f"task_{name}": getattr(spec, name) for name in _TASK_FIELDS})
    return values


# key -> default; a value's type is its default's, its range rules are the
# dataclasses' own
CONFIG_KEYS = _flatten(TrainConfig(), TaskSpec())


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration shared by every subcommand."""

    train: TrainConfig
    task: TaskSpec

    @property
    def values(self) -> dict:
        """The flat key -> value form of config files and flags."""
        return _flatten(self.train, self.task)

    def echo(self) -> str:
        return "".join(f"{k} = {v!r}\n" for k, v in sorted(self.values.items()))


def _coerce(key: str, raw) -> object:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key: {key}")
    typ = type(CONFIG_KEYS[key])
    if isinstance(raw, str):
        raw = raw.strip().strip("'\"")
    try:
        return typ(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def read_keyvalue_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        out[key] = raw
    return out


def parse_config(file=None, flags=None, preset: str = "default") -> RunConfig:
    """Defaults, then preset, then file, then flags; the dataclasses check the result."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset: {preset}")
    values = dict(CONFIG_KEYS)
    values.update(PRESETS[preset])
    if file is not None:
        for key, raw in read_keyvalue_file(file).items():
            values[key] = _coerce(key, raw)
    for key, raw in (flags or {}).items():
        if raw is not None:
            values[key] = _coerce(key, raw)
    try:
        train_cfg = TrainConfig(**{name: values[name] for name in _TRAIN_FIELDS})
        spec = TaskSpec(seed=values["seed"], **{name: values[f"task_{name}"] for name in _TASK_FIELDS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(train_cfg, spec)


def _load_task(path):
    """A malformed task CSV is an input error, reported with the file's name."""
    try:
        return load_dataset(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_csv(path, ndim: int) -> np.ndarray:
    """A nonempty, finite numeric CSV of at most `ndim` dimensions; anything
    else is an input error naming the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input: checked below
            values = np.loadtxt(path, delimiter=",", dtype=float, ndmin=ndim)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"{path}: no values")
    if values.ndim > ndim:
        raise ConfigError(f"{path}: expected one row or one column of values")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: values must be finite")
    return values


def _load_masses(path) -> np.ndarray:
    masses = _load_csv(path, 1)
    if np.any(masses < 0):
        raise ConfigError(f"{path}: masses must be nonnegative")
    return masses


def _params_to_dict(params: ModelParams) -> dict:
    return {"W_f": params.W_f.tolist(), "W_g": params.W_g.tolist(), "bias": params.bias.tolist()}


def _params_from_file(path, dim: int) -> ModelParams:
    """Finite model parameters whose shapes agree with each other and with
    `dim`-dimensional inputs; anything else is an input error naming the file."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
        if not (isinstance(blob, dict) and {"W_f", "W_g", "bias"} <= blob.keys()):
            raise ValueError("expected an object with keys W_f, W_g and bias")
        params = ModelParams(*(np.asarray(blob[k], dtype=float) for k in ("W_f", "W_g", "bias")))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    W_f, W_g, bias = params.W_f, params.W_g, params.bias
    if not (W_f.ndim == W_g.ndim == 2 and W_f.shape[1] == dim and W_g.shape[1] == W_f.shape[0]
            and bias.shape == W_g.shape[:1]):
        raise ConfigError(f"{path}: shapes W_f {W_f.shape}, W_g {W_g.shape} and bias "
                          f"{bias.shape} do not fit each other and {dim}-d inputs")
    return params


def _predictions(params: ModelParams, x: np.ndarray, path) -> np.ndarray:
    """Class predictions on x; params whose logits overflow there are an input
    error naming the file."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = params.features(x) @ params.W_g.T + params.bias
        if not np.all(np.isfinite(logits - logits.max(axis=1, keepdims=True))):
            raise ConfigError(f"{path}: the logits overflow on the task's target inputs")
    return params.predict(x)


def _features(params: ModelParams | None, ds, path) -> tuple[np.ndarray, np.ndarray]:
    """Source and target features, the raw inputs without params; features or
    feature distances that overflow are an input error naming the file."""
    if params is None:
        feats_s, feats_t = ds.source_x, ds.target_x
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            feats_s, feats_t = params.features(ds.source_x), params.features(ds.target_x)
    if not (np.all(np.isfinite(feats_s)) and np.all(np.isfinite(feats_t))
            and np.all(np.isfinite(feature_cost_matrix(feats_s, feats_t, 1.0)))):
        raise ConfigError(f"{path}: the features or their distances overflow on the task's inputs")
    return feats_s, feats_t


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _write_histogram(path: Path, counts: np.ndarray) -> None:
    edges = np.linspace(0.0, 1.0, len(counts) + 1).tolist()
    _write_csv(path, ["bin_low", "bin_high", "count"],
               [[edges[i], edges[i + 1], int(c)] for i, c in enumerate(counts)])


def _emit(payload: dict) -> None:
    """Print the payload as JSON in one write, so a payload that does not
    serialise leaves nothing on stdout."""
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _or_null(value: float) -> float | None:
    """JSON has no NaN; a statistic over no successful seed prints as null."""
    return None if math.isnan(value) else value


def _check_count(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ConfigError(f"--{flag} must be at least {least}, got {value}")


def _check_alpha(alpha: float, most: float = math.inf) -> None:
    if not (0 < alpha <= most and math.isfinite(alpha)):
        bound = "a positive finite number" if most == math.inf else f"in (0, {most:g}]"
        raise ConfigError(f"--alpha must be {bound}, got {alpha}")


def _cmd_solve(args, cfg: RunConfig, out_dir: Path) -> int:
    _check_alpha(args.alpha)
    a = _load_masses(args.a)
    b = _load_masses(args.b)
    C = _load_csv(args.cost, 2)
    if C.shape != (len(a), len(b)):
        raise ConfigError(f"{args.cost}: cost shape {C.shape} does not match "
                          f"len(a) = {len(a)} and len(b) = {len(b)}")
    result = {}
    if args.method == "exact":
        plan, cost = exact_partial_ot(a, b, C, args.alpha)
    else:
        plan = entropic_partial_ot(a, b, C, args.alpha, cfg.train.solver())
        cost = plan.cost(C)
        result["residual"] = plan.residual
    plan_path = out_dir / "plan.csv"
    np.savetxt(plan_path, plan.matrix, delimiter=",")
    _emit({"cost": cost, "converged": plan.converged, "n_iter": plan.n_iter, **result,
           "max_violation": plan.max_violation(), "plan_path": str(plan_path)})
    return 0


def _cmd_weights(args, cfg: RunConfig, out_dir: Path) -> int:
    scheme = args.scheme
    if args.alpha is not None:
        if scheme != "warmpot":
            raise ConfigError(f"--alpha applies only to --scheme warmpot, not {scheme}")
        _check_alpha(args.alpha, 1.0)  # the target mass is 1
    if args.params and scheme == "uniform":
        raise ConfigError("--params applies only to --scheme warmpot, ba3us or arpm, not uniform")
    ds = _load_task(args.data)
    params = _params_from_file(args.params, ds.dim) if args.params else None
    if scheme in ("warmpot", "arpm"):
        feats_s, feats_t = _features(params, ds, args.params or args.data)

    if scheme == "warmpot":
        alpha = args.alpha if args.alpha is not None else cfg.train.alpha_max
        wv = gamma_constrained_weights(feats_s, feats_t, cfg.train.beta, alpha)
        normalized = wv.values * cfg.train.beta * ds.n_s
    else:
        if scheme == "uniform":
            wv = scheme_uniform(ds.n_s)
        elif scheme == "ba3us":
            if params is None:
                raise ConfigError("ba3us weights need --params for target predictions")
            wv = scheme_ba3us(_predictions(params, ds.target_x, args.params), ds.source_y, ds.n_t)
        else:
            wv = scheme_arpm(feats_s, feats_t, cfg.train.arpm)
        normalized = wv.values / max(wv.values.max(), 1e-300)

    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, weight_histogram(normalized))
    _emit({"scheme": scheme, "weights": wv.values.tolist(), "total": wv.total,
           "histogram_path": str(hist_path)})
    return 0


def _cmd_bound_check(args, cfg: RunConfig, out_dir: Path) -> int:
    _check_count("trials", args.trials, 1)
    result = bound_check(args.theorem, args.trials, cfg.train.seed)
    reports_path = out_dir / f"bound_reports_theorem{args.theorem}.csv"
    header = ["trial", "n_s", "n_t", "alpha", "beta", "gamma", "lhs", "rhs", "slack"]
    _write_csv(reports_path, header, [[r[h] for h in header] for r in result["records"]])
    _emit({"theorem": result["theorem"], "trials": result["trials"],
           "violations": result["violations"], "max_slack": result["max_slack"],
           "min_slack": result["min_slack"], "reports_path": str(reports_path)})
    return 0


def _cmd_train(args, cfg: RunConfig, out_dir: Path) -> int:
    ds = _load_task(args.data)
    # checked before any head is sized from the labels
    for name, labels, classes in (("source", ds.source_y, _source_classes),
                                  ("hidden target", ds.target_y_hidden, class_labels)):
        if labels is None:
            continue
        try:
            classes(labels)
        except ValueError as exc:
            raise ConfigError(f"{args.data}: {name} {exc}") from exc
    params, trace = train(ds, cfg.train)

    trace_path = out_dir / "trace.csv"
    header = list(trace[0].keys())
    _write_csv(trace_path, header, [[row[h] for h in header] for row in trace])

    params_path = out_dir / "params.json"
    params_path.write_text(json.dumps(_params_to_dict(params), indent=2))

    _, normalized = final_source_weights(params, ds, cfg.train)
    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, weight_histogram(normalized))

    payload = {"trace_path": str(trace_path), "params_path": str(params_path),
               "histogram_path": str(hist_path), "final_objective": trace[-1]["objective"],
               "solver_nonconverged": sum(1 - row["solver_converged"] for row in trace)}
    if ds.target_y_hidden is not None:
        payload["target_accuracy"] = target_accuracy(params, ds)
    _emit(payload)
    return 0


# the columns of one ablation row in results.csv and sweep.csv
_ROW_HEADER = ["acc_mean", "acc_std", "outlier_share", "accuracies", "failures",
               "solver_nonconverged"]


def _row_cells(r: BenchResult) -> list:
    return [r.acc_mean, r.acc_std, r.outlier_share, ";".join(repr(a) for a in r.accuracies),
            ";".join(r.failures), r.solver_nonconverged]


def _row_stats(r: BenchResult) -> dict:
    return {"acc_mean": _or_null(r.acc_mean), "acc_std": _or_null(r.acc_std),
            "outlier_share": _or_null(r.outlier_share),
            "solver_nonconverged": r.solver_nonconverged}


def _cmd_bench(args, cfg: RunConfig, out_dir: Path) -> int:
    _check_count("seeds", args.seeds, 1)
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ConfigError(f"--schemes names no scheme: {args.schemes!r}")
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme: {s}")
    variants = [(s, replace(cfg.train, weight_scheme=s)) for s in schemes]
    results = run_ablation(cfg.task, variants, range(args.seeds))

    results_path = out_dir / "results.csv"
    _write_csv(results_path, ["scheme"] + _ROW_HEADER, [[r.label] + _row_cells(r) for r in results])
    hist_path = out_dir / "weights_hist.csv"
    _write_histogram(hist_path, results[0].histogram)
    _emit({"results_path": str(results_path), "histogram_path": str(hist_path),
           "schemes": {r.label: _row_stats(r) for r in results}})
    return 0


def _cmd_sweep(args, cfg: RunConfig, out_dir: Path) -> int:
    _check_count("seeds", args.seeds, 0)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip()]
        variants = [(repr(v), replace(cfg.train, **{args.param: v})) for v in grid]
    except ValueError as exc:
        raise ConfigError(f"bad --grid {args.grid!r}: {exc}") from exc
    if not grid:
        raise ConfigError(f"--grid names no value: {args.grid!r}")
    seeds = range(args.seeds) if args.seeds else [cfg.train.seed]
    results = run_ablation(cfg.task, variants, seeds)
    sweep_path = out_dir / "sweep.csv"
    _write_csv(sweep_path, ["param", "value"] + _ROW_HEADER,
               [[args.param, v] + _row_cells(r) for v, r in zip(grid, results)])
    _emit({"sweep_path": str(sweep_path),
           "rows": [{"param": args.param, "value": v, **_row_stats(r)}
                    for v, r in zip(grid, results)]})
    return 0


def _cmd_make_task(args, cfg: RunConfig, out_dir: Path) -> int:
    ds = generate_pda_task(cfg.task)
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
    # no parser accepts a prefix of an option name, so each config key has
    # exactly one flag
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--preset", default="default", choices=sorted(PRESETS))
    common.add_argument("--out", default="potpda_out", help="output directory")
    for key in CONFIG_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}", default=None)

    parser = argparse.ArgumentParser(prog="potpda", allow_abbrev=False,
                                     description="Partial-transport toolkit for partial domain adaptation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, parents=[common], allow_abbrev=False, help=help)

    p = add_parser("solve", help="solve one partial transport instance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--cost", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=("exact", "entropic"), default="exact")

    p = add_parser("weights", help="compute source weights under a scheme")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--params", help="params.json from a training run")
    p.add_argument("--alpha", type=float)

    p = add_parser("bound-check", help="random-instance bound validity sweep")
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--trials", type=int, default=100)

    p = add_parser("train", help="run the training procedure")
    p.add_argument("--data", required=True)

    p = add_parser("bench", help="compare weighting schemes on a synthetic task")
    p.add_argument("--schemes", default="warmpot,uniform")
    p.add_argument("--seeds", type=int, default=6)

    p = add_parser("sweep", help="sensitivity sweep over an alignment knob")
    p.add_argument("--param", choices=("alpha_max", "beta"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values in (0, 1]")
    p.add_argument("--seeds", type=int, default=0)

    add_parser("make-task", help="generate a synthetic task CSV")
    return parser


def dispatch(args: argparse.Namespace) -> int:
    flags = {key: getattr(args, f"cfg_{key}", None) for key in CONFIG_KEYS}
    cfg = parse_config(args.config, flags, preset=args.preset)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot make the output directory: "
                          f"{exc.strerror}") from exc
    (out_dir / "config_echo.txt").write_text(cfg.echo())
    return COMMANDS[args.command](args, cfg, out_dir)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
