"""The three benchmark workloads and the metrics each one reports.

Each workload gets its inputs from the run seed only, calls the package
through its public entry points (``potpda.cli.main`` in-process, and the
public functions of ``pot``, ``weights``, ``measures`` and ``synthbench``),
and checks every output it reads.  Calls go through module attributes so the
traced run can wrap them where they are looked up.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from potpda import cli, measures, pot, synthbench, warmpot, weights

from harness import ENTROPIC_TOL, EXACT_TOL, CheckFailed, Run

BOUND_TOL = 1e-9
# the README training config, apart from its lengths
TRAIN_LR = 0.03
TRAIN_EPS = 2.0
# full-solve entropic regularisation: at n = entropic_n, and on the exact instance
ENTROPIC_EPS = 0.5
SMALL_EPS = 0.05
# alpha_max and beta of the CLI's default config, which `weights` uses
DEFAULTS = warmpot.TrainConfig()

# Report metrics by workload: name -> (unit, better).  The end-to-end metrics
# in BENCHMARK.json are the ones every workload shares.
COMMON_METRICS = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ops": ("ratio", "lower"),
}
REPORT_METRICS = {
    "train": {
        "train_steps_per_s": ("1/s", "higher"),
        "target_acc": ("ratio", "higher"),
        "outlier_share": ("ratio", "lower"),
        "solver_nonconverged": ("ratio", "lower"),
    },
    "bound-sweep": {
        "bound_trials_per_s": ("1/s", "higher"),
        "bound_violations": ("count", "lower"),
    },
    "full-solve": {
        "exact_solve_s": ("s", "lower"),
        "entropic_solve_s": ("s", "lower"),
        "entropic_small_eps_s": ("s", "lower"),
        "entropic_rel_err": ("ratio", "lower"),
        "solver_nonconverged": ("ratio", "lower"),
        "weights_s": ("s", "lower"),
        "arpm_s": ("s", "lower"),
    },
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the smoke run shrinks them."""

    task: synthbench.TaskSpec = field(default_factory=synthbench.TaskSpec)
    total_iters: int = 600
    ramp_iters: int = 300
    batch_size: int = 64
    bound_trials: int = 25
    exact_n: int = 200
    entropic_n: int = 1000

    def train_flags(self) -> list[str]:
        return ["--total-iters", str(self.total_iters), "--ramp-iters", str(self.ramp_iters),
                "--batch-size", str(self.batch_size), "--lr", str(TRAIN_LR), "--eps", str(TRAIN_EPS)]


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th input set of a run; a pure function of the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class CliError(RuntimeError):
    """``potpda`` returned a nonzero exit code."""


def run_cli(run: Run, name: str, argv: list[str]):
    """One in-process ``potpda`` command as a timed op; returns its JSON output."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliError(f"potpda {argv[0]} exited {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())
    return run.op(name, call)


def _median(values):
    return statistics.median(values) if values else None


class Workload:
    """Set-up, rounds, and once-per-run ops of one workload."""

    name = ""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes | None = None):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes or Sizes()

    def setup(self, run: Run) -> None:
        """Generate the first input set and run one warm-up op on it."""
        raise NotImplementedError

    def round(self, run: Run, k: int) -> None:
        raise NotImplementedError

    def once(self, run: Run) -> None:
        """Ops that run once per run, after the timed rounds."""

    def metrics(self, run: Run) -> dict:
        raise NotImplementedError

    def _task_csv(self, k: int, label: str) -> Path:
        spec = replace(self.sizes.task, seed=input_seed(self.seed, k))
        path = self.workdir / f"{label}-task.csv"
        measures.save_dataset(synthbench.generate_pda_task(spec), path)
        return path


class Train(Workload):
    """``potpda train`` with schemes warmpot and uniform on paired seeds."""

    name = "train"
    schemes = ("warmpot", "uniform")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_digests: dict = {}
        self.accuracy: dict = {}
        self.outlier: dict = {}
        self.solves = 0
        self.nonconverged = 0

    def setup(self, run):
        self._train(run, 0, "warmpot", self._task_csv(0, "setup"), "warmup")

    def round(self, run, k):
        path = self._task_csv(k, "round")
        for scheme in self.schemes:
            self._train(run, k, scheme, path, scheme)

    def _train(self, run, k, scheme, path, label):
        out = self.workdir / f"train-{label}"
        argv = ["train", "--data", str(path), "--out", str(out), "--seed", str(input_seed(self.seed, k)),
                "--weight-scheme", scheme, *self.sizes.train_flags()]
        payload = run_cli(run, f"train.{scheme}", argv)
        if payload is None:
            return
        raw = (out / "trace.csv").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        key = (k, scheme)
        if self.trace_digests.setdefault(key, digest) != digest:
            raise CheckFailed(f"train {key}: trace.csv differs between two runs with the same seed")
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        if len(rows) != self.sizes.total_iters:
            raise CheckFailed(f"train {key}: {len(rows)} trace rows, expected {self.sizes.total_iters}")
        for row in rows:
            converged = int(row["solver_converged"])
            self.solves += 1
            self.nonconverged += 1 - converged
            mass_err = abs(float(row["plan_mass"]) - float(row["alpha"]))
            if converged and mass_err > ENTROPIC_TOL:
                raise CheckFailed(f"train {key} iter {row['iter']}: plan mass off by {mass_err:.3e}")
            if not 0.0 <= float(row["outlier_weight_share"]) <= 1.0:
                raise CheckFailed(f"train {key} iter {row['iter']}: outlier share out of [0, 1]")
        acc = payload["target_accuracy"]
        if not 0.0 <= acc <= 1.0:
            raise CheckFailed(f"train {key}: target accuracy {acc} out of [0, 1]")
        self.accuracy[key] = acc
        if scheme == "warmpot":
            tail = rows[-max(1, len(rows) // 4):]
            self.outlier[key] = statistics.fmean(float(r["outlier_weight_share"]) for r in tail)

    def metrics(self, run):
        times = run.times["train.warmpot"] + run.times["train.uniform"]
        step_s = _median(times)
        return {
            "train_steps_per_s": self.sizes.total_iters / step_s if step_s else None,
            "target_acc": statistics.fmean(self.accuracy.values()) if self.accuracy else None,
            "outlier_share": statistics.fmean(self.outlier.values()) if self.outlier else None,
            "solver_nonconverged": self.nonconverged / self.solves if self.solves else None,
        }


class BoundSweep(Workload):
    """``potpda bound-check`` for both theorems on random certified instances."""

    name = "bound-sweep"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.violations = 0

    def setup(self, run):
        self._check(run, 0, 1)

    def round(self, run, k):
        for theorem in (1, 2):
            self._check(run, k, theorem)

    def _check(self, run, k, theorem):
        out = self.workdir / f"bounds-{theorem}"
        trials = self.sizes.bound_trials
        argv = ["bound-check", "--theorem", str(theorem), "--trials", str(trials),
                "--seed", str(input_seed(self.seed, k)), "--out", str(out)]
        payload = run_cli(run, f"bound.theorem{theorem}", argv)
        if payload is None:
            return
        self.violations += payload["violations"]
        with open(payload["reports_path"], newline="") as fh:
            slacks = [float(r["slack"]) for r in csv.DictReader(fh)]
        if payload["trials"] != trials or len(slacks) != trials:
            raise CheckFailed(f"bound-check theorem {theorem}: {len(slacks)} reports for {trials} trials")
        if payload["violations"] != 0 or min(slacks) < -BOUND_TOL:
            raise CheckFailed(f"bound-check theorem {theorem} seed index {k}: "
                              f"{payload['violations']} violations, min slack {min(slacks):.3e}")

    def metrics(self, run):
        times = run.times["bound.theorem1"] + run.times["bound.theorem2"]
        trial_s = _median(times)
        return {
            "bound_trials_per_s": self.sizes.bound_trials / trial_s if trial_s else None,
            "bound_violations": self.violations,
        }


def _instance(rng: np.random.Generator, n: int, alpha: float = 0.8, beta: float = 0.8):
    """Partial-OT instance between n and n uniform points in [0, 4]^4.

    With these caps the entropic solver converges on every instance tried;
    with caps 1/(0.5 n) it stops at its sweep limit on a quarter of them at
    eps = 0.05, which makes solve time vary tenfold between seeds.
    """
    x = rng.uniform(0.0, 4.0, size=(n, 4))
    y = rng.uniform(0.0, 4.0, size=(n, 4))
    a = np.full(n, 1.0 / (beta * n))
    b = np.full(n, 1.0 / n)
    return a, b, cdist(x, y), alpha


class FullSolve(Workload):
    """Single full-size solver and weighting calls."""

    name = "full-solve"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rel_err: list = []
        self.entropic_solves = 0
        self.nonconverged = 0
        self.first_task: Path | None = None

    def _inputs(self, k, label):
        rng = np.random.default_rng(input_seed(self.seed, k))
        small = _instance(rng, self.sizes.exact_n)
        big = _instance(rng, self.sizes.entropic_n)
        return small, big, self._task_csv(k, label)

    def setup(self, run):
        small, _, self.first_task = self._inputs(0, "setup")
        self._exact(run, small)

    def _exact(self, run, inst):
        result = run.op("exact", lambda: pot.exact_partial_ot(*inst))
        if result is None:
            return None
        plan, cost = result
        violation = plan.max_violation()
        if violation > EXACT_TOL:
            raise CheckFailed(f"exact plan violation {violation:.3e} > {EXACT_TOL:.0e}")
        return cost

    def _entropic(self, run, name, inst, eps):
        a, b, C, alpha = inst
        plan = run.op(name, lambda: pot.entropic_partial_ot(a, b, C, alpha, pot.SolverConfig(eps=eps)))
        if plan is None:
            return None
        self.entropic_solves += 1
        if not plan.converged:
            self.nonconverged += 1
            return None
        violation = plan.max_violation()
        if violation > ENTROPIC_TOL:
            raise CheckFailed(f"{name}: converged plan violation {violation:.3e} > {ENTROPIC_TOL:.0e}")
        return plan.cost(C)

    def round(self, run, k):
        small, big, task = self._inputs(k, "round")
        exact_cost = self._exact(run, small)
        approx_cost = self._entropic(run, "entropic_small_eps", small, SMALL_EPS)
        if exact_cost is not None and approx_cost is not None:
            a, b, C, _ = small
            # a plan within ENTROPIC_TOL of feasible can undercut the optimum by this much
            slack = float(C.max()) * ENTROPIC_TOL * (len(a) + len(b) + 1)
            if approx_cost < exact_cost - slack:
                raise CheckFailed(f"entropic cost {approx_cost} below exact optimum {exact_cost}")
            self.rel_err.append((approx_cost - exact_cost) / exact_cost)
        self._entropic(run, "entropic", big, ENTROPIC_EPS)

        out = self.workdir / "weights"
        payload = run_cli(run, "weights", ["weights", "--scheme", "warmpot", "--data", str(task),
                                           "--out", str(out)])
        if payload is not None:
            self._check_weights("weights --scheme warmpot", payload["weights"], payload["total"],
                                DEFAULTS.alpha_max, DEFAULTS.beta)

        def gamma():
            ds = measures.load_dataset(task)
            return weights.gamma_constrained_weights(ds.source_x, ds.target_x, DEFAULTS.beta)
        wv = run.op("gamma_weights", gamma)
        if wv is not None:
            self._check_weights("gamma_constrained_weights", wv.values, wv.total, 1.0, DEFAULTS.beta)

    @staticmethod
    def _check_weights(label, values, total, mass, beta):
        values = np.asarray(values, dtype=float)
        cap = 1.0 / (beta * len(values))
        if abs(float(values.sum()) - mass) > EXACT_TOL or abs(total - mass) > EXACT_TOL:
            raise CheckFailed(f"{label}: weights sum to {values.sum()!r}, expected {mass}")
        if values.min() < 0 or values.max() > cap + EXACT_TOL:
            raise CheckFailed(f"{label}: weights outside [0, {cap}]")

    def once(self, run):
        def arpm():
            ds = measures.load_dataset(self.first_task)
            return weights.scheme_arpm(ds.source_x, ds.target_x, weights.ArpmConfig())
        wv = run.op("arpm", arpm)
        if wv is not None and abs(wv.total - 1.0) > EXACT_TOL:
            raise CheckFailed(f"scheme_arpm: weights sum to {wv.total!r}, expected 1")

    def metrics(self, run):
        weight_times = run.times["weights"] + run.times["gamma_weights"]
        return {
            "exact_solve_s": _median(run.times["exact"]),
            "entropic_solve_s": _median(run.times["entropic"]),
            "entropic_small_eps_s": _median(run.times["entropic_small_eps"]),
            "entropic_rel_err": _median(self.rel_err),
            "solver_nonconverged": (self.nonconverged / self.entropic_solves
                                    if self.entropic_solves else None),
            "weights_s": _median(weight_times),
            "arpm_s": _median(run.times["arpm"]),
        }


WORKLOADS = {w.name: w for w in (Train, BoundSweep, FullSolve)}
