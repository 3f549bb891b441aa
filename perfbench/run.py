"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``potpda`` from its
``src`` directory.  With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer ones from a separately traced run.  The
last line of standard output is the result object; the line before it is
the full report (environment, every workload metric with unit and
direction, failed ops by exception type).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent

# Shared by every workload, in BENCHMARK.json order.
END_TO_END = ("setup_s", "round_s", "peak_rss_mb")
LAYER_UNITS = {"calls": "count", "cells": "count", "vars": "count", "failed": "count",
               "nonconverged": "count", "s": "s", "self_s": "s", "trace_overhead_s": "s",
               "uncovered_s": "s"}
PER_LAYER = (
    "pot.entropic.calls", "pot.entropic.s", "pot.entropic.cells", "pot.entropic.nonconverged",
    "pot.exact.calls", "pot.exact.s", "pot.exact.vars", "pot.exact.failed",
    "warmpot.train.self_s", "warmpot.step.self_s", "warmpot.objective.self_s",
    "warmpot.value.calls", "warmpot.value.s", "warmpot.grad.s",
    "bounds.check.self_s", "bounds.instance.s", "bounds.feature_report.self_s",
    "bounds.joint_report.self_s", "bounds.difficulty.s", "bounds.decomp_gap.s",
    "weights.marginal.s", "weights.gamma.s", "weights.arpm.s", "weights.arpm.failed",
    "measures.load_dataset.s", "measures.save_dataset.s", "measures.cost_matrix.s",
    "measures.empirical_measure.s", "synthbench.generate.s", "synthbench.final_weights.s",
    "cli.self_s", "perfbench.trace_overhead_s", "perfbench.uncovered_s",
)


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def import_package(root: Path) -> float:
    """Import ``potpda`` from ``root/src``; returns the seconds the import took."""
    src = root / "src"
    if not (src / "potpda" / "__init__.py").is_file():
        raise ImportError(f"no potpda sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import potpda
    elapsed = time.perf_counter() - start
    if Path(potpda.__file__).resolve().parent != (src / "potpda").resolve():
        raise ImportError(f"potpda was imported from {potpda.__file__}, not from {src}")
    return elapsed


@contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``.perfbench_work``, removed on exit."""
    path = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def benchmark(workload, seconds: float, trace: bool, import_s: float):
    """Set up, measure and check one workload; returns (report, result)."""
    from workloads import COMMON_METRICS, REPORT_METRICS

    setup_s, setup_checks = harness.setup(workload)
    run = harness.Run()
    run.check_failures.extend(setup_checks)
    metrics = {}
    if trace:
        from spans import Tracer

        layers = [n for n in PER_LAYER if not n.startswith("perfbench.")]
        values = harness.measure_traced(workload, run, seconds, Tracer(), layers)
        for name in PER_LAYER:
            metrics[name] = (values[name], layer_unit(name), "lower")
        rounds = None
    else:
        rounds = harness.measure(workload, run, seconds)
        values = {
            "setup_s": import_s + statistics.median(setup_s),
            "round_s": run.round_s(),
            "peak_rss_mb": harness.peak_rss_mb(),
            "failed_ops": run.failed / run.attempted,
            **workload.metrics(run),
        }
        catalogue = {**COMMON_METRICS, **REPORT_METRICS[workload.name]}
        for name, (unit, better) in catalogue.items():
            metrics[name] = (values[name], unit, better)
    correct = not run.check_failures
    report = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds,
        "op_s": dict(run.times),
        "import_s": import_s,
        "setup_repeats_s": setup_s,
        "correct": correct,
        "check_failures": {"count": len(run.check_failures), "first": run.check_failures[:10]},
        "attempted": run.attempted,
        "failed_ops": {"count": run.failed, "by_type": dict(run.failure_types),
                       "messages": run.failure_messages,
                       "seconds": dict(run.failed_op_s)},
        "metrics": {name: {"value": v, "unit": u, "better": b} for name, (v, u, b) in metrics.items()},
        "environment": harness.environment(ROOT),
    }
    wanted = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.cap_blas_threads()
    try:
        import_s = import_package(ROOT)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        with scratch_dir(args.workload) as workdir:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            report, result = benchmark(workload, args.seconds, bool(args.trace), import_s)
    except harness.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
