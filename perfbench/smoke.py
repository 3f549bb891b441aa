"""Smoke run of the benchmark's own code at tiny sizes, in a few seconds.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced, each with one extra op
that is made to fail, and checks that every metric BENCHMARK.json names is
emitted with its unit and direction, that each workload's own metrics are
in its report, and that the forced failure is counted in failed_ops.
Exits 1 with the list of problems if any check fails.
"""

from __future__ import annotations

import json
import sys

import harness

harness.cap_blas_threads()

import run  # noqa: E402 - BLAS threads are capped before numpy is imported

run.import_package(run.ROOT)

from potpda import pot, synthbench  # noqa: E402

import workloads  # noqa: E402

TINY = workloads.Sizes(task=synthbench.TaskSpec(n_s=20, n_t=12), total_iters=20, ramp_iters=10,
                       batch_size=8, bound_trials=2, exact_n=12, entropic_n=30)
FORCED = "forced_failure"


def with_forced_failure(cls):
    class Forced(cls):
        def round(self, r, k):
            super().round(r, k)
            # more mass than either marginal holds: exact_partial_ot raises ValueError
            r.op(FORCED, lambda: pot.exact_partial_ot([1.0], [1.0], [[0.0]], 2.0))
    return Forced


def check(bench: dict, name: str, trace: bool, report: dict, result: dict) -> list[str]:
    problems = []
    where = f"{name} trace={int(trace)}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: checks failed: {report['check_failures']['first']}")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: emitted {sorted(result['metrics'])}")
    for metric in expected:
        emitted = result["metrics"].get(metric["name"])
        described = report["metrics"].get(metric["name"])
        if emitted is None or described is None:
            problems.append(f"{where}: {metric['name']} missing")
        elif not isinstance(emitted["value"], (int, float)):
            problems.append(f"{where}: {metric['name']} value {emitted['value']!r}")
        elif (emitted["unit"], described["unit"], described["better"]) != (
                metric["unit"], metric["unit"], metric["better"]):
            problems.append(f"{where}: {metric['name']} unit/direction {described} vs {metric}")
    if not trace:
        for metric, (unit, better) in workloads.REPORT_METRICS[name].items():
            described = report["metrics"].get(metric)
            if described is None or (described["unit"], described["better"]) != (unit, better):
                problems.append(f"{where}: report metric {metric} is {described}")
        if not report["metrics"]["failed_ops"]["value"] > 0:
            problems.append(f"{where}: failed_ops is {report['metrics']['failed_ops']['value']}")
    elif not result["metrics"]["pot.exact.failed"]["value"] > 0:
        problems.append(f"{where}: the forced exact_partial_ot failure is not in pot.exact.failed")
    failures = report["failed_ops"]
    if result["failed"] < 1 or failures["by_type"].get("ValueError", 0) < 1 or FORCED not in failures["seconds"]:
        problems.append(f"{where}: forced failure not counted: {failures}")
    return problems


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    problems = [] if set(names) == set(workloads.WORKLOADS) else [f"workloads {names}"]
    with run.scratch_dir("smoke") as workdir:
        for name in names:
            for trace in (False, True):
                wd = workdir / f"{name}-{int(trace)}"
                wd.mkdir()
                workload = with_forced_failure(workloads.WORKLOADS[name])(0, wd, TINY)
                report, result = run.benchmark(workload, 0.2, trace, import_s=0.0)
                problems += check(bench, name, trace, report, result)
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
