"""Op accounting, the timed loop, and the environment record of a benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

SETUP_REPEATS = 3
# Largest constraint violation accepted in an exact plan and in a converged
# entropic plan.
EXACT_TOL = 1e-9
ENTROPIC_TOL = 1e-6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailed(Exception):
    """An output of the package is wrong; the run is reported incorrect."""


class SetupError(RuntimeError):
    """An op failed during set-up, so the run cannot be measured."""


class Run:
    """Every op attempted: seconds of those that succeeded, types of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failure_types: Counter = Counter()
        self.failure_messages: list[str] = []
        self.failed_op_s: dict = defaultdict(list)
        self.times: dict = defaultdict(list)
        self.check_failures: list[str] = []
        self.round_ops: dict = {}  # op names seen in rounds, in first-seen order
        self._in_round = False

    def op(self, name: str, fn):
        """Time ``fn()``; returns its result, or None after recording its failure."""
        self.attempted += 1
        if self._in_round:
            self.round_ops.setdefault(name)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts the run
            self.failed_op_s[name].append(time.perf_counter() - start)
            self.failed += 1
            self.failure_types[type(exc).__name__] += 1
            if len(self.failure_messages) < 10:
                self.failure_messages.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.times[name].append(time.perf_counter() - start)
        return result

    def checked(self, fn, *args) -> None:
        """Call ``fn``; a failed output check is recorded and the run goes on."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.check_failures.append(str(exc))

    def round(self, workload, k: int) -> None:
        self._in_round = True
        try:
            self.checked(workload.round, self, k)
        finally:
            self._in_round = False

    def round_s(self) -> float:
        """Seconds of a round: the sum over its ops of each op's lower quartile.

        On a shared machine other tenants only ever slow an op down, and such
        spells can cover half of a run; the lower quartile of each op's times
        keeps them out where a median does not.  Ops that never succeeded add
        nothing; the failed count shows them.
        """
        total = 0.0
        for name in self.round_ops:
            times = self.times[name]
            if len(times) > 1:
                total += statistics.quantiles(times, n=4, method="inclusive")[0]
            elif times:
                total += times[0]
        return total


def setup(workload) -> tuple[list[float], list[str]]:
    """Run the workload's set-up SETUP_REPEATS times.

    Returns each set-up's seconds and the output checks that failed; an op
    that fails makes the run unmeasurable and raises SetupError.
    """
    run = Run()
    seconds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run.checked(workload.setup, run)
        seconds.append(time.perf_counter() - start)
    if run.failed:
        raise SetupError("; ".join(run.failure_messages))
    return seconds, run.check_failures


def measure(workload, run: Run, seconds: float) -> int:
    """Untraced rounds until the deadline, then the once-per-run ops."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        run.round(workload, k)
        k += 1
    run.checked(workload.once, run)
    return k


def measure_traced(workload, run: Run, seconds: float, tracer, layer_names) -> dict:
    """Each round twice on the same inputs, untraced then traced.

    Per-layer values are per traced round; the once-per-run ops count once.
    The tracing overhead is the median of the paired wall-time differences,
    and the uncovered time is the traced round's wall time that no top-level
    layer span covers (the benchmark's own reading and checking).
    """
    deadline = time.perf_counter() + seconds
    k = 0
    ranges, overhead, uncovered = [], [], []
    while k == 0 or time.perf_counter() < deadline:
        tracer.uninstall()
        start = time.perf_counter()
        run.round(workload, k)
        plain = time.perf_counter() - start
        tracer.install()
        lo = len(tracer.spans)
        start = time.perf_counter()
        run.round(workload, k)
        traced = time.perf_counter() - start
        hi = len(tracer.spans)
        ranges.append((lo, hi))
        overhead.append(traced - plain)
        uncovered.append(traced - tracer.covered_s(lo, hi))
        k += 1
    per_round = tracer.layer_metrics(ranges, layer_names)
    lo = len(tracer.spans)
    run.checked(workload.once, run)
    once = tracer.layer_metrics([(lo, len(tracer.spans))], layer_names)
    tracer.uninstall()
    run.check_failures.extend(tracer.check_failures)
    values = {name: per_round[name] / k + once[name] for name in layer_names}
    values["perfbench.trace_overhead_s"] = statistics.median(overhead)
    values["perfbench.uncovered_s"] = statistics.fmean(uncovered)
    return values


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    """Interpreter, library and BLAS versions, BLAS threads, nproc and code version."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }
