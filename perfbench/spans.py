"""In-memory spans around the package's layers, for the traced benchmark run.

The tracer replaces each layer's public functions with timing wrappers at the
place where the calling module looks them up (``potpda.warmpot`` calls its
own ``entropic_partial_ot`` binding, not ``potpda.pot``'s), and puts the
originals back on ``uninstall``.  The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

from harness import ENTROPIC_TOL, EXACT_TOL

CHECK_SPAN = "perfbench.check"


def _observe_exact(counts, failures, result):
    plan, _ = result
    m, n = plan.matrix.shape
    counts["vars"] = (m + 1) * (n + 1)
    violation = plan.max_violation()
    if violation > EXACT_TOL:
        failures.append(f"exact plan violation {violation:.3e} > {EXACT_TOL:.0e}")


def _observe_entropic(counts, failures, plan):
    counts["cells"] = plan.matrix.size
    if not plan.converged:
        counts["nonconverged"] = 1
        return
    violation = plan.max_violation()
    if violation > ENTROPIC_TOL:
        failures.append(f"converged entropic plan violation {violation:.3e} > {ENTROPIC_TOL:.0e}")


# (module, attribute, layer span, observer of the result)
WRAPPED = [
    ("potpda.cli", "main", "cli", None),
    ("potpda.cli", "load_dataset", "measures.load_dataset", None),
    ("potpda.cli", "save_dataset", "measures.save_dataset", None),
    ("potpda.cli", "exact_partial_ot", "pot.exact", _observe_exact),
    ("potpda.cli", "entropic_partial_ot", "pot.entropic", _observe_entropic),
    ("potpda.cli", "train", "warmpot.train", None),
    ("potpda.cli", "final_source_weights", "synthbench.final_weights", None),
    ("potpda.cli", "generate_pda_task", "synthbench.generate", None),
    ("potpda.cli", "bound_check", "bounds.check", None),
    ("potpda.cli", "marginal_weights", "weights.marginal", None),
    ("potpda.cli", "gamma_constrained_weights", "weights.gamma", None),
    ("potpda.cli", "scheme_arpm", "weights.arpm", None),
    ("potpda.warmpot", "entropic_partial_ot", "pot.entropic", _observe_entropic),
    ("potpda.warmpot", "warmpot_step", "warmpot.step", None),
    ("potpda.warmpot", "warmpot_objective", "warmpot.objective", None),
    ("potpda.warmpot", "fixed_plan_value", "warmpot.value", None),
    ("potpda.warmpot", "fixed_plan_gradients", "warmpot.grad", None),
    ("potpda.synthbench", "entropic_partial_ot", "pot.entropic", _observe_entropic),
    ("potpda.bounds", "exact_partial_ot", "pot.exact", _observe_exact),
    ("potpda.bounds", "random_bound_instance", "bounds.instance", None),
    ("potpda.bounds", "feature_bound_report", "bounds.feature_report", None),
    ("potpda.bounds", "joint_bound_report", "bounds.joint_report", None),
    ("potpda.bounds", "difficulty_term", "bounds.difficulty", None),
    ("potpda.bounds", "min_decomposition_gap", "bounds.decomp_gap", None),
    ("potpda.bounds", "marginal_weights", "weights.marginal", None),
    ("potpda.bounds", "empirical_feature_measure", "measures.empirical_measure", None),
    ("potpda.bounds", "feature_cost_matrix", "measures.cost_matrix", None),
    ("potpda.bounds", "joint_cost_matrix", "measures.cost_matrix", None),
    ("potpda.weights", "exact_partial_ot", "pot.exact", _observe_exact),
    # the benchmark's own direct calls look these up in their home modules
    ("potpda.pot", "exact_partial_ot", "pot.exact", _observe_exact),
    ("potpda.pot", "entropic_partial_ot", "pot.entropic", _observe_entropic),
    ("potpda.weights", "gamma_constrained_weights", "weights.gamma", None),
    ("potpda.weights", "scheme_arpm", "weights.arpm", None),
    ("potpda.synthbench", "generate_pda_task", "synthbench.generate", None),
    ("potpda.measures", "load_dataset", "measures.load_dataset", None),
    ("potpda.measures", "save_dataset", "measures.save_dataset", None),
]


class Tracer:
    """Spans as ``[name, start, end, parent index, counts]``.

    ``counts`` holds what the layer's observer counted for that one call
    (plan cells, LP variables, failures), so counters add up over any range
    of spans just as times do.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.check_failures: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, {}]
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name: str, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception:
                span[4]["failed"] = 1
                raise
            finally:
                self._close(span)
            if observe is not None:
                check = self._open(CHECK_SPAN)
                try:
                    observe(span[4], self.check_failures, result)
                finally:
                    self._close(check)
            return result
        return traced

    def install(self) -> None:
        if self._originals:
            return
        for module_name, attr, name, observe in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, observe))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def layer_metrics(self, ranges, names) -> dict:
        """Per-layer values summed over the span index ranges.

        ``<layer>.calls`` counts spans, ``<layer>.s`` sums their durations,
        ``<layer>.self_s`` subtracts the time their direct children cover, and
        any other suffix sums the per-call counter of that name.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        sums = Counter()
        for lo, hi in ranges:
            for idx in range(lo, hi):
                name, start, end, _, counts = self.spans[idx]
                sums[name + ".calls"] += 1
                sums[name + ".s"] += end - start
                sums[name + ".self_s"] += end - start - child[idx]
                for kind, value in counts.items():
                    sums[f"{name}.{kind}"] += value
        return {metric: sums[metric] for metric in names}

    def covered_s(self, lo: int, hi: int) -> float:
        """Wall time the top-level spans in the index range cover."""
        return sum(end - start for _, start, end, parent, _ in self.spans[lo:hi] if parent < 0)
