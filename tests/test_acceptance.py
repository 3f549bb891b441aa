"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them inline.
"""

import time
from dataclasses import replace

import numpy as np
from scipy.spatial.distance import cdist

from potpda.bounds import bound_check, pac_bayes_experiment
from potpda.cli import main as cli_main
from potpda.measures import save_dataset
from potpda.pot import SolverConfig, entropic_partial_ot, exact_partial_ot
from potpda.synthbench import TaskSpec, generate_pda_task, run_ablation
from potpda.warmpot import TrainConfig, fixed_plan_gradients, fixed_plan_value, warmpot_objective
from potpda.weights import _w1_to_uniform_target, gamma_constrained_weights, marginal_weights
from pot_oracles import brute_force_partial_ot, pw_distance


def _report(num: int, description: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d}: {description} {detail}".rstrip())
    assert passed, f"criterion {num}: {description} {detail}"


def _tiny_instance(rng):
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)]
    m, n = shapes[rng.integers(len(shapes))]
    a = rng.random(m) + 0.05
    b = rng.random(n) + 0.05
    C = rng.random((m, n)) * rng.choice([0.5, 1.0, 5.0])
    alpha = rng.uniform(0.05, 1.0) * min(a.sum(), b.sum())
    return a, b, C, alpha


def _geometry_instance(rng, m=5, n=7, dim=5):
    x = rng.normal(size=(m, dim))
    y = rng.normal(size=(n, dim))
    C = np.linalg.norm(x[:, None] - y[None], axis=2)
    a = rng.uniform(0.5, 1.5, m) * 2.0 / m
    b = rng.uniform(0.5, 1.5, n) / n
    return a, b, C, 0.5 * min(a.sum(), b.sum())


def test_criterion_01_exact_solver_matches_brute_force():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        a, b, C, alpha = _tiny_instance(rng)
        _, exact_cost = exact_partial_ot(a, b, C, alpha)
        _, oracle_cost = brute_force_partial_ot(a, b, C, alpha)
        worst = max(worst, abs(exact_cost - oracle_cost))
    elapsed = time.monotonic() - start
    _report(1, "exact solver matches brute-force oracle on 500 tiny instances",
            worst <= 1e-8 and elapsed < 10.0,
            f"(max |diff| {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_entropic_within_two_percent():
    rng = np.random.default_rng(202)
    worst_rel, worst_cap, worst_mass = 0.0, 0.0, 0.0
    for _ in range(100):
        a, b, C, alpha = _geometry_instance(rng)
        _, exact_cost = exact_partial_ot(a, b, C, alpha)
        plan = entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=0.01 * C.max()))
        worst_rel = max(worst_rel, abs(plan.cost(C) - exact_cost) / exact_cost)
        cap_excess = max(float(np.max(plan.matrix.sum(axis=1) - a)),
                         float(np.max(plan.matrix.sum(axis=0) - b)))
        worst_cap = max(worst_cap, cap_excess)
        worst_mass = max(worst_mass, abs(plan.matrix.sum() - alpha))
    _report(2, "entropic cost within 2% of exact at eps = 0.01 max(C)",
            worst_rel <= 0.02 and worst_cap <= 1e-6 and worst_mass <= 1e-8,
            f"(max rel {worst_rel:.4f}, cap excess {worst_cap:.1e}, mass err {worst_mass:.1e})")


def test_criterion_03_feature_bound_validity():
    start = time.monotonic()
    result = bound_check(theorem=1, trials=1000, seed=303)
    elapsed = time.monotonic() - start
    _report(3, "feature-based bound holds on 1000 random instances",
            result["violations"] == 0 and result["min_slack"] >= -1e-9 and elapsed < 300.0,
            f"(min slack {result['min_slack']:.3e}, {elapsed:.0f}s)")


def test_criterion_04_joint_bound_validity():
    result = bound_check(theorem=2, trials=1000, seed=404)
    _report(4, "joint-distribution bound holds on 1000 random instances",
            result["violations"] == 0 and result["min_slack"] >= -1e-9,
            f"(min slack {result['min_slack']:.3e})")


def test_criterion_05_pairwise_loss_difference_inequality():
    from potpda.bounds import loss_difference_check, random_bound_instance

    rng = np.random.default_rng(505)
    worst = -np.inf
    for _ in range(50):
        w, ds, _, _, _, G = random_bound_instance(rng, n_max=20)
        inputs = np.vstack([ds.source_x, ds.target_x])
        labels = np.concatenate([ds.source_y, ds.target_y_hidden])
        worst = max(worst, loss_difference_check(w, G, inputs, labels))
    _report(5, "pairwise loss-difference inequality holds over all sample pairs",
            worst <= 1e-9, f"(max violation {worst:.3e})")


def test_criterion_06_capped_simplex_equivalence():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    for _ in range(100):
        n_s = int(rng.integers(2, 6))
        n_t = int(rng.integers(2, 6))
        beta = float(rng.uniform(max(0.34, 1.0 / n_s), 1.0))
        fs = rng.normal(size=(n_s, 2))
        ft = rng.normal(size=(n_t, 2))
        dist = cdist(fs, ft)
        a = np.full(n_s, 1.0 / (beta * n_s))
        b = np.full(n_t, 1.0 / n_t)
        plan, _ = exact_partial_ot(a, b, dist, 1.0)
        p, _ = marginal_weights(plan)
        obj_plan, _ = _w1_to_uniform_target(p.values, dist)
        wv = gamma_constrained_weights(fs, ft, beta)
        obj_gamma, _ = _w1_to_uniform_target(wv.values, dist)
        worst_gap = max(worst_gap, abs(obj_plan - obj_gamma))

    # grid-search oracle over the capped simplex on a handful of instances
    oracle_rng = np.random.default_rng(607)
    worst_oracle_rel = 0.0
    for _ in range(5):
        beta = float(oracle_rng.uniform(0.4, 0.9))
        fs = oracle_rng.normal(size=(3, 2))
        ft = oracle_rng.normal(size=(2, 2))
        dist = cdist(fs, ft)
        cap = 1.0 / (beta * 3)
        best = np.inf
        step = 0.01
        for p0 in np.arange(0.0, min(1.0, cap) + step, step):
            for p1 in np.arange(0.0, min(1.0 - p0, cap) + step, step):
                p2 = 1.0 - p0 - p1
                if p2 < -1e-12 or p2 > cap:
                    continue
                p = np.clip(np.array([p0, p1, p2]), 0.0, None)
                p /= p.sum()
                if np.any(p > cap + 1e-12):
                    continue
                val, _ = _w1_to_uniform_target(p, dist)
                best = min(best, val)
        wv = gamma_constrained_weights(fs, ft, beta)
        obj, _ = _w1_to_uniform_target(wv.values, dist)
        assert obj <= best + 1e-9
        worst_oracle_rel = max(worst_oracle_rel, (best - obj) / max(obj, 1e-9))
    _report(6, "unit-mass plan weights equal the capped-simplex minimum",
            worst_gap <= 1e-6 and worst_oracle_rel <= 0.01,
            f"(max obj gap {worst_gap:.2e}, grid oracle rel gap {worst_oracle_rel:.4f})")


def test_criterion_07_pac_bayes_violation_rate():
    result = pac_bayes_experiment(trials=500, delta=0.1, seed=707)
    _report(7, "wrapped bound violated in at most 15% of 500 draws at delta = 0.1",
            result["violation_rate"] <= 0.15,
            f"(rate {result['violation_rate']:.3f})")


def test_criterion_08_gradients_match_finite_differences():
    rng = np.random.default_rng(808)
    from potpda.warmpot import ModelParams

    h = 1e-5
    worst = 0.0
    for _ in range(20):
        n_s = int(rng.integers(3, 7))
        n_t = int(rng.integers(3, 7))
        d = int(rng.integers(2, 4))
        n_classes = int(rng.integers(2, 5))
        bs_x = rng.normal(size=(n_s, d))
        bs_y = rng.integers(0, n_classes, n_s)
        bt_x = rng.normal(size=(n_t, d))
        params = ModelParams(rng.normal(scale=0.4, size=(2, d)),
                             rng.normal(scale=0.4, size=(n_classes, 2)),
                             rng.normal(scale=0.1, size=n_classes))
        cfg = TrainConfig(batch_size=n_s, eps=2.0, solver_tol=1e-9, solver_max_iter=3000)
        _, plan, p_hat = warmpot_objective(bs_x, bs_y, bt_x, params, 0.5, cfg)
        grads = fixed_plan_gradients(params, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg)
        for name in ("W_f", "W_g", "bias"):
            block = getattr(params, name)
            numeric = np.zeros_like(block)
            it = np.nditer(block, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus = params.copy()
                getattr(plus, name)[idx] += h
                minus = params.copy()
                getattr(minus, name)[idx] -= h
                numeric[idx] = (
                    fixed_plan_value(plus, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg)
                    - fixed_plan_value(minus, bs_x, bs_y, bt_x, plan.matrix, p_hat.values, cfg)
                ) / (2 * h)
            worst = max(worst, np.abs(grads[name] - numeric).max()
                        / max(np.abs(numeric).max(), 1e-12))
    _report(8, "analytic gradients match central differences on 20 batches",
            worst <= 1e-4, f"(max rel err {worst:.2e})")


def test_criterion_09_label_free_cost_collapses_to_feature_transport():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(5):
        from potpda.warmpot import ModelParams

        n_s, n_t, d = 6, 5, 3
        bs_x = rng.normal(size=(n_s, d))
        bs_y = rng.integers(0, 3, n_s)
        bt_x = rng.normal(size=(n_t, d))
        params = ModelParams(rng.normal(scale=0.5, size=(2, d)),
                             rng.normal(scale=0.5, size=(3, 2)),
                             np.zeros(3))
        cfg = TrainConfig(batch_size=n_s, eta2=0.0, eps=2.0,
                          solver_tol=1e-9, solver_max_iter=5000)
        _, plan, _ = warmpot_objective(bs_x, bs_y, bt_x, params, 0.6, cfg)
        D = cfg.eta1 * cdist(params.features(bs_x), params.features(bt_x))
        align = float((plan.matrix * D).sum())
        reference = pw_distance(np.full(n_s, 1.0 / (cfg.beta * n_s)), np.full(n_t, 1.0 / n_t),
                                D, 0.6, method="entropic", cfg=cfg.solver())
        worst = max(worst, abs(align - reference))
    _report(9, "alignment term equals feature-only transport when the label cost is off",
            worst <= 1e-9, f"(max |diff| {worst:.2e})")


def test_criterion_10_directional_ablation():
    spec = TaskSpec()  # K=5, shared=3, separation = 4 * noise
    cfg = TrainConfig(total_iters=600, ramp_iters=300, batch_size=64, lr=0.03,
                      eps=2.0, solver_tol=1e-7, solver_max_iter=700)
    variants = [(s, replace(cfg, weight_scheme=s)) for s in ("warmpot", "uniform")]
    start = time.monotonic()
    warm, unif = run_ablation(spec, variants, range(10))
    elapsed = time.monotonic() - start
    outlier_sample_share = (spec.K - spec.shared) / spec.K
    suppressed = sum(s < outlier_sample_share for s in warm.outlier_shares)
    ok = (warm.acc_mean > unif.acc_mean and suppressed >= 9 and elapsed < 900.0
          and not warm.failures and not unif.failures
          and float(np.median(warm.accuracies)) >= 0.9)
    _report(10, "plan-weight training beats uniform weighting and suppresses outliers",
            ok, f"(acc {warm.acc_mean:.4f} vs {unif.acc_mean:.4f}, "
                f"suppressed {suppressed}/10, median {np.median(warm.accuracies):.3f}, "
                f"{elapsed:.0f}s)")


def test_criterion_11_bitwise_deterministic_trace(tmp_path, capsys):
    ds = generate_pda_task(TaskSpec(K=3, shared=2, d=2, n_s=30, n_t=20, seed=0))
    data = tmp_path / "task.csv"
    save_dataset(ds, data)
    flags = ["--total-iters", "20", "--ramp-iters", "8", "--batch-size", "12",
             "--lr", "0.03", "--eps", "2.0", "--solver-tol", "1e-7",
             "--solver-max-iter", "500", "--seed", "13"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["train", "--data", str(data), "--out", str(out1)] + flags) == 0
    assert cli_main(["train", "--data", str(data), "--out", str(out2)] + flags) == 0
    capsys.readouterr()
    identical = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    _report(11, "identical seed and config reproduce trace.csv byte for byte", identical)
