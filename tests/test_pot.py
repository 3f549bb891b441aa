"""Partial transport solvers against the vertex-enumeration oracle, the
log-domain entropic loop and the dense-matrix transportation LP."""

import numpy as np
import pytest
from scipy.optimize import linprog

from potpda import pot
from potpda.pot import (
    SolverConfig,
    TransportPlan,
    _transport_lp,
    brute_force_partial_ot,
    entropic_partial_ot,
    exact_partial_ot,
    pw_distance,
)

# Oracle-confirmed instance: optimum fills the zero-cost cell to its row cap
# and routes the remainder through the cheapest remaining cell.
A2 = np.array([0.6, 0.4])
B2 = np.array([0.5, 0.5])
C2 = np.array([[1.0, 2.0], [3.0, 0.0]])
ALPHA2 = 0.5
COST2 = 0.1


def random_tiny_instance(rng):
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (1, 6), (6, 1)]
    m, n = shapes[rng.integers(len(shapes))]
    a = rng.random(m) + 0.05
    b = rng.random(n) + 0.05
    C = rng.random((m, n)) * rng.choice([0.5, 1.0, 5.0])
    alpha = rng.uniform(0.05, 1.0) * min(a.sum(), b.sum())
    return a, b, C, alpha


def random_geometry_instance(rng, m=5, n=7, dim=5):
    x = rng.normal(size=(m, dim))
    y = rng.normal(size=(n, dim))
    C = np.linalg.norm(x[:, None] - y[None], axis=2)
    a = rng.uniform(0.5, 1.5, m) * 2.0 / m
    b = rng.uniform(0.5, 1.5, n) / n
    alpha = 0.5 * min(a.sum(), b.sum())
    return a, b, C, alpha


def reference_entropic(a, b, C, alpha, cfg):
    """Log-domain Dykstra loop, three full-matrix log-sum-exps per sweep: the
    oracle for the kernel-domain sweeps.

    Each shifted matrix is built from the log kernel and the other two
    scalings, so the -inf scalings of zero caps never meet an -inf plan entry
    (-inf - -inf is NaN).
    """
    C = np.asarray(C, dtype=float)
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    log_alpha = np.log(alpha)
    L0 = -C / cfg.eps
    L0 = L0 + (log_alpha - pot._logsumexp(L0))
    log_u, log_v, log_s = np.zeros(len(a)), np.zeros(len(b)), 0.0
    for sweep in range(1, cfg.max_iter + 1):
        u_prev, v_prev, s_prev = log_u, log_v, log_s
        shifted = L0 + log_v[None, :] + log_s
        log_u = np.minimum(log_a - pot._logsumexp(shifted, axis=1), 0.0)
        log_u = np.where(np.isnan(log_u), 0.0, log_u)
        shifted = L0 + log_u[:, None] + log_s
        log_v = np.minimum(log_b - pot._logsumexp(shifted, axis=0), 0.0)
        log_v = np.where(np.isnan(log_v), 0.0, log_v)
        shifted = L0 + log_u[:, None] + log_v[None, :]
        log_s = log_alpha - pot._logsumexp(shifted)
        change = max(pot._log_scaling_change(log_u, u_prev),
                     pot._log_scaling_change(log_v, v_prev),
                     abs(log_s - s_prev))
        if change < cfg.tol:
            return np.exp(shifted + log_s), True, sweep
    return np.exp(shifted + log_s), False, cfg.max_iter


def reference_transport_lp(a, b, C):
    """The transportation LP with its dense (m+n) x mn equality matrix."""
    m, n = C.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs", options=pot._LP_OPTIONS)
    assert res.status == 0
    duals = res.eqlin.marginals
    return np.clip(res.x, 0.0, None).reshape(m, n), duals[:m], duals[m:], res.nit


def assert_matches_reference(a, b, C, alpha, cfg):
    expected, converged, n_iter = reference_entropic(a, b, C, alpha, cfg)
    plan = entropic_partial_ot(a, b, C, alpha, cfg)
    np.testing.assert_allclose(plan.matrix, expected, rtol=0, atol=1e-12)
    assert (plan.converged, plan.n_iter) == (converged, n_iter)
    return plan


class TestExactPartialOt:
    def test_single_cell_forced(self):
        plan, cost = exact_partial_ot([1.0], [1.0], [[3.0]], 1.0)
        assert cost == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(plan.matrix, [[1.0]])

    def test_zero_cost_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.random(4) + 0.1
        _, cost = exact_partial_ot(a, a, np.zeros((4, 4)), 0.5 * a.sum())
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_derived_two_by_two(self):
        plan, cost = exact_partial_ot(A2, B2, C2, ALPHA2)
        assert cost == pytest.approx(COST2, abs=1e-9)
        np.testing.assert_allclose(plan.matrix, [[0.1, 0.0], [0.0, 0.4]], atol=1e-9)

    def test_balanced_degenerate_mass(self):
        # alpha equal to both total masses: every cap becomes an equality
        rng = np.random.default_rng(5)
        a = rng.random(3) + 0.1
        b = rng.random(4) + 0.1
        b *= a.sum() / b.sum()
        C = rng.random((3, 4))
        plan, _ = exact_partial_ot(a, b, C, a.sum())
        np.testing.assert_allclose(plan.matrix.sum(axis=1), a, atol=1e-9)
        np.testing.assert_allclose(plan.matrix.sum(axis=0), b, atol=1e-9)

    def test_infeasible_alpha(self):
        with pytest.raises(ValueError, match="infeasible"):
            exact_partial_ot([0.5], [0.5], [[1.0]], 0.9)

    def test_negative_masses(self):
        with pytest.raises(ValueError):
            exact_partial_ot([-0.1, 0.5], [0.4], [[1.0], [1.0]], 0.2)

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, C, alpha = random_geometry_instance(rng)
            plan, _ = exact_partial_ot(a, b, C, alpha)
            assert plan.max_violation() <= 1e-9

    def test_n_iter_is_the_simplex_iteration_count(self, monkeypatch):
        results = []

        def recording_linprog(*args, **kwargs):
            results.append(linprog(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(pot, "linprog", recording_linprog)
        a, b, C, alpha = random_geometry_instance(np.random.default_rng(12))
        plan, _ = exact_partial_ot(a, b, C, alpha)
        assert len(results) == 1
        assert plan.n_iter == results[0].nit > 0


class TestTransportLp:
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (24, 24), (25, 24), (30, 31), (40, 45)])
    def test_bit_identical_to_the_dense_matrix(self, m, n):
        # sizes on both sides of the dense/sparse threshold
        assert (m * n < pot._SPARSE_LP_MIN_VARS) == ((m, n) in [(1, 1), (2, 3), (24, 24)])
        rng = np.random.default_rng(m * 100 + n)
        C = rng.random((m, n))
        a = rng.random(m) + 0.1
        b = rng.random(n) + 0.1
        b *= a.sum() / b.sum()
        plan, row_duals, col_duals = _transport_lp(a, b, C)
        ref_plan, ref_rows, ref_cols, ref_nit = reference_transport_lp(a, b, C)
        np.testing.assert_array_equal(plan.matrix, ref_plan)
        np.testing.assert_array_equal(row_duals, ref_rows)
        np.testing.assert_array_equal(col_duals, ref_cols)
        assert plan.n_iter == ref_nit


class TestBruteForceOracle:
    def test_single_cell(self):
        _, cost = brute_force_partial_ot([1.0], [1.0], [[3.0]], 0.7)
        assert cost == pytest.approx(0.7 * 3.0, abs=1e-12)

    def test_one_by_two_picks_cheaper_column(self):
        _, cost = brute_force_partial_ot([1.0], [0.6, 0.6], [[2.0, 5.0]], 0.6)
        assert cost == pytest.approx(0.6 * 2.0, abs=1e-10)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            brute_force_partial_ot([1.0], [1.0], [[1.0]], 0.0)

    def test_instance_too_large(self):
        with pytest.raises(ValueError, match="instance too large"):
            brute_force_partial_ot(np.ones(3), np.ones(3), np.ones((3, 3)), 1.0)

    def test_agrees_with_exact_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(150):
            a, b, C, alpha = random_tiny_instance(rng)
            _, exact_cost = exact_partial_ot(a, b, C, alpha)
            _, oracle_cost = brute_force_partial_ot(a, b, C, alpha)
            assert exact_cost == pytest.approx(oracle_cost, abs=1e-8)


class TestEntropicPartialOt:
    def test_zero_cost_any_eps(self):
        for eps in (0.1, 1.0, 50.0):
            plan = entropic_partial_ot(A2, B2, np.zeros((2, 2)), 0.5, SolverConfig(eps=eps))
            assert plan.cost(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_derived_instance_small_eps(self):
        cfg = SolverConfig(eps=0.01 * C2.max())
        plan = entropic_partial_ot(A2, B2, C2, ALPHA2, cfg)
        assert plan.converged
        assert plan.cost(C2) == pytest.approx(COST2, rel=0.02)

    def test_default_config_recorded(self):
        cfg = SolverConfig()
        assert cfg.eps == 7.0 and cfg.max_iter == 5000
        plan = entropic_partial_ot(A2, B2, C2, ALPHA2, cfg)
        assert plan.epsilon == 7.0

    def test_plan_feasibility(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b, C, alpha = random_geometry_instance(rng)
            plan = entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=0.05 * C.max()))
            assert plan.max_violation() <= 1e-6
            assert abs(plan.matrix.sum() - alpha) <= 1e-8

    def test_eps_to_zero_trend(self):
        rng = np.random.default_rng(33)
        a, b, C, alpha = random_geometry_instance(rng)
        _, exact_cost = exact_partial_ot(a, b, C, alpha)
        gaps = []
        for eps in C.max() * np.array([0.64, 0.16, 0.04, 0.01]):
            plan = entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=eps, max_iter=20000))
            gaps.append(plan.cost(C) - exact_cost)
        assert gaps[-1] <= 0.02 * exact_cost
        for earlier, later in zip(gaps, gaps[1:]):
            assert later <= earlier * 1.05 + 1e-9

    def test_nonconvergence_flagged_not_raised(self):
        plan = entropic_partial_ot(A2, B2, C2, ALPHA2, SolverConfig(eps=0.03, max_iter=2))
        assert not plan.converged

    def test_nonfinite_cost_rejected(self):
        C = np.array([[np.inf, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            entropic_partial_ot(A2, B2, C, 0.5)

    def test_n_iter_counts_sweeps(self):
        cfg = SolverConfig(eps=0.05)
        plan = entropic_partial_ot(A2, B2, C2, ALPHA2, cfg)
        assert plan.converged and 1 < plan.n_iter < cfg.max_iter
        short = entropic_partial_ot(A2, B2, C2, ALPHA2, SolverConfig(eps=0.05, max_iter=plan.n_iter - 1))
        assert not short.converged and short.n_iter == plan.n_iter - 1
        exact = entropic_partial_ot(A2, B2, C2, ALPHA2, SolverConfig(eps=0.05, max_iter=plan.n_iter))
        assert exact.converged and exact.n_iter == plan.n_iter


class TestEntropicAgainstLogDomainLoop:
    def test_random_geometry_across_eps(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m, n = rng.integers(1, 12, size=2)
            a, b, C, alpha = random_geometry_instance(rng, m=m, n=n, dim=3)
            for eps in np.geomspace(0.01 * C.max(), 50.0, 6):
                assert_matches_reference(a, b, C, alpha, SolverConfig(eps=eps))

    def test_nonconverged_runs_match_too(self):
        rng = np.random.default_rng(42)
        a, b, C, alpha = random_geometry_instance(rng, m=8, n=9)
        plan = assert_matches_reference(a, b, C, alpha, SolverConfig(eps=0.01 * C.max(), max_iter=7))
        assert not plan.converged

    def test_zero_cap_rows_and_columns(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a, b, C, alpha = random_geometry_instance(rng, m=6, n=7)
            a[rng.choice(6, 2, replace=False)] = 0.0
            b[rng.choice(7, 3, replace=False)] = 0.0
            alpha = 0.5 * min(a.sum(), b.sum())
            plan = assert_matches_reference(a, b, C, alpha, SolverConfig(eps=0.1 * C.max()))
            assert plan.converged
            assert np.all(plan.matrix[a == 0] == 0) and np.all(plan.matrix[:, b == 0] == 0)

    @pytest.mark.parametrize("offset, b, handoff_sweep", [(900.0, [0.4, 0.6], 0),
                                                          (672.0, [0.3, 0.7], 3)])
    def test_underflowing_kernel_hands_off_to_the_log_domain(self, monkeypatch, offset, b,
                                                             handoff_sweep):
        # the second row's costs sit `offset` eps above the first's: at 900
        # its kernel row exp(-C/eps) is zero in double precision, at 672 it
        # drops below range once the column scalings shrink
        handoffs = []
        log_sweeps = pot._log_sweeps

        def recording_log_sweeps(*args):
            handoffs.append(args[-1].n_iter)
            return log_sweeps(*args)

        monkeypatch.setattr(pot, "_log_sweeps", recording_log_sweeps)
        a = np.array([0.5, 0.5])
        C = np.array([[0.0, 1.0], [offset, offset + 1.0]])
        plan = assert_matches_reference(a, np.array(b), C, 0.9, SolverConfig(eps=1.0))
        assert plan.converged and handoffs == [handoff_sweep]
        assert plan.max_violation() <= 1e-6


class TestPwDistance:
    def test_identical_supports_zero(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(5, 3))
        C = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        a = np.full(5, 0.2)
        assert pw_distance(a, a, C, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b, C, alpha = random_geometry_instance(rng)
            alpha_small = 0.5 * alpha
            assert pw_distance(a, b, C, alpha_small) <= pw_distance(a, b, C, alpha) + 1e-9

    def test_scale_equivariance(self):
        rng = np.random.default_rng(19)
        a, b, C, alpha = random_geometry_instance(rng)
        t = 3.7
        assert pw_distance(a, b, t * C, alpha) == pytest.approx(
            t * pw_distance(a, b, C, alpha), abs=1e-9)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a, b, C, alpha = random_geometry_instance(rng)
            assert pw_distance(a, b, C, alpha) == pytest.approx(
                pw_distance(b, a, C.T, alpha), abs=1e-9)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pw_distance(A2, B2, C2, 0.5, method="magic")


class TestTransportPlanType:
    def test_validate_raises_on_violation(self):
        plan = TransportPlan(np.array([[0.6]]), np.array([0.5]), np.array([1.0]), 0.6)
        with pytest.raises(ValueError, match="infeasible"):
            plan.validate(1e-9)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
