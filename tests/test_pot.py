"""Partial transport solvers against the vertex-enumeration oracle, the
log-domain entropic loop and the dense-matrix transportation LP."""

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

from potpda import pot
from potpda.pot import (
    SolverConfig,
    TransportPlan,
    _transport_lp,
    entropic_partial_ot,
    exact_partial_ot,
)
from pot_oracles import (
    brute_force_partial_ot,
    logsumexp,
    pw_distance,
    three_block_entropic,
)

# Oracle-confirmed instance: optimum fills the zero-cost cell to its row cap
# and routes the remainder through the cheapest remaining cell.
A2 = np.array([0.6, 0.4])
B2 = np.array([0.5, 0.5])
C2 = np.array([[1.0, 2.0], [3.0, 0.0]])
ALPHA2 = 0.5
COST2 = 0.1

# a NaN or infinite entry in either marginal, which neither solver may read
# as a cap
NON_FINITE_MASSES = [
    pytest.param([np.nan, 0.5], [0.5, 0.5], id="nan in a"),
    pytest.param([np.inf, 0.5], [0.5, 0.5], id="inf in a"),
    pytest.param([0.5, 0.5], [0.5, np.nan], id="nan in b"),
    pytest.param([0.5, 0.5], [np.inf, 0.5], id="inf in b"),
]


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


def trainer_batch_instance(rng, m=64, n=64, dim=8, n_classes=5, beta=0.35):
    """A training step's plan problem: uniform caps, a feature-distance plus
    label cross-entropy cost and an alpha on the trainer's ramp."""
    x = rng.normal(size=(m, dim))
    y = rng.normal(size=(n, dim))
    probs_t = rng.dirichlet(np.ones(n_classes), size=n)
    labels = rng.integers(0, n_classes, m)
    C = 0.125 * np.linalg.norm(x[:, None] - y[None], axis=2) - 1.75 * np.log(probs_t[:, labels].T)
    return np.full(m, 1.0 / (beta * m)), np.full(n, 1.0 / n), C, rng.uniform(0.01, 0.8)


def reference_log_level(log_c, log_b, log_alpha):
    """log t with sum_j min(t c_j, b_j) = alpha, from the log column sums
    and log caps: the oracle for the water level.

    With the columns sorted by the level log(b_j / c_j) at which each fills
    its cap, and the first k of them full, t_k = (alpha - their caps) /
    (the other columns' sum); the answer is the first t_k that does not
    fill column k, or the largest level when none is.  Columns whose cells
    all overflowed (log c = -inf) never fill and carry nothing.
    """
    live = np.isfinite(log_c)
    level = (log_b - log_c)[live]
    order = np.argsort(level, kind="stable")
    level, log_c, caps = level[order], log_c[live][order], np.exp(log_b[live][order])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_room = np.log(np.exp(log_alpha) - np.concatenate([[0.0], np.cumsum(caps)[:-1]]))
    candidates = log_room - np.logaddexp.accumulate(log_c[::-1])[::-1]
    unfilled = candidates <= level
    return candidates[np.argmax(unfilled)] if unfilled.any() else level[-1]


def reference_residual(plan, a, b, alpha, log_u, log_v):
    """The stopping residual of the sweeps, from the whole plan: the largest
    cap excess, mass error, and gap between a sum and its cap where the
    log scaling is below 0."""
    rows, cols = plan.sum(axis=1), plan.sum(axis=0)
    row_gap = np.where(log_u < 0, np.abs(rows - a), rows - a)
    col_gap = np.where(log_v < 0, np.abs(cols - b), cols - b)
    return max(row_gap.max(), col_gap.max(), abs(plan.sum() - alpha))


def reference_entropic(a, b, C, alpha, cfg):
    """Log-domain two-block loop: the oracle for the kernel-domain sweeps.

    Each sweep begins by measuring the residual of reference_residual on the
    current plan, and the loop stops at the first within cfg.tol, with that
    sweep counted; a plan still outside it after max_iter sweeps is flagged.
    A sweep damps the rows onto their caps, then meets the column caps and
    the total mass together at the water level of reference_log_level, with
    full-matrix log-sum-exps throughout.  The shifted matrices are built
    from the log kernel and the other scalings, so the -inf scalings of zero
    caps never meet an -inf plan entry (-inf - -inf is NaN).
    """
    C = np.asarray(C, dtype=float)
    with np.errstate(divide="ignore"):
        log_a, log_b = np.log(a), np.log(b)
    log_alpha = np.log(alpha)
    L0 = -C / cfg.eps
    L0 = L0 + (log_alpha - logsumexp(L0))
    log_u, log_v, log_s = np.zeros(len(a)), np.zeros(len(b)), 0.0
    for sweep in range(1, cfg.max_iter + 1):
        plan = np.exp(L0 + log_u[:, None] + log_v[None, :] + log_s)
        if reference_residual(plan, a, b, alpha, log_u, log_v) <= cfg.tol:
            return plan, True, sweep
        log_u = np.minimum(log_a - logsumexp(L0 + log_v[None, :] + log_s, axis=1), 0.0)
        log_u = np.where(np.isnan(log_u), 0.0, log_u)
        log_c = logsumexp(L0 + log_u[:, None], axis=0)
        log_s = reference_log_level(log_c, log_b, log_alpha)
        log_v = np.minimum(log_b - log_s - log_c, 0.0)
        log_v = np.where(np.isnan(log_v), 0.0, log_v)
    return np.exp(L0 + log_u[:, None] + log_v[None, :] + log_s), False, cfg.max_iter


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


def assert_certified(a, b, C, plan, row_duals, col_duals):
    """The plan is feasible, the duals price every cell at a reduced cost of
    at least -1e-9, and the two objectives agree: an optimum of the full LP.
    Returns the plan's cost."""
    assert plan.max_violation() <= pot.EXACT_FEAS_TOL
    assert np.min(C - row_duals[:, None] - col_duals[None, :]) >= -1e-9
    cost = plan.cost(C)
    assert float(row_duals @ a + col_duals @ b) == pytest.approx(cost, rel=1e-12, abs=1e-15)
    return cost


def transport_lp_plan(a, b, C):
    """_transport_lp's matrix as a plan over the LP's marginals, and its duals."""
    matrix, n_iter, row_duals, col_duals = _transport_lp(a, b, C)
    return TransportPlan(matrix, a, b, a.sum(), n_iter=n_iter), row_duals, col_duals


def assert_matches_dense_cost(a, b, C):
    """The shortlist LP returns a certified optimum of the dense oracle's cost."""
    plan, row_duals, col_duals = transport_lp_plan(a, b, C)
    cost = assert_certified(a, b, C, plan, row_duals, col_duals)
    ref_plan, *_ = reference_transport_lp(a, b, C)
    assert cost == pytest.approx(float(np.sum(C * ref_plan)), rel=1e-12, abs=1e-15)


def dummy_extension(a, b, C, alpha):
    """The balanced LP that exact_partial_ot hands _transport_lp, for C >= 0."""
    m, n = C.shape
    C_ext = np.zeros((m + 1, n + 1))
    C_ext[:m, :n] = C
    C_ext[m, n] = 2.0 * (m + n) * C.max() + 1.0
    return np.append(a, b.sum() - alpha), np.append(b, a.sum() - alpha), C_ext


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

    @pytest.mark.parametrize("a, b", NON_FINITE_MASSES)
    def test_non_finite_masses_rejected(self, a, b):
        with pytest.raises(ValueError, match="marginal masses must be finite"):
            exact_partial_ot(a, b, np.ones((2, 2)), 0.5)

    def test_feasibility_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, C, alpha = random_geometry_instance(rng)
            plan, _ = exact_partial_ot(a, b, C, alpha)
            assert plan.max_violation() <= 1e-9

    def test_n_iter_is_the_simplex_iteration_count(self):
        a, b, C, alpha = random_geometry_instance(np.random.default_rng(12))
        plan, _ = exact_partial_ot(a, b, C, alpha)
        m, n = C.shape
        C_ext = np.zeros((m + 1, n + 1))
        C_ext[:m, :n] = C
        C_ext[m, n] = 2.0 * (m + n) * C.max() + 1.0
        *_, nit = reference_transport_lp(np.append(a, b.sum() - alpha),
                                         np.append(b, a.sum() - alpha), C_ext)
        assert plan.n_iter == nit > 0

    def test_costs_below_zero_match_the_brute_force_oracle(self):
        # a penalty scaled by the largest cost lets mass through the
        # dummy-dummy cell once that cost is negative
        rng = np.random.default_rng(29)
        for _ in range(100):
            a, b, C, alpha = random_tiny_instance(rng)
            C = C - rng.choice([0.5, 1.0, 10.0]) * C.max() - rng.random()
            plan, cost = exact_partial_ot(a, b, C, alpha)
            _, oracle_cost = brute_force_partial_ot(a, b, C, alpha)
            assert plan.max_violation() <= 1e-9
            assert cost == pytest.approx(oracle_cost, abs=1e-8)

    def test_shifting_costs_below_zero_keeps_the_plan(self):
        # every feasible plan moves mass alpha, so a constant shift of the
        # costs moves every plan's cost by alpha times the shift
        a, b, C, alpha = random_geometry_instance(np.random.default_rng(31), m=9, n=11)
        plan, cost = exact_partial_ot(a, b, C, alpha)
        shifted_plan, shifted_cost = exact_partial_ot(a, b, C - C.max() - 1.0, alpha)
        np.testing.assert_allclose(shifted_plan.matrix, plan.matrix, atol=1e-12)
        assert shifted_cost == pytest.approx(cost - alpha * (C.max() + 1.0), abs=1e-12)


def uniform_line_instance(rng, m, n):
    """Uniform masses on 1-D points under |x - y|, as random_bound_instance
    builds with one feature: many optimal plans, so a different vertex
    choice shows."""
    x, y = rng.normal(size=m), rng.normal(size=n) + rng.normal(scale=0.5)
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n), np.abs(x[:, None] - y[None])


def balanced_instance(rng, m, n, uniform_line):
    if uniform_line:
        return uniform_line_instance(rng, m, n)
    C = rng.random((m, n))
    a = rng.random(m) + 0.1
    b = rng.random(n) + 0.1
    b *= a.sum() / b.sum()
    return a, b, C


def uncertified_shortlist_instance():
    """The n = 200 instance of the full-solve benchmark at seed 0, input set
    1, to be solved at alpha = 0.8: its first shortlist misses a cell of
    negative reduced cost."""
    rng = np.random.default_rng(int(np.random.SeedSequence([0, 1]).generate_state(1)[0]))
    n = 200
    x = rng.uniform(0.0, 4.0, size=(n, 4))
    y = rng.uniform(0.0, 4.0, size=(n, 4))
    return np.full(n, 1.0 / (0.8 * n)), np.full(n, 1.0 / n), cdist(x, y)


class TestTransportLp:
    # with at most _SHORTLIST_K columns every cell is on the shortlist, so
    # HiGHS sees the dense model
    @pytest.mark.parametrize("m, n, uniform_line", [
        *(pytest.param(m, n, False, id=f"{m}-{n}") for m, n in [(1, 1), (2, 3)]),
        *(pytest.param(m, n, True, id=f"{m}-{n}-uniform-line") for m, n in [(2, 3), (7, 5)])])
    def test_bit_identical_to_the_dense_matrix(self, m, n, uniform_line):
        rng = np.random.default_rng(m * 100 + n)
        if uniform_line:
            a, b, C = uniform_line_instance(rng, m, n)
        else:
            C = rng.random((m, n))
            a = rng.random(m) + 0.1
            b = rng.random(n) + 0.1
            b *= a.sum() / b.sum()
        plan, row_duals, col_duals = transport_lp_plan(a, b, C)
        ref_plan, ref_rows, ref_cols, ref_nit = reference_transport_lp(a, b, C)
        np.testing.assert_array_equal(plan.matrix, ref_plan)
        np.testing.assert_array_equal(row_duals, ref_rows)
        np.testing.assert_array_equal(col_duals, ref_cols)
        assert plan.n_iter == ref_nit

    # HiGHS sees fewer columns than the dense model, and on degenerate
    # instances may return another optimal vertex: the cost and the
    # certificate are what must hold
    @pytest.mark.parametrize("m, n, uniform_line", [
        *(pytest.param(m, n, False, id=f"{m}-{n}")
          for m, n in [(24, 24), (25, 24), (30, 31), (40, 45)]),
        *(pytest.param(m, n, True, id=f"{m}-{n}-uniform-line")
          for m, n in [(24, 24), (30, 17), (31, 31)])])
    def test_certified_optimum_of_the_dense_matrix(self, m, n, uniform_line):
        a, b, C = balanced_instance(np.random.default_rng(m * 100 + n), m, n, uniform_line)
        assert_matches_dense_cost(a, b, C)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 60), n=st.integers(1, 60),
           kind=st.sampled_from(["random", "uniform-line", "partial"]),
           seed=st.integers(0, 2**32 - 1))
    def test_every_plan_is_certified_at_the_dense_cost(self, m, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "partial":
            # unequal caps, and the dummy row and column of exact_partial_ot
            a, b, C, alpha = random_geometry_instance(rng, m=m, n=n, dim=3)
            a, b, C = dummy_extension(a, b, C, alpha)
        else:
            a, b, C = balanced_instance(rng, m, n, kind == "uniform-line")
        assert_matches_dense_cost(a, b, C)

    def test_uncertified_shortlist_is_solved_again(self, monkeypatch):
        a, b, C = uncertified_shortlist_instance()
        n = len(a)
        solves, lps = [], []
        run, transport_lp = pot._run, pot._transport_lp

        def counting_run(solver, m):
            solves.append(solver.getNumCol())
            return run(solver, m)

        def recording_transport_lp(*args):
            result = transport_lp(*args)
            lps.append((args, result))
            return result

        monkeypatch.setattr(pot, "_run", counting_run)
        monkeypatch.setattr(pot, "_transport_lp", recording_transport_lp)
        plan, cost = exact_partial_ot(a, b, C, 0.8)
        assert len(solves) > 1 and solves[0] < solves[-1] < (n + 1) ** 2
        [((a_ext, b_ext, C_ext), (matrix, n_iter, row_duals, col_duals))] = lps
        full = TransportPlan(matrix, a_ext, b_ext, a_ext.sum(), n_iter=n_iter)
        assert_certified(a_ext, b_ext, C_ext, full, row_duals, col_duals)
        assert plan.n_iter == full.n_iter
        assert cost == pytest.approx(full.cost(C_ext), rel=1e-12)

    def test_reused_solver_repeats_a_solve_bit_identically(self):
        # between two solves of one LP the thread's solver meets an
        # infeasible LP and a larger one whose later rounds add columns
        a, b, C = uniform_line_instance(np.random.default_rng(3131), 31, 31)
        first_plan, *first_duals = transport_lp_plan(a, b, C)
        solver = pot._THREAD.solver
        with pytest.raises(RuntimeError, match="Infeasible"):
            _transport_lp(np.array([0.5, 0.5]), np.array([0.2, 0.2]), np.ones((2, 2)))
        exact_partial_ot(*uncertified_shortlist_instance(), 0.8)
        plan, *duals = transport_lp_plan(a, b, C)
        assert pot._THREAD.solver is solver
        np.testing.assert_array_equal(plan.matrix, first_plan.matrix)
        for dual, first in zip(duals, first_duals):
            np.testing.assert_array_equal(dual, first)
        assert plan.n_iter == first_plan.n_iter

    def test_presolve_follows_each_lp_on_the_reused_solver(self):
        # the thread's one solver runs a shortlist LP without presolve and the
        # dense model with it; neither setting may carry over to the next LP
        a, b, C = uniform_line_instance(np.random.default_rng(3131), 31, 31)
        dense = uniform_line_instance(np.random.default_rng(705), 7, 5)
        first_plan, *first_duals = transport_lp_plan(a, b, C)
        dense_plan, *dense_duals = transport_lp_plan(*dense)
        plan, *duals = transport_lp_plan(a, b, C)
        ref_plan, *ref_duals, ref_nit = reference_transport_lp(*dense)
        np.testing.assert_array_equal(dense_plan.matrix, ref_plan)
        for dual, ref in zip(dense_duals, ref_duals):
            np.testing.assert_array_equal(dual, ref)
        assert dense_plan.n_iter == ref_nit
        cost = assert_certified(a, b, C, plan, *duals)
        dense_cost = float(np.sum(C * reference_transport_lp(a, b, C)[0]))
        assert cost == pytest.approx(dense_cost, rel=1e-12, abs=1e-15)
        np.testing.assert_array_equal(plan.matrix, first_plan.matrix)
        for dual, first in zip(duals, first_duals):
            np.testing.assert_array_equal(dual, first)
        assert plan.n_iter == first_plan.n_iter

    def test_a_second_thread_solves_alike_on_its_own_solver(self):
        a, b, C = balanced_instance(np.random.default_rng(3031), 30, 31, False)
        plan, *duals = transport_lp_plan(a, b, C)
        results = []

        def solve():
            results.append((transport_lp_plan(a, b, C), pot._THREAD.solver))

        thread = threading.Thread(target=solve)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        [((other_plan, *other_duals), other_solver)] = results
        assert other_solver is not pot._THREAD.solver
        np.testing.assert_array_equal(other_plan.matrix, plan.matrix)
        for other, dual in zip(other_duals, duals):
            np.testing.assert_array_equal(other, dual)
        assert other_plan.n_iter == plan.n_iter

    def test_infeasible_marginals_raise_with_the_highs_status(self):
        with pytest.raises(RuntimeError, match="transportation LP failed: Infeasible"):
            _transport_lp(np.array([0.5, 0.5]), np.array([0.2, 0.2]), np.ones((2, 2)))

    @pytest.mark.parametrize("a, C", [([0.5, 0.5], [[np.nan, 1.0], [1.0, 0.0]]),
                                      ([0.5, 0.5], [[np.inf, 1.0], [1.0, 0.0]]),
                                      ([np.nan, 0.5], [[1.0, 1.0], [1.0, 0.0]]),
                                      ([np.inf, 0.5], [[1.0, 1.0], [1.0, 0.0]])],
                             ids=["nan cost", "inf cost", "nan mass", "inf mass"])
    def test_non_finite_inputs_raise_value_error(self, a, C):
        # HiGHS itself returns a plan for some of these
        with pytest.raises(ValueError, match="must be finite"):
            _transport_lp(np.array(a), np.array([0.5, 0.5]), np.array(C))


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
        entropic_partial_ot(A2, B2, C2, ALPHA2, cfg)

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

    @pytest.mark.parametrize("a, b", NON_FINITE_MASSES)
    def test_non_finite_masses_rejected(self, a, b):
        with pytest.raises(ValueError, match="marginal masses must be finite"):
            entropic_partial_ot(a, b, np.ones((2, 2)), 0.5)

    @pytest.mark.parametrize("a, C", [
        pytest.param(A2, C2 + 1.0, id="every cell"),
        pytest.param([0.0, 1.0], [[0.0, 1.0], [1.0, 1.0]], id="every cell with positive caps"),
    ])
    def test_eps_overflowing_every_cell_that_carries_mass_rejected(self, a, C):
        # -C/eps is -inf wherever mass may go, which would give a NaN plan
        with pytest.raises(ValueError, match="eps=1e-310"):
            entropic_partial_ot(a, B2, C, ALPHA2, SolverConfig(eps=1e-310))

    def test_eps_overflowing_to_plus_inf_rejected_before_any_sweep(self, monkeypatch):
        # costs below zero: -C/eps is +inf on the diagonal, and subtracting
        # that largest entry would leave a NaN kernel
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(pot, "_kernel_sweep", no_sweep)
        C = np.array([[-1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="eps=1e-310 is too small"):
            entropic_partial_ot(B2, B2, C, 0.8, SolverConfig(eps=1e-310))

    def test_scalings_beyond_double_resolution_flagged_not_converged(self):
        # -C/eps spans 3e20: the log scalings this needs are stored to about
        # 1e4, so sweeps that leave them unchanged certify nothing
        C = np.array([[0.0, 1e20], [1e20, 3e20]])
        plan = entropic_partial_ot(B2, B2, C, 0.8, SolverConfig(eps=1.0))
        assert not plan.converged and plan.n_iter < 10

    def test_eps_overflowing_some_cells_still_solves(self):
        # only the zero-cost cells stay finite; they carry the whole plan
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = entropic_partial_ot(B2, B2, C, 0.8, SolverConfig(eps=1e-310))
        assert plan.converged
        np.testing.assert_array_equal(plan.matrix, [[0.4, 0.0], [0.0, 0.4]])

    def test_unresolved_plan_over_overflowing_cells_raises_nothing(self):
        # -C/eps overflows to -inf in two cells and spans 2e10 in the
        # others: the plan is rebuilt from the costs after the last sweep,
        # and the trainer's errstate must not turn that overflow into an error
        C = np.array([[0.0, 1.0], [1.0, 2e-300]])
        with np.errstate(over="raise", invalid="raise"):
            plan = entropic_partial_ot(B2, B2, C, 0.8, SolverConfig(eps=1e-310))
        assert not plan.converged
        assert plan.matrix[0, 1] == plan.matrix[1, 0] == 0.0

    def test_peak_memory_stays_near_one_cost_matrix(self):
        # the kernel is built, swept and turned into the plan in one buffer:
        # the solve's own allocations peak near the plan's size
        rng = np.random.default_rng(47)
        n = 600
        C = cdist(rng.uniform(0, 4, (n, 4)), rng.uniform(0, 4, (n, 4)))
        a, b = np.full(n, 1.0 / (0.8 * n)), np.full(n, 1.0 / n)
        tracemalloc.start()
        try:
            plan = entropic_partial_ot(a, b, C, 0.8, SolverConfig(eps=0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert plan.converged
        assert peak <= 2 * C.nbytes

    def test_kernel_that_meets_its_caps_runs_no_sweep(self, monkeypatch):
        # the kernel scaled to alpha is the plan: its one check finds it
        # within tol, and nothing rescales it
        def no_sweep(*args):
            raise AssertionError("swept")

        monkeypatch.setattr(pot, "_kernel_sweep", no_sweep)
        plan = entropic_partial_ot(A2, B2, np.zeros((2, 2)), 0.5, SolverConfig(eps=1.0))
        assert plan.converged and plan.n_iter == 1 and plan.residual <= 1e-15
        np.testing.assert_array_equal(plan.matrix, np.full((2, 2), 0.125))

    def test_residual_is_the_plans_own(self):
        # converged or flagged, the residual measures the returned plan: its
        # cap excess and mass error, and the gap of each row or column below
        # its cap whose scaling binds it there
        rng = np.random.default_rng(48)
        a, b, C, alpha = random_geometry_instance(rng, m=6, n=8)
        cfg = SolverConfig(eps=0.05 * C.max())
        plan = entropic_partial_ot(a, b, C, alpha, cfg)
        assert plan.converged and plan.residual <= cfg.tol and plan.n_iter > 2
        for max_iter in range(1, plan.n_iter):
            short = entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=cfg.eps, max_iter=max_iter))
            assert not short.converged and short.max_violation() <= short.residual + 1e-15
            # a flagged plan is measured after its last sweep, which checks
            # no further
            assert (short.residual <= cfg.tol) == (max_iter == plan.n_iter - 1)

    def test_n_iter_counts_sweeps(self):
        cfg = SolverConfig(eps=0.05)
        plan = entropic_partial_ot(A2, B2, C2, ALPHA2, cfg)
        assert plan.converged and 1 < plan.n_iter < cfg.max_iter
        short = entropic_partial_ot(A2, B2, C2, ALPHA2, SolverConfig(eps=0.05, max_iter=plan.n_iter - 1))
        assert not short.converged and short.n_iter == plan.n_iter - 1
        exact = entropic_partial_ot(A2, B2, C2, ALPHA2, SolverConfig(eps=0.05, max_iter=plan.n_iter))
        assert exact.converged and exact.n_iter == plan.n_iter


def bisection_level(c, b, alpha):
    """The least t with sum_j min(t c_j, b_j) >= alpha, by bisection."""
    lo, hi = 0.0, float(np.max(b / c))
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.minimum(mid * c, b).sum() >= alpha:
            hi = mid
        else:
            lo = mid
    return hi


def water_level_cases():
    """(c, b, alpha) triples: random ones, ties between levels, a single
    column, and alpha equal to the column mass."""
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        c = rng.uniform(0.01, 1.0, n) * rng.choice([1e-6, 1.0, 1e3])
        b = rng.uniform(0.01, 1.0, n)
        if rng.random() < 0.3:
            # several columns share one level
            b[: n // 2] = c[: n // 2] * rng.uniform(0.5, 2.0)
        if rng.random() < 0.2:
            yield c, b, float(b.sum())
        else:
            yield c, b, float(rng.uniform(0.01, 1.0) * b.sum())
    yield np.array([0.3]), np.array([0.2]), 0.1
    yield np.array([0.3]), np.array([0.2]), 0.2
    yield np.full(5, 0.1), np.full(5, 0.2), 0.7


class TestWaterLevel:
    @pytest.mark.parametrize("guess_scale", [0.0, 0.5, 1.0, 2.0, np.inf])
    def test_matches_the_bisection_oracle(self, guess_scale):
        # the level is exact whichever columns the previous sweep left full
        for c, b, alpha in water_level_cases():
            expected = bisection_level(c, b, alpha)
            guess = guess_scale * expected if guess_scale < np.inf else np.inf
            t = pot._water_level(c, b / c, b, alpha, guess)
            assert t == pytest.approx(expected, rel=1e-12)
            assert np.minimum(t * c, b).sum() == pytest.approx(alpha, rel=1e-12)

    def test_log_form_matches_the_bisection_oracle(self):
        for c, b, alpha in water_level_cases():
            log_t = pot._log_water_level(np.log(c), np.log(b), np.log(alpha))
            assert np.exp(log_t) == pytest.approx(bisection_level(c, b, alpha), rel=1e-12)

    def test_log_form_beyond_float_range(self):
        # the second column's sum is e^-2000 of the first's: the first fills
        # its cap 0.1, and t e^-2000 = 0.4 carries the rest of alpha = 0.5
        log_t = pot._log_water_level(np.array([0.0, -2000.0]), np.log([0.1, 0.9]), np.log(0.5))
        assert log_t == pytest.approx(np.log(0.4) + 2000.0, rel=1e-15)

    def test_column_whose_cells_all_overflowed_carries_nothing(self):
        log_t = pot._log_water_level(np.array([np.log(0.5), -np.inf]), np.log([0.6, 0.4]),
                                     np.log(0.3))
        assert log_t == pytest.approx(np.log(0.6), rel=1e-15)


class TestTwoBlockFixedPoint:
    """Meeting the column caps and the total mass in one projection leaves
    the fixed point of the three-block loop, which meets them in turn."""

    @staticmethod
    def assert_at_the_three_block_fixed_point(a, b, C, alpha, eps):
        plan = entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=eps, tol=1e-12))
        expected, converged = three_block_entropic(a, b, C, alpha, eps, tol=1e-13)
        assert plan.converged and converged
        assert np.abs(plan.matrix - expected).max() <= 1e-8 * expected.max()
        return plan

    def test_random_geometry(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            m, n = rng.integers(1, 12, size=2)
            a, b, C, alpha = random_geometry_instance(rng, m=m, n=n, dim=3)
            for eps in np.geomspace(0.02 * C.max(), 20.0, 3):
                self.assert_at_the_three_block_fixed_point(a, b, C, alpha, eps)

    @pytest.mark.parametrize("eps", [2.0, 0.05])
    def test_trainer_batches(self, eps):
        rng = np.random.default_rng(63)
        for _ in range(4):
            a, b, C, alpha = trainer_batch_instance(rng)
            self.assert_at_the_three_block_fixed_point(a, b, C, alpha, eps)

    @pytest.mark.parametrize("n, eps", [(200, 0.05), (1000, 0.5)])
    def test_full_solve_instances(self, n, eps):
        # the full-solve benchmark's instances: uniform points in [0, 4]^4
        rng = np.random.default_rng(int(np.random.SeedSequence([0, 1]).generate_state(1)[0]))
        x, y = rng.uniform(0.0, 4.0, size=(n, 4)), rng.uniform(0.0, 4.0, size=(n, 4))
        self.assert_at_the_three_block_fixed_point(np.full(n, 1.0 / (0.8 * n)), np.full(n, 1.0 / n),
                                                   cdist(x, y), 0.8, eps)


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

    @pytest.mark.parametrize("eps", [2.0, 0.05])
    def test_trainer_sized_batches_with_positive_caps(self, eps):
        # the 64 x 64 solves a training step runs: uniform caps 1/(beta m)
        # and 1/n, and an alpha on the ramp
        rng = np.random.default_rng(44)
        for _ in range(5):
            a, b, C, alpha = trainer_batch_instance(rng)
            assert_matches_reference(a, b, C, alpha, SolverConfig(eps=eps))

    @staticmethod
    def record_sweeps(monkeypatch):
        """A list that takes "kernel" for each sweep run as matrix-vector
        products and "absorb" for each run from the costs, in order."""
        kinds = []
        kernel_sweep, absorbing_sweep = pot._kernel_sweep, pot._absorbing_sweep

        def recording_kernel_sweep(*args):
            new = kernel_sweep(*args)
            if new is not None:
                kinds.append("kernel")
            return new

        def recording_absorbing_sweep(*args):
            kinds.append("absorb")
            return absorbing_sweep(*args)

        monkeypatch.setattr(pot, "_kernel_sweep", recording_kernel_sweep)
        monkeypatch.setattr(pot, "_absorbing_sweep", recording_absorbing_sweep)
        return kinds

    @staticmethod
    def assert_matches_reference_as_trained(a, b, C, alpha, cfg):
        # training solves with overflow and invalid operations raising
        with np.errstate(over="raise", invalid="raise"):
            return assert_matches_reference(a, b, C, alpha, cfg)

    def test_zero_caps_with_an_underflowing_row_and_column(self, monkeypatch):
        # row 5 and column 7 of the positive-cap block sit 900 eps above the
        # rest, so their kernel sums are 0 in double.  Row 5 need carry
        # nothing, but alpha leaves the other columns less than their caps
        # can take: the first sweep absorbs, and the plan is scattered back
        # between the zero-cap rows and columns
        kinds = self.record_sweeps(monkeypatch)
        rng = np.random.default_rng(45)
        a, b, C, _ = trainer_batch_instance(rng)
        a[[3, 17, 40]] = 0.0
        b[[0, 9, 63]] = 0.0
        C[5] += 900.0
        C[:, 7] += 900.0
        plan = self.assert_matches_reference_as_trained(a, b, C, 0.95, SolverConfig(eps=1.0))
        assert plan.converged and kinds[0] == "absorb"
        assert plan.col_sums[7] > 0.01
        assert np.all(plan.matrix[a == 0] == 0) and np.all(plan.matrix[:, b == 0] == 0)

    def test_absorbs_partway_through_a_trainer_sized_solve(self, monkeypatch):
        # the rows from 10 on sit 700 eps above the first ten, whose caps
        # take only 0.45 of alpha: the total scaling grows sweep by sweep
        # until the kernel sums leave range, and the solve starts with
        # matrix-vector products and absorbs partway
        kinds = self.record_sweeps(monkeypatch)
        rng = np.random.default_rng(46)
        a, b, C, _ = trainer_batch_instance(rng)
        C[10:] += 70.0
        plan = self.assert_matches_reference_as_trained(a, b, C, 0.8, SolverConfig(eps=0.1))
        first = kinds.index("absorb")
        assert plan.converged and 0 < first < plan.n_iter
        assert kinds[:first] == ["kernel"] * first

    def test_costs_spanning_hundreds_to_thousands_of_eps(self, monkeypatch):
        # small kernels that underflow: most solves absorb, some many times,
        # as scalings cross the ceiling and caps cut to it come to bind
        kinds = self.record_sweeps(monkeypatch)
        rng = np.random.default_rng(1)
        absorbing = 0
        for _ in range(10):
            m, n = rng.integers(2, 7, size=2)
            C = rng.uniform(0, 1, (m, n)) * rng.choice([300.0, 600.0, 1000.0, 2000.0])
            a = rng.uniform(0.5, 1.5, m)
            a /= a.sum() / rng.uniform(0.5, 1.5)
            b = rng.uniform(0.5, 1.5, n)
            b /= b.sum()
            alpha = rng.uniform(0.5, 1.0) * min(a.sum(), b.sum())
            kinds.clear()
            self.assert_matches_reference_as_trained(a, b, C, alpha,
                                                     SolverConfig(eps=1.0, max_iter=3000))
            absorbing += "absorb" in kinds
        assert absorbing == 9

    @pytest.mark.parametrize("C, a, b, first_absorbing_sweep", [
        # the second row's costs sit 900 or 671.8 eps above the first's:
        # its kernel row is zero in double, or drops below range as the
        # scalings move, and alpha needs it
        pytest.param([[0.0, 1.0], [900.0, 901.0]], [0.5, 0.5], [0.4, 0.6], 74, id="row 900"),
        pytest.param([[0.0, 1.0], [671.8, 672.8]], [0.5, 0.5], [0.3, 0.7], 73, id="row 671.8"),
        # the same for the second column: the water level of the first sweep
        # needs its log column sum
        pytest.param([[0.0, 671.8], [1.0, 672.8]], [0.4, 0.6], [0.5, 0.5], 0, id="column 671.8"),
        pytest.param([[0.0, 900.0], [1.0, 901.0]], [0.4, 0.6], [0.5, 0.5], 0, id="column 900"),
        pytest.param([[0.0, 2000.0], [1.0, 2001.0]], [0.4, 0.6], [0.5, 0.5], 0,
                     id="column 2000"),
    ])
    def test_underflowing_kernel_is_absorbed(self, monkeypatch, C, a, b, first_absorbing_sweep):
        kinds = self.record_sweeps(monkeypatch)
        plan = self.assert_matches_reference_as_trained(np.array(a), np.array(b), np.array(C), 0.9,
                                                        SolverConfig(eps=1.0))
        assert plan.converged and kinds.index("absorb") == first_absorbing_sweep
        # the last sweep begun stops at its check
        assert len(kinds) == plan.n_iter - 1
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


def reference_violation(plan):
    """The largest negativity, cap excess or mass error, from a fresh
    reading of the matrix; infinite when an entry is not finite."""
    p = plan.matrix
    if not np.isfinite(p).all():
        return np.inf
    rows, cols = p.sum(axis=1), p.sum(axis=0)
    return max(abs(float(rows.sum()) - plan.mass), float(-p.min()),
               float((rows - plan.row_caps).max()), float((cols - plan.col_caps).max()))


class TestTransportPlanType:
    # dyadic entries, so that every sum and violation is exact
    @pytest.mark.parametrize("matrix, row_caps, col_caps, mass, row_sums, col_sums, violation", [
        pytest.param([[0.25, 0.125], [0.0, 0.5]], [0.5, 0.375], [0.25, 0.5], 0.875,
                     [0.375, 0.5], [0.25, 0.625], 0.125, id="lists"),
        pytest.param(np.array([0.25, 0.5]), np.array([1.0]), np.array([0.5, 0.5]), 0.5,
                     [0.75], [0.25, 0.5], 0.25, id="1-d row"),
        pytest.param(np.array([[-0.125, 0.5]]), np.array([0.5]), np.array([0.5, 0.5]),
                     np.float64(0.375), [0.375], [-0.125, 0.5], 0.125, id="float arrays"),
        pytest.param([[np.nan, 0.1]], [1.0], [1.0, 1.0], 0.5, [np.nan], [np.nan, 0.1], np.inf,
                     id="nan entry")])
    def test_constructor_measures_the_plan(self, matrix, row_caps, col_caps, mass, row_sums,
                                           col_sums, violation):
        plan = TransportPlan(matrix, row_caps, col_caps, mass)
        assert plan.matrix.dtype == float and plan.matrix.shape == (len(row_sums), len(col_sums))
        assert plan.row_caps.dtype == plan.col_caps.dtype == float
        np.testing.assert_array_equal(plan.row_sums, row_sums)
        np.testing.assert_array_equal(plan.col_sums, col_sums)
        assert plan.max_violation() == violation
        assert type(plan.mass) is float and plan.mass == mass
        assert (plan.converged, plan.n_iter, math.isnan(plan.residual)) == (True, 0, True)
        assert repr(plan).startswith("TransportPlan(matrix=") and "row_sums" not in repr(plan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.mass = 1.0

    def test_solver_plans_store_their_own_measurements(self):
        rng = np.random.default_rng(41)
        plans = []
        for _ in range(10):
            a, b, C, alpha = random_geometry_instance(rng)
            plans.append(exact_partial_ot(a, b, C, alpha)[0])
            # a zero cap sends the entropic solve through its positive-cap block
            a = np.concatenate([[0.0], a[1:]])
            plans.append(entropic_partial_ot(a, b, C, min(alpha, 0.9 * a.sum()),
                                             SolverConfig(eps=0.5)))
        for plan in plans:
            np.testing.assert_array_equal(plan.row_sums, plan.matrix.sum(axis=1))
            np.testing.assert_array_equal(plan.col_sums, plan.matrix.sum(axis=0))
            assert plan.max_violation() == reference_violation(plan)

    @pytest.mark.parametrize("method", ["exact", "entropic"])
    def test_plans_keep_their_caps_when_the_caller_changes_the_marginals(self, method):
        a, b, C, alpha = random_geometry_instance(np.random.default_rng(43))
        row_caps, col_caps = a.copy(), b.copy()
        plan = (exact_partial_ot(a, b, C, alpha)[0] if method == "exact"
                else entropic_partial_ot(a, b, C, alpha, SolverConfig(eps=0.5)))
        a[0] = b[0] = 0.0
        np.testing.assert_array_equal(plan.row_caps, row_caps)
        np.testing.assert_array_equal(plan.col_caps, col_caps)
        assert plan.max_violation() == reference_violation(plan)

    def test_validate_raises_on_violation(self):
        for plan in (TransportPlan(np.array([[0.6]]), np.array([0.5]), np.array([1.0]), 0.6),
                     TransportPlan([[np.nan, 0.1]], [1.0], [1.0, 1.0], 0.5)):
            with pytest.raises(ValueError, match="infeasible"):
                plan.validate(1e-9)

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        # a converged plan must pass its feasibility check
        with pytest.raises(ValueError, match="solver tol must lie in"):
            SolverConfig(tol=2 * pot.ENTROPIC_FEAS_TOL)
        assert SolverConfig(tol=pot.ENTROPIC_FEAS_TOL).tol == pot.ENTROPIC_FEAS_TOL
