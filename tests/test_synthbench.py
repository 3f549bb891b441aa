"""Synthetic task generation and the scheme-comparison harness."""

from dataclasses import replace

import numpy as np
import pytest

from potpda.pot import ENTROPIC_FEAS_TOL
from potpda.synthbench import (
    TaskSpec,
    _draw_centers,
    final_source_weights,
    generate_pda_task,
    outlier_weight_share,
    run_ablation,
)
from potpda.warmpot import TrainConfig, train
from potpda.weights import WeightVector

SMALL_SPEC = TaskSpec(K=4, shared=2, d=2, n_s=40, n_t=24, separation=4.0, noise=1.0)
SMALL_CFG = TrainConfig(total_iters=20, ramp_iters=10, batch_size=16, lr=0.03,
                        eps=2.0, solver_tol=1e-6, solver_max_iter=400)


def draw_centers_by_loop(spec, rng):
    """_draw_centers with one distance per placed centre, each in its own
    norm: the reference the vectorised test must match draw for draw."""
    box = spec.separation * spec.K
    centers = []
    for _ in range(100_000):
        c = rng.uniform(0.0, box, size=spec.d)
        if all(np.linalg.norm(c - o) >= spec.separation for o in centers):
            centers.append(c)
            if len(centers) == spec.K:
                return np.asarray(centers)
    raise RuntimeError("could not place class centers; lower K or separation")


class TestDrawCenters:
    # the default task under criterion 10's seeds
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_loop_on_the_default_task(self, seed):
        spec = TaskSpec(seed=seed)
        np.testing.assert_array_equal(_draw_centers(spec, np.random.default_rng(seed)),
                                      draw_centers_by_loop(spec, np.random.default_rng(seed)))

    def test_matches_the_loop_where_no_placement_fits(self):
        # on a line of three separations, two centres can leave no room
        # for a third
        spec = TaskSpec(K=3, shared=1, d=1, n_s=3, n_t=1, seed=2)
        for draw in (_draw_centers, draw_centers_by_loop):
            with pytest.raises(RuntimeError, match="could not place class centers"):
                draw(spec, np.random.default_rng(spec.seed))


class TestGeneratePdaTask:
    def test_deterministic_per_seed(self):
        spec = TaskSpec(K=5, shared=3, d=2, n_s=50, n_t=30, seed=9)
        ds1 = generate_pda_task(spec)
        ds2 = generate_pda_task(spec)
        np.testing.assert_array_equal(ds1.source_x, ds2.source_x)
        np.testing.assert_array_equal(ds1.target_y_hidden, ds2.target_y_hidden)

    def test_target_labels_only_shared_classes(self):
        ds = generate_pda_task(TaskSpec(K=6, shared=2, n_s=60, n_t=40, seed=1))
        assert set(np.unique(ds.target_y_hidden)) <= {0, 1}
        assert set(np.unique(ds.source_y)) == set(range(6))

    def test_degenerate_shared_equals_k(self):
        ds = generate_pda_task(TaskSpec(K=3, shared=3, n_s=30, n_t=30, seed=2))
        assert set(np.unique(ds.target_y_hidden)) == {0, 1, 2}

    def test_center_separation_respected(self):
        spec = TaskSpec(K=5, shared=3, d=2, separation=6.0, noise=1.0, seed=3)
        rng = np.random.default_rng(spec.seed)
        from potpda.synthbench import _draw_centers

        centers = _draw_centers(spec, rng)
        for i in range(5):
            for j in range(i + 1, 5):
                assert np.linalg.norm(centers[i] - centers[j]) >= 6.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(K=3, shared=4)
        with pytest.raises(ValueError):
            TaskSpec(separation=0.0)
        with pytest.raises(ValueError):
            TaskSpec(n_s=2, shared=3)

    @pytest.mark.parametrize("field, value", [("d", 0), ("noise", float("nan")),
                                              ("separation", float("nan")), ("seed", -1)])
    def test_spec_rejects_what_the_command_line_rejects(self, field, value):
        with pytest.raises(ValueError):
            TaskSpec(**{field: value})


class TestOutlierWeightShare:
    def test_uniform_weights_give_sample_share(self):
        labels = np.array([0, 0, 0, 2, 2])  # 2 of 5 samples are outliers for shared=2
        wv = WeightVector(np.full(5, 0.2))
        assert outlier_weight_share(wv, labels, 2) == pytest.approx(0.4)

    def test_all_weight_on_shared_is_zero(self):
        labels = np.array([0, 1, 3])
        wv = WeightVector(np.array([0.5, 0.5, 0.0]))
        assert outlier_weight_share(wv, labels, 2) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            outlier_weight_share(np.zeros(3), np.array([0, 1, 2]), 2)


class TestFinalSourceWeights:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = generate_pda_task(SMALL_SPEC)
        params, _ = train(ds, SMALL_CFG)
        return params, ds

    def test_raw_weights_carry_alpha_max_under_the_cap(self, trained):
        params, ds = trained
        raw, _ = final_source_weights(params, ds, SMALL_CFG)
        assert raw.total == pytest.approx(SMALL_CFG.alpha_max, abs=ENTROPIC_FEAS_TOL)
        assert raw.values.max() <= 1.0 / (SMALL_CFG.beta * ds.n_s) + ENTROPIC_FEAS_TOL

    def test_normalized_is_raw_times_beta_n_s(self, trained):
        params, ds = trained
        raw, normalized = final_source_weights(params, ds, SMALL_CFG)
        scale = SMALL_CFG.beta * ds.n_s
        np.testing.assert_allclose(normalized, raw.values * scale, rtol=0,
                                   atol=ENTROPIC_FEAS_TOL * scale)

    def test_repeat_call_is_bit_identical(self, trained):
        params, ds = trained
        first = final_source_weights(params, ds, SMALL_CFG)
        second = final_source_weights(params, ds, SMALL_CFG)
        assert first[0].values.tobytes() == second[0].values.tobytes()
        assert first[1].tobytes() == second[1].tobytes()


def schemes(cfg, *names):
    return [(name, replace(cfg, weight_scheme=name)) for name in names]


class TestRunAblation:
    def test_single_variant_single_seed(self):
        rows = run_ablation(SMALL_SPEC, schemes(SMALL_CFG, "uniform"), [0])
        assert len(rows) == 1
        assert rows[0].label == "uniform"
        assert rows[0].acc_std == 0.0
        assert len(rows[0].accuracies) == 1
        assert rows[0].histogram.sum() == SMALL_SPEC.n_s

    def test_identical_variant_twice_identical_rows(self):
        rows = run_ablation(SMALL_SPEC, schemes(SMALL_CFG, "warmpot", "warmpot"), [0, 1])
        assert rows[0].accuracies == rows[1].accuracies
        assert rows[0].outlier_share == rows[1].outlier_share
        assert rows[0].solver_nonconverged == rows[1].solver_nonconverged

    def test_six_seeds_record_six_accuracies(self):
        rows = run_ablation(SMALL_SPEC, schemes(SMALL_CFG, "uniform"), range(6))
        assert len(rows[0].accuracies) == 6

    def test_one_row_per_variant_in_order(self):
        variants = [(f"beta={b}", replace(SMALL_CFG, beta=b)) for b in (0.3, 0.6, 0.9)]
        rows = run_ablation(SMALL_SPEC, variants, [0])
        assert [r.label for r in rows] == ["beta=0.3", "beta=0.6", "beta=0.9"]

    def test_failures_marked_not_raised(self):
        # a learning rate this large overflows the weights within a few steps
        bad_cfg = TrainConfig(total_iters=20, ramp_iters=10, batch_size=16,
                              eps=2.0, lr=1e300)
        rows = run_ablation(SMALL_SPEC, schemes(bad_cfg, "uniform"), [0])
        assert rows[0].failures == (rows[0].failures[0],)
        assert rows[0].failures[0].startswith("seed 0: FloatingPointError: training diverged")
        assert np.isnan(rows[0].acc_mean)
        assert rows[0].solver_nonconverged is None
