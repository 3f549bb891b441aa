"""Data model: measures, costs, losses, hypotheses, and the CSV task format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from potpda.measures import (
    LinearFeatureMap,
    LipschitzClassifier,
    PdaDataset,
    clipped_abs_loss,
    empirical_feature_measure,
    feature_cost_matrix,
    joint_cost_matrix,
    load_dataset,
    save_dataset,
)
from potpda.synthbench import TaskSpec, generate_pda_task

IDENTITY_2D = LinearFeatureMap(np.eye(2))


class TestEmpiricalFeatureMeasure:
    def test_uniform_masses(self):
        masses, _ = empirical_feature_measure(np.zeros((4, 2)), IDENTITY_2D, 1.0)
        np.testing.assert_allclose(masses, [0.25, 0.25, 0.25, 0.25])

    def test_inflated_source_total(self):
        masses, _ = empirical_feature_measure(np.zeros((4, 2)), IDENTITY_2D, 1.0 / 0.35)
        assert masses.sum() == pytest.approx(2.857142857, abs=1e-9)

    def test_scale_two(self):
        masses, _ = empirical_feature_measure(np.zeros((2, 2)), IDENTITY_2D, 2.0)
        np.testing.assert_allclose(masses, [1.0, 1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty measure"):
            empirical_feature_measure(np.zeros((0, 2)), IDENTITY_2D, 1.0)

    def test_nonpositive_scale_raises(self):
        with pytest.raises(ValueError):
            empirical_feature_measure(np.zeros((3, 2)), IDENTITY_2D, 0.0)

    @given(st.integers(1, 40), st.floats(0.01, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_total_mass_equals_scale(self, n, scale):
        f = LinearFeatureMap(np.eye(1))
        masses, _ = empirical_feature_measure(np.zeros((n, 1)), f, scale)
        assert abs(masses.sum() - scale) <= 1e-12


class TestFeatureCostMatrix:
    def test_zero_diagonal_on_identical_lists(self):
        feats = np.arange(6.0).reshape(3, 2)
        C = feature_cost_matrix(feats, feats, 1.0)
        np.testing.assert_allclose(np.diag(C), 0.0, atol=1e-12)

    def test_scalar_example(self):
        C = feature_cost_matrix([[0.0], [3.0]], [[4.0]], 2.0)
        np.testing.assert_allclose(C, [[8.0], [2.0]])

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(42)
        fs = rng.normal(size=(3, 2))
        ft = rng.normal(size=(2, 2))
        gamma = 1.7
        C = feature_cost_matrix(fs, ft, gamma)
        for i in range(3):
            for j in range(2):
                expected = gamma * np.sqrt(((fs[i] - ft[j]) ** 2).sum())
                assert C[i, j] == pytest.approx(expected, abs=1e-12)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(30, 3))
        C = feature_cost_matrix(pts, pts, 2.5)
        for _ in range(200):
            i, j, k = rng.integers(0, 30, size=3)
            assert C[i, k] <= C[i, j] + C[j, k] + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_cost_matrix(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("layout", ["empty source", "zero rows", "fortran", "strided",
                                        "integer"])
    def test_bit_identical_to_scipy_cdist(self, layout):
        rng = np.random.default_rng(3)
        fs, ft = rng.normal(size=(9, 4)), rng.normal(size=(7, 4))
        if layout == "empty source":
            fs = fs[:0]
        elif layout == "zero rows":
            fs[[0, 4]] = 0.0
        elif layout == "fortran":
            fs, ft = np.asfortranarray(fs), np.asfortranarray(ft)
        elif layout == "strided":
            fs, ft = rng.normal(size=(18, 8))[::2, ::2], rng.normal(size=(7, 12))[:, 1::3]
        else:
            fs, ft = rng.integers(-5, 6, size=(9, 4)), rng.integers(-5, 6, size=(7, 4))
        expected = 1.3 * cdist(fs, ft)
        np.testing.assert_array_equal(feature_cost_matrix(fs, ft, 1.3), expected)


class TestJointCostMatrix:
    def test_identical_features_and_labels_zero(self):
        feats = np.arange(4.0).reshape(2, 2)
        labels = np.array([0.2, 0.7])
        C = joint_cost_matrix(feats, labels, feats, labels, 1.0)
        np.testing.assert_allclose(np.diag(C), 0.0, atol=1e-12)

    def test_zero_feature_weight_gives_pure_label_distance(self):
        rng = np.random.default_rng(0)
        fs, ft = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        ys, yt = rng.uniform(0, 1, 3), rng.uniform(0, 1, 4)
        C = joint_cost_matrix(fs, ys, ft, yt, 0.0)
        np.testing.assert_allclose(C, np.minimum(np.abs(ys[:, None] - yt[None, :]), 1.0))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        fs, ft = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        ys, yt = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        zg = 0.6
        C = joint_cost_matrix(fs, ys, ft, yt, zg)
        for i in range(2):
            for j in range(2):
                expected = zg * np.linalg.norm(fs[i] - ft[j]) + min(abs(ys[i] - yt[j]), 1.0)
                assert C[i, j] == pytest.approx(expected, abs=1e-12)

    def test_equal_labels_reduce_to_feature_cost(self):
        rng = np.random.default_rng(9)
        fs, ft = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        labels_s = np.full(4, 0.3)
        labels_t = np.full(5, 0.3)
        zg = 1.9
        joint = joint_cost_matrix(fs, labels_s, ft, labels_t, zg)
        feat = feature_cost_matrix(fs, ft, 1.0)
        np.testing.assert_allclose(joint, zg * feat, atol=1e-12)


class TestLossSpecs:
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_clipped_abs_is_bounded_metric(self, a, b, c):
        def ell(x, y):
            return float(clipped_abs_loss(np.array([x]), np.array([y]))[0])

        assert 0.0 <= ell(a, b) <= 1.0
        assert ell(a, b) == ell(b, a)
        assert ell(a, a) == 0.0
        assert ell(a, c) <= ell(a, b) + ell(b, c) + 1e-12


class TestHypothesis:
    def test_certificate(self):
        g = LipschitzClassifier(np.array([0.3, 0.4]), 0.0, gamma=0.5)
        assert g.is_certified()
        bad = LipschitzClassifier(np.array([3.0, 4.0]), 0.0, gamma=0.5)
        assert not bad.is_certified()

    def test_predictions_clamped(self):
        g = LipschitzClassifier(np.array([1.0]), 0.0, gamma=1.0)
        out = g(np.array([[-5.0], [0.5], [5.0]]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])


class TestPdaDataset:
    def test_hidden_subset_enforced_for_int_labels(self):
        with pytest.raises(ValueError, match="hidden target labels"):
            PdaDataset(np.zeros((2, 1)), np.array([0, 1]), np.zeros((2, 1)), np.array([0, 5]))

    @pytest.mark.parametrize("source_dtype", [int, float])
    def test_hidden_subset_enforced_for_integral_float_labels(self, source_dtype):
        # the task's source labels are 0-3; the float form once skipped the check
        ds = generate_pda_task(TaskSpec(n_s=20, n_t=15, seed=4))
        with pytest.raises(ValueError, match="outside the source label set"):
            PdaDataset(ds.source_x, ds.source_y.astype(source_dtype), ds.target_x,
                       np.full(ds.n_t, 9))
        with pytest.raises(ValueError, match="outside the source label set"):
            PdaDataset(ds.source_x, ds.source_y, ds.target_x, np.full(ds.n_t, 9.0))
        kept = PdaDataset(ds.source_x, ds.source_y.astype(source_dtype), ds.target_x,
                          ds.target_y_hidden.astype(float))
        np.testing.assert_array_equal(kept.target_y_hidden, ds.target_y_hidden)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PdaDataset(np.zeros((2, 2)), np.array([0, 1]), np.zeros((2, 3)))


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = PdaDataset(rng.normal(size=(5, 3)), np.array([0, 1, 2, 1, 0]),
                        rng.normal(size=(4, 3)), np.array([0, 1, 1, 2]))
        path = tmp_path / "task.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_allclose(loaded.source_x, ds.source_x)
        np.testing.assert_array_equal(loaded.source_y, ds.source_y)
        np.testing.assert_allclose(loaded.target_x, ds.target_x)
        np.testing.assert_array_equal(loaded.target_y_hidden, ds.target_y_hidden)

    def test_round_trip_without_hidden(self, tmp_path):
        ds = PdaDataset(np.ones((2, 2)), np.array([0, 1]), np.zeros((2, 2)))
        path = tmp_path / "task.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.target_y_hidden is None

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("split,x0,y\nvalidation,1.0,0\n")
        with pytest.raises(ValueError, match="unknown split"):
            load_dataset(path)
