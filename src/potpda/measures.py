"""Datasets, cost matrices, the label loss, linear hypotheses, and the CSV task format."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._scipy_ext import cdist_euclidean

# slack of every Lipschitz certificate check ||v|| <= gamma
CERT_TOL = 1e-9

__all__ = [
    "PdaDataset",
    "LinearFeatureMap",
    "LipschitzClassifier",
    "Hypothesis",
    "clipped_abs_loss",
    "empirical_feature_measure",
    "feature_cost_matrix",
    "joint_cost_matrix",
    "load_dataset",
    "save_dataset",
]


def _integral(labels: np.ndarray) -> bool:
    """Whether every label is a number with an integral value."""
    return np.issubdtype(labels.dtype, np.number) and bool((labels == np.round(labels)).all())


@dataclass(frozen=True)
class PdaDataset:
    """Labeled source set plus unlabeled target inputs.

    ``target_y_hidden`` is evaluation-only ground truth; training code must
    never read it.  When both label arrays hold integral values, whatever
    their dtype, the hidden target labels must lie in the source label set,
    unless the dataset's class states that its labels are real values.
    """

    # a subclass whose labels are real values sets this False: labels that
    # all happen to be integral are then not classes
    _class_labels = True

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y_hidden: np.ndarray | None = None

    def __post_init__(self):
        sx = np.atleast_2d(np.asarray(self.source_x, dtype=float))
        tx = np.atleast_2d(np.asarray(self.target_x, dtype=float))
        sy = np.asarray(self.source_y)
        if sx.shape[0] < 1 or tx.shape[0] < 1:
            raise ValueError("need at least one source and one target sample")
        if sx.shape[1] != tx.shape[1]:
            raise ValueError("source and target input dimensions differ")
        if sy.shape != (sx.shape[0],):
            raise ValueError("source labels misaligned with source inputs")
        if not (np.all(np.isfinite(sx)) and np.all(np.isfinite(tx))):
            raise ValueError("source and target inputs must be finite")
        object.__setattr__(self, "source_x", sx)
        object.__setattr__(self, "source_y", sy)
        object.__setattr__(self, "target_x", tx)
        if self.target_y_hidden is not None:
            ty = np.asarray(self.target_y_hidden)
            if ty.shape != (tx.shape[0],):
                raise ValueError("hidden target labels misaligned with target inputs")
            # labels compare by value, whatever their dtype, once both are
            # integral
            if (self._class_labels and _integral(sy) and _integral(ty)
                    and not np.isin(ty, sy).all()):
                raise ValueError("hidden target labels outside the source label set")
            object.__setattr__(self, "target_y_hidden", ty)

    @property
    def n_s(self) -> int:
        return self.source_x.shape[0]

    @property
    def n_t(self) -> int:
        return self.target_x.shape[0]

    @property
    def dim(self) -> int:
        return self.source_x.shape[1]


@dataclass(frozen=True)
class LinearFeatureMap:
    """Linear feature extractor x -> W x."""

    matrix: np.ndarray

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if not np.all(np.isfinite(w)):
            raise ValueError("feature map must be finite")
        object.__setattr__(self, "matrix", w)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T


@dataclass(frozen=True)
class LipschitzClassifier:
    """Scalar head t -> clamp(<v, t> + b, 0, 1) with certificate ||v|| <= gamma."""

    v: np.ndarray
    b: float
    gamma: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        object.__setattr__(self, "v", v)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def is_certified(self) -> bool:
        return float(np.linalg.norm(self.v)) <= self.gamma + CERT_TOL

    def __call__(self, feats: np.ndarray) -> np.ndarray:
        feats = np.atleast_2d(np.asarray(feats, dtype=float))
        return np.clip(feats @ self.v + self.b, 0.0, 1.0)


@dataclass(frozen=True)
class Hypothesis:
    """Composite predictor w = g o f."""

    feature_map: LinearFeatureMap
    classifier: LipschitzClassifier

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.feature_map(x))


def clipped_abs_loss(y_pred, y_true) -> np.ndarray:
    """Label loss min(|y_pred - y_true|, 1), a metric bounded by 1; the two
    arrays broadcast."""
    return np.minimum(np.abs(np.asarray(y_pred, dtype=float) - np.asarray(y_true, dtype=float)), 1.0)


def empirical_feature_measure(samples, feature_map: LinearFeatureMap, scale: float):
    """Uniform measure with mass scale/n per atom over the mapped samples.

    Use ``scale = 1/beta`` for the inflated source side and 1 for the target.
    Returns the atom masses together with the feature array the atoms live on.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n == 0 or x.size == 0:
        raise ValueError("empty measure")
    return np.full(n, scale / n), feature_map(x)


def feature_cost_matrix(source_feats, target_feats, gamma: float) -> np.ndarray:
    """Cost (i, j) = gamma * ||f_i - f~_j|| between precomputed features."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    fs = np.atleast_2d(np.asarray(source_feats, dtype=float))
    ft = np.atleast_2d(np.asarray(target_feats, dtype=float))
    if fs.shape[1] != ft.shape[1]:
        raise ValueError("feature dimensions differ")
    return gamma * cdist_euclidean(fs, ft)


def joint_cost_matrix(source_feats, source_labels, target_feats, predicted_labels,
                      zeta_gamma: float) -> np.ndarray:
    """Joint ground cost: zeta*gamma * feature distance + label-loss distance.

    zeta_gamma = 0 degenerates to the pure label-distance matrix.
    """
    if zeta_gamma < 0:
        raise ValueError("zeta_gamma must be nonnegative")
    fs = np.atleast_2d(np.asarray(source_feats, dtype=float))
    ft = np.atleast_2d(np.asarray(target_feats, dtype=float))
    if fs.shape[1] != ft.shape[1]:
        raise ValueError("feature dimensions differ")
    y = np.asarray(source_labels, dtype=float)
    y_pred = np.asarray(predicted_labels, dtype=float)
    if y_pred.shape[0] != ft.shape[0]:
        raise ValueError("predicted labels misaligned with target features")
    return zeta_gamma * cdist_euclidean(fs, ft) + clipped_abs_loss(y[:, None], y_pred[None, :])


def load_dataset(path) -> PdaDataset:
    """Read the CSV task format: split, x0..x{d-1}, y and optional y_hidden.

    Malformed contents (missing columns, rows of the wrong length, unknown
    splits, values that do not parse or are not finite, text that is not
    UTF-8) raise ValueError naming the file.
    """
    try:
        return _read_task(path)
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_task(path) -> PdaDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("missing header")
        # a repeated name reads its last column
        col = {name: i for i, name in enumerate(header)}
        for name in ("split", "y"):
            if name not in col:
                raise ValueError(f"missing column {name!r}")
        x_idx = [col[c] for c in sorted((c for c in header if c.startswith("x")),
                                        key=lambda c: int(c[1:]))]
        if not x_idx:
            raise ValueError("no input columns x0..")
        split_i, y_i, hidden_i = col["split"], col["y"], col.get("y_hidden")
        src_x, src_y, tgt_x, tgt_y = [], [], [], []
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num}: expected "
                                 f"{len(header)} cells, as in the header")
            vec = [float(row[i]) for i in x_idx]
            split = row[split_i]
            if split == "source":
                src_x.append(vec)
                src_y.append(row[y_i])
            elif split == "target":
                tgt_x.append(vec)
                if hidden_i is not None and row[hidden_i] != "":
                    tgt_y.append(row[hidden_i])
            else:
                raise ValueError(f"unknown split {split!r}")
    if not src_x or not tgt_x:
        raise ValueError("need both source and target rows")
    hidden = None
    if tgt_y:
        if len(tgt_y) != len(tgt_x):
            raise ValueError("y_hidden must cover every target row or none")
        hidden = _parse_labels(tgt_y)
    return PdaDataset(np.asarray(src_x), _parse_labels(src_y), np.asarray(tgt_x), hidden)


def _parse_labels(raw: list) -> np.ndarray:
    vals = np.array([float(v) for v in raw])
    if not np.all(np.isfinite(vals)):
        raise ValueError("labels must be finite")
    if np.any(vals != np.round(vals)):
        return vals
    if np.any(np.abs(vals) >= 2.0**63):
        raise ValueError("integer labels out of range")
    return vals.astype(int)


def save_dataset(ds: PdaDataset, path) -> None:
    """Write the CSV task format, including y_hidden when ground truth exists."""
    d = ds.dim
    cols = ["split"] + [f"x{i}" for i in range(d)] + ["y"]
    if ds.target_y_hidden is not None:
        cols.append("y_hidden")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(ds.n_s):
            row = ["source"] + [repr(float(v)) for v in ds.source_x[i]] + [ds.source_y[i]]
            if ds.target_y_hidden is not None:
                row.append("")
            writer.writerow(row)
        for j in range(ds.n_t):
            row = ["target"] + [repr(float(v)) for v in ds.target_x[j]] + [""]
            if ds.target_y_hidden is not None:
                row.append(ds.target_y_hidden[j])
            writer.writerow(row)
