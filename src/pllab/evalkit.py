"""Diagnostics: accuracy, confusion, label overlap, distance metrics,
entangled-instance metrics, and the recovered rate.

Metrics that can be undefined (no entangled pairs, no misclassified entangled
instances) carry an explicit ``defined`` flag instead of silently emitting
NaN. Distance metrics default to the classifier's penultimate feature space;
the projection head is available via ``space="projection"``.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .data import PLLDataset
from .numkernel import BackboneParams, forward

__all__ = [
    "EntangledMetrics",
    "ClassDistances",
    "RecoveredRate",
    "MetricsReport",
    "predict",
    "embed",
    "confusion_matrix",
    "confusion",
    "accuracy_from_confusion",
    "entangled_metrics",
    "class_distances",
    "label_overlap",
    "recovered_rate",
    "full_report",
    "write_report",
]


def _params(model) -> BackboneParams:
    return getattr(model, "query", model)


def predict(model, features, batch_size: int = 1024) -> np.ndarray:
    """Argmax class predictions from the classifier head."""
    params = _params(model)
    x = np.asarray(features, dtype=np.float64)
    preds = []
    for start in range(0, x.shape[0], batch_size):
        res = forward(params, x[start : start + batch_size], want_cache=False)
        preds.append(np.argmax(res.logits, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def embed(model, features, space: str = "features", batch_size: int = 1024) -> np.ndarray:
    """Sample representations: penultimate features or projection embeddings."""
    if space not in ("features", "projection"):
        raise ValueError("space must be 'features' or 'projection'")
    params = _params(model)
    x = np.asarray(features, dtype=np.float64)
    out = []
    for start in range(0, x.shape[0], batch_size):
        res = forward(params, x[start : start + batch_size], want_cache=False)
        out.append(res.features if space == "features" else res.embedding)
    return np.concatenate(out) if out else np.zeros((0, 0))


# ---------------------------------------------------------------------------
# Confusion and accuracy


def confusion_matrix(true_labels, predictions, num_classes: int) -> np.ndarray:
    """(true, predicted) count matrix; rows sum to per-class counts."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predictions, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError("label and prediction lengths differ")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (t, p), 1)
    return mat


def confusion(model, dataset: PLLDataset) -> np.ndarray:
    if not dataset.has_true_labels:
        raise ValueError("confusion needs true labels")
    preds = predict(model, dataset.features)
    return confusion_matrix(dataset.true_labels, preds, dataset.num_classes)


def accuracy_from_confusion(mat: np.ndarray) -> float:
    total = int(mat.sum())
    return float(np.trace(mat)) / total if total else 0.0


# ---------------------------------------------------------------------------
# Entangled-instance metrics


@dataclass(frozen=True)
class EntangledMetrics:
    accuracy: float
    mean_distance: float
    instance_count: int
    pair_count: int
    defined: bool


def entangled_metrics(model, dataset: PLLDataset, pairs, space: str = "features"
                      ) -> EntangledMetrics:
    """Accuracy over the unique entangled instances and mean pair distance.

    Instances appearing in several pairs are deduplicated for the accuracy;
    the distance averages the embedding-space Euclidean distance over pairs.
    """
    if not pairs:
        return EntangledMetrics(0.0, 0.0, 0, 0, defined=False)
    instances = sorted({idx for p in pairs for idx in (p.i, p.j)})
    preds = predict(model, dataset.features[instances])
    truth = dataset.true_labels[instances]
    acc = float(np.mean(preds == truth))
    emb = embed(model, dataset.features, space=space)
    dists = [float(np.linalg.norm(emb[p.i] - emb[p.j])) for p in pairs]
    return EntangledMetrics(
        accuracy=acc,
        mean_distance=float(np.mean(dists)),
        instance_count=len(instances),
        pair_count=len(pairs),
        defined=True,
    )


# ---------------------------------------------------------------------------
# Class-distance metrics


@dataclass(frozen=True)
class ClassDistances:
    instance: float  # global nearest cross-class sample distance
    avg_pairwise: float  # mean over class pairs of their nearest cross distance
    centroid: float  # mean over class pairs of centroid distance


def class_distances(embeddings, labels) -> ClassDistances:
    emb = np.asarray(embeddings, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(lab)
    present = np.flatnonzero(counts)
    if len(present) < len(counts):
        warnings.warn("classes without samples excluded from distance metrics")
    if len(present) < 2:
        raise ValueError("class distances need at least two populated classes")
    d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(-1)
    dist = np.sqrt(np.maximum(d2, 0.0))
    pair_mins = []
    centroids = {c: emb[lab == c].mean(axis=0) for c in present}
    centroid_dists = []
    for a_idx in range(len(present)):
        for b_idx in range(a_idx + 1, len(present)):
            a, b = present[a_idx], present[b_idx]
            block = dist[np.ix_(lab == a, lab == b)]
            pair_mins.append(float(block.min()))
            centroid_dists.append(float(np.linalg.norm(centroids[a] - centroids[b])))
    return ClassDistances(
        instance=float(min(pair_mins)),
        avg_pairwise=float(np.mean(pair_mins)),
        centroid=float(np.mean(centroid_dists)),
    )


# ---------------------------------------------------------------------------
# Label overlap


def label_overlap(dataset: PLLDataset) -> np.ndarray:
    """Entry (i, j): fraction of class-i-or-j samples carrying both labels."""
    if not dataset.has_true_labels:
        raise ValueError("label overlap needs true labels")
    c = dataset.num_classes
    lab = dataset.true_labels
    cand = dataset.candidates
    out = np.zeros((c, c))
    for i in range(c):
        for j in range(i, c):
            members = (lab == i) | (lab == j)
            total = int(members.sum())
            if total == 0:
                out[i, j] = out[j, i] = 0.0
                continue
            both = cand[members, i] & cand[members, j]
            out[i, j] = out[j, i] = float(both.sum()) / total
    return out


# ---------------------------------------------------------------------------
# Recovered rate


@dataclass(frozen=True)
class RecoveredRate:
    rate: float
    misclassified: int
    recovered: int
    defined: bool


def recovered_rate(pll_predictions, supervised_predictions, entangled_instances,
                   true_labels) -> RecoveredRate:
    """Among entangled instances the PLL model gets wrong, the fraction the
    fully supervised model gets right."""
    pll = np.asarray(pll_predictions, dtype=np.int64)
    sup = np.asarray(supervised_predictions, dtype=np.int64)
    truth = np.asarray(true_labels, dtype=np.int64)
    if pll.shape != sup.shape or pll.shape != truth.shape:
        raise ValueError("prediction vectors must align with the dataset")
    idx = np.asarray(sorted(set(int(i) for i in entangled_instances)), dtype=np.int64)
    if idx.size == 0:
        return RecoveredRate(0.0, 0, 0, defined=False)
    wrong = idx[pll[idx] != truth[idx]]
    if wrong.size == 0:
        return RecoveredRate(0.0, 0, 0, defined=False)
    rec = int(np.sum(sup[wrong] == truth[wrong]))
    return RecoveredRate(rec / wrong.size, int(wrong.size), rec, defined=True)


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass
class MetricsReport:
    accuracy: float
    per_class_accuracy: list
    confusion: np.ndarray
    label_overlap: np.ndarray
    entangled: list  # (selector kind, value, EntangledMetrics)
    class_distances: ClassDistances
    recovered: RecoveredRate | None = None

    def summary_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "per_class_accuracy": list(self.per_class_accuracy),
            "class_distances": asdict(self.class_distances),
            "entangled": [
                {"kind": kind, "value": value, **asdict(m)}
                for kind, value, m in self.entangled
            ],
        }
        if self.recovered is not None:
            out["recovered_rate"] = asdict(self.recovered)
        return out


def full_report(model, dataset: PLLDataset, xis=(), ratios=(), space: str = "features",
                supervised_predictions=None) -> MetricsReport:
    """Every diagnostic at once; entanglement selectors are optional."""
    from .entangle import find_entangled, top_fraction_pairs

    mat = confusion(model, dataset)
    row_sums = mat.sum(axis=1)
    per_class = [
        float(mat[k, k]) / row_sums[k] if row_sums[k] else 0.0
        for k in range(dataset.num_classes)
    ]
    emb = embed(model, dataset.features, space=space)
    entries = []
    union_instances: set[int] = set()
    for xi in xis:
        pairs = find_entangled(emb, dataset, xi)
        entries.append(("xi", float(xi), entangled_metrics(model, dataset, pairs, space)))
        union_instances |= {i for p in pairs for i in (p.i, p.j)}
    for ratio in ratios:
        pairs, _ = top_fraction_pairs(emb, dataset, ratio)
        entries.append(("ratio", float(ratio), entangled_metrics(model, dataset, pairs, space)))
        union_instances |= {i for p in pairs for i in (p.i, p.j)}
    recovered = None
    if supervised_predictions is not None and union_instances:
        recovered = recovered_rate(
            predict(model, dataset.features), supervised_predictions,
            union_instances, dataset.true_labels,
        )
    return MetricsReport(
        accuracy=accuracy_from_confusion(mat),
        per_class_accuracy=per_class,
        confusion=mat,
        label_overlap=label_overlap(dataset),
        entangled=entries,
        class_distances=class_distances(emb, dataset.true_labels),
        recovered=recovered,
    )


def write_report(report: MetricsReport, outdir) -> None:
    """CSV matrices plus a JSON summary (keys per the README)."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, mat in (("confusion", report.confusion), ("label_overlap", report.label_overlap)):
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in np.asarray(mat):
                writer.writerow([repr(v) if isinstance(v, float) else int(v) for v in row])
    with open(outdir / "entangled.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "value", "pair_count", "instance_count",
                         "accuracy", "mean_distance", "defined"])
        for kind, value, m in report.entangled:
            writer.writerow([
                kind, repr(value), m.pair_count, m.instance_count,
                repr(m.accuracy) if m.defined else "",
                repr(m.mean_distance) if m.defined else "",
                int(m.defined),
            ])
    with open(outdir / "summary.json", "w") as fh:
        json.dump(report.summary_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
