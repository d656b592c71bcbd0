"""Diagnostics: accuracy, confusion, label overlap, distance metrics,
entangled-instance metrics, and the recovered rate.

Entangled pairs are (k, 2) int64 arrays of sample indices, as the ``entangle``
selectors return them. The metrics index one prediction vector and one
embedding matrix with them, so ``full_report`` runs ``predict`` and ``embed``
once each, however many selectors it is given.

Metrics that can be undefined (no entangled pairs, no misclassified entangled
instances) carry an explicit ``defined`` flag instead of silently emitting
NaN. Distance metrics default to the classifier's penultimate feature space;
the projection head is available via ``space="projection"``.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from . import entangle
from .data import PLLDataset
from .numkernel import BackboneParams, _array, _indices, _integer, forward

__all__ = [
    "EntangledMetrics",
    "ClassDistances",
    "RecoveredRate",
    "MetricsReport",
    "predict",
    "embed",
    "confusion_matrix",
    "accuracy_from_confusion",
    "entangled_metrics",
    "class_distances",
    "label_overlap",
    "recovered_rate",
    "full_report",
    "write_report",
]

DISTANCE_TILE_BYTES = 1 << 18  # float64 bytes per class_distances tile and entangled_metrics chunk
EVAL_BATCH = 1024  # rows per forward in predict and embed
EVAL_CHUNK_BYTES = 1 << 20  # float64 input bytes per forward in predict and embed


def _chunks(x: np.ndarray) -> list[np.ndarray]:
    """``x`` split into row slices of at most EVAL_BATCH rows and
    EVAL_CHUNK_BYTES of input (256 rows of 8x8x8 grids), so one forward's
    activations stay small. Rows do not depend on the split, with one
    exception: numpy runs a one-row product as a matrix-vector call, which
    rounds apart from the gemm. So no slice has a single row unless ``x``
    has: a chunk holds at least two, and a one-row tail joins the slice
    before it."""
    n = x.shape[0]
    rows = max(2, min(EVAL_BATCH, EVAL_CHUNK_BYTES // max(1, x[:1].nbytes)))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [x[a:b] for a, b in zip(starts, starts[1:] + [n])]


def predict(params: BackboneParams, features) -> np.ndarray:
    """Argmax class predictions from the classifier head."""
    preds = [np.argmax(forward(params, chunk).logits, axis=1)
             for chunk in _chunks(np.asarray(features, dtype=np.float64))]
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)


def embed(params: BackboneParams, features, space: str = "features") -> np.ndarray:
    """Sample representations: penultimate features (n, feature_dim) or
    projection embeddings (n, embed_dim); an empty input gives zero rows."""
    if space not in ("features", "projection"):
        raise ValueError("space must be 'features' or 'projection'")
    out = []
    for chunk in _chunks(np.asarray(features, dtype=np.float64)):
        res = forward(params, chunk)
        out.append(res.features if space == "features" else res.embedding)
        del res  # frees the pass's activations before the next one
    if not out:
        cfg = params.config
        return np.zeros((0, cfg.feature_dim if space == "features" else cfg.embed_dim))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Confusion and accuracy


def confusion_matrix(true_labels, predictions, num_classes: int) -> np.ndarray:
    """(true, predicted) count matrix; rows sum to per-class counts.

    Raises ValueError unless ``num_classes`` is a nonnegative integer, both
    arrays have one shape and every entry is an integer in [0, num_classes).
    """
    num_classes = _integer("num_classes", num_classes, low=0)
    t = _indices(true_labels, num_classes, "labels")
    p = _indices(predictions, num_classes, "predictions", shape=t.shape)
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (t, p), 1)
    return mat


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


def entangled_metrics(pairs, predictions, embeddings, true_labels) -> EntangledMetrics:
    """Accuracy over the unique entangled instances and mean pair distance.

    ``pairs`` is a (k, 2) index array into the rows of ``predictions``,
    ``embeddings`` and ``true_labels``. Instances appearing in several pairs
    are deduplicated for the accuracy; the distance averages the embedding
    Euclidean distance over pairs, taken DISTANCE_TILE_BYTES of differences
    at a time, so memory is the k distances, an n-long instance mask and one
    chunk. No pairs, of any shape, give the undefined metrics. ValueError for
    any other shape than (k, 2), an index, label or prediction that is not a
    nonnegative integer, predictions not one per label, or embeddings not
    2-D with one row per label.
    """
    truth = _indices(true_labels, name="true_labels")
    preds = _indices(predictions, name="predictions", shape=truth.shape)
    emb = _array("embeddings", embeddings, (len(truth), None))
    ij = np.asarray(pairs)
    if ij.size == 0:
        return EntangledMetrics(0.0, 0.0, 0, 0, defined=False)
    ij = _indices(ij, len(truth), shape=(None, 2))
    instances = np.zeros(len(truth), dtype=bool)
    instances[ij] = True
    dists = np.empty(len(ij))
    step = max(1, DISTANCE_TILE_BYTES // (8 * max(1, emb.shape[1])))
    for lo in range(0, len(ij), step):
        diff = emb[ij[lo : lo + step, 0]]
        diff -= emb[ij[lo : lo + step, 1]]
        dists[lo : lo + step] = np.linalg.norm(diff, axis=1)
    return EntangledMetrics(
        accuracy=float(np.mean(preds[instances] == truth[instances])),
        mean_distance=float(np.mean(dists)),
        instance_count=int(instances.sum()),
        pair_count=len(ij),
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
    """Nearest cross-class sample distances and centroid distances.

    Each class's rows are compared only with the rows of the classes after
    it, so same-class pairs are never computed. They are compared in tiles of
    at most DISTANCE_TILE_BYTES of estimates, near-square so that a tile never
    narrows to one row. Each tile is screened by one gemm, the estimate
    (|a|^2 + |b|^2) - 2 a.b of every squared distance, formed in the gemm's
    buffer and one more. Only the pairs whose estimate lies within its
    forward-error bound of the smallest one of their class in the tile are
    then measured exactly, as sqrt(max(((a - b)**2).sum(), 0)). The block's
    nearest pair passes the screen of whichever tile holds it, so the result
    equals that exact form taken over every pair, bit for bit.

    Working set, beyond a label-sorted copy of the embeddings and O(n)
    vectors: the two tile buffers; the screen's masks (a quarter of a tile)
    and 24 bytes per pair it passes, a few per tile unless estimates tie, up
    to the whole tile when rows coincide; then the exact pass's two arrays of
    at most DISTANCE_TILE_BYTES of differences.

    Raises ValueError for embeddings that are not 2-D and finite, or for
    labels that are not nonnegative integers, one per row.
    """
    emb = _array("embeddings", embeddings, (None, None), finite=True)
    lab = _indices(labels, name="labels", shape=emb.shape[:1])
    counts = np.bincount(lab)
    present = np.flatnonzero(counts)
    if len(present) < len(counts):
        warnings.warn("classes without samples excluded from distance metrics")
    if len(present) < 2:
        raise ValueError("class distances need at least two populated classes")
    emb = emb[np.argsort(lab, kind="stable")]  # stable: centroids sum rows in input order
    bounds = np.concatenate(([0], np.cumsum(counts[present])))
    centroids = [emb[lo:hi].mean(axis=0) for lo, hi in zip(bounds[:-1], bounds[1:])]
    sq = np.einsum("ij,ij->i", emb, emb)
    # Forward error of the estimate. With u = eps/2, s = |a|^2 + |b|^2 and
    # gamma_d = d u / (1 - d u), each squared norm is off by at most gamma_d
    # times itself and 2 a.b by 2 gamma_d |a||b| <= gamma_d s; the two
    # additions add u s and 2u s (|2 a.b| <= s). So |estimate - D| <=
    # (2d + 3) u s to first order, D = |a - b|^2. The exact form is D (1 + t)
    # with |t| <= gamma_(d+2), and D <= 2s. If p minimizes the exact form and
    # q the estimate, then estimate_p <= estimate_q + (2d + 3) u (s_p + s_q)
    # + 4 gamma_(d+2) s_q, at most (4d + 7) eps s_max over the pairs. q may
    # be any pair of the class block, so keeping the estimates within
    # 4 (d + 2) eps s_max of the smallest in p's tile keeps p.
    slack = 4 * (emb.shape[1] + 2) * np.finfo(np.float64).eps
    cells = max(1, DISTANCE_TILE_BYTES // 8)  # estimates per tile
    exact_step = max(1, cells // max(1, emb.shape[1]))
    pair_mins = []
    centroid_dists = []
    for a in range(len(present) - 1):
        rest, rest_sq = emb[bounds[a + 1]:], sq[bounds[a + 1]:]
        starts = bounds[a + 1:-1] - bounds[a + 1]  # each later class's first column
        col_class = np.repeat(np.arange(len(starts)), counts[present[a + 1:]])
        class_max = np.maximum.reduceat(rest_sq, starts)
        mins = np.full(len(starts), np.inf)
        # near-square tiles, wider when class a has few rows, taller when few columns
        width = min(len(rest), max(1, cells // min(counts[present[a]], math.isqrt(cells))))
        height = max(1, cells // width)
        for lo in range(bounds[a], bounds[a + 1], height):
            hi = min(lo + height, bounds[a + 1])
            row_max = sq[lo:hi].max()
            for c0 in range(0, len(rest), width):
                c1 = min(c0 + width, len(rest))
                est = sq[lo:hi, None] + rest_sq[None, c0:c1]
                dot = np.matmul(emb[lo:hi], rest[c0:c1].T)
                dot *= 2.0
                est -= dot
                del dot
                # the tile's later classes, and where each starts among its columns
                k0, k1 = col_class[c0], col_class[c1 - 1] + 1
                limit = np.minimum.reduceat(est.min(axis=0), np.maximum(starts[k0:k1] - c0, 0))
                limit += slack * (row_max + class_max[k0:k1])
                # an overflowed (NaN) bound keeps all
                r, s = np.divmod(np.flatnonzero(~(est > limit[col_class[c0:c1] - k0])), c1 - c0)
                del est
                for k in range(0, len(r), exact_step):
                    rr, ss = lo + r[k : k + exact_step], c0 + s[k : k + exact_step]
                    diff = emb[rr]
                    diff -= rest[ss]
                    dist = np.sqrt(np.maximum(np.square(diff, out=diff).sum(-1), 0.0))
                    np.minimum.at(mins, col_class[ss], dist)
        pair_mins.extend(mins.tolist())
        centroid_dists.extend(float(np.linalg.norm(centroids[a] - c)) for c in centroids[a + 1:])
    return ClassDistances(
        instance=float(min(pair_mins)),
        avg_pairwise=float(np.mean(pair_mins)),
        centroid=float(np.mean(centroid_dists)),
    )


# ---------------------------------------------------------------------------
# Label overlap


def label_overlap(dataset: PLLDataset) -> np.ndarray:
    """Entry (i, j): fraction of class-i-or-j samples carrying both labels.

    Every candidate set holds its true label, so a class-i sample carries
    both labels exactly when j is among its candidates: with held[i, j] the
    number of class-i samples holding j, entry (i, j) is
    (held[i, j] + held[j, i]) / (n_i + n_j), and 0 for two absent classes.
    """
    if not dataset.has_true_labels:
        raise ValueError("label overlap needs true labels")
    c = dataset.num_classes
    held = np.zeros((c, c), dtype=np.int64)
    np.add.at(held, dataset.true_labels, dataset.candidates)
    counts = np.bincount(dataset.true_labels, minlength=c)
    total = counts[:, None] + counts[None, :]
    return np.divide(held + held.T, total, out=np.zeros((c, c)), where=total > 0)


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
    fully supervised model gets right. Every argument holds nonnegative
    integers, and both prediction vectors have the labels' shape."""
    truth = _indices(true_labels, name="true_labels")
    pll = _indices(pll_predictions, name="pll_predictions", shape=truth.shape)
    sup = _indices(supervised_predictions, name="supervised_predictions", shape=truth.shape)
    idx = np.unique(_indices(entangled_instances, len(truth)))
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
    """Every diagnostic at once; entanglement selectors are optional.

    ``model`` is BackboneParams or a ModelPair, whose query side is reported.
    The recovered rate covers the union of the instances every selector picks.
    """
    if not dataset.has_true_labels:
        raise ValueError("full_report needs true labels")
    params = getattr(model, "query", model)
    truth = dataset.true_labels
    preds = predict(params, dataset.features)
    emb = embed(params, dataset.features, space=space)
    mat = confusion_matrix(truth, preds, dataset.num_classes)
    per_class = (np.diag(mat) / np.maximum(mat.sum(axis=1), 1)).tolist()  # 0.0 for absent classes
    entries, selected = [], []
    for kind, values, select in (("xi", xis, entangle.find_entangled),
                                 ("ratio", ratios, entangle.top_fraction_pairs)):
        for value in values:
            pairs, _ = select(emb, dataset, value)
            entries.append((kind, float(value), entangled_metrics(pairs, preds, emb, truth)))
            selected.append(pairs)
    instances = np.unique(np.concatenate(selected)) if selected else np.zeros(0, np.int64)
    recovered = None
    if supervised_predictions is not None and instances.size:
        recovered = recovered_rate(preds, supervised_predictions, instances, truth)
    return MetricsReport(
        accuracy=accuracy_from_confusion(mat),
        per_class_accuracy=per_class,
        confusion=mat,
        label_overlap=label_overlap(dataset),
        entangled=entries,
        class_distances=class_distances(emb, truth),
        recovered=recovered,
    )


def write_report(report: MetricsReport, outdir) -> None:
    """Write confusion.csv, label_overlap.csv, entangled.csv and summary.json.

    entangled.csv has one row per selector with the columns kind, value,
    pair_count, instance_count, accuracy, mean_distance and defined (0 or 1);
    undefined cells are empty. summary.json holds accuracy,
    per_class_accuracy, class_distances (instance, avg_pairwise, centroid),
    entangled (per selector: kind, value and the EntangledMetrics fields) and,
    when computed, recovered_rate (rate, misclassified, recovered, defined).
    """
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
