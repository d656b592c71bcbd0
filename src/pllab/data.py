"""Partial-label dataset model, candidate synthesis, and dataset I/O.

Candidate sets are produced by an annotator-posterior flip procedure: each
wrong label's posterior is scaled by the largest wrong-label posterior, turned
into a flip probability proportional to an ambiguity rate, clipped at 1, and
sampled independently per label. The true label is always kept. The ambiguity
knob is called ``tau_rate`` here to avoid colliding with the contrastive
temperature tau.

Datasets serialize to a line-oriented text format so every record can be
inspected by hand:

    PLLDS v1 n=<n> c=<c> dims=<d or h,w,ch>
    <feat0>,<feat1>,...|<candidate bitmask, hex>|<true label or ->
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import EncoderConfig, backward, forward, init_params

__all__ = [
    "ValidationError",
    "DegeneratePosteriorError",
    "ParameterError",
    "PLLDataset",
    "AnnotatorPosterior",
    "GaussianClusterSpec",
    "entangled_cluster_spec",
    "gen_entangled_gaussians",
    "train_annotator",
    "synthesize_candidates",
    "synthesize_dataset",
    "save_dataset",
    "load_dataset",
]


class ValidationError(ValueError):
    """A dataset record violates an invariant; names the offending sample."""


class DegeneratePosteriorError(ValueError):
    """A posterior row puts zero mass on every wrong label."""


class ParameterError(ValueError):
    """A generator or synthesis parameter is out of range."""


# ---------------------------------------------------------------------------
# Core types


class PLLDataset:
    """A partial-label dataset backed by dense arrays.

    ``features`` is (n, *dims); ``candidates`` is an (n, c) boolean mask;
    ``true_labels`` is (n,) with -1 for held-out/unknown labels (any other
    negative label is rejected). Invariants: every candidate set is nonempty
    and contains the true label when present.
    """

    def __init__(self, features, candidates, true_labels=None, num_classes=None,
                 provenance=None, validate=True):
        self.features = np.asarray(features, dtype=np.float64)
        self.candidates = np.asarray(candidates, dtype=bool)
        n = self.features.shape[0]
        if true_labels is None:
            true_labels = np.full(n, -1, dtype=np.int64)
        self.true_labels = np.asarray(true_labels, dtype=np.int64)
        self.num_classes = int(num_classes if num_classes is not None else self.candidates.shape[1])
        self.provenance = dict(provenance or {})
        if validate:
            self.validate()

    # -- invariants

    def validate(self):
        n = len(self)
        if self.candidates.shape != (n, self.num_classes):
            raise ValidationError(
                f"candidate mask shape {self.candidates.shape} != ({n}, {self.num_classes})"
            )
        if self.true_labels.shape != (n,):
            raise ValidationError("true_labels length does not match sample count")
        if not np.all(np.isfinite(self.features)):
            bad = int(np.argwhere(~np.isfinite(self.features.reshape(n, -1)).all(axis=1))[0, 0])
            raise ValidationError(f"non-finite feature values at sample {bad}")
        sizes = self.candidates.sum(axis=1)
        if np.any(sizes == 0):
            bad = int(np.argmax(sizes == 0))
            raise ValidationError(f"empty candidate set at sample {bad}")
        out_of_range = (self.true_labels < -1) | (self.true_labels >= self.num_classes)
        if np.any(out_of_range):
            bad = int(np.argmax(out_of_range))
            raise ValidationError(f"true label {self.true_labels[bad]} out of range at sample "
                                  f"{bad} (-1 means unknown)")
        known = self.true_labels >= 0
        if np.any(known):
            idx = np.flatnonzero(known)
            holds = self.candidates[idx, self.true_labels[idx]]
            if not np.all(holds):
                bad = int(idx[np.argmax(~holds)])
                raise ValidationError(
                    f"true label not in candidate set at sample {bad}"
                )

    # -- access

    @property
    def feature_dims(self) -> tuple[int, ...]:
        return tuple(self.features.shape[1:])

    @property
    def has_true_labels(self) -> bool:
        return bool(np.all(self.true_labels >= 0))

    def __len__(self) -> int:
        return self.features.shape[0]

    def avg_candidates(self) -> float:
        return float(self.candidates.sum(axis=1).mean())

    def subset(self, indices) -> "PLLDataset":
        idx = np.asarray(indices)
        return PLLDataset(
            self.features[idx],
            self.candidates[idx],
            self.true_labels[idx],
            num_classes=self.num_classes,
            provenance=self.provenance,
            validate=False,
        )


@dataclass(frozen=True)
class AnnotatorPosterior:
    """Per-sample class posterior rows (nonnegative, each summing to 1)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 2:
            raise ValidationError("posterior must be a (n, c) matrix")
        if np.any(probs < 0):
            raise ValidationError("posterior has negative entries")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
            bad = int(np.argmax(np.abs(probs.sum(axis=1) - 1.0) > 1e-9))
            raise ValidationError(f"posterior row {bad} does not sum to 1")

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


# ---------------------------------------------------------------------------
# Synthetic entangled-Gaussian generator


@dataclass(frozen=True)
class GaussianClusterSpec:
    """Per-class Gaussian clusters with designated entangled pairs.

    ``means`` is (c, d); ``covariances`` is (c, d, d). ``entangled_pairs``
    records which class pairs were placed with overlapping support (metadata
    only; the geometry itself lives in the means).
    """

    means: np.ndarray
    covariances: np.ndarray
    entangled_pairs: tuple = ()

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        covs = np.asarray(self.covariances, dtype=np.float64)
        if means.ndim != 2:
            raise ParameterError("means must be (c, d)")
        if covs.shape == means.shape[1:] * 2:
            covs = np.broadcast_to(covs, (means.shape[0],) + covs.shape).copy()
        if covs.shape != (means.shape[0], means.shape[1], means.shape[1]):
            raise ParameterError("covariances must be (c, d, d) or a shared (d, d)")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "entangled_pairs",
                           tuple((int(a), int(b)) for a, b in self.entangled_pairs))

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]


def entangled_cluster_spec(num_classes, dim, pair_distance=2.0, group_distance=50.0,
                           variance=1.0):
    """Build a spec where consecutive class pairs (0,1), (2,3), ... overlap.

    Each pair sits on its own coordinate axis at ``group_distance`` from the
    origin, with the two members offset by ``pair_distance`` along a second,
    pair-specific axis. Members of a pair are therefore close in both
    Euclidean and cosine terms, while different pairs are near-orthogonal.
    """
    if num_classes < 2:
        raise ParameterError("need at least two classes")
    n_groups = (num_classes + 1) // 2
    if dim < 2 * n_groups:
        raise ParameterError(f"dim must be >= {2 * n_groups} for {num_classes} classes")
    if variance <= 0:
        raise ParameterError("variance must be positive")
    means = np.zeros((num_classes, dim))
    pairs = []
    for g in range(n_groups):
        lo, hi = 2 * g, 2 * g + 1
        means[lo, g] = group_distance
        means[lo, n_groups + g] = -pair_distance / 2.0
        if hi < num_classes:
            means[hi, g] = group_distance
            means[hi, n_groups + g] = +pair_distance / 2.0
            pairs.append((lo, hi))
    cov = variance * np.eye(dim)
    return GaussianClusterSpec(means=means, covariances=cov, entangled_pairs=tuple(pairs))


def gen_entangled_gaussians(spec: GaussianClusterSpec, n: int, seed: int = 0) -> PLLDataset:
    """Sample a clean (singleton-candidate) dataset from Gaussian clusters.

    Class counts are balanced within +-1 (the first n % c classes get the
    extra sample). Raises ParameterError for non-PSD covariances or n < c.
    """
    c = spec.num_classes
    if c < 2:
        raise ParameterError("need at least two classes")
    if n < c:
        raise ParameterError("need at least one sample per class")
    chols = []
    for k in range(c):
        try:
            chols.append(np.linalg.cholesky(spec.covariances[k]))
        except np.linalg.LinAlgError as exc:
            raise ParameterError(f"covariance of class {k} is not positive definite") from exc
    counts = np.full(c, n // c)
    counts[: n % c] += 1
    rng = np.random.default_rng(seed)
    feats = []
    labels = []
    for k in range(c):
        z = rng.standard_normal((counts[k], spec.means.shape[1]))
        feats.append(spec.means[k] + z @ chols[k].T)
        labels.append(np.full(counts[k], k, dtype=np.int64))
    features = np.concatenate(feats)
    true_labels = np.concatenate(labels)
    candidates = np.zeros((n, c), dtype=bool)
    candidates[np.arange(n), true_labels] = True
    return PLLDataset(
        features,
        candidates,
        true_labels,
        num_classes=c,
        provenance={
            "generator": "entangled-gaussians",
            "seed": int(seed),
            "entangled_pairs": list(spec.entangled_pairs),
        },
    )


# ---------------------------------------------------------------------------
# Annotator


def train_annotator(dataset: PLLDataset, epochs: int, hidden_dims=(32,), lr=0.05,
                    batch_size=32, seed=0, standardize=True) -> AnnotatorPosterior:
    """Train a small classifier on the clean labels and return its posteriors.

    The annotator is an MLP trained with softmax cross-entropy and plain SGD;
    its architecture and budget are caller-visible knobs (recorded in
    provenance by the synthesis pipeline). Inputs are standardized internally
    so the budget behaves consistently across feature scales.
    """
    if not dataset.has_true_labels:
        raise ValidationError("annotator training needs true labels on every sample")
    labels = dataset.true_labels
    if dataset.num_classes < 2:
        raise ValidationError("annotator training is degenerate on a single-class label space")
    n = len(dataset)
    x = dataset.features.reshape(n, -1)
    if standardize:
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd[sd == 0] = 1.0
        x = (x - mu) / sd
    config = EncoderConfig(
        input_dims=(x.shape[1],),
        num_classes=dataset.num_classes,
        hidden_dims=tuple(hidden_dims),
        embed_dim=8,
    )
    params = init_params(config, seed=seed)
    # zero-init the posterior head so an untrained annotator is exactly uniform
    params.cls_w[:] = 0.0
    params.cls_b[:] = 0.0
    rng = np.random.default_rng([seed, 1])
    onehot = np.zeros((n, dataset.num_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            res = forward(params, x[idx])
            z = res.logits - res.logits.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            dz = (p - onehot[idx]) / idx.size
            grads, _ = backward(params, res, d_logits=dz)
            params.flat -= lr * grads.flat
    res = forward(params, x)
    z = res.logits - res.logits.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return AnnotatorPosterior(probs=p)


# ---------------------------------------------------------------------------
# Candidate synthesis


def synthesize_candidates(posteriors: AnnotatorPosterior, true_labels, tau_rate: float,
                          seed: int = 0) -> np.ndarray:
    """Sample candidate masks from annotator posteriors.

    For each sample with true label y: wrong-label posteriors are normalized
    by their maximum, converted to flip probabilities
    min(1, p'_j (C-1) / sum_{j != y} p'_j * tau_rate), and sampled
    independently. The true label is always inserted. Each sample uses its own
    counter-based stream derived from (seed, index), so results do not depend
    on evaluation order.
    """
    if tau_rate < 0:
        raise ParameterError("tau_rate must be nonnegative")
    probs = posteriors.probs
    true_labels = np.asarray(true_labels, dtype=np.int64)
    n, c = probs.shape
    if true_labels.shape != (n,):
        raise ParameterError("true_labels length does not match posterior rows")
    mask = np.zeros((n, c), dtype=bool)
    for i in range(n):
        y = int(true_labels[i])
        p = probs[i]
        wrong = np.arange(c) != y
        m = p[wrong].max()
        if m == 0.0:
            raise DegeneratePosteriorError(
                f"sample {i}: posterior mass on every wrong label is zero"
            )
        p_norm = p / m
        denom = p_norm[wrong].sum()
        p_flip = np.minimum(1.0, p_norm * (c - 1) / denom * tau_rate)
        draws = np.random.default_rng([seed, i]).random(c)
        mask[i] = wrong & (draws < p_flip)
        mask[i, y] = True
    return mask


def synthesize_dataset(clean: PLLDataset, posteriors: AnnotatorPosterior, tau_rate: float,
                       seed: int = 0, annotator_meta=None) -> PLLDataset:
    """Attach synthesized candidate sets to a clean dataset's features."""
    if len(clean) != posteriors.probs.shape[0]:
        raise ParameterError("posterior rows do not match dataset size")
    if not clean.has_true_labels:
        raise ValidationError("candidate synthesis needs true labels")
    mask = synthesize_candidates(posteriors, clean.true_labels, tau_rate, seed)
    provenance = dict(clean.provenance)
    provenance.update({
        "synthesis": "annotator-posterior-flip",
        "tau_rate": float(tau_rate),
        "synthesis_seed": int(seed),
    })
    if annotator_meta:
        provenance["annotator"] = dict(annotator_meta)
    return PLLDataset(
        clean.features,
        mask,
        clean.true_labels,
        num_classes=clean.num_classes,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Dataset file I/O


def save_dataset(dataset: PLLDataset, path) -> None:
    """Write the line-oriented text format (see module docstring)."""
    dims = ",".join(str(d) for d in dataset.feature_dims)
    lines = [f"PLLDS v1 n={len(dataset)} c={dataset.num_classes} dims={dims}"]
    flat = dataset.features.reshape(len(dataset), -1)
    for i in range(len(dataset)):
        feats = ",".join(repr(float(v)) for v in flat[i])
        bits = 0
        for j in np.flatnonzero(dataset.candidates[i]):
            bits |= 1 << int(j)
        label = int(dataset.true_labels[i])
        lines.append(f"{feats}|{bits:x}|{label if label >= 0 else '-'}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_records(path, magic: str, fields: int, what: str):
    """Header counts and records of a ``<magic> v1 n=<n> c=<c> dims=<dims>`` file.

    Returns (n, c, dims, records), each record split into its ``fields``
    |-separated fields. Errors name the offending ``what`` by its index.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValidationError("empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != magic or header[1] != "v1":
        raise ValidationError(f"malformed header: {lines[0]!r}")
    try:
        n = int(header[2].removeprefix("n="))
        c = int(header[3].removeprefix("c="))
        dims_field = header[4].removeprefix("dims=")
        dims = tuple(int(d) for d in dims_field.split(",")) if dims_field else ()
    except ValueError as exc:
        raise ValidationError(f"malformed header: {lines[0]!r}") from exc
    records = [ln.split("|") for ln in lines[1:] if ln.strip()]
    if len(records) != n:
        raise ValidationError(f"header declares n={n} but file has {len(records)} records")
    for i, parts in enumerate(records):
        if len(parts) != fields:
            raise ValidationError(f"{what} {i}: expected {fields} |-separated fields")
    return n, c, dims, records


def _parse_features(text: str, dims, where: str) -> np.ndarray:
    """A comma-separated feature field, checked for count and finiteness."""
    try:
        feats = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"{where}: bad feature value") from exc
    if feats.size != math.prod(dims):
        raise ValidationError(f"{where}: expected {math.prod(dims)} features, got {feats.size}")
    if not np.all(np.isfinite(feats)):
        raise ValidationError(f"{where}: non-finite feature value")
    return feats.reshape(dims)


def load_dataset(path) -> PLLDataset:
    """Read a dataset file, validating invariants with the offending sample index."""
    n, c, dims, records = _read_records(path, "PLLDS", 3, "sample")
    features = np.zeros((n,) + dims)
    candidates = np.zeros((n, c), dtype=bool)
    true_labels = np.full(n, -1, dtype=np.int64)
    for i, parts in enumerate(records):
        feats = _parse_features(parts[0], dims, f"sample {i}")
        try:
            bits = int(parts[1], 16)
        except ValueError as exc:
            raise ValidationError(f"sample {i}: bad candidate bitmask") from exc
        if bits <= 0:
            raise ValidationError(f"sample {i}: empty candidate set")
        if bits >> c:
            raise ValidationError(f"sample {i}: candidate bit beyond {c} classes")
        features[i] = feats
        for j in range(c):
            candidates[i, j] = bool((bits >> j) & 1)
        if parts[2] != "-":
            try:
                true_labels[i] = int(parts[2])
            except ValueError as exc:
                raise ValidationError(f"sample {i}: bad true label") from exc
    return PLLDataset(features, candidates, true_labels, num_classes=c)
