"""Partial-label dataset model, candidate synthesis, and dataset I/O.

Candidate sets are produced by an annotator-posterior flip procedure: each
wrong label's posterior is scaled by the largest wrong-label posterior, turned
into a flip probability proportional to an ambiguity rate, clipped at 1, and
sampled independently per label. The true label is always kept. The ambiguity
knob is called ``tau_rate`` here to avoid colliding with the contrastive
temperature tau.

Row i's draws are bitwise ``np.random.default_rng([seed, i]).random(c)``,
computed for every row at once on uint64 arrays: numpy's ``SeedSequence``
entropy hashing (pool size 4, ``generate_state(4, uint64)``), ``PCG64``
seeding and its 128-bit LCG step with the XSL-RR output, and
``Generator.random``'s doubles ``(x >> 11) * 2**-53``. The tests keep the
per-row ``default_rng`` loop as the oracle, so a numpy change to any of these
shows up there.

Datasets serialize to a line-oriented ASCII text format so every record can
be inspected by hand:

    PLLDS v1 n=<n> c=<c> dims=<d or h,w,ch>
    <feat0>,<feat1>,...|<candidate bitmask, hex>|<true label or ->
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# backward is unused here; perfbench/spans.py binds pllab.data.backward
from .numkernel import (EncoderConfig, ParamGrads, _indices, _integer, _real, _softmax, backward,
                        forward, init_params)

__all__ = [
    "ValidationError",
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


class ParameterError(ValueError):
    """A generator or synthesis parameter is out of range."""


# ---------------------------------------------------------------------------
# Core types


class PLLDataset:
    """A partial-label dataset backed by dense arrays.

    ``features`` is (n, *dims); ``candidates`` is an (n, c) boolean mask;
    ``true_labels`` is (n,) with -1 for held-out/unknown labels (any other
    negative label is rejected). Labels and ``num_classes`` must be integers
    (Python or numpy, not bools); anything else raises ValidationError rather
    than being truncated. Invariants: every candidate set is nonempty and
    contains the true label when present.
    """

    def __init__(self, features, candidates, true_labels=None, num_classes=None,
                 provenance=None, validate=True):
        self.features = np.asarray(features, dtype=np.float64)
        self.candidates = np.asarray(candidates, dtype=bool)
        n = self.features.shape[0]
        if true_labels is None:
            true_labels = np.full(n, -1, dtype=np.int64)
        self.true_labels = _indices(true_labels, name="true_labels", error=ValidationError,
                                    low=None)
        if num_classes is None:
            num_classes = self.candidates.shape[1]
        self.num_classes = _integer("num_classes", num_classes, ValidationError)
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
        """The samples at ``indices``, in that order; ValidationError unless they
        are a 1-D list or array of integers in [0, len(self)) (an empty list gives
        an empty dataset), so numpy never reads a bool mask or a negative index."""
        idx = _indices(indices, len(self), "indices", ValidationError, shape=(None,))
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
        finite = np.isfinite(probs).all(axis=1)
        if not finite.all():
            raise ValidationError(f"posterior row {int(np.argmin(finite))} has non-finite entries")
        if np.any(probs < 0):
            raise ValidationError("posterior has negative entries")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
            bad = int(np.argmax(np.abs(probs.sum(axis=1) - 1.0) > 1e-9))
            raise ValidationError(f"posterior row {bad} does not sum to 1")


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
        for field, values in (("means", means), ("covariances", covs)):
            finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
            if not finite.all():
                raise ParameterError(f"{field} of class {int(np.argmin(finite))} are not finite")
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
    num_classes = _integer("num_classes", num_classes, ParameterError, low=2)
    n_groups = (num_classes + 1) // 2
    dim = _integer("dim", dim, ParameterError, low=2 * n_groups)
    _real("pair_distance", pair_distance, error=ParameterError)
    _real("group_distance", group_distance, error=ParameterError)
    _real("variance", variance, 0.0, error=ParameterError, open_low=True)
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
    extra sample). Raises ParameterError for non-PSD covariances, n < c, or
    an ``n`` or ``seed`` that is not a nonnegative integer.
    """
    n = _integer("n", n, ParameterError, low=0)
    seed = _integer("seed", seed, ParameterError, low=0)
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
            "seed": seed,
            "entangled_pairs": list(spec.entangled_pairs),
        },
    )


# ---------------------------------------------------------------------------
# Annotator


ANNOTATOR_HIDDEN = 32
ANNOTATOR_LR = 0.05
ANNOTATOR_BATCH = 32


def train_annotator(dataset: PLLDataset, epochs: int, seed=0) -> AnnotatorPosterior:
    """Train a small classifier on the clean labels and return its posteriors.

    The annotator is an MLP with one hidden ReLU layer of ANNOTATOR_HIDDEN
    units, trained with softmax cross-entropy and plain SGD (ANNOTATOR_LR,
    batches of ANNOTATOR_BATCH) for ``epochs`` epochs; zero epochs give the
    uniform posterior. Inputs are standardized internally so the budget
    behaves consistently across feature scales. Each step updates the
    parameter views in place with one reused gradient buffer, op for op the
    arithmetic ``forward`` and ``backward`` run on the logits alone, so the
    posteriors are bitwise theirs. The final ``forward`` over every row is
    the finiteness check: a non-finite parameter raises NumericError there,
    not mid-loop. Raises ParameterError unless ``epochs`` and ``seed`` are
    nonnegative integers, and ValidationError on an empty dataset, missing
    true labels or a single class.
    """
    epochs = _integer("epochs", epochs, ParameterError, low=0)
    seed = _integer("seed", seed, ParameterError, low=0)
    n = len(dataset)
    if n == 0:
        raise ValidationError("annotator training needs at least one sample")
    if not dataset.has_true_labels:
        raise ValidationError("annotator training needs true labels on every sample")
    labels = dataset.true_labels
    if dataset.num_classes < 2:
        raise ValidationError("annotator training is degenerate on a single-class label space")
    x = dataset.features.reshape(n, -1)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    x = (x - mu) / sd
    config = EncoderConfig(
        input_dims=(x.shape[1],),
        num_classes=dataset.num_classes,
        hidden_dims=(ANNOTATOR_HIDDEN,),
        embed_dim=8,
    )
    params = init_params(config, seed=seed)
    # zero-init the posterior head so an untrained annotator is exactly uniform
    params.cls_w[:] = 0.0
    params.cls_b[:] = 0.0
    (w, b), = params.encoder
    grads = ParamGrads(config, np.zeros(params.flat.size))  # its projection part stays zero
    (g_w, g_b), = grads.encoder
    rng = np.random.default_rng([seed, 1])
    onehot = np.zeros((n, dataset.num_classes))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(epochs):
        order = rng.permutation(n)
        xs, ys = x[order], onehot[order]  # each batch is then a slice
        for start in range(0, n, ANNOTATOR_BATCH):
            stop = min(start + ANNOTATOR_BATCH, n)
            xb = xs[start:stop]
            h = xb @ w
            h += b
            np.maximum(h, 0.0, out=h)
            z = h @ params.cls_w
            z += params.cls_b
            z -= z.max(axis=-1, keepdims=True)  # _softmax, in place
            np.exp(z, out=z)
            z /= z.sum(axis=-1, keepdims=True)
            z -= ys[start:stop]
            z /= stop - start
            d_h = z @ params.cls_w.T
            np.matmul(h.T, z, out=grads.cls_w)
            z.sum(axis=0, out=grads.cls_b)
            d_h *= h > 0.0  # relu(pre) > 0 exactly where pre > 0
            np.matmul(xb.T, d_h, out=g_w)
            d_h.sum(axis=0, out=g_b)
            params.flat -= ANNOTATOR_LR * grads.flat
    return AnnotatorPosterior(probs=_softmax(forward(params, x).logits))


# ---------------------------------------------------------------------------
# Candidate synthesis

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * _PCG_MULT + inc mod 2**128, on the uint64
    (hi, lo) halves of every row's state; uint64 products wrap mod 2**64."""
    # high half of the 128-bit product lo * _PCG_MULT_LO, from 32-bit limbs
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
          + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi)
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _seeded_pcg64(seed: int, n: int):
    """(hi, lo, inc_hi, inc_lo) uint64 halves of the PCG64 state and increment
    that ``np.random.default_rng([seed, i])`` starts from, for every row
    i < n at once (i < 2**32, so each row index is one entropy word).

    Runs numpy's ``SeedSequence`` mixing and ``generate_state(4, uint64)`` on
    uint64 arrays that hold 32-bit words, then PCG64's seeding steps.
    """
    # entropy words: the seed's 32-bit words, low first (0 is one word), then i
    entropy = [np.full(n, (seed >> 32 * k) & _M32, dtype=np.uint64)
               for k in range(max(1, (seed.bit_length() + 31) // 32))]
    entropy.append(np.arange(n, dtype=np.uint64))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ (value >> 16)

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired low word first
    hash_const = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ (value >> 16))
    init_hi, init_lo, seq_hi, seq_lo = (state[2 * k] | (state[2 * k + 1] << 32) for k in range(4))
    # PCG64 seeding: inc = (initseq << 1) | 1; state = 0, step, += initstate, step
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    lo = init_lo + inc_lo
    return (*_pcg_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _per_sample_uniforms(seed: int, n: int, c: int) -> np.ndarray:
    """(n, c) float64 whose row i is ``np.random.default_rng([seed, i]).random(c)``
    bit for bit, for rows i < 2**32: ``c`` PCG64 steps with the XSL-RR output
    on every row at once."""
    hi, lo, inc_hi, inc_lo = _seeded_pcg64(seed, n)
    out = np.empty((n, c))
    for k in range(c):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, k] = (x >> 11) * 2.0 ** -53
    return out


def synthesize_candidates(posteriors: AnnotatorPosterior, true_labels, tau_rate: float,
                          seed: int = 0) -> np.ndarray:
    """Sample candidate masks from annotator posteriors.

    For each sample with true label y: wrong-label posteriors are normalized
    by their maximum, converted to flip probabilities
    min(1, p'_j (C-1) / sum_{j != y} p'_j * tau_rate), and sampled
    independently. The true label is always inserted. Each row's max and sum
    run over its wrong labels gathered as one row of an (n, c - 1) block, in
    the order a per-row loop would reduce them.

    Stream contract: row i compares its flip probabilities against
    ``np.random.default_rng([seed, i]).random(c)``, bit for bit, for every
    row i < 2**32. A row's draws depend only on (seed, i), not on n or on
    evaluation order. ``tau_rate`` must be a finite nonnegative number,
    ``seed`` a nonnegative integer and ``true_labels`` integers in [0, c);
    anything else raises ParameterError.
    """
    _real("tau_rate", tau_rate, 0.0, error=ParameterError)
    seed = _integer("seed", seed, ParameterError, low=0)
    probs = posteriors.probs
    n, c = probs.shape
    true_labels = _indices(true_labels, c, "true_labels", ParameterError, shape=(n,))
    wrong = np.arange(c) != true_labels[:, None]
    m = probs[wrong].reshape(n, c - 1).max(axis=1, initial=0.0)
    degenerate = np.flatnonzero(m == 0.0)
    if degenerate.size:
        raise ValidationError(
            f"sample {degenerate[0]}: posterior mass on every wrong label is zero"
        )
    p_norm = probs / m[:, None]
    denom = p_norm[wrong].reshape(n, c - 1).sum(axis=1)
    p_flip = np.minimum(1.0, p_norm * (c - 1) / denom[:, None] * tau_rate)
    return ~wrong | (_per_sample_uniforms(seed, n, c) < p_flip)


def synthesize_dataset(clean: PLLDataset, posteriors: AnnotatorPosterior, tau_rate: float,
                       seed: int = 0) -> PLLDataset:
    """Attach synthesized candidate sets to a clean dataset's features."""
    if not clean.has_true_labels:
        raise ValidationError("candidate synthesis needs true labels")
    mask = synthesize_candidates(posteriors, clean.true_labels, tau_rate, seed)
    provenance = dict(clean.provenance)
    provenance.update({
        "synthesis": "annotator-posterior-flip",
        "tau_rate": float(tau_rate),
        "synthesis_seed": int(seed),
    })
    return PLLDataset(
        clean.features,
        mask,
        clean.true_labels,
        num_classes=clean.num_classes,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Dataset file I/O

MAX_DATASET_BYTES = 1 << 34  # largest features + candidate arrays a file may declare


def save_dataset(dataset: PLLDataset, path) -> None:
    """Write the line-oriented text format (see module docstring)."""
    dims = ",".join(str(d) for d in dataset.feature_dims)
    lines = [f"PLLDS v1 n={len(dataset)} c={dataset.num_classes} dims={dims}"]
    flat = dataset.features.reshape(len(dataset), math.prod(dataset.feature_dims))
    for i in range(len(dataset)):
        feats = ",".join(repr(float(v)) for v in flat[i])
        bits = sum(1 << int(j) for j in np.flatnonzero(dataset.candidates[i]))
        label = int(dataset.true_labels[i])
        lines.append(f"{feats}|{bits:x}|{label if label >= 0 else '-'}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _plain(text: str) -> str:
    """``text``; ValueError on literal syntax that ``int`` and ``float`` take
    but the format never writes: a ``_`` separator or a ``0x`` prefix."""
    if "_" in text or "x" in text.lower():
        raise ValueError(f"{text!r} is not a plain number")
    return text


def _read_records(path):
    """Header counts and records of a dataset file.

    Returns (n, c, dims, records), each record split at "|". Errors name the
    offending sample by its index.
    """
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not an ASCII dataset file: {exc}") from exc
    if not lines:
        raise ValidationError("empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "PLLDS" or header[1] != "v1":
        raise ValidationError(f"malformed header: {lines[0]!r}")
    try:
        n = int(_plain(header[2].removeprefix("n=")))
        c = int(_plain(header[3].removeprefix("c=")))
        dims_field = _plain(header[4].removeprefix("dims="))
        dims = tuple(int(d) for d in dims_field.split(",")) if dims_field else ()
    except ValueError as exc:
        raise ValidationError(f"malformed header: {lines[0]!r}") from exc
    if min((n, c) + dims) < 0:
        raise ValidationError(f"malformed header: negative count in {lines[0]!r}")
    if len(dims) not in (1, 3) or 0 in dims:
        raise ValidationError(f"malformed header: dims must be d or h,w,ch with every entry "
                              f">= 1 in {lines[0]!r}")
    row_bytes = 8 * math.prod(dims) + c  # float64 features plus one byte per candidate flag
    if max(n, 1) * row_bytes > MAX_DATASET_BYTES:  # n=0 still gives numpy the row shape
        raise ValidationError(f"header declares {n} samples of {row_bytes} bytes each, "
                              f"over the {MAX_DATASET_BYTES}-byte limit")
    records = [ln.split("|") for ln in lines[1:] if ln.strip()]
    if len(records) != n:
        raise ValidationError(f"header declares n={n} but file has {len(records)} records")
    return n, c, dims, records


def _parse_features(text: str, dims, where: str) -> np.ndarray:
    """A comma-separated feature field, checked for count and finiteness."""
    try:
        feats = np.array([float(v) for v in _plain(text).split(",")])
    except ValueError as exc:
        raise ValidationError(f"{where}: bad feature value") from exc
    if feats.size != math.prod(dims):
        raise ValidationError(f"{where}: expected {math.prod(dims)} features, got {feats.size}")
    if not np.all(np.isfinite(feats)):
        raise ValidationError(f"{where}: non-finite feature value")
    return feats.reshape(dims)


def load_dataset(path) -> PLLDataset:
    """Read a dataset file, checking every record before any array is allocated."""
    n, c, dims, records = _read_records(path)
    features, rows, cols = [], [], []
    true_labels = np.full(n, -1, dtype=np.int64)
    for i, parts in enumerate(records):
        if len(parts) != 3:
            raise ValidationError(f"sample {i}: expected 3 |-separated fields")
        features.append(_parse_features(parts[0], dims, f"sample {i}"))
        try:
            bits = int(_plain(parts[1]), 16)
        except ValueError as exc:
            raise ValidationError(f"sample {i}: bad candidate bitmask") from exc
        if bits <= 0:
            raise ValidationError(f"sample {i}: empty candidate set")
        if bits >> c:
            raise ValidationError(f"sample {i}: candidate bit beyond {c} classes")
        set_bits = [j for j, bit in enumerate(reversed(f"{bits:b}")) if bit == "1"]
        rows += [i] * len(set_bits)
        cols += set_bits
        if parts[2] != "-":
            try:
                true_labels[i] = int(_plain(parts[2]))
            except (ValueError, OverflowError) as exc:
                raise ValidationError(f"sample {i}: bad true label") from exc
    candidates = np.zeros((n, c), dtype=bool)
    candidates[rows, cols] = True
    return PLLDataset(np.reshape(features, (n,) + dims), candidates, true_labels, num_classes=c)
