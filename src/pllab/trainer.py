"""Training loop: warm-up, periodic augmentation refresh, momentum-updated
key side, a FIFO key/confidence bank, and the ablation variants.

Per batch the query side is updated by SGD (momentum 0.9, cosine-decayed
learning rate, optional weight decay) on the combined objective, the key side
is moved toward it by an exponential moving average, and the batch's key
embeddings, confidence logits, and guiding labels are appended to a
fixed-capacity FIFO bank. Warm-up epochs train with the confidence-weighted
cross-entropy objective alone; augmentations are generated at the end of
warm-up and refreshed on a configurable period. A refresh keeps each
augmentation's mask, and a batch blur-mixes its own rows when it draws them.

Each epoch's batches and its accuracy evaluation form one divergence
boundary: a non-finite loss, or a NumericError from any forward inside it,
raises TrainingDivergedError with the epoch and batch. The evaluation is
inside because it is the first forward to read the last batch's step; an
epoch with nothing to evaluate runs the query forward on its last batch
instead.

Ablation flags: ``no_rl`` bypasses the augmentation/contrastive machinery
entirely; ``no_ca`` replaces the normalized confidences with uniform
within-set weights, the confidences of constant logits, so the key side is
not run on the raw instances. Both together reduce the loop to a plain
weighted cross-entropy trainer under self-distillation.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugmentConfig, refresh_augmentations
from .data import PLLDataset
from .evalkit import predict
from .losses import LossConfig, _check_contrast_rows, batch_total_loss
from .numkernel import BackboneParams, EncoderConfig, NumericError, forward, init_params

__all__ = [
    "TrainingDivergedError",
    "ModelPair",
    "ContrastBank",
    "TrainConfig",
    "EpochStats",
    "momentum_update",
    "train",
    "ablation_suite",
    "AblationRow",
    "save_history_csv",
]

# variant name -> (no_ca, no_rl) flags it sets
ABLATION_VARIANTS = {
    "CAD": (False, False),
    "w/o CA": (True, False),
    "w/o RL": (False, True),
    "w/o Both": (True, True),
}


class TrainingDivergedError(RuntimeError):
    """Non-finite loss; carries the epoch and batch where it happened."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# ---------------------------------------------------------------------------
# Model pair and momentum update


@dataclass
class ModelPair:
    """Gradient-trained query side plus its momentum-copied key side."""

    query: BackboneParams
    key: BackboneParams
    momentum: float = 0.99

    def __post_init__(self):
        if not (0.0 <= self.momentum <= 1.0):
            raise ValueError("momentum must lie in [0, 1]")
        q_shapes = [(n, a.shape) for n, a in self.query.tensors()]
        k_shapes = [(n, a.shape) for n, a in self.key.tensors()]
        if q_shapes != k_shapes:
            raise ValueError("query and key parameter shapes differ")

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int = 0, momentum: float = 0.99
                   ) -> "ModelPair":
        query = init_params(config, seed=seed)
        return cls(query=query, key=query.copy(), momentum=momentum)


def momentum_update(pair: ModelPair) -> BackboneParams:
    """key <- m * key + (1 - m) * query, elementwise; query untouched."""
    m = pair.momentum
    pair.key.flat *= m
    pair.key.flat += (1.0 - m) * pair.query.flat
    return pair.key


# ---------------------------------------------------------------------------
# FIFO bank


class ContrastBank:
    """Fixed-capacity FIFO of (key embedding, confidence logits, label) rows.

    The contents are one (keys, logits, labels) triple of arrays, oldest row
    first, so the key and confidence sides stay index-aligned by
    construction. A push drops the oldest rows it evicts and appends its own,
    keeping the newest ``capacity``; it builds new arrays, so a triple
    returned earlier never changes.
    """

    def __init__(self, capacity: int):
        try:
            capacity = operator.index(capacity)
        except TypeError:
            raise ValueError(f"capacity must be an integer, got {capacity!r}") from None
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._arrays = None

    def __len__(self) -> int:
        return 0 if self._arrays is None else len(self._arrays[2])

    def push(self, keys, logits, labels) -> None:
        """Append rows; ValueError unless they are rows a ContrastBatch accepts
        as keys (unit-norm, one logit row and one nonnegative integer label
        each) of the stored rows' widths."""
        keys = np.asarray(keys, dtype=np.float64)
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        for i, (name, a) in enumerate((("keys", keys), ("logits", logits))):
            if a.ndim != 2:
                raise ValueError(f"{name} must be 2-D, one row per entry")
            if self._arrays is not None and a.shape[1] != self._arrays[i].shape[1]:
                raise ValueError(f"{name} of width {a.shape[1]} do not match the stored "
                                 f"rows' width {self._arrays[i].shape[1]}")
        _check_contrast_rows("key", keys, labels, logits)
        if len(keys) == 0:
            return
        old = self._arrays or (keys[:0], logits[:0], np.empty(0, dtype=np.int64))
        drop = len(self) + len(keys) - self.capacity  # oldest rows this push evicts
        self._arrays = tuple(np.concatenate([a[max(drop, 0):], b])[-self.capacity :]
                             for a, b in zip(old, (keys, logits, labels)))

    def as_arrays(self):
        """(keys, logits, labels) triple in FIFO order, or None when empty."""
        return self._arrays


# ---------------------------------------------------------------------------
# Configuration and history


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 0.01
    weight_decay: float = 0.001
    sgd_momentum: float = 0.9
    warmup_epochs: int | None = None  # None -> 10% of epochs
    refresh_period: int | None = None  # None -> 10% of epochs, floor 1
    momentum: float = 0.99  # key-side EMA coefficient
    queue_capacity: int = 1024
    no_rl: bool = False
    no_ca: bool = False
    seed: int = 0
    hidden_dims: tuple | None = None  # None -> EncoderConfig's default widths
    embed_dim: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "warmup_epochs", "refresh_period",
                     "queue_capacity", "seed"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and nonnegative")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and nonnegative")
        if not 0.0 <= self.sgd_momentum < 1.0:
            raise ValueError("sgd_momentum must lie in [0, 1)")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError("momentum must lie in [0, 1]")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # the encoder's own width rules; they raise DimensionError naming the field
        EncoderConfig(input_dims=(1,), num_classes=2, hidden_dims=self.hidden_dims,
                      embed_dim=self.embed_dim)
        if self.warmup_epochs is not None and self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be nonnegative")
        if self.resolved_warmup > self.epochs:
            raise ValueError("warmup_epochs cannot exceed the epoch budget")
        if self.resolved_refresh < 1:
            raise ValueError("refresh_period must be at least 1")

    @property
    def resolved_warmup(self) -> int:
        if self.warmup_epochs is not None:
            return self.warmup_epochs
        return int(round(0.1 * self.epochs))

    @property
    def resolved_refresh(self) -> int:
        if self.refresh_period is not None:
            return self.refresh_period
        return max(1, int(round(0.1 * self.epochs)))


@dataclass(frozen=True)
class EpochStats:
    """One epoch's mean batch losses and the query model's accuracies after it.

    ``train_acc`` is None when the training set lacks true labels (the usual
    partial-label case); ``test_acc`` is None when no test set was given.
    """

    epoch: int
    discls_loss: float
    contrastive_loss: float
    total_loss: float
    train_acc: float | None
    test_acc: float | None


def save_history_csv(history, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "discls_loss", "contrastive_loss", "total_loss",
                         "train_acc", "test_acc"])
        for h in history:
            writer.writerow([
                h.epoch, repr(h.discls_loss), repr(h.contrastive_loss),
                repr(h.total_loss), "" if h.train_acc is None else repr(h.train_acc),
                "" if h.test_acc is None else repr(h.test_acc),
            ])


# ---------------------------------------------------------------------------
# Training


def _accuracy(params: BackboneParams, dataset: PLLDataset) -> float:
    preds = predict(params, dataset.features)
    return float(np.mean(preds == dataset.true_labels))


def train(dataset: PLLDataset, config: TrainConfig, test_dataset: PLLDataset | None = None):
    """Run the full loop and return (ModelPair, list of EpochStats).

    Bit-deterministic for a fixed seed and BLAS thread count: parameter init
    and batch shuffling are the only stochastic elements and both draw from
    streams derived from the seed. Raises ValueError before any training on
    an empty training set, or on a ``test_dataset`` that is empty, lacks a
    true label or differs in feature dims or class count. Raises
    TrainingDivergedError(epoch, batch) on a non-finite batch loss or a
    NumericError in the epoch's batches or its evaluation; a divergence
    first seen by the evaluation (or, when there is nothing to evaluate, by
    a forward on the last batch) names the epoch's last batch, whose step
    wrote the parameters.
    """
    n = len(dataset)
    dims = dataset.feature_dims
    if n == 0:
        raise ValueError("training set is empty")
    if test_dataset is not None:
        if (test_dataset.feature_dims, test_dataset.num_classes) != (dims, dataset.num_classes):
            raise ValueError(
                f"test set has feature dims {test_dataset.feature_dims} and "
                f"{test_dataset.num_classes} classes, the training set {dims} and "
                f"{dataset.num_classes}")
        if len(test_dataset) == 0 or not test_dataset.has_true_labels:
            raise ValueError("test set needs a true label on every sample")
    enc_config = EncoderConfig(
        input_dims=dims,
        num_classes=dataset.num_classes,
        hidden_dims=config.hidden_dims,
        embed_dim=config.embed_dim,
    )
    pair = ModelPair.initialize(enc_config, seed=config.seed, momentum=config.momentum)
    history: list[EpochStats] = []
    shuffle_rng = np.random.default_rng([config.seed, 1])
    bank = ContrastBank(config.queue_capacity)
    velocity = np.zeros_like(pair.query.flat)
    warmup = config.resolved_warmup
    aset = None  # the stored augmentation set; None until the first refresh after warm-up

    for epoch in range(config.epochs):
        if (not config.no_rl and config.loss.beta > 0.0 and epoch >= warmup
                and (epoch - warmup) % config.resolved_refresh == 0):
            aset = None  # frees the previous set before the next one is built
            aset = refresh_augmentations(dataset, pair.query, config.augment)
        lr_t = config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        order = shuffle_rng.permutation(n)
        parts = []  # (discls, contrastive, total) per batch
        try:
            for b, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start : start + config.batch_size]
                result = batch_total_loss(
                    dataset.features[idx], dataset.candidates[idx],
                    None if aset is None else aset.rows_of(idx), pair,
                    bank.as_arrays(), config.loss, uniform_confidence=config.no_ca,
                )
                # finite parts can still overflow their sum under a huge beta
                if not np.isfinite(result.loss):
                    raise NumericError("non-finite batch loss")
                theta = pair.query.flat
                velocity *= config.sgd_momentum
                velocity += result.grads.flat
                velocity += config.weight_decay * theta
                theta -= lr_t * velocity
                momentum_update(pair)
                if result.bank_rows is not None:
                    bank.push(*result.bank_rows)
                parts.append((result.discls_part, result.contrastive_part, result.loss))
            train_acc = _accuracy(pair.query, dataset) if dataset.has_true_labels else None
            test_acc = _accuracy(pair.query, test_dataset) if test_dataset is not None else None
            if train_acc is None and test_acc is None:
                forward(pair.query, dataset.features[idx])  # reads the last step
            means = [sum(p) / len(parts) for p in zip(*parts)]
            history.append(EpochStats(epoch, *means, train_acc, test_acc))
        except NumericError as exc:
            raise TrainingDivergedError(epoch, b) from exc
    return pair, history


# ---------------------------------------------------------------------------
# Ablations


@dataclass(frozen=True)
class AblationRow:
    variant: str
    accuracies: tuple
    mean: float
    std: float


def ablation_suite(dataset: PLLDataset, config: TrainConfig,
                   test_dataset: PLLDataset | None = None, seeds=(0, 1, 2, 3, 4)):
    """Run {CAD, w/o CA, w/o RL, w/o Both} over the seeds; mean and std rows.

    Each accuracy is on ``test_dataset``, or on ``dataset`` without one;
    raises ValueError before any training unless ``seeds`` is nonempty and
    that set has a true label on every sample. Flags are OR-ed onto the base
    config, so a base config that already disables a component collapses the
    corresponding variants.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("ablation_suite needs at least one seed")
    eval_set = test_dataset if test_dataset is not None else dataset
    if not eval_set.has_true_labels:
        raise ValueError("ablation accuracies need a true label on every evaluation sample")
    rows = []
    for variant, (extra_ca, extra_rl) in ABLATION_VARIANTS.items():
        accs = []
        for seed in seeds:
            cfg = replace(config, seed=seed,
                          no_ca=config.no_ca or extra_ca,
                          no_rl=config.no_rl or extra_rl)
            pair, _ = train(dataset, cfg, test_dataset)
            accs.append(_accuracy(pair.query, eval_set))
        accs_t = tuple(accs)
        rows.append(AblationRow(
            variant=variant,
            accuracies=accs_t,
            mean=float(np.mean(accs_t)),
            std=float(np.std(accs_t)),
        ))
    return rows
