"""Training loop: warm-up, periodic augmentation refresh, momentum-updated
key side, FIFO key/confidence queues, and the ablation variants.

Per batch the query side is updated by SGD (momentum 0.9, cosine-decayed
learning rate, optional weight decay) on the combined objective, the key side
is moved toward it by an exponential moving average, and the batch's key
embeddings, confidence logits, and guiding labels are appended to a
fixed-capacity FIFO bank. Warm-up epochs train with the confidence-weighted
cross-entropy objective alone; augmentations are generated at the end of
warm-up and refreshed on a configurable period.

Ablation flags: ``no_rl`` bypasses the augmentation/contrastive machinery
entirely; ``no_ca`` replaces the normalized confidences with uniform
within-set weights. Both together reduce the loop to a plain weighted
cross-entropy trainer under self-distillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugmentConfig, refresh_augmentations
from .data import PLLDataset
from .evalkit import predict
from .losses import LossConfig, batch_total_loss
from .numkernel import BackboneParams, EncoderConfig, NumericError, init_params

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

ABLATION_VARIANTS = ("CAD", "w/o CA", "w/o RL", "w/o Both")


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
    """Fixed-capacity FIFO of (key embedding, confidence logits, label).

    Three ring arrays of ``capacity`` rows (allocated on the first push, when
    the row widths are known) share one push counter, so the key and
    confidence sides stay index-aligned by construction; eviction is strictly
    oldest-first. Row ``pushes % capacity`` is the next one overwritten.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._keys = self._logits = self._labels = None
        self._pushes = 0

    def __len__(self) -> int:
        return min(self._pushes, self.capacity)

    def push(self, keys, logits, labels) -> None:
        keys = np.asarray(keys, dtype=np.float64)
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels)
        count = keys.shape[0]
        if not (count == logits.shape[0] == labels.shape[0]):
            raise ValueError("keys, logits, and labels must have aligned lengths")
        if count == 0:
            return
        if self._keys is None:
            self._keys = np.empty((self.capacity,) + keys.shape[1:])
            self._logits = np.empty((self.capacity,) + logits.shape[1:])
            self._labels = np.empty(self.capacity, dtype=np.int64)
        # only the newest `capacity` rows of an oversized push survive
        keep = min(count, self.capacity)
        slots = np.arange(self._pushes + count - keep, self._pushes + count) % self.capacity
        self._keys[slots] = keys[count - keep :]
        self._logits[slots] = logits[count - keep :]
        self._labels[slots] = labels[count - keep :]
        self._pushes += count

    def age(self, position: int) -> int:
        """Pushes since the entry at FIFO ``position`` (0 = oldest) was inserted."""
        if not 0 <= position < len(self):
            raise IndexError(f"bank position {position} out of range for {len(self)} entries")
        return len(self) - 1 - position

    def as_arrays(self):
        """(keys, logits, labels) triple in FIFO order, or None when empty."""
        if not len(self):
            return None
        slots = np.arange(self._pushes - len(self), self._pushes) % self.capacity
        return self._keys[slots], self._logits[slots], self._labels[slots]


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
    hidden_dims: tuple | None = None  # None -> (32,) for flat inputs, (32, 32) for grids
    embed_dim: int = 32
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.resolved_warmup > self.epochs:
            raise ValueError("warm-up cannot exceed the epoch budget")
        if self.resolved_refresh < 1:
            raise ValueError("refresh period must be at least 1")

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

    @property
    def representation_active(self) -> bool:
        return not self.no_rl and self.loss.beta > 0.0


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    discls_loss: float
    contrastive_loss: float
    total_loss: float
    train_acc: float
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
                repr(h.total_loss), repr(h.train_acc),
                "" if h.test_acc is None else repr(h.test_acc),
            ])


# ---------------------------------------------------------------------------
# Training


def _accuracy(params: BackboneParams, dataset: PLLDataset) -> float:
    preds = predict(params, dataset.features)
    return float(np.mean(preds == dataset.true_labels))


def train(dataset: PLLDataset, config: TrainConfig, test_dataset: PLLDataset | None = None):
    """Run the full loop and return (ModelPair, list of EpochStats).

    Deterministic given (config.seed, single-threaded execution): parameter
    init and batch shuffling are the only stochastic elements and both draw
    from streams derived from the seed.
    """
    n = len(dataset)
    dims = dataset.feature_dims
    hidden_dims = config.hidden_dims
    if hidden_dims is None:
        hidden_dims = (32, 32) if len(dims) == 3 else (32,)
    enc_config = EncoderConfig(
        input_dims=dims,
        num_classes=dataset.num_classes,
        hidden_dims=tuple(hidden_dims),
        embed_dim=config.embed_dim,
    )
    pair = ModelPair.initialize(enc_config, seed=config.seed, momentum=config.momentum)
    history: list[EpochStats] = []
    if config.epochs == 0:
        return pair, history

    shuffle_rng = np.random.default_rng([config.seed, 1])
    bank = ContrastBank(config.queue_capacity)
    velocity = np.zeros_like(pair.query.flat)
    warmup = config.resolved_warmup
    refresh = config.resolved_refresh
    rl_active = config.representation_active
    warmup_loss = replace(config.loss, surrogate="cross-entropy", beta=0.0)

    aset = None
    x_all = dataset.features
    cand_all = dataset.candidates

    for epoch in range(config.epochs):
        in_warmup = epoch < warmup
        if rl_active and not in_warmup and (epoch - warmup) % refresh == 0:
            aset = refresh_augmentations(dataset, pair.query, config.augment)
        lr_t = config.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))
        order = shuffle_rng.permutation(n)
        d_sum = c_sum = t_sum = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if in_warmup or not rl_active:
                augs = None
                loss_cfg = warmup_loss if in_warmup else replace(config.loss, beta=0.0)
            else:
                # the batch's augmentation rows in batch order; a stable sort
                # keeps each sample's rows in the set's label order
                batch_pos = np.full(n, -1)
                batch_pos[idx] = np.arange(idx.size)
                owner = batch_pos[aset.parents]
                rows = np.flatnonzero(owner >= 0)
                rows = rows[np.argsort(owner[rows], kind="stable")]
                augs = (aset.samples[rows], owner[rows], aset.labels[rows])
                loss_cfg = config.loss
            try:
                result = batch_total_loss(
                    x_all[idx], cand_all[idx], augs, pair,
                    bank.as_arrays(), loss_cfg, uniform_confidence=config.no_ca,
                )
            except NumericError as exc:
                raise TrainingDivergedError(epoch, batches) from exc
            if not np.isfinite(result.loss):
                raise TrainingDivergedError(epoch, batches)
            theta = pair.query.flat
            velocity = (config.sgd_momentum * velocity + result.grads.flat
                        + config.weight_decay * theta)
            theta -= lr_t * velocity
            momentum_update(pair)
            if rl_active and not in_warmup and result.aug_keys is not None:
                bank.push(result.aug_keys, result.aug_key_logits, result.aug_labels)
            d_sum += result.discls_part
            c_sum += result.contrastive_part
            t_sum += result.loss
            batches += 1
        history.append(EpochStats(
            epoch=epoch,
            discls_loss=d_sum / batches,
            contrastive_loss=c_sum / batches,
            total_loss=t_sum / batches,
            train_acc=_accuracy(pair.query, dataset),
            test_acc=_accuracy(pair.query, test_dataset) if test_dataset is not None else None,
        ))
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

    Flags are OR-ed onto the base config, so a base config that already
    disables a component collapses the corresponding variants.
    """
    eval_set = test_dataset if test_dataset is not None else dataset
    rows = []
    flag_map = {
        "CAD": (False, False),
        "w/o CA": (True, False),
        "w/o RL": (False, True),
        "w/o Both": (True, True),
    }
    for variant in ABLATION_VARIANTS:
        extra_ca, extra_rl = flag_map[variant]
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
