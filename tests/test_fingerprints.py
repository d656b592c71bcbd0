"""Bit-for-bit pins of three tiny seeded training runs.

Each run digests, with sha256, the query and key parameter vectors (``flat``)
and every epoch's losses and accuracies. A change meant to keep training bit
for bit must leave the three digests as they are; one that means to change
the numbers updates them and says why. The runs cover the paths a full CAD
run takes: flat CAD (saliency masks, contrastive loss, bank), flat ``no_rl``
(the plain weighted cross-entropy loop) and grid CAD (conv encoder, class
activation maps and the grid blur).

The digests are of float64 bits on one BLAS thread (``conftest.py`` pins
it); another BLAS build may round a product apart and read other digests.
"""

import hashlib

import numpy as np
import pytest

from pllab.data import (
    PLLDataset,
    entangled_cluster_spec,
    gen_entangled_gaussians,
    synthesize_dataset,
    train_annotator,
)
from pllab.trainer import TrainConfig, train


def _dataset(n, seed, grid_side=None):
    spec = entangled_cluster_spec(4, 6, pair_distance=2.0, group_distance=6.0)
    clean = gen_entangled_gaussians(spec, n, seed=seed)
    ds = synthesize_dataset(clean, train_annotator(clean, epochs=5, seed=seed),
                            tau_rate=1.0, seed=seed)
    if grid_side is None:
        return ds
    # each 6-vector broadcast over a side x side grid, plus pixel noise
    noise = np.random.default_rng([seed, 2]).normal(
        scale=0.3, size=(n, grid_side, grid_side, 6))
    return PLLDataset(ds.features[:, None, None, :] + noise, ds.candidates,
                      ds.true_labels, num_classes=ds.num_classes)


def _digest(pair, history) -> str:
    h = hashlib.sha256(pair.query.flat.tobytes() + pair.key.flat.tobytes())
    rows = [(e.discls_loss, e.contrastive_loss, e.total_loss,
             -1.0 if e.train_acc is None else e.train_acc,
             -1.0 if e.test_acc is None else e.test_acc) for e in history]
    h.update(np.asarray(rows, dtype=np.float64).tobytes())
    return h.hexdigest()


RUNS = {
    "flat-cad": (
        None,
        dict(epochs=4, warmup_epochs=1, refresh_period=1, hidden_dims=(16,), lr=0.05),
        "732cc781b941894ebf6638a60dcb9f65da79c269d1eb82ed7b0321f1876f0b03",
    ),
    "flat-no-rl": (
        None,
        dict(epochs=8, no_rl=True, hidden_dims=(16,), lr=0.05),
        "f5d27bf64c733da353db0cc18dcc3e4369a516cb63aa4f6ac2dc24f1df4bdb9f",
    ),
    "grid-cad": (
        6,
        dict(epochs=3, warmup_epochs=1, refresh_period=1, hidden_dims=(4, 8), lr=0.05),
        "004f4ab57944fb3b56c5cbf8cd0146ad0741f73ca5c17062c6031e3a39bed741",
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_training_is_bit_for_bit(name):
    grid_side, kwargs, expected = RUNS[name]
    train_ds = _dataset(160, seed=11, grid_side=grid_side)
    test_ds = _dataset(48, seed=12, grid_side=grid_side)
    config = TrainConfig(batch_size=16, embed_dim=8, queue_capacity=64, seed=5, **kwargs)
    pair, history = train(train_ds, config, test_ds)
    assert _digest(pair, history) == expected
