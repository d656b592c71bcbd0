"""Entangled-pair detection.

Two samples are entangled when (a) their true classes differ, (b) each
candidate set contains both true labels, and (c) their embeddings' cosine
similarity reaches a threshold.

Both selectors return ``(pairs, sims)``: ``pairs`` is a (k, 2) int64 array of
sample indices with ``pairs[:, 0] < pairs[:, 1]``, and ``sims`` is the (k,)
float64 cosine similarity of each pair. Rows are ordered by (similarity desc,
i asc, j asc), so ratio truncation is reproducible and ``sims[-1]`` is the
smallest similarity kept. k == 0 means no pair qualifies.
"""

from __future__ import annotations

import math

import numpy as np

from .data import PLLDataset

__all__ = [
    "RequiresGroundTruthError",
    "cosine_similarities",
    "find_entangled",
    "top_fraction_pairs",
]


class RequiresGroundTruthError(ValueError):
    """Entanglement detection needs true labels on every sample."""


def cosine_similarities(embeddings: np.ndarray) -> np.ndarray:
    """Full pairwise cosine matrix; zero-norm rows get similarity 0."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = emb / safe
    return unit @ unit.T


def _similarities_and_mask(embeddings, dataset: PLLDataset):
    """The cosine matrix and the upper-triangular mask of pairs meeting the
    class and label conjuncts."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != len(dataset):
        raise ValueError("need exactly one embedding per sample")
    if not dataset.has_true_labels:
        raise RequiresGroundTruthError("dataset has samples without true labels")
    labels = dataset.true_labels
    cand = dataset.candidates
    own = cand[np.arange(len(dataset)), labels]  # always true for a valid dataset
    cross = cand[:, labels]  # cross[i, j] = (y_j in S_i)
    mutual = own[:, None] & own[None, :] & cross & cross.T
    differ = labels[:, None] != labels[None, :]
    return cosine_similarities(emb), np.triu(mutual & differ, k=1)


def _sorted_pairs(ii, jj, sims, keep=None):
    """The first ``keep`` (all if None) pairs by (similarity desc, i asc, j asc)."""
    order = np.lexsort((jj, ii, -sims))[:keep]
    return np.column_stack((ii[order], jj[order])).astype(np.int64), sims[order]


def find_entangled(embeddings, dataset: PLLDataset, xi: float):
    """All pairs satisfying the three entanglement conjuncts at threshold xi."""
    if not (-1.0 < xi <= 1.0):
        raise ValueError(f"xi must lie in (-1, 1], got {xi}")
    sim, mask = _similarities_and_mask(embeddings, dataset)
    ii, jj = np.nonzero(mask & (sim >= xi))
    return _sorted_pairs(ii, jj, sim[ii, jj])


def top_fraction_pairs(embeddings, dataset: PLLDataset, ratio: float):
    """The ceil(ratio * P) most similar pairs among the P class/label-qualifying ones.

    Only the pairs at or above the keep-th largest similarity are sorted, so
    ties at the cut resolve by (i, j) as in the full ordering.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    sim, mask = _similarities_and_mask(embeddings, dataset)
    ii, jj = np.nonzero(mask)
    sims = sim[ii, jj]
    keep = math.ceil(ratio * sims.size)
    if keep:
        cut = np.partition(sims, sims.size - keep)[sims.size - keep]
        top = np.flatnonzero(sims >= cut)
        ii, jj, sims = ii[top], jj[top], sims[top]
    return _sorted_pairs(ii, jj, sims, keep)
