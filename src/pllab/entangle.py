"""Entangled-pair detection and audit statistics.

Two samples are entangled when (a) their true classes differ, (b) each
candidate set contains both true labels, and (c) their embeddings' cosine
similarity reaches a threshold. Pairs are canonicalized i < j and ordered by
(similarity desc, i asc, j asc) so ratio truncation is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PLLDataset

__all__ = [
    "RequiresGroundTruthError",
    "EntangledPair",
    "cosine_similarities",
    "find_entangled",
    "top_fraction_pairs",
]


class RequiresGroundTruthError(ValueError):
    """Entanglement detection needs true labels on every sample."""


@dataclass(frozen=True)
class EntangledPair:
    """An unordered sample pair stored with i < j and its cosine score."""

    i: int
    j: int
    similarity: float


def cosine_similarities(embeddings: np.ndarray) -> np.ndarray:
    """Full pairwise cosine matrix; zero-norm rows get similarity 0."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = emb / safe
    return unit @ unit.T


def _qualifying_mask(dataset: PLLDataset) -> np.ndarray:
    """Upper-triangular mask of pairs meeting the class and label conjuncts."""
    if not dataset.has_true_labels:
        raise RequiresGroundTruthError("dataset has samples without true labels")
    labels = dataset.true_labels
    cand = dataset.candidates
    n = len(dataset)
    own = cand[np.arange(n), labels]  # always true for a valid dataset
    cross = cand[:, labels]  # cross[i, j] = (y_j in S_i)
    mutual = own[:, None] & own[None, :] & cross & cross.T
    differ = labels[:, None] != labels[None, :]
    mask = mutual & differ
    return np.triu(mask, k=1)


def _sorted_pairs(ii, jj, sims, keep=None) -> list[EntangledPair]:
    """The first ``keep`` (all if None) pairs by (similarity desc, i asc, j asc)."""
    order = np.lexsort((jj, ii, -sims))[:keep]
    return [EntangledPair(int(ii[k]), int(jj[k]), float(sims[k])) for k in order]


def find_entangled(embeddings, dataset: PLLDataset, xi: float) -> list[EntangledPair]:
    """All pairs satisfying the three entanglement conjuncts at threshold xi."""
    if not (-1.0 < xi <= 1.0):
        raise ValueError(f"xi must lie in (-1, 1], got {xi}")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != len(dataset):
        raise ValueError("need exactly one embedding per sample")
    sim = cosine_similarities(emb)
    ii, jj = np.nonzero(_qualifying_mask(dataset) & (sim >= xi))
    return _sorted_pairs(ii, jj, sim[ii, jj])


def top_fraction_pairs(embeddings, dataset: PLLDataset, ratio: float):
    """The ceil(ratio * P) most similar pairs among the P class/label-qualifying ones.

    Returns (pairs, effective_xi); effective_xi is the smallest similarity
    kept, or None when no pair qualifies at all (the undefined-threshold flag).
    Only the pairs at or above the keep-th largest similarity are sorted, so
    ties at the cut resolve by (i, j) as in the full ordering.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != len(dataset):
        raise ValueError("need exactly one embedding per sample")
    sim = cosine_similarities(emb)
    ii, jj = np.nonzero(_qualifying_mask(dataset))
    if ii.size == 0:
        return [], None
    sims = sim[ii, jj]
    keep = math.ceil(ratio * ii.size)
    cut = np.partition(sims, ii.size - keep)[ii.size - keep]
    top = np.flatnonzero(sims >= cut)
    kept = _sorted_pairs(ii[top], jj[top], sims[top], keep)
    return kept, kept[-1].similarity
