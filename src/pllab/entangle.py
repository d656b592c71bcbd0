"""Entangled-pair detection.

Two samples are entangled when (a) their true classes differ, (b) each
candidate set contains both true labels, and (c) their embeddings' cosine
similarity reaches a threshold.

Conjuncts (a) and (b) come from labels and candidates alone, so the pairs
meeting them are enumerated class block by class block: for classes a < b they
are exactly A x B, with A = {i : y_i = a, b in S_i} and B = {j : y_j = b,
a in S_j} (every true label lies in its own candidate set). Cosines are taken
only over those blocks, ``unit[A] @ unit[B].T``, PAIR_TILE_BYTES of
similarities at a time. No n x n array is ever built: memory is the unit
embeddings, one tile and the pairs kept. Zero-norm rows get similarity 0.

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
    "find_entangled",
    "top_fraction_pairs",
]

PAIR_TILE_BYTES = 1 << 22  # float64 similarities per class-block tile


def _qualifying_pairs(embeddings, dataset: PLLDataset, xi: float):
    """(ii, jj, sims) of every class/label-qualifying pair with similarity >= xi,
    ii < jj, in no particular order."""
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != len(dataset):
        raise ValueError("need exactly one embedding per sample")
    if not np.all(np.isfinite(emb)):
        raise ValueError("embeddings must be finite")
    if not dataset.has_true_labels:
        raise ValueError("dataset has samples without true labels")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / np.where(norms == 0.0, 1.0, norms)
    labels, cand = dataset.true_labels, dataset.candidates
    members = [np.flatnonzero(labels == a) for a in range(dataset.num_classes)]
    found = []
    for a, in_a in enumerate(members):
        for b in range(a + 1, dataset.num_classes):
            rows, cols = in_a[cand[in_a, b]], members[b][cand[members[b], a]]
            if not (rows.size and cols.size):
                continue
            keys = unit[cols]
            step = max(1, PAIR_TILE_BYTES // (8 * cols.size))
            for lo in range(0, rows.size, step):
                tile = rows[lo : lo + step]
                sim = unit[tile] @ keys.T
                r, s = np.nonzero(sim >= xi)
                i, j = tile[r], cols[s]
                found.append((np.minimum(i, j), np.maximum(i, j), sim[r, s]))
    if not found:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _sorted_pairs(ii, jj, sims, keep=None):
    """The first ``keep`` (all if None) pairs by (similarity desc, i asc, j asc)."""
    order = np.lexsort((jj, ii, -sims))[:keep]
    return np.column_stack((ii[order], jj[order])).astype(np.int64), sims[order]


def find_entangled(embeddings, dataset: PLLDataset, xi: float):
    """All pairs satisfying the three entanglement conjuncts at threshold xi.

    Raises ValueError for non-finite embeddings.
    """
    if not (-1.0 < xi <= 1.0):
        raise ValueError(f"xi must lie in (-1, 1], got {xi}")
    return _sorted_pairs(*_qualifying_pairs(embeddings, dataset, xi))


def top_fraction_pairs(embeddings, dataset: PLLDataset, ratio: float):
    """The ceil(ratio * P) most similar pairs among the P class/label-qualifying ones.

    Only the pairs at or above the keep-th largest similarity are sorted, so
    ties at the cut resolve by (i, j) as in the full ordering. Raises
    ValueError for non-finite embeddings.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    ii, jj, sims = _qualifying_pairs(embeddings, dataset, -np.inf)
    keep = math.ceil(ratio * sims.size)
    if keep:
        cut = np.partition(sims, sims.size - keep)[sims.size - keep]
        top = np.flatnonzero(sims >= cut)
        ii, jj, sims = ii[top], jj[top], sims[top]
    return _sorted_pairs(ii, jj, sims, keep)
