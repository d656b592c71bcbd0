"""Entangled-pair detection.

Two samples are entangled when (a) their true classes differ, (b) each
candidate set contains both true labels, and (c) their embeddings' cosine
similarity reaches a threshold.

Conjuncts (a) and (b) come from labels and candidates alone, so the pairs
meeting them are enumerated class block by class block: for classes a < b they
are exactly A x B, with A = {i : y_i = a, b in S_i} and B = {j : y_j = b,
a in S_j} (every true label lies in its own candidate set). Cosines are taken
only over those blocks, ``unit[A] @ unit[B].T``, PAIR_TILE_BYTES of
similarities at a time, and both selectors share that block and tile loop.
No n x n array is ever built. Zero-norm rows get similarity 0.

``find_entangled`` keeps every pair at or above its threshold; the ratio
selector knows how many pairs it keeps before any cosine is taken, since P is
the sum of the block sizes. Both run one loop that appends each tile's pairs
at or above a cut to chunk lists (16 bytes a pair). For the ratio selector,
whenever the chunks hold more than 2 * keep pairs they are joined and cut to
their first ``keep`` pairs in the output order (similarity desc, i asc, j
asc), which raises the cut to the smallest similarity kept. A pair dropped
there has ``keep`` pairs before it, so it is not among the first ``keep`` of
all P either. Memory is the unit embeddings, one tile, at most 2 * keep plus
one tile's pairs in chunks, and the copy a compaction joins them into.

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
from .numkernel import _array, _real

__all__ = [
    "find_entangled",
    "top_fraction_pairs",
]

PAIR_TILE_BYTES = 1 << 22  # float64 similarities per class-block tile


def _unit_rows(embeddings, dataset: PLLDataset) -> np.ndarray:
    """The embeddings scaled to unit norm (zero rows stay zero), after the checks
    both selectors share."""
    emb = _array("embeddings", embeddings, (len(dataset), None), finite=True)
    if not dataset.has_true_labels:
        raise ValueError("dataset has samples without true labels")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return emb / np.where(norms == 0.0, 1.0, norms)


def _blocks(dataset: PLLDataset) -> list[tuple[np.ndarray, np.ndarray]]:
    """(A, B) of every non-empty class block a < b, as sample index arrays."""
    labels, cand = dataset.true_labels, dataset.candidates
    members = [np.flatnonzero(labels == a) for a in range(dataset.num_classes)]
    out = []
    for a, in_a in enumerate(members):
        for b in range(a + 1, dataset.num_classes):
            rows, cols = in_a[cand[in_a, b]], members[b][cand[members[b], a]]
            if rows.size and cols.size:
                out.append((rows, cols))
    return out


def _tiles(unit: np.ndarray, blocks):
    """(rows, cols, sim) per tile: sim[r, s] is the cosine of samples rows[r]
    and cols[s], at most PAIR_TILE_BYTES of it (one row at least)."""
    for rows, cols in blocks:
        keys = unit[cols]
        step = max(1, PAIR_TILE_BYTES // (8 * cols.size))
        for lo in range(0, rows.size, step):
            tile = rows[lo : lo + step]
            yield tile, cols, unit[tile] @ keys.T


def _append_at_least(keys: list, sims: list, rows, cols, sim, cut: float, n: int) -> int:
    """Append a tile's pairs with similarity >= cut to the key and sim chunks
    and return their count; a pair (i < j) is keyed i * n + j, so keys order
    pairs by (i, j)."""
    r, s = np.nonzero(sim >= cut)
    i, j = rows[r], cols[s]
    keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    sims.append(sim[r, s])
    return r.size


def _first_in_order(keys: list, sims: list, keep: int) -> float:
    """Cut the key and sim chunks, in place, to their first ``keep`` pairs by
    (similarity desc, key asc) and return the smallest similarity kept."""
    keys[:] = [np.concatenate(keys)]  # each chunk list goes as it is joined
    sims[:] = [np.concatenate(sims)]
    k, s = keys[0], sims[0]
    cut = np.partition(s, s.size - keep)[s.size - keep]
    first, tied = np.flatnonzero(s > cut), np.flatnonzero(s == cut)
    need = keep - first.size  # the ties with the smallest keys fill the rest
    if need < tied.size:
        tied = tied[np.argpartition(k[tied], need - 1)[:need]]
    first = np.concatenate((first, tied))
    keys[:], sims[:] = [k[first]], [s[first]]
    return cut


def _sorted_pairs(keys, sims, n: int):
    """The pairs ordered by (similarity desc, i asc, j asc)."""
    order = np.lexsort((keys, -sims))
    return np.column_stack(np.divmod(keys[order], n)), sims[order]


def _select(embeddings, dataset: PLLDataset, cut: float, keep_ratio=None):
    """The first ceil(keep_ratio * P) pairs at or above ``cut`` in output order,
    or all of them when ``keep_ratio`` is None."""
    unit, n = _unit_rows(embeddings, dataset), len(dataset)
    blocks = _blocks(dataset)
    keep = math.inf if keep_ratio is None else math.ceil(
        keep_ratio * sum(rows.size * cols.size for rows, cols in blocks))
    keys, sims, held = [np.zeros(0, np.int64)], [np.zeros(0)], 0
    for rows, cols, sim in _tiles(unit, blocks):
        held += _append_at_least(keys, sims, rows, cols, sim, cut, n)
        if held > 2 * keep:
            cut, held = _first_in_order(keys, sims, keep), keep
    if held > keep:
        _first_in_order(keys, sims, keep)
    keys = np.concatenate(keys)
    sims = np.concatenate(sims)
    return _sorted_pairs(keys, sims, n)


def find_entangled(embeddings, dataset: PLLDataset, xi: float):
    """All pairs satisfying the three entanglement conjuncts at threshold xi.

    Raises ValueError for non-finite embeddings.
    """
    _real("xi", xi, -1.0, 1.0, open_low=True)
    return _select(embeddings, dataset, xi)


def top_fraction_pairs(embeddings, dataset: PLLDataset, ratio: float):
    """The ceil(ratio * P) most similar pairs among the P class/label-qualifying ones.

    Only the keep first pairs by (similarity desc, i asc, j asc) are sorted,
    so ties at the cut resolve by (i, j) as in the full ordering. Raises
    ValueError for non-finite embeddings.
    """
    _real("ratio", ratio, 0.0, 1.0, open_low=True)
    return _select(embeddings, dataset, -np.inf, ratio)
