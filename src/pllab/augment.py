"""Class-specific augmentation: CAM-style masks plus a blur mix.

A per-class saliency map is derived from the model, the top fraction of
its activations is kept as a binary mask, and the mask blends the original
features: masked-on features pass through, masked-off ones are scaled by a
blur factor eps (eps=1 is the identity, eps=0 zeroes them). Grid features use
the classic channel-weighted feature-map saliency of a global-average-pool
classifier; flat features use input-times-gradient attribution for the class
logit, which reduces to classifier-weight-times-feature for a linear head.

Blended grid features are then Gaussian-smoothed (5x5, sigma 1.0), as two
small matmuls with per-axis blur matrices; flat ones are not. Near-uniform
saliency maps (range < 1e-6) are discarded rather than thresholded. The mask
and blur helpers take batches of rows only. A refresh runs the masks over
fixed-size blocks of (sample, candidate label) rows and keeps the masks of
the kept rows, spatial ones for grids; no float row is built. A grid CAM is
linear in the classifier column, so each block forwards its samples once and
reads every label's map from those feature maps, CAM_GATHER_BYTES of them at
a time. The refresh returns an
AugmentationSet of parallel arrays, one row per kept pair in that order,
plus a reference to the dataset's features; its ``rows_of`` picks a batch's
rows, one slice per sample, and blur-mixes them from those features. The
mix of a row does not depend on the other rows in its call, so a row has the
same bits whichever batch draws it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data import PLLDataset
from .numkernel import BackboneParams, _indices, _real, backward, forward

__all__ = [
    "AugmentConfig",
    "AugmentationSet",
    "class_activation_mask",
    "apply_blur_mix",
    "refresh_augmentations",
]

UNIFORM_MAP_EPS = 1e-6
REFRESH_BLOCK_ROWS = 256  # (sample, candidate) rows per batched mask pass
CAM_GATHER_BYTES = 1 << 18  # float64 feature-map bytes a grid CAM gathers at once


@dataclass(frozen=True)
class AugmentConfig:
    top_fraction: float = 0.3
    epsilon: float = 0.3

    def __post_init__(self):
        _real("top_fraction", self.top_fraction, 0.0, 1.0, open_low=True)
        _real("epsilon", self.epsilon, 0.0, 1.0)


@dataclass(frozen=True)
class AugmentationSet:
    """All augmentations of one refresh as parallel arrays, one row each.

    Row j augments sample ``parents[j]`` (int64) under guiding label
    ``labels[j]`` (int64) with the bool mask ``masks[j]``: (h, w, 1) for
    grids, one spatial mask for every channel, and (d,) for flat rows. Rows
    are ordered by (parent, label), so ``parents`` is sorted and each
    sample's rows are one slice; ``rows_of`` relies on that. ``discards`` is
    int64 (k, 2) of the (parent, label) pairs whose saliency map was
    near-uniform.

    No float row is stored: ``rows_of`` blur-mixes a row from
    ``source[parents[j]]`` with blur factor ``epsilon`` when a batch draws
    it. ``source`` is the refreshed dataset's feature array itself, not a
    copy, so mutating those features after a refresh changes the rows.
    """

    masks: np.ndarray
    parents: np.ndarray
    labels: np.ndarray
    discards: np.ndarray
    source: np.ndarray
    epsilon: float

    def _mixed(self, rows) -> np.ndarray:
        # through the module global, which a tracer may have wrapped
        return apply_blur_mix(self.source[self.parents[rows]], self.masks[rows], self.epsilon)

    @property
    def samples(self) -> np.ndarray:
        """Every row blur-mixed, float64 (m, *dims), built afresh on each read
        in REFRESH_BLOCK_ROWS blocks; training reads rows through ``rows_of``."""
        out = np.empty((len(self.parents),) + self.source.shape[1:])
        for start in range(0, len(out), REFRESH_BLOCK_ROWS):
            block = slice(start, start + REFRESH_BLOCK_ROWS)
            out[block] = self._mixed(block)
        return out

    def rows_of(self, idx):
        """(samples, owner, labels) of the rows of the distinct samples ``idx``:
        sample ``idx[0]``'s rows first, each sample's in label order, and
        ``owner[j]`` the position in ``idx`` of row j's sample. ``samples``
        is float64, mixed for this call. ValueError unless ``idx`` is 1-D, of
        an integer dtype (an empty one of any dtype passes) and inside
        [0, len(source))."""
        idx = _indices(idx, len(self.source), "sample indices", shape=(None,))
        start = np.searchsorted(self.parents, idx)
        counts = np.searchsorted(self.parents, idx, side="right") - start
        owner = np.repeat(np.arange(len(counts)), counts)
        # row j of the output is slice row j - first[owner[j]] of its sample
        first = np.cumsum(counts) - counts
        rows = np.arange(len(owner)) + np.repeat(start - first, counts)
        return self._mixed(rows), owner, self.labels[rows]


def _top_fraction_mask(saliency: np.ndarray, top_fraction: float) -> np.ndarray:
    """Per row of an (m, p) map, a bool mask keeping max(1, round(top_fraction * p))
    entries, so no kept row loses every feature.

    Ranking is by value descending with ties broken by index (a stable sort),
    so the selection is deterministic.
    """
    k = max(1, int(round(top_fraction * saliency.shape[1])))
    order = np.argsort(-saliency, axis=1, kind="stable")[:, :k]
    mask = np.zeros(saliency.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=1)
    return mask


def class_activation_mask(params: BackboneParams, x, owner, labels,
                          top_fraction: float = 0.3):
    """Bool saliency masks for (sample, label) rows: row j reads sample
    ``x[owner[j]]`` of ``x`` (n, *dims) under guiding label ``labels[j]``.
    Returns (masks bool (m, h, w, 1) for (h, w, ch) grids and (m, d) for
    flat rows, kept bool (m,)); ``owner`` must be integers in [0, n) and
    ``labels`` integers in [0, c), one per row, else ValueError. Zero rows
    give zero masks.

    A row whose map is near-uniform (range below UNIFORM_MAP_EPS) is not kept
    and its mask is all False. Grid inputs: one forward over the
    samples, then ReLU of each row's conv feature maps times its guiding
    class's classifier column (the maps keep the input's resolution),
    min-max normalized and thresholded at the top_fraction quantile
    (spatially: one mask for every channel, which ``apply_blur_mix``
    broadcasts). Flat inputs: one forward over the rows, then the input
    times the gradient of the guiding logit (one backward with one-hot
    upstream rows), thresholded the same way.
    """
    _real("top_fraction", top_fraction, 0.0, 1.0, open_low=True)
    c = params.config.num_classes
    labels = _indices(labels, c, "labels", shape=(None,))
    owner = _indices(owner, len(x), "owner", shape=labels.shape)
    m = len(labels)
    if params.config.is_grid:
        # A matrix-vector product per row, as one sample's CAM takes: the full
        # (fmaps @ cls_w) sums in another order, and its last-bit differences
        # can flip which of two tied saliencies is kept. Rows gather their
        # samples' maps CAM_GATHER_BYTES at a time.
        fmaps = forward(params, x).outputs[-1]
        columns = params.cls_w.T[labels][:, None, :, None]  # (m, 1, C, 1)
        sal = np.empty((m,) + fmaps.shape[1:3] + (1,))
        step = max(1, CAM_GATHER_BYTES // max(1, fmaps[:1].nbytes))
        for lo in range(0, m, step):
            rows = slice(lo, lo + step)
            np.matmul(fmaps[owner[rows]], columns[rows], out=sal[rows])
        np.maximum(sal, 0.0, out=sal)
    else:
        res = forward(params, np.asarray(x)[owner])
        one_hot = np.zeros((m, c))
        one_hot[np.arange(m), labels] = 1.0
        _, d_input = backward(res, d_logits=one_hot, want_dx=True)
        sal = d_input * res.outputs[0]
    mask_dims = sal.shape[1:]  # (h, w, 1) or (d,)
    sal = sal.reshape(m, math.prod(mask_dims))
    lo = sal.min(axis=1, keepdims=True)
    span = sal.max(axis=1, keepdims=True) - lo
    kept = span[:, 0] >= UNIFORM_MAP_EPS
    mask = _top_fraction_mask((sal - lo) / np.where(kept[:, None], span, 1.0), top_fraction)
    mask[~kept] = False
    return mask.reshape((m,) + mask_dims), kept


_BLUR_TAPS = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)  # kernel size 5, sigma 1.0
_BLUR_TAPS /= _BLUR_TAPS.sum()


@functools.cache
def _blur_matrix(n: int) -> np.ndarray:
    """The (n, n) matrix of the 5-tap Gaussian along one axis of length n:
    the tap loop with numpy's reflect padding, run on the identity."""
    eye = np.eye(n)
    padded = np.pad(eye, [(2, 2), (0, 0)], mode="reflect")
    acc = np.zeros_like(eye)
    for k, tap in enumerate(_BLUR_TAPS):
        acc += tap * padded[k : k + n]
    acc.flags.writeable = False
    return acc


def _gaussian_blur_grid(x: np.ndarray) -> np.ndarray:
    """Separable 5-tap Gaussian (sigma 1.0) over axes 1 and 2 of (m, h, w, ch)
    grids, per channel, reflect padding: one matmul per axis."""
    m, h, w, ch = x.shape
    out = _blur_matrix(h) @ x.reshape(m, h, w * ch)
    return (_blur_matrix(w) @ out.reshape(m * h, w, ch)).reshape(m, h, w, ch)


def apply_blur_mix(x, mask: np.ndarray, eps: float) -> np.ndarray:
    """Blend rows per the bool mask: keep masked-on features, scale others by eps.

    ``x`` is a batch of flat rows (m, d) or grids (m, h, w, ch), and ``mask``
    a bool array of its shape, or for grids of shape (m, h, w, 1), one
    spatial mask broadcast over the channels (ValueError for any other shape
    or dtype, so a fractional mask is not silently read as off). This is
    exactly a*x + eps*(1-a)*x, evaluated as a selection so eps=1 reproduces
    the input bit-for-bit. Grids are then Gaussian-smoothed (5x5, sigma 1.0);
    flat rows are not.
    """
    _real("eps", eps, 0.0, 1.0)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (2, 4):
        raise ValueError(f"features {arr.shape} are not a batch of rows or grids")
    spatial = arr.shape[:3] + (1,) if arr.ndim == 4 else arr.shape
    if mask.shape not in (arr.shape, spatial):
        raise ValueError(
            f"mask shape {mask.shape} does not match features {arr.shape}"
        )
    if mask.dtype != bool:
        raise ValueError(f"mask must be bool, got dtype {mask.dtype}")
    mixed = np.where(mask, arr, eps * arr)
    return _gaussian_blur_grid(mixed) if arr.ndim == 4 else mixed


def refresh_augmentations(dataset: PLLDataset, params: BackboneParams,
                          config: AugmentConfig | None = None) -> AugmentationSet:
    """One augmentation per (sample, candidate label), minus discarded masks.

    Deterministic given the model snapshot; rows ordered by (sample index,
    guiding label). The masks run REFRESH_BLOCK_ROWS rows at a time, which
    bounds the memory of the batched mask pass; each row's mask is kept as
    bool, and only the kept rows' masks are returned. No row is blur-mixed
    here: the set mixes a row from ``dataset.features`` when it is drawn.
    Discards are recorded per (sample, label).
    """
    config = config or AugmentConfig()
    parents, labels = np.nonzero(dataset.candidates)  # row-major: (parent, label) order
    dims = dataset.feature_dims
    mask_dims = dims[:2] + (1,) if params.config.is_grid else dims  # as the masks come back
    masks = np.empty((len(parents),) + mask_dims, dtype=bool)
    kept = np.empty(len(parents), dtype=bool)
    for start in range(0, len(parents), REFRESH_BLOCK_ROWS):
        block = slice(start, start + REFRESH_BLOCK_ROWS)
        first = parents[block][0]
        x = dataset.features[first : parents[block][-1] + 1]  # the block's samples
        masks[block], kept[block] = class_activation_mask(
            params, x, parents[block] - first, labels[block], config.top_fraction)
    return AugmentationSet(
        masks=masks[kept],
        parents=parents[kept],
        labels=labels[kept],
        discards=np.stack([parents[~kept], labels[~kept]], axis=1),
        source=dataset.features,
        epsilon=config.epsilon,
    )
