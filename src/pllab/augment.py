"""Class-specific augmentation: built-in CAM-style masks plus a plugin hook.

The built-in path derives a per-class saliency map from the model, keeps the
top fraction of activations as a binary mask, and blends the original
features: masked-on features pass through, masked-off ones are scaled by a
blur factor eps (eps=1 is the identity, eps=0 zeroes them). Grid features use
the classic channel-weighted feature-map saliency of a global-average-pool
classifier; flat features use input-times-gradient attribution for the class
logit, which reduces to classifier-weight-times-feature for a linear head.

Blended grid features are then Gaussian-smoothed (5x5, sigma 1.0); flat ones
are not. Near-uniform saliency maps (range < 1e-6) are discarded rather than
thresholded. A refresh returns an AugmentationSet of parallel arrays, one row
per kept (sample, candidate label) pair in that order, so callers pick a
batch's rows with index arrays. An external editor can replace the built-in
path through the EditorPlugin contract: a callable from (features, class
description) to same-shaped features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import (ParameterError, PartialSample, PLLDataset, ValidationError,
                   _parse_features, _read_records)
from .numkernel import NumericError, backward, forward

__all__ = [
    "ContractViolation",
    "PluginContractError",
    "PluginNotConfiguredError",
    "AugmentConfig",
    "AugmentationSet",
    "EditorPlugin",
    "class_activation_mask",
    "apply_blur_mix",
    "refresh_augmentations",
    "external_edit",
    "save_augmentations",
    "load_augmentations",
]

UNIFORM_MAP_EPS = 1e-6
SOURCE_BUILTIN = "builtin-cam"
SOURCE_PLUGIN = "external-plugin"
SOURCES = (SOURCE_BUILTIN, SOURCE_PLUGIN)


class ContractViolation(ValueError):
    """A caller broke an augmentation precondition (e.g. s not a candidate)."""


class PluginContractError(ValueError):
    """An external editor returned features with the wrong dimensions."""


class PluginNotConfiguredError(RuntimeError):
    """external_edit was called without a registered plugin."""


class EditorPlugin(Protocol):
    """External editor contract: (features, class description) -> features."""

    def __call__(self, features: np.ndarray, description: str) -> np.ndarray: ...


@dataclass(frozen=True)
class AugmentConfig:
    top_fraction: float = 0.3
    epsilon: float = 0.3

    def __post_init__(self):
        if not (0.0 < self.top_fraction <= 1.0):
            raise ParameterError("top_fraction must lie in (0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ParameterError("epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class AugmentationSet:
    """All augmentations of one refresh as parallel arrays, one row each.

    ``samples`` is float64 (m, *dims): row j augments sample ``parents[j]``
    (int64, -1 for an external edit) under guiding label ``labels[j]``
    (int64), produced by ``sources[j]`` (str, one of SOURCES). Rows are
    ordered by (parent, label). ``discards`` is int64 (k, 2) of the
    (parent, label) pairs whose saliency map was near-uniform.
    """

    samples: np.ndarray
    parents: np.ndarray
    labels: np.ndarray
    sources: np.ndarray
    discards: np.ndarray


def _query_params(model):
    """Accept a ModelPair-like object or bare BackboneParams."""
    return getattr(model, "query", model)


def _top_fraction_mask(saliency: np.ndarray, top_fraction: float) -> np.ndarray:
    """Binary mask keeping round(top_fraction * size) entries.

    Ranking is by value descending with ties broken by flat index, so the
    selection is deterministic.
    """
    flat = saliency.reshape(-1)
    k = int(round(top_fraction * flat.size))
    mask = np.zeros(flat.size, dtype=np.float64)
    if k > 0:
        order = np.lexsort((np.arange(flat.size), -flat))
        mask[order[:k]] = 1.0
    return mask.reshape(saliency.shape)


def _resize_nearest(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = grid.shape
    rows = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    cols = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return grid[np.ix_(rows, cols)]


def class_activation_mask(model, sample, s: int, top_fraction: float = 0.3):
    """Binary 0/1 saliency indicator shaped like the input for guiding class
    s, or None when the map is near-uniform.

    Grid inputs: ReLU of the classifier-weighted channel sum of the conv
    feature maps, min-max normalized, resized to the input resolution, and
    thresholded at the top_fraction quantile (spatially, broadcast over
    channels). Flat inputs: the per-feature product of the input with the
    gradient of logit s, thresholded the same way.
    """
    params = _query_params(model)
    if isinstance(sample, PartialSample):
        if s not in sample.candidates:
            raise ContractViolation(f"guiding label {s} is not a candidate of the sample")
        x = sample.features
    else:
        x = np.asarray(sample, dtype=np.float64)
    if not (0 <= s < params.config.num_classes):
        raise ContractViolation(f"guiding label {s} out of range")

    if params.config.is_grid:
        res = forward(params, x)
        fmaps = res.cache.fmaps[0]  # (H', W', C)
        weights = params.cls_w[:, s]
        cam = np.maximum(fmaps @ weights, 0.0)
        if cam.max() - cam.min() < UNIFORM_MAP_EPS:
            return None
        cam = (cam - cam.min()) / (cam.max() - cam.min())
        h, w, ch = params.config.input_dims
        cam = _resize_nearest(cam, h, w)
        spatial = _top_fraction_mask(cam, top_fraction)
        indicator = np.repeat(spatial[:, :, None], ch, axis=2)
    else:
        res = forward(params, x)
        one_hot = np.zeros(params.config.num_classes)
        one_hot[s] = 1.0
        _, d_input = backward(params, res, d_logits=one_hot)
        attribution = d_input * x
        if attribution.max() - attribution.min() < UNIFORM_MAP_EPS:
            return None
        lo, hi = attribution.min(), attribution.max()
        attribution = (attribution - lo) / (hi - lo)
        indicator = _top_fraction_mask(attribution, top_fraction)

    return indicator


_BLUR_TAPS = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)  # kernel size 5, sigma 1.0
_BLUR_TAPS /= _BLUR_TAPS.sum()


def _gaussian_blur_grid(x: np.ndarray) -> np.ndarray:
    """Separable 5-tap Gaussian (sigma 1.0) per channel, reflect padding."""
    out = x.astype(np.float64, copy=True)
    for axis in (0, 1):
        padded = np.pad(out, [(2, 2) if a == axis else (0, 0) for a in range(out.ndim)],
                        mode="reflect")
        acc = np.zeros_like(out)
        for k, tap in enumerate(_BLUR_TAPS):
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(k, k + out.shape[axis])
            acc += tap * padded[tuple(sl)]
        out = acc
    return out


def apply_blur_mix(x, mask: np.ndarray, eps: float) -> np.ndarray:
    """Blend per the binary mask: keep masked-on features, scale others by eps.

    With a binary indicator this is exactly a*x + eps*(1-a)*x, evaluated as a
    selection so eps=1 reproduces the input bit-for-bit. Grid features (h, w,
    ch) are then Gaussian-smoothed (5x5, sigma 1.0); flat ones are not.
    """
    if not (0.0 <= eps <= 1.0):
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != mask.shape:
        raise ContractViolation(
            f"mask shape {mask.shape} does not match features {arr.shape}"
        )
    mixed = np.where(mask == 1.0, arr, eps * arr)
    return _gaussian_blur_grid(mixed) if arr.ndim == 3 else mixed


def refresh_augmentations(dataset: PLLDataset, model, config: AugmentConfig | None = None
                          ) -> AugmentationSet:
    """One augmentation per (sample, candidate label), minus discarded masks.

    Deterministic given the model snapshot; rows ordered by (sample index,
    guiding label). Discards are recorded per (sample, label).
    """
    config = config or AugmentConfig()
    params = _query_params(model)
    parents, labels = np.nonzero(dataset.candidates)  # row-major: (parent, label) order
    samples = np.empty((len(parents),) + dataset.feature_dims)
    kept = np.zeros(len(parents), dtype=bool)
    for j, (i, s) in enumerate(zip(parents, labels)):
        x = dataset.features[i]
        mask = class_activation_mask(params, x, int(s), config.top_fraction)
        if mask is not None:
            samples[j] = apply_blur_mix(x, mask, config.epsilon)
            kept[j] = True
    return AugmentationSet(
        samples=samples[kept],
        parents=parents[kept],
        labels=labels[kept],
        sources=np.full(kept.sum(), SOURCE_BUILTIN),
        discards=np.stack([parents[~kept], labels[~kept]], axis=1),
    )


def external_edit(plugin, x, s: int, class_names) -> np.ndarray:
    """Run a registered editor plugin and return its checked output.

    Raises PluginContractError when the output's shape differs from the
    input's and NumericError when it holds non-finite values.
    """
    if plugin is None:
        raise PluginNotConfiguredError("no editor plugin configured")
    if s not in range(len(class_names)):
        raise ContractViolation(f"no class description for label {s}")
    arr = np.asarray(x, dtype=np.float64)
    edited = np.array(plugin(arr, class_names[s]), dtype=np.float64)
    name = getattr(plugin, "__name__", repr(plugin))
    if edited.shape != arr.shape:
        raise PluginContractError(
            f"plugin {name} returned shape {edited.shape}, expected {arr.shape}"
        )
    if not np.all(np.isfinite(edited)):
        raise NumericError(f"plugin {name} returned non-finite values")
    return edited


# ---------------------------------------------------------------------------
# Optional cache file: dataset-style records with the augmentation columns
# appended. Header mirrors the dataset header; each record is
#   <features csv>|<parent index>|<guiding label>|<source>


def save_augmentations(aset: AugmentationSet, path, num_classes: int) -> None:
    dims_s = ",".join(str(d) for d in aset.samples.shape[1:])
    lines = [f"PLLAUG v1 n={len(aset.samples)} c={num_classes} dims={dims_s}"]
    for feats, parent, label, source in zip(aset.samples, aset.parents, aset.labels,
                                            aset.sources):
        feats_s = ",".join(repr(float(v)) for v in feats.reshape(-1))
        lines.append(f"{feats_s}|{parent}|{label}|{source}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_augmentations(path) -> AugmentationSet:
    """Read a cache file, raising ValidationError that names a bad record.

    Discards are not stored, so the loaded set has none.
    """
    n, c, dims, records = _read_records(path, "PLLAUG", 4, "record")
    samples = np.zeros((n,) + dims)
    parents = np.zeros(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for i, (feats_s, parent_s, label_s, source) in enumerate(records):
        samples[i] = _parse_features(feats_s, dims, f"record {i}")
        try:
            parents[i], labels[i] = int(parent_s), int(label_s)
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"record {i}: bad parent index or guiding label") from exc
        if parents[i] < -1:
            raise ValidationError(f"record {i}: parent index {parents[i]} below -1")
        if not 0 <= labels[i] < c:
            raise ValidationError(f"record {i}: guiding label {labels[i]} outside [0, {c})")
        if source not in SOURCES:
            raise ValidationError(f"record {i}: unknown source {source!r}")
    return AugmentationSet(
        samples=samples,
        parents=parents,
        labels=labels,
        sources=np.array([r[3] for r in records], dtype=str),
        discards=np.zeros((0, 2), dtype=np.int64),
    )
