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
thresholded. The mask and blur helpers take batches of rows only. A refresh
runs them over fixed-size blocks of (sample, candidate label) rows and
returns an AugmentationSet of parallel arrays, one row per kept pair in that
order, so callers pick a batch's rows with index arrays. An external editor can replace the built-in path through
the EditorPlugin contract: a callable from (features, class description) to
same-shaped features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .data import ParameterError, PLLDataset, ValidationError, _parse_features, _read_records
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
REFRESH_BLOCK_ROWS = 256  # (sample, candidate) rows per batched mask pass
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
    """Per row of an (m, p) map, a 0/1 mask keeping round(top_fraction * p) entries.

    Ranking is by value descending with ties broken by index (a stable sort),
    so the selection is deterministic.
    """
    k = int(round(top_fraction * saliency.shape[1]))
    order = np.argsort(-saliency, axis=1, kind="stable")[:, :k]
    mask = np.zeros_like(saliency)
    np.put_along_axis(mask, order, 1.0, axis=1)
    return mask


def class_activation_mask(model, x, labels, top_fraction: float = 0.3):
    """Binary 0/1 saliency indicators for rows ``x`` (m, *dims) under guiding
    ``labels`` (m,): returns (indicators shaped like ``x``, kept bool (m,)).

    A row whose map is near-uniform (range below UNIFORM_MAP_EPS) is not kept
    and its indicator is all zeros. Grid inputs: ReLU of each row's conv
    feature maps times its guiding class's classifier column (the maps keep
    the input's resolution), min-max normalized and thresholded at the
    top_fraction quantile (spatially, broadcast over channels). Flat inputs:
    the input times the gradient of the guiding logit (one backward with
    one-hot upstream rows), thresholded the same way.
    """
    params = _query_params(model)
    c = params.config.num_classes
    labels = np.asarray(labels)
    if labels.shape != (len(x),) or np.any((labels < 0) | (labels >= c)):
        raise ContractViolation(f"need one guiding label in [0, {c}) per row")
    res = forward(params, x)
    m = len(labels)
    if params.config.is_grid:
        # A matrix-vector product per row, as one sample's CAM takes: the full
        # (fmaps @ cls_w) sums in another order, and its last-bit differences
        # can flip which of two tied saliencies is kept.
        columns = params.cls_w.T[labels][:, None, :, None]  # (m, 1, C, 1)
        sal = np.maximum(res.cache.fmaps @ columns, 0.0)
    else:
        one_hot = np.zeros((m, c))
        one_hot[np.arange(m), labels] = 1.0
        _, d_input = backward(params, res, d_logits=one_hot)
        sal = d_input * res.cache.x
    sal = sal.reshape(m, -1)
    lo = sal.min(axis=1, keepdims=True)
    span = sal.max(axis=1, keepdims=True) - lo
    kept = span[:, 0] >= UNIFORM_MAP_EPS
    mask = _top_fraction_mask((sal - lo) / np.where(kept[:, None], span, 1.0), top_fraction)
    mask[~kept] = 0.0
    if params.config.is_grid:
        h, w, ch = params.config.input_dims
        mask = np.repeat(mask.reshape(m, h, w, 1), ch, axis=3)
    return mask, kept


_BLUR_TAPS = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)  # kernel size 5, sigma 1.0
_BLUR_TAPS /= _BLUR_TAPS.sum()


def _gaussian_blur_grid(x: np.ndarray) -> np.ndarray:
    """Separable 5-tap Gaussian (sigma 1.0) over axes 1 and 2 of (m, h, w, ch)
    grids, per channel, reflect padding."""
    out = x.astype(np.float64, copy=True)
    for axis in (1, 2):
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
    """Blend rows per the binary mask: keep masked-on features, scale others by eps.

    ``x`` is a batch of flat rows (m, d) or grids (m, h, w, ch). With a binary
    indicator this is exactly a*x + eps*(1-a)*x, evaluated as a selection so
    eps=1 reproduces the input bit-for-bit. Grids are then Gaussian-smoothed
    (5x5, sigma 1.0); flat rows are not.
    """
    if not (0.0 <= eps <= 1.0):
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (2, 4):
        raise ContractViolation(f"features {arr.shape} are not a batch of rows or grids")
    if arr.shape != mask.shape:
        raise ContractViolation(
            f"mask shape {mask.shape} does not match features {arr.shape}"
        )
    mixed = np.where(mask == 1.0, arr, eps * arr)
    return _gaussian_blur_grid(mixed) if arr.ndim == 4 else mixed


def refresh_augmentations(dataset: PLLDataset, model, config: AugmentConfig | None = None
                          ) -> AugmentationSet:
    """One augmentation per (sample, candidate label), minus discarded masks.

    Deterministic given the model snapshot; rows ordered by (sample index,
    guiding label) and computed REFRESH_BLOCK_ROWS at a time, which bounds
    the memory of the batched mask pass. Discards are recorded per (sample,
    label).
    """
    config = config or AugmentConfig()
    params = _query_params(model)
    parents, labels = np.nonzero(dataset.candidates)  # row-major: (parent, label) order
    samples = np.empty((len(parents),) + dataset.feature_dims)
    kept = np.empty(len(parents), dtype=bool)
    for start in range(0, len(parents), REFRESH_BLOCK_ROWS):
        block = slice(start, start + REFRESH_BLOCK_ROWS)
        x = dataset.features[parents[block]]
        mask, kept[block] = class_activation_mask(params, x, labels[block],
                                                  config.top_fraction)
        samples[block] = apply_blur_mix(x, mask, config.epsilon)
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


def _check_row(where: str, parent, label, source, num_classes: int) -> None:
    """Raise ValidationError naming ``where`` for a row no cache file may hold."""
    if parent < -1:
        raise ValidationError(f"{where}: parent index {parent} below -1")
    if not 0 <= label < num_classes:
        raise ValidationError(f"{where}: guiding label {label} outside [0, {num_classes})")
    if source not in SOURCES:
        raise ValidationError(f"{where}: unknown source {str(source)!r}")


def save_augmentations(aset: AugmentationSet, path, num_classes: int) -> None:
    """Write a cache file, first checking each row as load_augmentations does."""
    for j, row in enumerate(zip(aset.parents, aset.labels, aset.sources)):
        _check_row(f"record {j}", *row, num_classes)
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
        _check_row(f"record {i}", parents[i], labels[i], source, c)
    return AugmentationSet(
        samples=samples,
        parents=parents,
        labels=labels,
        sources=np.array([r[3] for r in records], dtype=str),
        discards=np.zeros((0, 2), dtype=np.int64),
    )
