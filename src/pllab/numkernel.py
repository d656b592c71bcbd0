"""Minimal differentiable numeric core.

A small encoder (MLP for flat features, 2-conv + global-average-pool CNN for
grid features) with an L2-normalized projection head and a linear classifier
head, hand-derived analytic gradients, and a central finite-difference
verification harness. Inputs are float64 ndarrays with a leading batch axis
(one sample is a batch of one); all parameters (and their gradients) live in
one contiguous float64 vector per model, with each named weight and bias a
reshaped view into it.

Everything is deterministic: weights come from a seeded generator and all
math is plain numpy in a fixed evaluation order.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimensionError",
    "UsageError",
    "NumericError",
    "CheckpointError",
    "EncoderConfig",
    "BackboneParams",
    "ParamGrads",
    "ForwardResult",
    "GradientReport",
    "init_params",
    "forward",
    "backward",
    "check_gradients",
    "save_params",
    "load_params",
]

ZERO_NORM_EPS = 1e-30


class DimensionError(ValueError):
    """Input or parameter shapes do not match the configured dimensions."""


class UsageError(RuntimeError):
    """An operation was called out of order (e.g. backward without forward)."""


class NumericError(ArithmeticError):
    """A public operation produced or received a non-finite value."""


class CheckpointError(ValueError):
    """A parameter checkpoint file is malformed."""


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the shared backbone plus its two heads.

    ``input_dims`` with one entry selects the MLP (``hidden_dims`` are layer
    widths); three entries (h, w, ch) select the 2-conv + global-average-pool
    CNN (``hidden_dims`` are the two conv channel counts). The projection
    head maps the penultimate features to an L2-normalized embedding; the
    classifier head maps them to ``num_classes`` logits.
    """

    input_dims: tuple[int, ...]
    num_classes: int
    hidden_dims: tuple[int, ...] = (32,)
    embed_dim: int = 32
    kernel_size: int = 3

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if len(self.input_dims) not in (1, 3):
            raise DimensionError(
                f"input_dims must be (d,) or (h, w, ch), got {self.input_dims}"
            )
        if self.is_grid and len(self.hidden_dims) != 2:
            raise DimensionError("grid encoder needs exactly two conv channel counts")
        if self.num_classes < 2:
            raise DimensionError("need at least two classes")
        if self.embed_dim < 1:
            raise DimensionError("embed_dim must be positive")
        if self.is_grid and self.kernel_size % 2 != 1:
            raise DimensionError("kernel_size must be odd (same padding)")

    @property
    def is_grid(self) -> bool:
        return len(self.input_dims) == 3

    @property
    def feature_dim(self) -> int:
        """Width of the penultimate representation both heads consume."""
        if self.is_grid:
            return self.hidden_dims[-1]
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dims[0]


@functools.cache
def _layout(config: EncoderConfig) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of each tensor inside the flat parameter vector."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    if config.is_grid:
        k = config.kernel_size
        c_in = config.input_dims[2]
        for i, c_out in enumerate(config.hidden_dims):
            shapes.append((f"enc{i}.w", (k, k, c_in, c_out)))
            shapes.append((f"enc{i}.b", (c_out,)))
            c_in = c_out
    else:
        d_in = config.input_dims[0]
        for i, d_out in enumerate(config.hidden_dims):
            shapes.append((f"enc{i}.w", (d_in, d_out)))
            shapes.append((f"enc{i}.b", (d_out,)))
            d_in = d_out
    f = config.feature_dim
    shapes.append(("proj.w", (f, config.embed_dim)))
    shapes.append(("proj.b", (config.embed_dim,)))
    shapes.append(("cls.w", (f, config.num_classes)))
    shapes.append(("cls.b", (config.num_classes,)))
    out = []
    off = 0
    for name, shape in shapes:
        n = math.prod(shape)
        out.append((name, off, off + n, shape))
        off += n
    return tuple(out)


class BackboneParams:
    """Parameter snapshot: encoder layers plus projection and classifier heads.

    ``flat`` is one contiguous float64 vector holding every tensor in
    ``tensors()`` order. ``encoder`` holds per-layer (weight, bias) pairs and
    ``proj_w``, ``proj_b``, ``cls_w``, ``cls_b`` the heads; all are reshaped
    views into ``flat``, so in-place writes to either side show in the other.
    Dense weights are (in, out), conv weights are (k, k, c_in, c_out).
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray):
        layout = _layout(config)
        if flat.shape != (layout[-1][2],):
            raise DimensionError("flat vector length does not match parameter count")
        self.config = config
        self.flat = flat
        views = [flat[a:b].reshape(shape) for _, a, b, shape in layout]
        self.encoder = list(zip(views[:-4:2], views[1:-4:2]))
        self.proj_w, self.proj_b, self.cls_w, self.cls_b = views[-4:]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, self.flat[a:b].reshape(shape))
                for name, a, b, shape in _layout(self.config)]

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    def with_flat(self, flat: np.ndarray) -> "BackboneParams":
        """A new snapshot holding a copy of ``flat`` (same structure)."""
        return BackboneParams(self.config, np.array(flat, dtype=np.float64).reshape(-1))

    def copy(self) -> "BackboneParams":
        return BackboneParams(self.config, self.flat.copy())


class ParamGrads(BackboneParams):
    """Parameter gradients, in the same flat layout as BackboneParams."""

    flatten = BackboneParams.flatten


def init_params(config: EncoderConfig, seed: int = 0) -> BackboneParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per tensor.

    Fan-in is the input width for dense layers and k*k*c_in for conv layers;
    biases use the same bound as their layer's weights.
    """
    rng = np.random.default_rng(seed)
    params = BackboneParams(config, np.empty(_layout(config)[-1][2]))
    fan_in = 1
    for name, a in params.tensors():
        if name.endswith(".w"):
            fan_in = math.prod(a.shape[:-1])
        # biases reuse the bound of the weight drawn just before them
        bound = 1.0 / np.sqrt(fan_in)
        a[...] = rng.uniform(-bound, bound, size=a.shape)
    return params


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class _Cache:
    params: BackboneParams
    x: np.ndarray  # batched input, original dims
    activations: list  # per conv/dense layer: (pre-relu, input) pairs
    features: np.ndarray
    pre_embed: np.ndarray
    norms: np.ndarray
    fallback: np.ndarray  # bool rows where the zero-vector fallback fired
    fmaps: np.ndarray | None = None  # post-relu conv maps (grid encoder only)


@dataclass
class ForwardResult:
    """Output of a forward pass.

    ``embedding`` is unit-norm (zero-vector rows fall back to the first basis
    vector, flagged in ``zero_fallback``), ``logits`` has one entry per class,
    ``features`` is the shared penultimate representation both heads read.
    """

    embedding: np.ndarray
    logits: np.ndarray
    features: np.ndarray
    zero_fallback: np.ndarray
    cache: _Cache | None = None


def _check_input(config: EncoderConfig, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[1:] != config.input_dims:
        raise DimensionError(f"input shape {arr.shape} is not a batch of {config.input_dims}")
    return arr


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 same-padding conv, NHWC layout."""
    k = w.shape[0]
    p = k // 2
    bsz, h, wid, c_in = x.shape
    c_out = w.shape[3]
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    y = np.zeros((bsz, h, wid, c_out))
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di : di + h, dj : dj + wid, :].reshape(-1, c_in)
            y += (patch @ w[di, dj]).reshape(bsz, h, wid, c_out)
    return y + b


def _conv_same_backward(x, w, dy):
    k = w.shape[0]
    p = k // 2
    bsz, h, wid, c_in = x.shape
    c_out = w.shape[3]
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    dy_flat = dy.reshape(-1, c_out)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di : di + h, dj : dj + wid, :].reshape(-1, c_in)
            dw[di, dj] = patch.T @ dy_flat
            dxp[:, di : di + h, dj : dj + wid, :] += (dy_flat @ w[di, dj].T).reshape(
                bsz, h, wid, c_in
            )
    db = dy.sum(axis=(0, 1, 2))
    dx = dxp[:, p : p + h, p : p + wid, :]
    return dw, db, dx


def forward(params: BackboneParams, x, want_cache: bool = True) -> ForwardResult:
    """Run the shared backbone and both heads.

    Takes a batch (leading axis), so a single input is passed as ``x[None]``.
    Deterministic for fixed params and input; raises DimensionError on shape
    mismatch (an unbatched input included) and NumericError if non-finite
    values appear.
    """
    config = params.config
    xb = _check_input(config, x)
    if not np.all(np.isfinite(xb)):
        raise NumericError("non-finite values in forward input")

    activations = []
    if config.is_grid:
        h = xb
        for w, b in params.encoder:
            pre = _conv_same(h, w, b)
            activations.append((pre, h))
            h = np.maximum(pre, 0.0)
        fmaps = h  # (B, H, W, C) post-relu feature maps
        features = fmaps.mean(axis=(1, 2))
    else:
        h = xb
        for w, b in params.encoder:
            pre = h @ w + b
            activations.append((pre, h))
            h = np.maximum(pre, 0.0)
        fmaps = None
        features = h

    pre_embed = features @ params.proj_w + params.proj_b
    norms = np.linalg.norm(pre_embed, axis=1)
    fallback = norms < ZERO_NORM_EPS
    safe = np.where(fallback, 1.0, norms)
    embedding = pre_embed / safe[:, None]
    if np.any(fallback):
        embedding[fallback] = 0.0
        embedding[fallback, 0] = 1.0

    logits = features @ params.cls_w + params.cls_b
    if not (np.all(np.isfinite(embedding)) and np.all(np.isfinite(logits))):
        raise NumericError("non-finite values in forward output")

    cache = None
    if want_cache:
        cache = _Cache(params, xb, activations, features, pre_embed, norms, fallback, fmaps)
    return ForwardResult(embedding, logits, features, fallback, cache)


def backward(
    params: BackboneParams,
    result: ForwardResult,
    d_embedding=None,
    d_logits=None,
) -> tuple[ParamGrads, np.ndarray]:
    """Backpropagate upstream gradients from the heads to all parameters.

    Requires the cache from a prior forward with the same params; returns
    (parameter gradients, gradient w.r.t. the input). Upstream gradients are
    (batch, width) arrays; anything else raises DimensionError. Zero-fallback
    embedding rows are locally constant, so their embedding gradient is dropped.
    """
    cache = result.cache
    if cache is None:
        raise UsageError("backward needs the cache from a prior forward pass")
    if cache.params is not params:
        raise UsageError("backward called with different params than the forward pass")
    config = params.config
    bsz = cache.x.shape[0]

    def _up(g, width):
        if g is None:
            return np.zeros((bsz, width))
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (bsz, width):
            raise DimensionError(f"upstream gradient shape {g.shape} != {(bsz, width)}")
        return g

    dq = _up(d_embedding, config.embed_dim)
    dz = _up(d_logits, config.num_classes)

    # L2-normalize backward: q = v/||v||, dv = (dq - q (q.dq)) / ||v||
    v = cache.pre_embed
    norms = np.where(cache.fallback, 1.0, cache.norms)
    q = v / norms[:, None]
    dv = (dq - q * np.sum(q * dq, axis=1, keepdims=True)) / norms[:, None]
    dv[cache.fallback] = 0.0

    dfeat = dv @ params.proj_w.T + dz @ params.cls_w.T
    g_proj_w = cache.features.T @ dv
    g_proj_b = dv.sum(axis=0)
    g_cls_w = cache.features.T @ dz
    g_cls_b = dz.sum(axis=0)

    enc_grads: list[np.ndarray] = []
    if config.is_grid:
        h, wd, _ = cache.fmaps.shape[1:]
        d_h = np.broadcast_to(dfeat[:, None, None, :] / (h * wd), cache.fmaps.shape).copy()
    else:
        d_h = dfeat
    for i in range(len(params.encoder) - 1, -1, -1):
        w, _ = params.encoder[i]
        pre, inp = cache.activations[i]
        d_pre = d_h * (pre > 0.0)
        if config.is_grid:
            dw, db, d_h = _conv_same_backward(inp, w, d_pre)
        else:
            dw = inp.T @ d_pre
            db = d_pre.sum(axis=0)
            d_h = d_pre @ w.T
        enc_grads[:0] = (dw, db)  # layers are visited last to first
    d_input = d_h  # empty-encoder MLP: d_h is still dfeat, the input gradient

    parts = enc_grads + [g_proj_w, g_proj_b, g_cls_w, g_cls_b]
    grads = ParamGrads(config, np.concatenate([g.reshape(-1) for g in parts]))
    return grads, d_input


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class GradientReport:
    """Analytic vs. central finite-difference gradients for one loss closure.

    Relative error per entry is |a - n| / max(|a|, |n|, 1e-12); ``degenerate``
    flags closures whose analytic and numeric gradients are both ~0.
    """

    analytic: dict[str, np.ndarray]
    numeric: dict[str, np.ndarray]
    max_rel_error: float
    worst_param: str
    degenerate: bool


def check_gradients(
    loss_fn: Callable[[BackboneParams], tuple[float, "ParamGrads | np.ndarray"]],
    params: BackboneParams,
    h: float = 1e-5,
) -> GradientReport:
    """Compare a closure's analytic gradient against central differences.

    ``loss_fn(params)`` must return (scalar loss, gradient); the gradient may
    be a ParamGrads or an already-flat vector. The numeric estimate perturbs
    each parameter by ±h. Raises NumericError on a non-finite loss.
    """
    loss0, grad0 = loss_fn(params)
    if not np.isfinite(loss0):
        raise NumericError("loss closure returned a non-finite value")
    flat_analytic = grad0.flatten() if isinstance(grad0, ParamGrads) else np.asarray(grad0, dtype=np.float64)
    theta = params.flatten()
    if flat_analytic.shape != theta.shape:
        raise DimensionError("analytic gradient length does not match parameter count")

    numeric = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        lp, _ = loss_fn(params.with_flat(theta + step))
        lm, _ = loss_fn(params.with_flat(theta - step))
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericError("loss closure returned a non-finite value during probing")
        numeric[i] = (lp - lm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(flat_analytic), np.abs(numeric)), 1e-12)
    rel = np.abs(flat_analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0

    analytic_by_name: dict[str, np.ndarray] = {}
    numeric_by_name: dict[str, np.ndarray] = {}
    names = []
    for name, a, b, shape in _layout(params.config):
        analytic_by_name[name] = flat_analytic[a:b].reshape(shape)
        numeric_by_name[name] = numeric[a:b].reshape(shape)
        names.extend([name] * (b - a))

    degenerate = bool(np.max(np.abs(flat_analytic), initial=0.0) < 1e-12
                      and np.max(np.abs(numeric), initial=0.0) < 1e-12)
    return GradientReport(
        analytic=analytic_by_name,
        numeric=numeric_by_name,
        max_rel_error=float(rel.max()) if rel.size else 0.0,
        worst_param=names[worst] if names else "",
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Checkpoint I/O
#
# Little-endian binary layout:
#   magic   4 bytes  b"PLCK"
#   version u32      1
#   grid    u8       0 = flat/MLP, 1 = grid/CNN
#   kernel  u32      conv kernel size (unused for MLP but always present)
#   embed   u32      projection embedding dim
#   classes u32      classifier output dim
#   n_in    u32      len(input_dims), then n_in * u32 dims
#   n_hid   u32      len(hidden_dims), then n_hid * u32 dims
#   n_tens  u32      shape table: per tensor u32 ndim + ndim * u32 dims
#   payload          float64 LE values, tensors concatenated in order

_MAGIC = b"PLCK"
_VERSION = 1


def save_params(params: BackboneParams, path) -> None:
    """Write a parameter checkpoint (documented little-endian binary)."""
    cfg = params.config
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<IBIII", _VERSION, 1 if cfg.is_grid else 0,
                       cfg.kernel_size, cfg.embed_dim, cfg.num_classes)
    out += struct.pack("<I", len(cfg.input_dims))
    out += struct.pack(f"<{len(cfg.input_dims)}I", *cfg.input_dims)
    out += struct.pack("<I", len(cfg.hidden_dims))
    if cfg.hidden_dims:
        out += struct.pack(f"<{len(cfg.hidden_dims)}I", *cfg.hidden_dims)
    tensors = params.tensors()
    out += struct.pack("<I", len(tensors))
    for _, a in tensors:
        out += struct.pack("<I", a.ndim)
        out += struct.pack(f"<{a.ndim}I", *a.shape)
    out += params.flat.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def _unpack(fmt: str, buf: bytes, off: int) -> tuple[tuple, int]:
    """Values of ``fmt`` read at ``off``, and the offset just past them."""
    try:
        return struct.unpack_from(fmt, buf, off), off + struct.calcsize(fmt)
    except struct.error as exc:
        raise CheckpointError(f"checkpoint truncated at byte {off}") from exc


def load_params(path) -> BackboneParams:
    """Read a checkpoint written by save_params."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != _MAGIC:
        raise CheckpointError("bad magic bytes (not a parameter checkpoint)")
    (version, grid, kernel, embed, classes), off = _unpack("<IBIII", buf, 4)
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (n_in,), off = _unpack("<I", buf, off)
    input_dims, off = _unpack(f"<{n_in}I", buf, off)
    (n_hid,), off = _unpack("<I", buf, off)
    hidden, off = _unpack(f"<{n_hid}I", buf, off)
    config = EncoderConfig(
        input_dims=input_dims,
        num_classes=classes,
        hidden_dims=hidden,
        embed_dim=embed,
        kernel_size=kernel,
    )
    if config.is_grid != bool(grid):
        raise CheckpointError("arch flag does not match input dims")
    (n_tens,), off = _unpack("<I", buf, off)
    shapes = []
    for _ in range(n_tens):
        (ndim,), off = _unpack("<I", buf, off)
        shape, off = _unpack(f"<{ndim}I", buf, off)
        shapes.append(shape)
    layout = _layout(config)
    if shapes != [shape for _, _, _, shape in layout]:
        raise CheckpointError("shape table does not match the declared architecture")
    n = layout[-1][2]
    if len(buf) - off < 8 * n:
        raise CheckpointError(f"checkpoint truncated in the float payload at byte {len(buf)}")
    if len(buf) - off > 8 * n:
        raise CheckpointError("trailing bytes after float payload")
    flat = np.frombuffer(buf, dtype="<f8", count=n, offset=off).astype(np.float64)
    return BackboneParams(config, flat)
