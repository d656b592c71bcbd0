"""Minimal differentiable numeric core.

A small encoder (MLP for flat features, 2-conv + global-average-pool CNN for
grid features) with an L2-normalized projection head and a linear classifier
head, hand-derived analytic gradients, and a central finite-difference
verification harness. Inputs are float64 ndarrays with a leading batch axis
(one sample is a batch of one); all parameters (and their gradients) live in
one contiguous float64 vector per model, with each named weight and bias a
reshaped view into it.

Each pass computes only what its caller reads. Training's raw-instance
passes, prediction and the annotator read only the logits, and the
augmentation refresh reads the conv feature maps on grids and the input
gradient on flat inputs. None of them reads the projection head, so
``forward`` leaves the whole head, its gemm and its L2 normalization, to the
first read of ``ForwardResult.pre_embed`` (or of ``embedding``, which reads
it). The same inputs raise as when the head ran in the forward: on a batch
with rows the forward checks the projection parameters, since any non-finite
one makes the head's output non-finite, and the first read raises when finite
weights overflow. ``backward`` skips a head whose upstream gradient is None:
its gradients are zeros without any work. It computes the input
gradient only under ``want_dx``, which only the flat saliency sets. It takes
only the ``ForwardResult``, which holds the params its forward used, so a
gradient cannot be taken against other weights, and one array per encoder
layer: its ReLU output, positive exactly where its pre-activation was.

A dense training step runs both passes on a few dozen rows, where numpy's
fixed cost per array call, not the arithmetic, sets the time. So the dense
paths keep their calls and temporaries few: a bias is added in place to its
gemm's output, the finiteness checks call ``.all()`` on the mask directly,
gradients are written straight into the ``ParamGrads`` views with ``out=``,
and a single upstream head adds no zero feature gradient. Each of these keeps
the same operations in the same order, so every value is bit for bit what the
plainer forms give; the tests keep those forms as oracles.

There is one forward body, ``forward_stack``, which runs the m models of an
(m, P) stack over the same rows; ``forward`` is its m = 1 case, and training
runs its query and key models as the two rows of a ModelPair's stack.
``backward`` writes into a caller's ``ParamGrads`` when given one (``out``),
so training allocates one gradient buffer per run rather than one per step.

The convs run one gemm per kernel tap over tiles of samples sized by
CONV_TILE_BYTES. Each tile is packed once into a flat buffer whose zero
rows and columns pad every image, so each tap reads one contiguous shifted
view of it and no tap copies its patch; the gemms also run over the pad
positions and their rows are dropped after the taps are summed. Over a
whole batch the buffers take megabytes and spill L2; a tile keeps them in
it. The forward output, the input gradient and the bias gradient are the
same bits at any tile size; only the weight gradient's last bits depend on
it, because each tile's gemm sums over that tile's rows and the tiles are
summed in order. (A tile of a single row, one 1x1 sample, is the exception:
numpy runs a one-row product as a matrix-vector call, which rounds apart
from the gemm.)

Everything is deterministic: weights come from a seeded generator and all
math is plain numpy in a fixed evaluation order.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DimensionError",
    "NumericError",
    "CheckpointError",
    "EncoderConfig",
    "BackboneParams",
    "ParamGrads",
    "ForwardResult",
    "GradientReport",
    "init_params",
    "forward",
    "forward_stack",
    "backward",
    "check_gradients",
    "save_params",
    "load_params",
]

ZERO_NORM_EPS = 1e-30
CONV_TILE_BYTES = 128 << 10  # a conv tile's input pixels, (samples * h * w, c_in)


class DimensionError(ValueError):
    """Input or parameter shapes do not match the configured dimensions."""


class NumericError(ArithmeticError):
    """A public operation produced or received a non-finite value."""


class CheckpointError(ValueError):
    """A parameter checkpoint file is malformed."""


# ---------------------------------------------------------------------------
# Parameters


def _bound(low: int) -> str:
    return {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")


def _integer(name: str, value, error=ValueError, low: int | None = None) -> int:
    """``value`` as an int; ``error`` naming the field unless it is an integer
    (Python or numpy, not a bool, though ``operator.index(True)`` is 1) and,
    given ``low``, at least ``low``. Every module checks its counts, seeds and
    sizes here. A float is rejected, not truncated: 3.0 hashes equal to 3, so
    as a size it would also share the int config's ``_layout`` cache entry."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or value >= low:
                return value
            raise error(f"{name} must be {_bound(low)}, got {value}")
    raise error(f"{name} must be an integer, got {value!r}")


def _shaped(name: str, a: np.ndarray, shape, error) -> np.ndarray:
    """``a``; ``error`` naming it unless ``shape`` is None or ``a`` has that
    shape, a ``None`` extent matching any. A plain loop: training checks
    several arrays per step, and a generator would double the cost."""
    if shape is None or a.shape == shape:
        return a
    if a.ndim == len(shape):
        for want, got in zip(shape, a.shape):
            if want is not None and want != got:
                break
        else:
            return a
    spec = ", ".join("*" if want is None else str(want) for want in shape)
    raise error(f"{name} must have shape ({spec}{',' if len(shape) == 1 else ''}), got {a.shape}")


def _indices(values, n: int | None = None, name: str = "instance indices",
             error=ValueError, shape: tuple | None = None, low: int | None = 0) -> np.ndarray:
    """``values`` as an int64 array, converted without a copy when they are
    one; ``error`` naming them unless, in this order, their dtype is an
    integer one (an empty input of any dtype passes), so neither a fraction
    nor a bool is read as an index; they have ``shape`` (see ``_array``);
    and they are at least ``low`` and, given ``n``, below ``n``. Labels,
    predictions and sample indices are nonnegative, so ``low`` is 0 unless a
    caller without ``n`` opts out with None (a dataset's true labels, where
    -1 means unknown). Every module checks its index arrays here."""
    idx = np.asarray(values)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise error(f"{name} must be integers, got dtype {idx.dtype}")
    idx = _shaped(name, idx.astype(np.int64, copy=False), shape, error)
    if idx.size and ((low is not None and idx.min() < low) or (n is not None and idx.max() >= n)):
        raise error(f"{name} must " + (f"be {_bound(low)}" if n is None else f"lie in [{low}, {n})"))
    return idx


def _array(name: str, value, shape: tuple | None = None, dtype=np.float64, error=ValueError,
           finite: bool = False) -> np.ndarray:
    """``value`` as an array of ``dtype``, converted without a copy when it is
    one; ``error`` naming it unless it has ``shape``, a tuple whose ``None``
    entries match any extent (no check when ``shape`` is None), and, given
    ``finite``, unless every entry is finite. Every module checks its float
    and mask array arguments here, as ``_indices`` checks index arrays."""
    a = _shaped(name, np.asarray(value, dtype=dtype), shape, error)
    if finite and not np.isfinite(a).all():
        raise error(f"{name} must be finite")
    return a


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's maximum."""
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _real(name: str, value, low: float = -math.inf, high: float = math.inf,
          error=ValueError, open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a float; ``error`` naming the field unless it is a real
    number (Python or numpy, not a bool), finite, and between ``low`` and
    ``high``, each end closed unless its ``open_`` flag is set. Every module
    checks its float settings here; a plain float, which training passes on
    every step, skips the ``numbers.Real`` test."""
    number = value
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
    if (math.isfinite(number) and (low < number if open_low else low <= number)
            and (number < high if open_high else number <= high)):
        return number
    if low == 0 and high == math.inf:
        rule = f"be {'positive' if open_low else 'nonnegative'} and finite"
    else:
        rule = (f"lie in {'(' if open_low or low == -math.inf else '['}{low:g}, "
                f"{high:g}{')' if open_high or high == math.inf else ']'}")
    raise error(f"{name} must {rule}, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the shared backbone plus its two heads.

    ``input_dims`` with one entry selects the MLP (``hidden_dims`` are layer
    widths, (32,) when None); three entries (h, w, ch) select the 2-conv +
    global-average-pool CNN (``hidden_dims`` are the two conv channel counts,
    (32, 32) when None). The projection head maps the penultimate features to
    an L2-normalized embedding; the classifier head maps them to
    ``num_classes`` logits.
    """

    input_dims: tuple[int, ...]
    num_classes: int
    hidden_dims: tuple[int, ...] | None = None
    embed_dim: int = 32
    kernel_size: int = 3

    def __post_init__(self):
        dims = tuple(_integer("input_dims", d, DimensionError, low=1) for d in self.input_dims)
        object.__setattr__(self, "input_dims", dims)
        if len(dims) not in (1, 3):
            raise DimensionError(f"input_dims must be (d,) or (h, w, ch), got {dims}")
        hidden = self.hidden_dims
        if hidden is None:
            hidden = (32, 32) if self.is_grid else (32,)
        object.__setattr__(self, "hidden_dims", tuple(
            _integer("hidden_dims", d, DimensionError, low=1) for d in hidden))
        for name, low in (("num_classes", 2), ("embed_dim", 1), ("kernel_size", 1)):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name), DimensionError, low=low))
        if self.is_grid and len(self.hidden_dims) != 2:
            raise DimensionError("grid encoder needs exactly two conv channel counts")
        if self.is_grid and self.kernel_size % 2 != 1:
            raise DimensionError("kernel_size must be odd (same padding)")

    @property
    def is_grid(self) -> bool:
        return len(self.input_dims) == 3

    @property
    def feature_dim(self) -> int:
        """Width of the penultimate representation both heads consume."""
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dims[0]


@functools.cache
def _layout(config: EncoderConfig) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """(name, start, stop, shape) of each tensor inside the flat parameter vector."""
    shapes: list[tuple[str, tuple[int, ...]]] = []
    taps = (config.kernel_size,) * 2 if config.is_grid else ()  # conv weights lead with k, k
    d_in = config.input_dims[-1]  # the width of a row, or a grid's channel count
    for i, d_out in enumerate(config.hidden_dims):
        shapes.append((f"enc{i}.w", taps + (d_in, d_out)))
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

    A stack of models is one snapshot too: ``flat`` is then an (m, P) array,
    one model per row, and every view leads with the model axis m.
    """

    def __init__(self, config: EncoderConfig, flat: np.ndarray):
        layout = _layout(config)
        if flat.ndim not in (1, 2) or flat.shape[-1] != layout[-1][2]:
            raise DimensionError("flat vector length does not match parameter count")
        self.config = config
        self.flat = flat
        views = self._views()
        self.encoder = list(zip(views[:-4:2], views[1:-4:2]))
        self.proj_w, self.proj_b, self.cls_w, self.cls_b = views[-4:]

    def _views(self) -> list[np.ndarray]:
        lead = self.flat.shape[:-1]  # () for one model, (m,) for a stack
        return [self.flat[..., a:b].reshape(lead + shape)
                for _, a, b, shape in _layout(self.config)]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, view) for (name, *_), view in zip(_layout(self.config), self._views())]

    @functools.cached_property
    def rows(self) -> tuple["BackboneParams", ...]:
        """One snapshot per model of an (m, P) stack, each a view of its row;
        built on first read, so a stack run every step builds them once."""
        return tuple(BackboneParams(self.config, row) for row in self.flat)

    @functools.cached_property
    def stack(self) -> "BackboneParams":
        """This model as a one-row stack, built on first read; ``forward`` runs
        it. Its row is a snapshot of its own, a view of ``flat``, so the stack
        refers to ``flat`` and not back to this snapshot."""
        return BackboneParams(self.config, self.flat[None])

    def flatten(self) -> np.ndarray:
        """A copy of ``flat``. Nothing in the package or its tests calls it; it
        stays while the benchmark's span bindings name it."""
        return self.flat.copy()

    def with_flat(self, flat: np.ndarray) -> "BackboneParams":
        """A new snapshot holding a copy of ``flat`` (same structure)."""
        return BackboneParams(self.config, np.array(flat, dtype=np.float64).reshape(-1))

    def copy(self) -> "BackboneParams":
        return BackboneParams(self.config, self.flat.copy())


class ParamGrads(BackboneParams):
    """Parameter gradients, in the same flat layout as BackboneParams."""

    flatten = BackboneParams.flatten  # uncalled, kept for the benchmark's span bindings


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
class ForwardResult:
    """Output of a forward pass.

    ``logits`` has one entry per class and ``features`` is the shared
    penultimate representation both heads read. ``pre_embed`` is the
    projection head's output and ``embedding`` is it L2-normalized, with
    zero-vector rows falling back to the first basis vector, flagged in
    ``zero_fallback``. Most callers read only the logits, so the head runs
    when any of these is first read and is cached on the result; the cached
    arrays are shared, not copied. That read raises NumericError("non-finite
    values in forward output") when finite weights overflow; non-finite ones
    have already raised in the forward. ``outputs[0]`` is the checked batched
    input and ``outputs[i + 1]`` encoder layer i's ReLU output, computed in
    place (the conv feature maps on grids, ``features`` itself for the MLP).
    ``backward`` reads ``params`` and these: layer i's input is
    ``outputs[i]`` and its ReLU mask ``outputs[i + 1] > 0``; a caller that
    keeps only some frees the rest.
    """

    logits: np.ndarray
    features: np.ndarray
    params: BackboneParams
    outputs: list

    @functools.cached_property
    def pre_embed(self) -> np.ndarray:
        """``features @ proj_w + proj_b``, the bias added in place: the 2-D
        gemm a stack's broadcast matmul runs for this model, so the same bits.
        Checking it covers the embedding, which is finite exactly when it is:
        an inf row normalizes to inf/inf = NaN, a NaN stays NaN, and a zero
        row falls back to a basis vector."""
        pre_embed = self.features @ self.params.proj_w
        pre_embed += self.params.proj_b
        if not np.isfinite(pre_embed).all():
            raise NumericError("non-finite values in forward output")
        return pre_embed

    @functools.cached_property
    def _safe_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """(row norms of ``pre_embed`` with fallback rows set to one, fallback mask)."""
        v = self.pre_embed
        norms = np.sqrt(np.add.reduce(v * v, axis=1))  # np.linalg.norm's reduction
        fallback = norms < ZERO_NORM_EPS
        return np.where(fallback, 1.0, norms), fallback

    @property
    def zero_fallback(self) -> np.ndarray:
        return self._safe_norms[1]

    @functools.cached_property
    def embedding(self) -> np.ndarray:
        safe, fallback = self._safe_norms
        embedding = self.pre_embed / safe[:, None]
        if np.any(fallback):
            embedding[fallback] = 0.0
            embedding[fallback, 0] = 1.0
        return embedding


def _pixels(packed: np.ndarray, n: int, h: int, wid: int, p: int) -> np.ndarray:
    """The (n, h, wid, c) pixel view of a packed (rows, c) block whose first
    row is pixel (0, 0) of its first sample; the pad positions are left out.
    ``packed`` needs n (h + p)(wid + p) rows, the trailing pad included."""
    return packed[: n * (h + p) * (wid + p)].reshape(n, h + p, wid + p, -1)[:, :h, :wid]


def _packed_tiles(x: np.ndarray, k: int):
    """Yield (first sample, sample count, tap views) over tiles of ``x``'s samples.

    A tile's samples are packed into one zeroed flat (rows, c) buffer with row
    stride wid + p and sample stride (h + p)(wid + p), p = k // 2: the p zero
    columns after each image row and the p zero rows after each sample pad
    both of their neighbours, and p zero rows plus p guard elements come
    before the first sample. Tap (di, dj) of every output position then reads
    one contiguous view of the buffer, shifted by (di - p)(wid + p) + dj - p.
    The views, in (di, dj) order, start at pixel (0, 0) of the first sample
    and end at pixel (h - 1, wid - 1) of the last, so they cover the pad
    positions in between, which ``_pixels`` drops, and read only the tile's
    own pixels and zeros. Tiles hold as many samples as keep their pixels
    within CONV_TILE_BYTES; the buffer is reused.
    """
    bsz, h, wid, c = x.shape
    p = k // 2
    stride = (h + p) * (wid + p)
    q = p * (wid + p) + p  # buffer row of the first sample's pixel (0, 0)
    tile = max(1, CONV_TILE_BYTES // (h * wid * c * x.itemsize))
    buf = np.zeros((q + min(tile, bsz) * stride, c))
    starts = [q + (di - p) * (wid + p) + dj - p for di in range(k) for dj in range(k)]
    for s in range(0, bsz, tile):
        n = min(tile, bsz - s)
        rows = n * stride - q
        _pixels(buf[q:], n, h, wid, p)[...] = x[s : s + n]
        yield s, n, [buf[a : a + rows] for a in starts]


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 same-padding conv, NHWC layout; no bias added when ``b`` is None.

    One gemm per kernel tap, run in place on each tap's view of a packed tile
    (``_packed_tiles``), so no tap copies a patch. The first tap writes the
    tile's accumulator and each later one adds through one reused temporary,
    in (di, dj) order; extracting the valid pixels adds the bias. The gemms
    also run over the pad positions (81 rows per 64 pixels at 8x8, k = 3),
    which is cheaper than copying each tap's patch. Rows are independent and
    every output sums its taps in the same order, so the tile size changes no
    bit, one-row tiles aside (see the module docstring).
    """
    k = w.shape[0]
    p = k // 2
    bsz, h, wid, _ = x.shape
    c_out = w.shape[3]
    taps = [w[di, dj] for di in range(k) for dj in range(k)]
    y = np.empty((bsz, h, wid, c_out))
    acc = None
    for s, n, views in _packed_tiles(x, k):
        rows = len(views[0])
        if acc is None:
            acc = np.empty((n * (h + p) * (wid + p), c_out))
            tmp = np.empty((rows, c_out))
        acc_t, tmp_t = acc[:rows], tmp[:rows]
        np.matmul(views[0], taps[0], out=acc_t)
        for view, tap in zip(views[1:], taps[1:]):
            np.matmul(view, tap, out=tmp_t)
            acc_t += tmp_t
        valid = _pixels(acc, n, h, wid, p)
        if b is None:
            y[s : s + n] = valid
        else:
            np.add(valid, b, out=y[s : s + n])
    return y


def _conv_same_backward(x, w, dy, want_dx: bool = True):
    """(dw, db, dx) of _conv_same, with dx None unless ``want_dx``.

    dw packs each tile's dy like its input, with zeros at the pad positions,
    and sums one gemm per tap, ``view.T @ dy_packed``, over the tiles in
    order; the zeros add nothing, but the tile size sets the gemm lengths and
    the order of the tile sums, so it moves dw's last bits, and nothing else's.
    dx is the same-padding conv of the spatially flipped dy with each tap
    transposed, flipped back: every input pixel then sums its taps in the
    order a scatter of dy through the taps would.
    """
    k = w.shape[0]
    p = k // 2
    h, wid, c_in = x.shape[1:]
    c_out = w.shape[3]
    dw = np.zeros_like(w)
    dw_taps = dw.reshape(k * k, c_in, c_out)
    dw_tap = np.empty((c_in, c_out))
    dy_packed = None
    for s, n, views in _packed_tiles(x, k):
        rows = len(views[0])
        if dy_packed is None:
            dy_packed = np.zeros((n * (h + p) * (wid + p), c_out))
        _pixels(dy_packed, n, h, wid, p)[...] = dy[s : s + n]
        dy_t = dy_packed[:rows]
        for view, g in zip(views, dw_taps):
            np.matmul(view.T, dy_t, out=dw_tap)
            g += dw_tap
    db = np.einsum("bhwc->c", dy)
    dx = None
    if want_dx:
        dx = _conv_same(dy[:, ::-1, ::-1], w.swapaxes(2, 3))[:, ::-1, ::-1]
    return dw, db, dx


def forward(params: BackboneParams, x) -> ForwardResult:
    """Run the shared backbone and both heads of one model: the m = 1 case of
    ``forward_stack``, run on ``params.stack``. The result's ``params`` is that
    stack's row, a snapshot of ``params``' config over the same memory.

    Takes a batch (leading axis), so a single input is passed as ``x[None]``.
    Deterministic for fixed params and input; raises DimensionError on shape
    mismatch (an unbatched input included) and NumericError on a non-finite
    input, logit or, given rows, projection parameter. The projection head
    runs on the first read of the result's ``pre_embed`` or ``embedding``,
    which raises NumericError if finite weights overflow it.
    """
    return forward_stack(params.stack, x)[0]


def forward_stack(stack: BackboneParams, x) -> tuple[ForwardResult, ...]:
    """``forward`` of each model of an (m, P) stack over the same rows, in one pass.

    Returns one ForwardResult per row, whose ``params`` is that row's snapshot
    in ``stack.rows``; its arrays are views of arrays the pass shares, so
    ``backward`` takes any of them. Each dense layer and the classifier head is
    one broadcast matmul over the (m, ...) weight views, which numpy runs as one
    BLAS call per model on the same 2-D operands, so no model's values depend
    on the others in the stack. The projection head is left to each result's
    first read of ``pre_embed``, one 2-D gemm per model. The finiteness checks
    run once for all models: a non-finite input, logit or, on a batch with
    rows, projection weight or bias of any model raises NumericError; a
    zero-row batch has no head output and checks no projection parameter. On
    grids each conv layer runs once per model, one model's layers after the
    other, and the pooled features of all are written to one (m, batch,
    width) array for the heads.
    """
    config = stack.config
    models = stack.rows
    xb = np.asarray(x, dtype=np.float64)
    if xb.shape[1:] != config.input_dims:
        raise DimensionError(f"input shape {xb.shape} is not a batch of {config.input_dims}")
    if not np.isfinite(xb).all():
        raise NumericError("non-finite values in forward input")

    outputs = [[xb] for _ in models]
    if config.is_grid:
        features = np.empty((len(models), xb.shape[0], config.feature_dim))
        for m, params in enumerate(models):
            h = xb
            for w, b in params.encoder:
                h = _conv_same(h, w, b)
                np.maximum(h, 0.0, out=h)
                outputs[m].append(h)
            np.einsum("bhwc->bc", h, out=features[m])
        features /= h.shape[1] * h.shape[2]
    else:
        features = xb  # (batch, width) broadcasts over the weights' model axis
        for w, b in stack.encoder:
            features = features @ w
            features += b[:, None]
            np.maximum(features, 0.0, out=features)
            for m, out in enumerate(outputs):
                out.append(features[m])

    logits = features @ stack.cls_w
    logits += stack.cls_b[:, None]
    # a non-finite projection weight or bias makes every row's pre_embed
    # non-finite (inf * 0 is NaN), so checking proj.w and proj.b, one
    # contiguous slice of each row, raises where checking the head would
    layout = _layout(config)
    head = stack.flat[:, layout[-4][1] : layout[-3][2]]
    if not np.isfinite(logits).all() or (len(xb) and not np.isfinite(head).all()):
        raise NumericError("non-finite values in forward output")
    if features is xb:  # no hidden layer: every model's features are the input
        features = (xb,) * len(models)
    return tuple(ForwardResult(logits[m], features[m], params, outputs[m])
                 for m, params in enumerate(models))


def backward(
    result: ForwardResult,
    d_embedding=None,
    d_logits=None,
    want_dx: bool = False,
    out: ParamGrads | None = None,
) -> tuple[ParamGrads, np.ndarray | None]:
    """Backpropagate upstream gradients from the heads to all parameters.

    Reads the params and layer outputs ``result`` holds, so the gradients
    are those of the weights its forward ran; returns
    (parameter gradients, d_input). ``d_input`` is the gradient w.r.t. the
    input, shaped like it, and None unless ``want_dx``: only the flat
    saliency reads it, so training never pays for the first layer's input
    gradient. Upstream gradients are (batch, width) arrays; anything
    else raises DimensionError. A head whose upstream gradient is None gets
    zero gradients and costs nothing: no normalize backward, no gemm.
    Zero-fallback embedding rows are locally constant, so their embedding
    gradient is dropped. ``out``, a ParamGrads of the params' config, is
    written in full and returned: a head without an upstream gradient is
    zeroed, whatever the buffer held, so one buffer serves every call; a
    fresh one is allocated when it is None.
    """
    params = result.params
    config = params.config
    grid = config.is_grid
    bsz = result.logits.shape[0]
    if out is None:
        grads = ParamGrads(config, np.zeros(params.flat.size))
    else:
        if out.config is not config and out.config != config:
            raise DimensionError("gradient buffer's config differs from the params'")
        grads = out
        if d_embedding is None:
            grads.proj_w.fill(0.0)
            grads.proj_b.fill(0.0)
        if d_logits is None:
            grads.cls_w.fill(0.0)
            grads.cls_b.fill(0.0)
    features = result.features

    dfeat = None  # the sum of both heads' feature gradients, zeros without either
    if d_embedding is not None:
        dq = _array("d_embedding", d_embedding, (bsz, config.embed_dim), error=DimensionError)
        # L2-normalize backward: q = v/||v||, dv = (dq - q (q.dq)) / ||v||
        norms, fallback = result._safe_norms
        q = result.embedding  # v / norms on every row whose dv survives
        dv = (dq - q * np.sum(q * dq, axis=1, keepdims=True)) / norms[:, None]
        dv[fallback] = 0.0
        dfeat = dv @ params.proj_w.T
        np.matmul(features.T, dv, out=grads.proj_w)
        dv.sum(axis=0, out=grads.proj_b)
    if d_logits is not None:
        dz = _array("d_logits", d_logits, (bsz, config.num_classes), error=DimensionError)
        if dfeat is None:
            dfeat = dz @ params.cls_w.T
        else:
            dfeat += dz @ params.cls_w.T
        np.matmul(features.T, dz, out=grads.cls_w)
        dz.sum(axis=0, out=grads.cls_b)
    if dfeat is None:
        dfeat = np.zeros((bsz, config.feature_dim))

    if grid:
        h, wd, _ = result.outputs[-1].shape[1:]
        d_h = (dfeat / (h * wd))[:, None, None, :]  # broadcast by the top ReLU mask
    else:
        d_h = dfeat
    for i in range(len(params.encoder) - 1, -1, -1):
        w, _ = params.encoder[i]
        inp = result.outputs[i]
        d_pre = d_h * (result.outputs[i + 1] > 0.0)  # relu(pre) > 0 exactly where pre > 0
        g_w, g_b = grads.encoder[i]
        want = i > 0 or want_dx
        if grid:
            g_w[...], g_b[...], d_h = _conv_same_backward(inp, w, d_pre, want_dx=want)
        else:
            np.matmul(inp.T, d_pre, out=g_w)
            d_pre.sum(axis=0, out=g_b)
            d_h = d_pre @ w.T if want else None
    return grads, d_h if want_dx else None  # with no hidden layer, d_h is dfeat


# ---------------------------------------------------------------------------
# Finite-difference verification


@dataclass
class GradientReport:
    """Analytic vs. central finite-difference gradients for one loss closure.

    Relative error per entry is |a - n| / max(|a|, |n|, 1e-12);
    ``worst_param`` names the tensor holding the entry with the largest one.
    ``degenerate`` flags closures whose analytic and numeric gradients are
    both ~0.
    """

    max_rel_error: float
    worst_param: str
    degenerate: bool


def check_gradients(
    loss_fn: Callable[[BackboneParams], tuple[float, np.ndarray]],
    params: BackboneParams,
    h: float = 1e-5,
) -> GradientReport:
    """Compare a closure's analytic gradient against central differences.

    ``loss_fn(params)`` must return (scalar loss, flat gradient vector in the
    params' layout); a ParamGrads passes its ``.flat``. The numeric estimate
    perturbs each parameter by ±h. Raises ValueError unless h is positive and
    finite, and NumericError on a non-finite loss.
    """
    _real("h", h, 0.0, open_low=True)
    loss0, grad0 = loss_fn(params)
    if not np.isfinite(loss0):
        raise NumericError("loss closure returned a non-finite value")
    analytic = np.asarray(grad0, dtype=np.float64)
    theta = params.flat.copy()
    if analytic.shape != theta.shape:
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

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))  # every layout holds the classifier head
    degenerate = bool(np.max(np.abs(analytic)) < 1e-12 and np.max(np.abs(numeric)) < 1e-12)
    return GradientReport(
        max_rel_error=float(rel[worst]),
        worst_param=next(name for name, _, stop, _ in _layout(params.config) if worst < stop),
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
    """Read a checkpoint written by save_params; CheckpointError on a malformed
    file or a non-finite value, naming the first tensor that holds one."""
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
    try:
        config = EncoderConfig(
            input_dims=input_dims,
            num_classes=classes,
            hidden_dims=hidden,
            embed_dim=embed,
            kernel_size=kernel,
        )
    except DimensionError as exc:
        raise CheckpointError(f"declared architecture is invalid: {exc}") from exc
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
    params = BackboneParams(config, flat)
    for name, a in params.tensors():
        if not np.isfinite(a).all():
            raise CheckpointError(f"tensor {name} holds a non-finite value")
    return params
