import hashlib
import tracemalloc

import numpy as np
import pytest

from pllab import numkernel
from pllab.numkernel import (
    BackboneParams,
    CheckpointError,
    DimensionError,
    EncoderConfig,
    NumericError,
    ParamGrads,
    backward,
    check_gradients,
    forward,
    forward_stack,
    init_params,
    load_params,
    save_params,
)


def mlp_config(d=6, hidden=(8,), e=5, c=4):
    return EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=hidden, embed_dim=e)


def zero_params(config):
    p = init_params(config, seed=0)
    return p.with_flat(np.zeros_like(p.flat))


def conv_same_reference(x, w, b):
    """The whole-batch tap loop the tiled conv replaced, kept as its oracle."""
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


def conv_same_backward_reference(x, w, dy):
    """Whole-batch (dw, db, dx): one gemm per tap for dw, dy scattered per tap for dx."""
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


def tile_samples(h, w, c_in):
    """Samples per conv tile at the module's CONV_TILE_BYTES."""
    return numkernel.CONV_TILE_BYTES // (h * w * c_in * 8)


class TestTiledConvParity:
    """The tiled conv kernels against the whole-batch tap loops they replaced."""

    @pytest.mark.parametrize("c_in, c_out", [(8, 8), (8, 16), (3, 5)])
    @pytest.mark.parametrize("batch", [
        lambda tile: 1, lambda tile: tile - 1, lambda tile: tile, lambda tile: tile + 1,
        lambda tile: 2 * tile + 1, lambda tile: 600,
    ], ids=["1", "tile-1", "tile", "tile+1", "2tile+1", "600"])
    def test_matches_whole_batch_tap_loop(self, c_in, c_out, batch):
        tile = tile_samples(8, 8, c_in)
        assert tile > 2
        bsz = batch(tile)
        rng = np.random.default_rng([c_in, c_out, bsz])
        x = rng.normal(size=(bsz, 8, 8, c_in))
        w = rng.normal(size=(3, 3, c_in, c_out)) / np.sqrt(9 * c_in)
        b = rng.normal(size=c_out)
        dy = rng.normal(size=(bsz, 8, 8, c_out))

        np.testing.assert_array_equal(numkernel._conv_same(x, w, b), conv_same_reference(x, w, b))
        dw, db, dx = numkernel._conv_same_backward(x, w, dy)
        dw_ref, db_ref, dx_ref = conv_same_backward_reference(x, w, dy)
        np.testing.assert_array_equal(dx, dx_ref)
        np.testing.assert_array_equal(db, db_ref)
        # dw sums its tiles in order: only its last bits may move
        assert np.abs(dw - dw_ref).max() <= 1e-12 * np.abs(dw_ref).max()


class TestPackedConvParity:
    """The packed-tile kernels on other grids, kernel sizes and channel counts,
    with tiles of a few samples so that the larger batches cross tiles.

    numpy runs a one-row product as a matrix-vector call, which rounds
    differently from the gemm over more rows, so on 1x1 grids no batch here
    leaves a single sample in its last tile.
    """

    @pytest.mark.parametrize("h, wid", [(1, 1), (2, 3), (5, 7)])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("c_in, c_out", [(1, 1), (1, 4), (3, 1), (3, 5)])
    @pytest.mark.parametrize("bsz", [1, 5, 8])
    def test_matches_whole_batch_tap_loop(self, monkeypatch, h, wid, k, c_in, c_out, bsz):
        # three samples of the wider of x and dy per tile: 8 samples span three
        monkeypatch.setattr(numkernel, "CONV_TILE_BYTES", 3 * h * wid * max(c_in, c_out) * 8)
        rng = np.random.default_rng([h, wid, k, c_in, c_out, bsz])
        x = rng.normal(size=(bsz, h, wid, c_in))
        w = rng.normal(size=(k, k, c_in, c_out)) / np.sqrt(k * k * c_in)
        b = rng.normal(size=c_out)
        dy = rng.normal(size=(bsz, h, wid, c_out))

        np.testing.assert_array_equal(numkernel._conv_same(x, w, b), conv_same_reference(x, w, b))
        dw, db, dx = numkernel._conv_same_backward(x, w, dy)
        dw_ref, db_ref, dx_ref = conv_same_backward_reference(x, w, dy)
        np.testing.assert_array_equal(dx, dx_ref)
        if c_out > 1:
            np.testing.assert_array_equal(db, db_ref)
        else:  # one channel: the einsum and the pairwise sum may round apart
            np.testing.assert_allclose(db, db_ref, rtol=1e-12, atol=0)
        assert np.abs(dw - dw_ref).max() <= 1e-12 * np.abs(dw_ref).max()


class TestEinsumReductions:
    """The grid pooling and the conv bias gradient sum with einsum: bitwise the
    plain reductions at more than one channel, within rounding at one."""

    @pytest.mark.parametrize("widths, exact", [((1, 1), False), ((8, 16), True)])
    def test_pooled_features_match_mean(self, widths, exact):
        config = EncoderConfig(input_dims=(8, 8, 3), num_classes=3, hidden_dims=widths)
        params = init_params(config, seed=1)
        res = forward(params, np.random.default_rng(2).normal(size=(70, 8, 8, 3)))
        expected = res.outputs[-1].mean(axis=(1, 2))
        if exact:
            np.testing.assert_array_equal(res.features, expected)
        else:
            np.testing.assert_allclose(res.features, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("c_in, c_out, exact", [(1, 1, False), (8, 16, True)])
    def test_bias_gradient_matches_sum(self, c_in, c_out, exact):
        rng = np.random.default_rng([c_in, c_out])
        x = rng.normal(size=(70, 8, 8, c_in))
        w = rng.normal(size=(3, 3, c_in, c_out))
        dy = rng.normal(size=(70, 8, 8, c_out))
        _, db, _ = numkernel._conv_same_backward(x, w, dy, want_dx=False)
        _, db_ref, _ = conv_same_backward_reference(x, w, dy)
        if exact:
            np.testing.assert_array_equal(db, db_ref)
        else:
            np.testing.assert_allclose(db, db_ref, rtol=1e-12, atol=0)


class TestParamLayout:
    def test_views_write_through_and_snapshots_do_not_alias(self):
        params = init_params(mlp_config(), seed=3)
        params.cls_w[:] = 0.0
        params.encoder[0][1][...] = 2.5
        params.proj_b *= 7.5
        expected = np.concatenate([a.reshape(-1) for _, a in params.tensors()])
        np.testing.assert_array_equal(params.flat, expected)
        copy, rebuilt = params.copy(), params.with_flat(params.flat)
        params.flat[:] = -1.0
        for snapshot in (copy, rebuilt):
            np.testing.assert_array_equal(snapshot.flat, expected)
            np.testing.assert_array_equal(snapshot.cls_w, 0.0)

    @pytest.mark.parametrize("input_dims,hidden", [
        ((6,), (0,)), ((6,), (-3,)), ((6,), (8, 0)), ((4, 4, 2), (0, 3)),
    ])
    def test_nonpositive_hidden_width_rejected(self, input_dims, hidden):
        with pytest.raises(DimensionError, match="hidden_dims must be positive"):
            EncoderConfig(input_dims=input_dims, num_classes=3, hidden_dims=hidden)

    @pytest.mark.parametrize("input_dims,hidden,match", [
        ((4, 4), None, r"\(d,\) or \(h, w, ch\)"),
        ((4, 4, 2), (8,), "two conv channel counts"),
    ])
    def test_malformed_architecture_rejected(self, input_dims, hidden, match):
        with pytest.raises(DimensionError, match=match):
            EncoderConfig(input_dims=input_dims, num_classes=3, hidden_dims=hidden)

    @pytest.mark.parametrize("input_dims", [(0,), (-2,), (4, 0, 2), (4, 4, 0)])
    def test_nonpositive_input_width_rejected(self, input_dims):
        with pytest.raises(DimensionError, match="input_dims must be positive"):
            EncoderConfig(input_dims=input_dims, num_classes=3)

    @pytest.mark.parametrize("input_dims,widths", [((6,), (32,)), ((4, 4, 2), (32, 32))])
    def test_default_widths_follow_the_input_kind(self, input_dims, widths):
        config = EncoderConfig(input_dims=input_dims, num_classes=3)
        assert config.hidden_dims == widths
        assert config == EncoderConfig(input_dims=input_dims, num_classes=3, hidden_dims=widths)

    @pytest.mark.parametrize("kernel_size", [-3, -1, 0, 2])
    def test_grid_kernel_size_must_be_positive_and_odd(self, kernel_size):
        with pytest.raises(DimensionError, match="kernel_size"):
            EncoderConfig(input_dims=(4, 4, 2), num_classes=3, hidden_dims=(2, 3),
                          kernel_size=kernel_size)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(input_dims=(4.9,)), "input_dims"),
        (dict(input_dims=(4,), hidden_dims=(3.7, 3)), "hidden_dims"),
        (dict(input_dims=(4,), num_classes=3.5), "num_classes"),
        (dict(input_dims=(4,), embed_dim=4.5), "embed_dim"),
        (dict(input_dims=(4, 4, 2), hidden_dims=(3, 3), kernel_size=3.0), "kernel_size"),
    ])
    def test_non_integer_sizes_rejected(self, kwargs, name):
        with pytest.raises(DimensionError, match=f"{name} must be an integer"):
            EncoderConfig(**{"num_classes": 3, **kwargs})

    @pytest.mark.parametrize("kwargs, name", [
        (dict(input_dims=(True,)), "input_dims"),
        (dict(input_dims=(4,), hidden_dims=(True, 3)), "hidden_dims"),
        (dict(input_dims=(4,), num_classes=True), "num_classes"),
        (dict(input_dims=(4,), embed_dim=False), "embed_dim"),
        (dict(input_dims=(4, 4, 2), hidden_dims=(3, 3), kernel_size=True), "kernel_size"),
        (dict(input_dims=(4,), embed_dim=np.True_), "embed_dim"),
    ])
    def test_bool_sizes_rejected(self, kwargs, name):
        # operator.index(True) is 1, so a bool would pass as a size of one
        with pytest.raises(DimensionError, match=f"{name} must be an integer"):
            EncoderConfig(**{"num_classes": 3, **kwargs})

    def test_rejected_float_config_leaves_the_equal_int_config_usable(self):
        # kernel_size 3.0 == 3 with the same hash: an accepted float config
        # would have filled the int config's layout cache with float shapes
        with pytest.raises(DimensionError):
            init_params(EncoderConfig((4, 4, 2), 3, (3, 3), kernel_size=3.0))
        config = EncoderConfig((4, 4, 2), 3, (3, 3), kernel_size=np.int64(3))
        assert type(config.kernel_size) is int
        assert init_params(config).flat.size == 281

    def test_wrong_flat_length_rejected(self):
        params = init_params(mlp_config(), seed=3)
        with pytest.raises(DimensionError):
            params.with_flat(np.zeros(params.flat.size + 1))


class TestForward:
    def test_zero_everything_gives_zero_logits_and_fallback(self):
        config = mlp_config()
        params = zero_params(config)
        res = forward(params, np.zeros((1, 6)))
        np.testing.assert_array_equal(res.logits, np.zeros((1, 4)))
        assert res.zero_fallback.tolist() == [True]
        expected = np.zeros((1, 5))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(res.embedding, expected)

    def test_identity_projection_normalizes_3_4(self):
        # no hidden layers, projection = identity: [3,4] -> [0.6, 0.8]
        config = EncoderConfig(input_dims=(2,), num_classes=2, hidden_dims=(), embed_dim=2)
        params = zero_params(config)
        params.proj_w[:] = np.eye(2)
        res = forward(params, np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(res.embedding, [[0.6, 0.8]], atol=1e-15)

    def test_embedding_unit_norm(self):
        config = mlp_config()
        params = init_params(config, seed=3)
        rng = np.random.default_rng(0)
        res = forward(params, rng.normal(size=(50, 6)))
        norms = np.linalg.norm(res.embedding, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_positive_scaling_of_final_layer_keeps_argmax(self):
        config = mlp_config()
        params = init_params(config, seed=5)
        x = np.random.default_rng(1).normal(size=(1, 6))
        base = forward(params, x).logits
        scaled = params.copy()
        scaled.cls_w *= 7.5
        scaled.cls_b *= 7.5
        res = forward(scaled, x).logits
        np.testing.assert_allclose(res, 7.5 * base, rtol=1e-12)
        assert np.argmax(res) == np.argmax(base)

    def test_shape_mismatch_raises(self):
        params = init_params(mlp_config(), seed=0)
        with pytest.raises(DimensionError):
            forward(params, np.zeros((1, 7)))

    @pytest.mark.parametrize("config, shape", [
        (mlp_config(), (6,)),
        (EncoderConfig(input_dims=(4, 4, 2), num_classes=3, hidden_dims=(2, 3)), (4, 4, 2)),
    ])
    def test_unbatched_input_raises(self, config, shape):
        params = init_params(config, seed=0)
        with pytest.raises(DimensionError, match="not a batch"):
            forward(params, np.zeros(shape))
        forward(params, np.zeros(shape)[None])  # a batch of one is fine

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_raises(self, bad):
        x = np.zeros((2, 6))
        x[1, 3] = bad
        with pytest.raises(NumericError, match="forward input"):
            forward(init_params(mlp_config(), seed=0), x)

    def test_deterministic(self):
        params = init_params(mlp_config(), seed=9)
        x = np.random.default_rng(2).normal(size=(4, 6))
        a = forward(params, x)
        b = forward(params, x)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_result_keeps_each_layer_output_once(self):
        # no pre-activation copy: beyond its input, a grid result retains its
        # conv layers' ReLU outputs and the much smaller pooled features and heads
        config = EncoderConfig(input_dims=(8, 8, 8), num_classes=6, hidden_dims=(8, 16))
        params = init_params(config, seed=0)
        x = np.random.default_rng(0).normal(size=(256, 8, 8, 8))
        forward(params, x)  # warm every cache first
        tracemalloc.start()
        try:
            res = forward(params, x)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layer_bytes = 256 * 8 * 8 * (8 + 16) * 8
        assert retained < 1.5 * layer_bytes
        assert [a.shape for a in res.outputs] == [x.shape, (256, 8, 8, 8), (256, 8, 8, 16)]


class TestBackward:
    def test_single_linear_layer_sum_logits_outer_product(self):
        # loss = sum(logits) on a bare linear classifier: dW = outer(x, 1)
        config = EncoderConfig(input_dims=(3,), num_classes=2, hidden_dims=(), embed_dim=2)
        params = init_params(config, seed=0)
        x = np.array([1.5, -2.0, 0.5])
        res = forward(params, x[None])
        grads, _ = backward(res, d_logits=np.ones((1, 2)))
        np.testing.assert_allclose(grads.cls_w, np.outer(x, np.ones(2)), atol=1e-15)
        np.testing.assert_allclose(grads.cls_b, np.ones(2), atol=1e-15)

    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(mlp_config(), seed=1)
        x = np.random.default_rng(0).normal(size=(3, 6))
        res = forward(params, x)
        grads, dx = backward(res, d_embedding=np.zeros((3, 5)), d_logits=np.zeros((3, 4)),
                             want_dx=True)
        assert np.all(grads.flat == 0.0)
        assert np.all(dx == 0.0)

    def test_unbatched_upstream_gradient_raises(self):
        params = init_params(mlp_config(), seed=1)
        res = forward(params, np.zeros((1, 6)))
        with pytest.raises(DimensionError,
                           match=r"^d_logits must have shape \(1, 4\), got \(4,\)$"):
            backward(res, d_logits=np.ones(4))
        with pytest.raises(DimensionError,
                           match=r"^d_embedding must have shape \(1, 5\), got \(5,\)$"):
            backward(res, d_embedding=np.ones(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_mlp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        config = mlp_config(d=5, hidden=(7, 6), e=4, c=3)
        params = init_params(config, seed=seed)
        x = rng.normal(size=(4, 5))
        w_e = rng.normal(size=(4, 4))
        w_z = rng.normal(size=(4, 3))

        def loss(p):
            res = forward(p, x)
            value = float(np.sum(w_e * res.embedding) + np.sum(w_z * res.logits))
            grads, _ = backward(res, d_embedding=w_e, d_logits=w_z)
            return value, grads.flat

        report = check_gradients(loss, params, h=1e-5)
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_cnn_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        config = EncoderConfig(
            input_dims=(5, 4, 2), num_classes=3, hidden_dims=(3, 4), embed_dim=4
        )
        params = init_params(config, seed=seed)
        x = rng.normal(size=(2, 5, 4, 2))
        w_e = rng.normal(size=(2, 4))
        w_z = rng.normal(size=(2, 3))

        def loss(p):
            res = forward(p, x)
            value = float(np.sum(w_e * res.embedding) + np.sum(w_z * res.logits))
            grads, _ = backward(res, d_embedding=w_e, d_logits=w_z)
            return value, grads.flat

        report = check_gradients(loss, params, h=1e-5)
        assert report.max_rel_error < 1e-6

    def test_cnn_matches_finite_differences_across_tiles(self, monkeypatch):
        rng = np.random.default_rng(200)
        config = EncoderConfig(
            input_dims=(3, 3, 2), num_classes=3, hidden_dims=(3, 4), embed_dim=4
        )
        params = init_params(config, seed=7)
        x = rng.normal(size=(7, 3, 3, 2))
        w_e = rng.normal(size=(7, 4))
        w_z = rng.normal(size=(7, 3))
        whole = forward(params, x)
        # two-channel rows come two to a tile, wider ones one: 7 rows span 4 and 7 tiles
        monkeypatch.setattr(numkernel, "CONV_TILE_BYTES", 2 * 3 * 3 * 2 * 8)
        tiled = forward(params, x)
        np.testing.assert_array_equal(tiled.embedding, whole.embedding)
        np.testing.assert_array_equal(tiled.logits, whole.logits)
        np.testing.assert_array_equal(tiled.outputs[-1], whole.outputs[-1])

        def loss(p):
            res = forward(p, x)
            value = float(np.sum(w_e * res.embedding) + np.sum(w_z * res.logits))
            grads, _ = backward(res, d_embedding=w_e, d_logits=w_z)
            return value, grads.flat

        report = check_gradients(loss, params, h=1e-5)
        assert report.max_rel_error < 1e-6

    def test_grid_backward_has_no_input_gradient(self):
        config = EncoderConfig(input_dims=(4, 4, 2), num_classes=3, hidden_dims=(2, 3))
        params = init_params(config, seed=0)
        res = forward(params, np.random.default_rng(0).normal(size=(3, 4, 4, 2)))
        grads, d_input = backward(res, d_logits=np.ones((3, 3)))
        assert d_input is None
        assert np.all(np.isfinite(grads.flat))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params(mlp_config(), seed=7)
        x = rng.normal(size=(1, 6))
        w_z = rng.normal(size=(1, 4))

        res = forward(params, x)
        _, dx = backward(res, d_logits=w_z, want_dx=True)
        h = 1e-6
        numeric = np.zeros((1, 6))
        for i in range(6):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            numeric[0, i] = (
                np.sum(w_z * forward(params, xp).logits)
                - np.sum(w_z * forward(params, xm).logits)
            ) / (2 * h)
        np.testing.assert_allclose(dx, numeric, rtol=1e-5, atol=1e-8)

    def test_grid_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        config = EncoderConfig(input_dims=(3, 4, 2), num_classes=3, hidden_dims=(2, 3))
        params = init_params(config, seed=8)
        x = rng.normal(size=(2, 3, 4, 2))
        w_z = rng.normal(size=(2, 3))
        _, dx = backward(forward(params, x), d_logits=w_z, want_dx=True)
        assert dx.shape == x.shape
        h = 1e-6
        numeric = np.zeros(x.size)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp.flat[i] += h
            xm.flat[i] -= h
            numeric[i] = (np.sum(w_z * forward(params, xp).logits)
                          - np.sum(w_z * forward(params, xm).logits)) / (2 * h)
        np.testing.assert_allclose(dx.reshape(-1), numeric, rtol=1e-5, atol=1e-8)


def dense_forward_reference(params, x):
    """The dense ``forward`` before its array calls were cut (``h @ w + b``,
    ``np.all(np.isfinite(...))``), kept as its oracle: (logits, features,
    pre_embed, activations)."""
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite values in forward input")
    activations = []
    h = x
    for w, b in params.encoder:
        pre = h @ w + b
        activations.append((pre, h))
        h = np.maximum(pre, 0.0)
    pre_embed = h @ params.proj_w + params.proj_b
    logits = h @ params.cls_w + params.cls_b
    if not (np.all(np.isfinite(pre_embed)) and np.all(np.isfinite(logits))):
        raise NumericError("non-finite values in forward output")
    return logits, h, pre_embed, activations


def dense_backward_reference(result, activations, d_embedding=None, d_logits=None):
    """The dense ``backward`` before it wrote gradients in place (a zero
    feature gradient, fresh temporaries copied into the views) or read its
    ReLU masks from the layer outputs, kept as its oracle: (flat gradient,
    d_input). ``activations`` are ``dense_forward_reference``'s (pre-relu,
    input) pairs."""
    params = result.params
    config = params.config
    bsz = result.logits.shape[0]
    grads = BackboneParams(config, np.zeros(params.flat.size))
    features = result.features
    dfeat = np.zeros((bsz, config.feature_dim))
    if d_embedding is not None:
        norms, fallback = result._safe_norms
        q = result.embedding
        dv = (d_embedding - q * np.sum(q * d_embedding, axis=1, keepdims=True)) / norms[:, None]
        dv[fallback] = 0.0
        dfeat = dv @ params.proj_w.T
        grads.proj_w[...] = features.T @ dv
        grads.proj_b[...] = dv.sum(axis=0)
    if d_logits is not None:
        dfeat += d_logits @ params.cls_w.T
        grads.cls_w[...] = features.T @ d_logits
        grads.cls_b[...] = d_logits.sum(axis=0)
    d_h = dfeat
    for i in range(len(params.encoder) - 1, -1, -1):
        w, _ = params.encoder[i]
        pre, inp = activations[i]
        d_pre = d_h * (pre > 0.0)
        g_w, g_b = grads.encoder[i]
        g_w[...] = inp.T @ d_pre
        g_b[...] = d_pre.sum(axis=0)
        d_h = d_pre @ w.T
    return grads.flat, d_h


class TestDenseStepParity:
    """``forward`` and ``backward`` on dense encoders are bit for bit the
    previous kernels on every head combination, depth and batch size."""

    CASES = [(hidden, n) for hidden in [(), (8,), (7, 6)] for n in (0, 1, 64)]

    @staticmethod
    def scene(hidden, n, seed=0):
        config = mlp_config(d=6, hidden=hidden, e=5, c=4)
        params = init_params(config, seed=seed)
        rng = np.random.default_rng(seed)
        x = 2.0 * rng.normal(size=(n, 6))
        return params, x, rng.normal(size=(n, 5)), rng.normal(size=(n, 4))

    @pytest.mark.parametrize("hidden, n", CASES)
    def test_forward_matches_previous_kernel_bitwise(self, hidden, n):
        params, x, _, _ = self.scene(hidden, n)
        res = forward(params, x)
        logits, features, pre_embed, activations = dense_forward_reference(params, x)
        np.testing.assert_array_equal(res.logits, logits)
        np.testing.assert_array_equal(res.features, features)
        np.testing.assert_array_equal(res.pre_embed, pre_embed)
        # one array per layer: the input, then each layer's ReLU output
        assert len(res.outputs) == len(activations) + 1
        for i, (pre_ref, inp_ref) in enumerate(activations):
            np.testing.assert_array_equal(res.outputs[i], inp_ref)
            np.testing.assert_array_equal(res.outputs[i + 1], np.maximum(pre_ref, 0.0))
        np.testing.assert_array_equal(res.outputs[-1], features)

    @pytest.mark.parametrize("heads", ["logits", "embedding", "both", "neither"])
    @pytest.mark.parametrize("hidden, n", CASES)
    def test_backward_matches_previous_kernel_bitwise(self, hidden, n, heads):
        params, x, d_emb, d_log = self.scene(hidden, n, seed=len(hidden) + n)
        if n:
            # a zero input row: without hidden layers its embedding falls back
            x[0] = 0.0
            params.proj_b[...] = 0.0
        res = forward(params, x)
        kwargs = {
            "logits": dict(d_logits=d_log),
            "embedding": dict(d_embedding=d_emb),
            "both": dict(d_embedding=d_emb, d_logits=d_log),
            "neither": {},
        }[heads]
        grads, d_input = backward(res, **kwargs, want_dx=True)
        activations = dense_forward_reference(params, x)[3]
        flat_ref, d_input_ref = dense_backward_reference(res, activations, **kwargs)
        np.testing.assert_array_equal(grads.flat, flat_ref)
        np.testing.assert_array_equal(d_input, d_input_ref)
        # unasked, the input gradient is skipped and nothing else moves
        grads, d_input = backward(res, **kwargs)
        assert d_input is None
        np.testing.assert_array_equal(grads.flat, flat_ref)

def eager_embedding_reference(pre_embed):
    """The normalization forward ran eagerly before it was deferred, kept as its oracle."""
    norms = np.linalg.norm(pre_embed, axis=1)
    fallback = norms < numkernel.ZERO_NORM_EPS
    safe = np.where(fallback, 1.0, norms)
    embedding = pre_embed / safe[:, None]
    if np.any(fallback):
        embedding[fallback] = 0.0
        embedding[fallback, 0] = 1.0
    return embedding, fallback


def head_case(kind):
    """(params, input) whose row 0 has a zero pre-embedding: zero biases, a
    zero input row and a zero projection bias leave its features at zero."""
    if kind == "flat":
        config = mlp_config()
        x = np.random.default_rng(1).normal(size=(7, 6))
    else:
        config = EncoderConfig(input_dims=(4, 4, 2), num_classes=3, hidden_dims=(2, 3),
                               embed_dim=5)
        x = np.random.default_rng(1).normal(size=(7, 4, 4, 2))
    params = init_params(config, seed=2)
    for _, b in params.encoder:
        b[...] = 0.0
    params.proj_b[...] = 0.0
    x[0] = 0.0
    return params, x


@pytest.mark.parametrize("kind", ["flat", "grid"])
class TestDeferredHeads:
    """Deferred normalization and one-head backward against their eager forms."""

    def test_embedding_matches_eager_normalization(self, kind):
        params, x = head_case(kind)
        res = forward(params, x)
        embedding, fallback = eager_embedding_reference(
            res.features @ params.proj_w + params.proj_b)
        assert fallback.tolist() == [True] + [False] * 6
        np.testing.assert_array_equal(res.zero_fallback, fallback)
        np.testing.assert_array_equal(res.embedding, embedding)

    def test_logit_only_work_never_normalizes(self, kind):
        params, x = head_case(kind)
        res = forward(params, x)
        backward(res, d_logits=np.ones_like(res.logits))
        assert "embedding" not in vars(res) and "_safe_norms" not in vars(res)
        assert "pre_embed" not in vars(res)  # nor runs the projection gemm
        assert res.embedding is res.embedding  # cached on first read
        assert res.pre_embed is res.pre_embed

    def test_missing_head_gradient_matches_explicit_zeros(self, kind):
        params, x = head_case(kind)
        res = forward(params, x)
        rng = np.random.default_rng(3)
        dq = rng.normal(size=(7, params.config.embed_dim))
        dz = rng.normal(size=res.logits.shape)
        zq, zz = np.zeros_like(dq), np.zeros_like(dz)
        for skipped, explicit in (
            (dict(d_logits=dz), dict(d_embedding=zq, d_logits=dz)),
            (dict(d_embedding=dq), dict(d_embedding=dq, d_logits=zz)),
            (dict(), dict(d_embedding=zq, d_logits=zz)),
        ):
            grads, d_in = backward(res, **skipped, want_dx=True)
            grads_ref, d_in_ref = backward(res, **explicit, want_dx=True)
            np.testing.assert_array_equal(grads.flat, grads_ref.flat)
            np.testing.assert_array_equal(d_in, d_in_ref)

    @pytest.mark.parametrize("tensor,value", [("proj_b", np.inf), ("proj_b", -np.inf),
                                              ("proj_w", np.nan), ("cls_b", np.inf)])
    def test_nonfinite_head_raises(self, kind, tensor, value):
        params, x = head_case(kind)
        getattr(params, tensor).flat[0] = value
        with pytest.raises(NumericError):
            forward(params, x)

    def test_overflowing_head_raises_on_first_read(self, kind):
        # finite weights whose head output overflows: the forward returns
        # finite logits, and every read of the head raises
        params, x = head_case(kind)
        params.proj_w[...] = 1e300
        res = forward(params, 1e10 * x)
        assert np.isfinite(res.logits).all()
        d_emb = np.ones((len(x), params.config.embed_dim))
        for read in (lambda: res.pre_embed, lambda: res.embedding, lambda: res.zero_fallback,
                     lambda: backward(res, d_embedding=d_emb)):
            with np.errstate(over="ignore"), pytest.raises(NumericError, match="forward output"):
                read()

    def test_zero_row_batch_skips_the_head_check(self, kind):
        params, x = head_case(kind)
        params.proj_b[0] = np.inf
        res = forward(params, x[:0])
        assert res.logits.shape == (0, params.config.num_classes)
        assert res.pre_embed.shape == res.embedding.shape == (0, params.config.embed_dim)


PAIR_ENCODERS = {
    "mlp0": mlp_config(hidden=()),
    "mlp1": mlp_config(hidden=(8,)),
    "mlp2": mlp_config(hidden=(7, 6)),
    "grid": EncoderConfig(input_dims=(4, 4, 2), num_classes=3, hidden_dims=(2, 3), embed_dim=5),
}


def pair_scene(encoder, n, zero_row=False, seed=0):
    """(two-row stack, x): two independently drawn models of one config stacked
    as a ModelPair stacks them, on one batch of ``n`` rows. With ``zero_row``
    the encoder and projection biases are zero and row 0 of x is zero, so row
    0's pre-embedding is zero in both models and its embedding falls back."""
    config = PAIR_ENCODERS[encoder]
    models = [init_params(config, seed=seed + i) for i in (0, 1)]
    x = np.random.default_rng(seed).normal(size=(n,) + config.input_dims)
    if zero_row:
        for params in models:
            for _, b in params.encoder:
                b[...] = 0.0
            params.proj_b[...] = 0.0
        x[0] = 0.0
    return BackboneParams(config, np.stack([p.flat for p in models])), x


def assert_same_pass(got, want):
    """Two ForwardResults of one model are bit for bit equal, heads and layers."""
    for name in ("logits", "features", "pre_embed", "embedding", "zero_fallback"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == getattr(want, name).dtype
    assert len(got.outputs) == len(want.outputs)
    for a, b in zip(got.outputs, want.outputs):
        np.testing.assert_array_equal(a, b)


def forward_reference(params, x):
    """The one-model ``forward`` body from before it became the m = 1 case of
    ``forward_stack`` and left the projection head to its first read, kept as
    its oracle: its ``pre_embed`` is the eagerly computed head."""
    config = params.config
    xb = np.asarray(x, dtype=np.float64)
    if xb.shape[1:] != config.input_dims:
        raise DimensionError(f"input shape {xb.shape} is not a batch of {config.input_dims}")
    if not np.isfinite(xb).all():
        raise NumericError("non-finite values in forward input")
    outputs = [xb]
    h = xb
    grid = config.is_grid
    for w, b in params.encoder:
        if grid:
            h = numkernel._conv_same(h, w, b)
        else:
            h = h @ w
            h += b
        np.maximum(h, 0.0, out=h)
        outputs.append(h)
    features = np.einsum("bhwc->bc", h) / (h.shape[1] * h.shape[2]) if grid else h
    pre_embed = features @ params.proj_w
    pre_embed += params.proj_b
    logits = features @ params.cls_w
    logits += params.cls_b
    if not (np.isfinite(pre_embed).all() and np.isfinite(logits).all()):
        raise NumericError("non-finite values in forward output")
    result = numkernel.ForwardResult(logits, features, params, outputs)
    vars(result)["pre_embed"] = pre_embed  # the eager head, where its lazy read is cached
    return result


ORACLE_ENCODERS = {
    **PAIR_ENCODERS,
    "grid8": EncoderConfig(input_dims=(8, 8, 8), num_classes=10, hidden_dims=(8, 16),
                           embed_dim=16),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257])
@pytest.mark.parametrize("encoder", sorted(ORACLE_ENCODERS))
def test_forward_matches_the_one_model_reference_bitwise(encoder, n):
    config = ORACLE_ENCODERS[encoder]
    params = init_params(config, seed=n)
    x = np.random.default_rng(n).normal(size=(n,) + config.input_dims)
    got, want = forward(params, x), forward_reference(params, x)
    assert np.shares_memory(got.params.flat, params.flat) and got.params.config == params.config
    assert got.logits.ndim == 2
    pairs = [(getattr(got, name), getattr(want, name))
             for name in ("logits", "pre_embed", "features")]
    assert len(got.outputs) == len(want.outputs)
    for a, b in pairs + list(zip(got.outputs, want.outputs)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestForwardPair:
    """One pass of a two-row stack against the m = 1 ``forward`` of each row."""

    @pytest.mark.parametrize("zero_row", [False, True], ids=["plain", "fallback"])
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("encoder", sorted(PAIR_ENCODERS))
    def test_matches_two_forwards_bitwise(self, encoder, n, zero_row):
        stack, x = pair_scene(encoder, n, zero_row)
        results = forward_stack(stack, x)
        assert len(results) == 2
        for res, params in zip(results, stack.rows):
            assert res.params is params
            assert_same_pass(res, forward(params, x))
        if zero_row:
            assert results[0].zero_fallback[0] and results[1].zero_fallback[0]

    @pytest.mark.parametrize("encoder", ["mlp1", "grid"])
    def test_backward_takes_either_result_unchanged(self, encoder):
        stack, x = pair_scene(encoder, 5)
        rng = np.random.default_rng(4)
        d_emb = rng.normal(size=(5, stack.config.embed_dim))
        d_log = rng.normal(size=(5, stack.config.num_classes))
        for res, params in zip(forward_stack(stack, x), stack.rows):
            grads, d_in = backward(res, d_emb, d_log, want_dx=True)
            grads_ref, d_in_ref = backward(forward(params, x), d_emb, d_log, want_dx=True)
            np.testing.assert_array_equal(grads.flat, grads_ref.flat)
            np.testing.assert_array_equal(d_in, d_in_ref)

    @pytest.mark.parametrize("encoder", ["mlp1", "grid"])
    def test_reads_the_current_snapshots(self, encoder):
        stack, x = pair_scene(encoder, 4)
        expected = [stack.rows[0].copy(), init_params(stack.config, seed=9)]
        expected[0].flat *= 0.5
        stack.rows[0].flat *= 0.5  # an in-place step through a row
        stack.flat[1] = expected[1].flat  # a snapshot copied into a row
        for res, params in zip(forward_stack(stack, x), expected):
            assert_same_pass(res, forward(params, x))

    @pytest.mark.parametrize("model", [0, 1])
    @pytest.mark.parametrize("tensor,value", [("proj_b", np.inf), ("proj_w", np.nan),
                                              ("cls_b", -np.inf), ("cls_w", np.nan)])
    @pytest.mark.parametrize("encoder", ["mlp1", "grid"])
    def test_nonfinite_head_of_either_model_raises(self, encoder, tensor, value, model):
        stack, x = pair_scene(encoder, 3)
        getattr(stack.rows[model], tensor).flat[0] = value
        with pytest.raises(NumericError, match="forward output"):
            forward_stack(stack, x)

    def test_nonfinite_input_raises(self):
        stack, x = pair_scene("mlp1", 3)
        x[1, 2] = np.nan
        with pytest.raises(NumericError, match="forward input"):
            forward_stack(stack, x)

    def test_rows_are_views_of_the_stack(self):
        stack, _ = pair_scene("mlp2", 2)
        rows = stack.rows
        assert stack.rows is rows  # built once, on the first read
        for i, row in enumerate(rows):
            row.cls_b[...] = i + 0.5
            np.testing.assert_array_equal(stack.cls_b[i], i + 0.5)
            assert stack.encoder[1][0][i].shape == row.encoder[1][0].shape

    @pytest.mark.parametrize("encoder", sorted(PAIR_ENCODERS))
    def test_stacks_of_any_height_match_one_row_forwards(self, encoder):
        config = PAIR_ENCODERS[encoder]
        x = np.random.default_rng(3).normal(size=(5,) + config.input_dims)
        for m in (1, 3):
            models = [init_params(config, seed=10 + i) for i in range(m)]
            stack = BackboneParams(config, np.stack([p.flat for p in models]))
            for res, params in zip(forward_stack(stack, x), models, strict=True):
                assert_same_pass(res, forward(params, x))


HEAD_GRADIENTS = ["logits", "embedding", "both", "neither"]


@pytest.mark.parametrize("heads", HEAD_GRADIENTS)
@pytest.mark.parametrize("encoder", sorted(PAIR_ENCODERS))
def test_reused_gradient_buffer_matches_a_fresh_one(encoder, heads):
    # a buffer left full of NaN comes back bit for bit a fresh backward's:
    # every written head is overwritten and every unwritten one zeroed
    stack, x = pair_scene(encoder, 6, zero_row=True)
    params = stack.rows[0]
    res = forward(params, x)
    rng = np.random.default_rng(5)
    kwargs = {
        "logits": dict(d_logits=rng.normal(size=res.logits.shape)),
        "embedding": dict(d_embedding=rng.normal(size=res.pre_embed.shape)),
        "both": dict(d_embedding=rng.normal(size=res.pre_embed.shape),
                     d_logits=rng.normal(size=res.logits.shape)),
        "neither": {},
    }[heads]
    fresh, d_in = backward(res, **kwargs, want_dx=True)
    buffer = ParamGrads(params.config, np.full(params.flat.size, np.nan))
    for _ in range(2):  # and once more over its own previous values
        got, d_in_got = backward(res, **kwargs, want_dx=True, out=buffer)
        assert got is buffer
        np.testing.assert_array_equal(buffer.flat, fresh.flat)
        np.testing.assert_array_equal(d_in_got, d_in)


def test_gradient_buffer_of_another_config_rejected():
    params = init_params(mlp_config(), seed=0)
    res = forward(params, np.ones((2, 6)))
    other = init_params(mlp_config(hidden=(9,)), seed=0)
    with pytest.raises(DimensionError, match="gradient buffer"):
        backward(res, d_logits=np.ones((2, 4)), out=ParamGrads(other.config, other.flat))


class TestCheckGradients:
    def test_quadratic_loss(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            flat = p.flat
            return float(flat @ flat), 2.0 * flat

        # central differences are truncation-free on a quadratic, so a larger
        # step only reduces floating-point cancellation noise
        report = check_gradients(loss, params, h=1e-3)
        assert report.max_rel_error < 1e-8
        assert not report.degenerate

    def test_constant_loss_flags_degenerate(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            return 3.25, np.zeros_like(p.flat)

        report = check_gradients(loss, params, h=1e-5)
        assert report.degenerate
        assert report.max_rel_error == 0.0

    @pytest.mark.parametrize("name", ["enc0.w", "proj.b", "cls.w"])
    def test_worst_param_names_the_corrupted_tensor(self, name):
        config = mlp_config()
        params = init_params(config, seed=2)
        start, stop = next((a, b) for n, a, b, _ in numkernel._layout(config) if n == name)

        def loss(p):
            flat = p.flat
            grad = 2.0 * flat
            grad[start:stop] += 1.0  # analytic gradient off by one on this tensor only
            return float(flat @ flat), grad

        report = check_gradients(loss, params, h=1e-3)
        assert report.worst_param == name
        assert report.max_rel_error > 1e-3

    def test_nonfinite_loss_raises(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            return float("nan"), np.zeros_like(p.flat)

        with pytest.raises(NumericError):
            check_gradients(loss, params)

    @pytest.mark.parametrize("loss, error, match", [
        (lambda p: (0.0, np.zeros(p.flat.size - 1)), DimensionError, "gradient length"),
        # finite at the given parameters, non-finite at every probe
        (lambda p: (0.0 if p.flat[0] == 0.5 else np.nan, np.zeros(p.flat.size)),
         NumericError, "during probing"),
    ])
    def test_malformed_closure_rejected(self, loss, error, match):
        params = init_params(mlp_config(), seed=2)
        params.flat[0] = 0.5
        with pytest.raises(error, match=match):
            check_gradients(loss, params)

    @pytest.mark.parametrize("h", [0.0, -1e-5, float("nan"), float("inf")])
    def test_step_not_positive_and_finite_rejected(self, h):
        calls = []

        def loss(p):
            calls.append(p)
            return 0.0, np.zeros(p.flat.size)

        with pytest.raises(ValueError, match="^h must be positive and finite, got ") as err:
            check_gradients(loss, init_params(mlp_config(), seed=2), h=h)
        assert type(err.value) is ValueError
        assert calls == []  # rejected before the closure runs


class TestCheckpoint:
    def test_roundtrip_bitexact(self, tmp_path):
        # reference digests of version-1 files: neither the byte layout nor
        # the seeded init may change
        for config, digest in (
            (mlp_config(), "0b87be2778d59b858c079265ec46be7dcd2a086c510d0e7e48c70438f6b74e10"),
            (EncoderConfig(input_dims=(4, 4, 1), num_classes=3, hidden_dims=(2, 3), embed_dim=4),
             "50c8f12bdbd45d8833ec12888a8d01b35876896fd8fe546e2a76218c253f483e"),
        ):
            params = init_params(config, seed=11)
            path = tmp_path / "ckpt.bin"
            save_params(params, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            loaded = load_params(path)
            assert loaded.config == config
            for (n1, a1), (n2, a2) in zip(params.tensors(), loaded.tensors()):
                assert n1 == n2
                np.testing.assert_array_equal(a1, a2)

    def test_save_is_deterministic(self, tmp_path):
        params = init_params(mlp_config(), seed=4)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(params, p1)
        save_params(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(mlp_config(), seed=4)
        path = tmp_path / "ckpt.bin"
        save_params(params, path)
        data = path.read_bytes()
        # inside the magic, the fixed header, the dims, the shape table and the payload
        for cut in (2, 6, 20, 30, 60, 100, len(data) - 8, len(data) - 3):
            path.write_bytes(data[:cut])
            with pytest.raises(CheckpointError):
                load_params(path)

    # embed dim, class count, the first input width
    @pytest.mark.parametrize("offset,value", [(13, 0), (17, 1), (25, 0)])
    def test_invalid_declared_architecture_rejected(self, tmp_path, offset, value):
        path = tmp_path / "ckpt.bin"
        save_params(init_params(mlp_config(), seed=4), path)
        data = bytearray(path.read_bytes())
        data[offset : offset + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="architecture") as err:
            load_params(path)
        assert isinstance(err.value.__cause__, DimensionError)

    # version, the arch flag, enc0.w's first dim in the shape table
    @pytest.mark.parametrize("offset,value,match", [
        (4, 2, "version 2"), (8, 1, "arch flag"), (45, 7, "shape table"),
    ])
    def test_header_disagreeing_with_the_format_rejected(self, tmp_path, offset, value, match):
        path = tmp_path / "ckpt.bin"
        save_params(init_params(mlp_config(), seed=4), path)
        data = bytearray(path.read_bytes())
        data[offset] = value
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=match):
            load_params(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_payload_rejected(self, tmp_path, value):
        params = init_params(mlp_config(), seed=4)
        name, a = params.tensors()[2]
        a.flat[1] = value  # a view into flat: the first non-finite tensor
        params.flat[-1] = -np.inf  # and a later one
        path = tmp_path / "ckpt.bin"
        save_params(params, path)
        with pytest.raises(CheckpointError, match=f"tensor {name} holds a non-finite"):
            load_params(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_params(init_params(mlp_config(), seed=4), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_params(path)

    @pytest.mark.parametrize("encoder", ["mlp1", "grid"])
    def test_mutated_files_load_or_raise_checkpoint_error(self, tmp_path, mutations, encoder):
        # each mutation of a valid file loads cleanly or raises CheckpointError
        path = tmp_path / "ckpt.bin"
        save_params(init_params(PAIR_ENCODERS[encoder], seed=4), path)
        for data in mutations(path.read_bytes(), 1, 50):
            path.write_bytes(data)
            try:
                load_params(path)
            except CheckpointError:
                pass
