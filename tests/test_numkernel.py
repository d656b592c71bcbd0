import hashlib

import numpy as np
import pytest

from pllab.numkernel import (
    BackboneParams,
    CheckpointError,
    DimensionError,
    EncoderConfig,
    NumericError,
    UsageError,
    backward,
    check_gradients,
    forward,
    init_params,
    load_params,
    save_params,
)


def mlp_config(d=6, hidden=(8,), e=5, c=4):
    return EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=hidden, embed_dim=e)


def zero_params(config):
    p = init_params(config, seed=0)
    return p.with_flat(np.zeros_like(p.flatten()))


class TestParamLayout:
    def test_views_write_through_and_snapshots_do_not_alias(self):
        params = init_params(mlp_config(), seed=3)
        params.cls_w[:] = 0.0
        params.encoder[0][1][...] = 2.5
        params.proj_b *= 7.5
        expected = np.concatenate([a.reshape(-1) for _, a in params.tensors()])
        np.testing.assert_array_equal(params.flat, expected)
        assert np.all(params.flatten() == expected)
        copy, rebuilt = params.copy(), params.with_flat(params.flat)
        params.flat[:] = -1.0
        for snapshot in (copy, rebuilt):
            np.testing.assert_array_equal(snapshot.flat, expected)
            np.testing.assert_array_equal(snapshot.cls_w, 0.0)

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

    def test_deterministic(self):
        params = init_params(mlp_config(), seed=9)
        x = np.random.default_rng(2).normal(size=(4, 6))
        a = forward(params, x)
        b = forward(params, x)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.logits, b.logits)


class TestBackward:
    def test_single_linear_layer_sum_logits_outer_product(self):
        # loss = sum(logits) on a bare linear classifier: dW = outer(x, 1)
        config = EncoderConfig(input_dims=(3,), num_classes=2, hidden_dims=(), embed_dim=2)
        params = init_params(config, seed=0)
        x = np.array([1.5, -2.0, 0.5])
        res = forward(params, x[None])
        grads, _ = backward(params, res, d_logits=np.ones((1, 2)))
        np.testing.assert_allclose(grads.cls_w, np.outer(x, np.ones(2)), atol=1e-15)
        np.testing.assert_allclose(grads.cls_b, np.ones(2), atol=1e-15)

    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(mlp_config(), seed=1)
        x = np.random.default_rng(0).normal(size=(3, 6))
        res = forward(params, x)
        grads, dx = backward(params, res, d_embedding=np.zeros((3, 5)), d_logits=np.zeros((3, 4)))
        assert np.all(grads.flatten() == 0.0)
        assert np.all(dx == 0.0)

    def test_missing_cache_raises(self):
        params = init_params(mlp_config(), seed=1)
        res = forward(params, np.zeros((1, 6)), want_cache=False)
        with pytest.raises(UsageError):
            backward(params, res, d_logits=np.ones((1, 4)))

    def test_foreign_params_raise(self):
        params = init_params(mlp_config(), seed=1)
        other = params.copy()
        res = forward(params, np.zeros((1, 6)))
        with pytest.raises(UsageError):
            backward(other, res, d_logits=np.ones((1, 4)))

    def test_unbatched_upstream_gradient_raises(self):
        params = init_params(mlp_config(), seed=1)
        res = forward(params, np.zeros((1, 6)))
        with pytest.raises(DimensionError, match=r"\(4,\) != \(1, 4\)"):
            backward(params, res, d_logits=np.ones(4))
        with pytest.raises(DimensionError, match=r"\(5,\) != \(1, 5\)"):
            backward(params, res, d_embedding=np.ones(5))

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
            grads, _ = backward(p, res, d_embedding=w_e, d_logits=w_z)
            return value, grads

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
            grads, _ = backward(p, res, d_embedding=w_e, d_logits=w_z)
            return value, grads

        report = check_gradients(loss, params, h=1e-5)
        assert report.max_rel_error < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params(mlp_config(), seed=7)
        x = rng.normal(size=(1, 6))
        w_z = rng.normal(size=(1, 4))

        res = forward(params, x)
        _, dx = backward(params, res, d_logits=w_z)
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


class TestCheckGradients:
    def test_quadratic_loss(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            flat = p.flatten()
            return float(flat @ flat), 2.0 * flat

        # central differences are truncation-free on a quadratic, so a larger
        # step only reduces floating-point cancellation noise
        report = check_gradients(loss, params, h=1e-3)
        assert report.max_rel_error < 1e-8
        assert not report.degenerate

    def test_constant_loss_flags_degenerate(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            return 3.25, np.zeros_like(p.flatten())

        report = check_gradients(loss, params, h=1e-5)
        assert report.degenerate
        assert report.max_rel_error == 0.0

    def test_nonfinite_loss_raises(self):
        params = init_params(mlp_config(), seed=2)

        def loss(p):
            return float("nan"), np.zeros_like(p.flatten())

        with pytest.raises(NumericError):
            check_gradients(loss, params)


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

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_params(init_params(mlp_config(), seed=4), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_params(path)
