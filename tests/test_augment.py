import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab import augment
from pllab.augment import (
    UNIFORM_MAP_EPS,
    _BLUR_TAPS,
    _gaussian_blur_grid,
    AugmentConfig,
    AugmentationSet,
    apply_blur_mix,
    class_activation_mask,
    refresh_augmentations,
)
from pllab.data import PLLDataset
from pllab.numkernel import EncoderConfig, backward, forward, init_params


def linear_model(d=10, c=3):
    config = EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=(), embed_dim=4)
    params = init_params(config, seed=0)
    return params


def grid_model(h=6, w=6, ch=1, c=3):
    config = EncoderConfig(input_dims=(h, w, ch), num_classes=c, hidden_dims=(4, 5),
                           embed_dim=4)
    return init_params(config, seed=1)


def blur_one_grid(x):
    """Separable 5-tap Gaussian over the two spatial axes of one (h, w, ch) grid."""
    out = x.copy()
    for axis in (0, 1):
        padded = np.pad(out, [(2, 2) if a == axis else (0, 0) for a in range(3)],
                        mode="reflect")
        acc = np.zeros_like(out)
        for k, tap in enumerate(_BLUR_TAPS):
            acc += tap * np.take(padded, np.arange(k, k + out.shape[axis]), axis=axis)
        out = acc
    return out


def assert_blur_close(got, want):
    """Blurred grids equal to rel 1e-12 of each grid's largest magnitude: the
    blur matrices sum the taps in another order than the tap loop."""
    assert got.shape == want.shape
    err = np.abs(got - want).reshape(len(want), -1).max(axis=1, initial=0.0)
    scale = np.abs(want).reshape(len(want), -1).max(axis=1, initial=0.0)
    assert np.all(err <= 1e-12 * scale)


def per_pair_oracle(params, dataset, top_fraction, eps):
    """Reference refresh: one single-sample mask and mix per (sample, candidate).

    For each pair in (sample, label) order: a forward on that sample alone,
    its map (the guiding class's CAM for grids, input times the one-hot
    logit gradient for flat rows), a near-uniform check, min-max
    normalisation, and a top-k ranked by value with ties broken by index.
    Returns (samples, parents, labels, discards) as the refresh does.
    """
    grid = params.config.is_grid
    rows, parents, labels, discards = [], [], [], []
    for i, s in np.argwhere(dataset.candidates):
        x = dataset.features[i]
        res = forward(params, x[None])
        if grid:
            sal = np.maximum(res.outputs[-1][0] @ params.cls_w[:, s], 0.0)
        else:
            one_hot = np.zeros((1, params.config.num_classes))
            one_hot[0, s] = 1.0
            _, d_input = backward(res, d_logits=one_hot, want_dx=True)
            sal = d_input[0] * x
        if sal.max() - sal.min() < UNIFORM_MAP_EPS:
            discards.append((i, s))
            continue
        flat = ((sal - sal.min()) / (sal.max() - sal.min())).reshape(-1)
        keep = np.zeros(flat.size)
        top = max(1, round(top_fraction * flat.size))
        keep[np.lexsort((np.arange(flat.size), -flat))[:top]] = 1.0
        mask = np.broadcast_to(keep.reshape(sal.shape + (1,) * grid), x.shape)
        mixed = np.where(mask == 1.0, x, eps * x)
        rows.append(blur_one_grid(mixed) if grid else mixed)
        parents.append(i)
        labels.append(s)
    return (np.array(rows).reshape((len(rows),) + dataset.feature_dims), np.array(parents),
            np.array(labels), np.array(discards).reshape(-1, 2))


def tied_model_and_dataset(kind, seed):
    """A model and dataset rounded so saliency maps tie, with class 0 zeroed out
    of the classifier so every class-0 pair is discarded."""
    rng = np.random.default_rng(seed)
    dims = (5, 5, 2) if kind == "grid" else (9,)
    hidden = {"linear": (), "mlp": (6,), "grid": (3, 4)}[kind]
    config = EncoderConfig(input_dims=dims, num_classes=4, hidden_dims=hidden, embed_dim=3)
    params = init_params(config, seed=seed)
    params.flat[:] = np.round(params.flat, 1)
    params.cls_w[:, 0] = 0.0
    feats = rng.integers(-2, 3, size=(7,) + dims).astype(float)
    cands = rng.random((7, 4)) < 0.6
    cands[np.arange(7), rng.integers(0, 4, size=7)] = True
    return params, PLLDataset(feats, cands)


class TestClassActivationMask:
    def test_one_hot_classifier_row_selects_by_attribution(self):
        params = linear_model(d=10, c=3)
        params.cls_w[:] = 0.0
        params.cls_w[0, 1] = 1.0  # logit 1 reads feature 0 only
        x = np.linspace(1.0, 2.0, 10)
        mask, kept = class_activation_mask(params, x[None], [0], [1], top_fraction=0.3)
        assert kept.tolist() == [True]
        assert mask.dtype == bool
        # feature 0 carries all attribution; ties among zeros resolve by index
        np.testing.assert_array_equal(mask, [[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]])

    def test_uniform_attribution_discarded(self):
        params = linear_model()
        params.cls_w[:] = 0.0  # all logits constant in x
        mask, kept = class_activation_mask(params, np.ones((1, 10)), [0], [0], top_fraction=0.3)
        assert kept.tolist() == [False]
        np.testing.assert_array_equal(mask, np.zeros((1, 10), dtype=bool))

    def test_zero_feature_maps_discarded(self):
        params = grid_model()
        for w, b in params.encoder:
            w[:] = 0.0
            b[:] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 6, 1))
        _, kept = class_activation_mask(params, x[None], [0], [0], top_fraction=0.3)
        assert kept.tolist() == [False]

    def test_top_fraction_one_selects_everything(self):
        params = linear_model()
        x = np.random.default_rng(1).normal(size=10) + 3.0
        mask, _ = class_activation_mask(params, x[None], [0], [2], top_fraction=1.0)
        np.testing.assert_array_equal(mask, np.ones((1, 10)))

    def test_grid_mask_is_spatial_and_broadcast(self):
        params = grid_model(h=6, w=6, ch=2)
        x = np.random.default_rng(2).normal(size=(6, 6, 2))
        mask, _ = class_activation_mask(params, x[None], [0], [0], top_fraction=0.25)
        assert mask.shape == (1, 6, 6, 1)
        assert mask.dtype == bool
        assert mask.sum() == round(0.25 * 36)
        # the blur mix reads the one spatial mask for every channel
        np.testing.assert_array_equal(apply_blur_mix(x[None], mask, eps=0.3),
                                      apply_blur_mix(x[None], np.repeat(mask, 2, axis=3), 0.3))

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("samples", [0, 2])
    def test_zero_rows_give_zero_masks(self, grid, samples):
        params, dims = (grid_model(ch=2), (6, 6, 2)) if grid else (linear_model(), (10,))
        empty = np.zeros(0, dtype=np.int64)
        mask, kept = class_activation_mask(params, np.ones((samples,) + dims), empty, empty)
        assert mask.shape == ((0, 6, 6, 1) if grid else (0, 10)) and mask.dtype == bool
        assert kept.shape == (0,) and kept.dtype == bool

    def test_fraction_of_ones_matches_within_rounding(self):
        params = linear_model(d=17)
        x = np.random.default_rng(3).normal(size=17)
        for tf in (0.1, 0.3, 0.62, 1.0):
            mask, kept = class_activation_mask(params, x[None], [0], [0], top_fraction=tf)
            if not kept[0]:
                continue
            assert abs(mask.sum() - tf * 17) <= 1.0

    def test_fraction_rounding_to_zero_keeps_one_entry(self):
        # round(0.02 * 20) == 0 would leave every kept row's mask empty, so the
        # row would be eps * x whatever its guiding label
        params = linear_model(d=20, c=3)
        x = np.random.default_rng(4).normal(size=(5, 20))
        owner, labels = np.repeat(np.arange(5), 3), np.tile(np.arange(3), 5)
        mask, kept = class_activation_mask(params, x, owner, labels, top_fraction=0.02)
        assert kept.all()
        np.testing.assert_array_equal(mask.sum(axis=1), 1)

    @pytest.mark.parametrize("top_fraction", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_grid_rows_match_single_row_calls(self, top_fraction, seed):
        # one forward over the samples serves every row: each row's mask and
        # kept flag are bitwise those of a call on its sample alone
        params, ds = tied_model_and_dataset("grid", seed)
        owner, labels = np.nonzero(ds.candidates)
        mask, kept = class_activation_mask(params, ds.features, owner, labels, top_fraction)
        assert not kept.all() and kept.any()
        for j, (i, s) in enumerate(zip(owner, labels)):
            one, one_kept = class_activation_mask(params, ds.features[i][None], [0], [s],
                                                  top_fraction)
            np.testing.assert_array_equal(mask[j], one[0])
            assert kept[j] == one_kept[0]

    @pytest.mark.parametrize("owner", [[0, 2], [-1, 0]])
    def test_owner_outside_samples_rejected(self, owner):
        with pytest.raises(ValueError, match=r"owner must lie in \[0, 2\)"):
            class_activation_mask(linear_model(), np.ones((2, 10)), owner, [0, 1])

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("owner, labels, match", [
        ([0.0, 1.0], [0, 1], "owner must be integers, got dtype float64"),
        ([0, 1], [0.0, 1.0], "labels must be integers, got dtype float64"),
        ([True, False], [0, 1], "owner must be integers, got dtype bool"),
        ([0, 1], ["0", "1"], "labels must be integers, got dtype <U1"),
    ], ids=["float_owner", "float_labels", "bool_owner", "str_labels"])
    def test_non_integer_owner_or_labels_rejected(self, owner, labels, match, grid):
        params, x = (grid_model(), np.ones((2, 6, 6, 1))) if grid else (
            linear_model(), np.ones((2, 10)))
        with pytest.raises(ValueError, match=match) as err:
            class_activation_mask(params, x, owner, labels)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_class_range_rejected(self, label):
        params = linear_model(c=3)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            class_activation_mask(params, np.ones((2, 10)), [0, 1], [0, label])

    @pytest.mark.parametrize("top_fraction", [-0.5, 0.0, 1.5, float("nan")])
    def test_top_fraction_outside_the_config_range_rejected(self, top_fraction):
        with pytest.raises(ValueError, match=r"top_fraction must lie in \(0, 1\]"):
            class_activation_mask(linear_model(), np.ones((2, 10)), [0, 1], [0, 1],
                                  top_fraction)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match=r"^owner must have shape \(2,\), got \(3,\)$"):
            class_activation_mask(linear_model(), np.ones((3, 10)), [0, 1, 2], [0, 1])


@pytest.mark.parametrize("kwargs, match", [
    (dict(top_fraction=0.0), r"top_fraction must lie in \(0, 1\]"),
    (dict(top_fraction=1.5), r"top_fraction must lie in \(0, 1\]"),
    (dict(epsilon=-0.1), r"epsilon must lie in \[0, 1\]"),
    (dict(top_fraction=True), "top_fraction must be a number"),
    (dict(epsilon=False), "epsilon must be a number"),
])
def test_augment_config_out_of_range_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match) as err:
        AugmentConfig(**kwargs)
    assert type(err.value) is ValueError


class TestApplyBlurMix:
    def onehot_mask(self, indicator):
        return np.asarray(indicator, dtype=bool)

    def test_eps_one_is_bit_exact_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 8))
        mask = self.onehot_mask([[1, 0, 1, 0, 1, 0, 1, 0]])
        out = apply_blur_mix(x, mask, eps=1.0)
        np.testing.assert_array_equal(out, x)

    def test_all_ones_mask_any_eps(self):
        x = np.random.default_rng(1).normal(size=(1, 5))
        mask = self.onehot_mask(np.ones((1, 5)))
        out = apply_blur_mix(x, mask, eps=0.123)
        np.testing.assert_array_equal(out, x)

    def test_hand_example_2_4(self):
        out = apply_blur_mix(np.array([[2.0, 4.0]]), self.onehot_mask([[1, 0]]), eps=0.5)
        np.testing.assert_array_equal(out, [[2.0, 2.0]])

    def test_eps_zero_zeroes_masked_off(self):
        x = np.array([[3.0, -1.0, 7.0]])
        out = apply_blur_mix(x, self.onehot_mask([[0, 1, 0]]), eps=0.0)
        np.testing.assert_array_equal(out, [[0.0, -1.0, 0.0]])

    def test_eps_out_of_range_rejected(self):
        for eps in (1.5, -0.1):
            with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]") as err:
                apply_blur_mix(np.ones((1, 2)), self.onehot_mask([[1, 0]]), eps=eps)
            assert type(err.value) is ValueError  # augment raises no error type of its own

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.0, 1.0))
    def test_output_between_eps_x_and_x(self, seed, eps):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 12))
        indicator = (rng.random((3, 12)) < 0.5).astype(float)
        out = apply_blur_mix(x, self.onehot_mask(indicator), eps=eps)
        lo = np.minimum(eps * x, x)
        hi = np.maximum(eps * x, x)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_smoothing_preserves_constant_grids(self):
        x = np.full((1, 5, 5, 1), 2.5)
        mask = self.onehot_mask(np.ones((1, 5, 5, 1)))
        out = apply_blur_mix(x, mask, eps=1.0)
        np.testing.assert_allclose(out, x, rtol=1e-12)

    def test_grids_are_smoothed_and_flat_inputs_are_not(self):
        rng = np.random.default_rng(4)
        grid = rng.normal(size=(2, 5, 5, 2))
        indicator = (rng.random((2, 5, 5, 2)) < 0.5).astype(float)
        mixed = np.where(indicator == 1.0, grid, 0.3 * grid)
        out = apply_blur_mix(grid, self.onehot_mask(indicator), eps=0.3)
        np.testing.assert_array_equal(out, _gaussian_blur_grid(mixed))
        assert_blur_close(out, np.array([blur_one_grid(g) for g in mixed]))
        for row in range(2):  # each grid is smoothed on its own
            np.testing.assert_array_equal(out[row], _gaussian_blur_grid(mixed[row : row + 1])[0])
        assert not np.allclose(out, mixed)
        # flat rows of the same values are mixed but never smoothed
        flat = apply_blur_mix(grid.reshape(2, -1), self.onehot_mask(indicator.reshape(2, -1)),
                              eps=0.3)
        np.testing.assert_array_equal(flat, mixed.reshape(2, -1))

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"mask shape \(1, 5\) does not match"):
            apply_blur_mix(np.ones((1, 4)), self.onehot_mask(np.ones((1, 5))), eps=0.5)

    def test_one_channel_grid_mask_is_broadcast_over_channels(self):
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(3, 5, 4, 3))
        spatial = rng.random((3, 5, 4, 1)) < 0.5
        np.testing.assert_array_equal(apply_blur_mix(grid, spatial, eps=0.3),
                                      apply_blur_mix(grid, np.repeat(spatial, 3, axis=3), 0.3))

    @pytest.mark.parametrize("x_shape, mask_shape", [
        ((2, 5, 4, 3), (2, 5, 4, 2)),
        ((2, 5, 4, 3), (2, 5, 4)),
        ((2, 5, 4, 3), (2, 5, 1, 1)),
        ((2, 5, 4, 3), (1, 5, 4, 1)),
        ((2, 6), (2, 1)),
    ])
    def test_other_mask_shapes_rejected(self, x_shape, mask_shape):
        with pytest.raises(ValueError, match="does not match features"):
            apply_blur_mix(np.ones(x_shape), np.ones(mask_shape, dtype=bool), eps=0.5)

    @pytest.mark.parametrize("mask", [
        np.array([[0.5, 1.0]]),  # a fractional entry once read as masked off
        np.array([[1.0, 0.0]]),
        np.array([[1, 0]]),
    ], ids=["fraction", "float", "int"])
    def test_non_bool_mask_rejected(self, mask):
        with pytest.raises(ValueError, match="mask must be bool") as err:
            apply_blur_mix(np.ones((1, 2)), mask, eps=0.5)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("shape", [(4,), (5, 5, 2)])
    def test_unbatched_features_rejected(self, shape):
        with pytest.raises(ValueError, match="not a batch"):
            apply_blur_mix(np.ones(shape), np.ones(shape), eps=0.5)


class TestBlurMatrices:
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 2), (1, 4), (3, 2), (5, 5), (8, 8)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_the_tap_loop(self, h, w, scale):
        x = scale * np.random.default_rng(h * 10 + w).normal(size=(3, h, w, 2))
        assert_blur_close(_gaussian_blur_grid(x), np.array([blur_one_grid(g) for g in x]))


class TestRefresh:
    def make_dataset(self, n=6, d=10, c=3, seed=0, cand_prob=1.0):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, d)) + 2.0
        labels = rng.integers(0, c, size=n)
        cands = rng.random((n, c)) < cand_prob
        cands[np.arange(n), labels] = True
        return PLLDataset(feats, cands, labels, num_classes=c)

    def test_one_augmentation_per_candidate(self):
        ds = self.make_dataset(cand_prob=1.0)  # |S| = 3 everywhere
        params = linear_model()
        aset = refresh_augmentations(ds, params, AugmentConfig(top_fraction=0.3))
        assert len(aset.discards) == 0
        assert aset.discards.shape == (0, 2)
        assert len(aset.samples) == len(ds) * 3
        assert aset.samples.shape == (len(ds) * 3, 10)
        for i in range(len(ds)):
            assert aset.labels[aset.parents == i].tolist() == [0, 1, 2]

    def test_all_discarded_when_model_is_flat_zero(self):
        ds = self.make_dataset(cand_prob=1.0)
        params = linear_model()
        params.cls_w[:] = 0.0
        aset = refresh_augmentations(ds, params)
        assert aset.samples.shape == (0, 10)
        assert len(aset.parents) == len(aset.labels) == 0
        assert len(aset.discards) == len(ds) * 3
        np.testing.assert_array_equal(aset.discards, np.argwhere(ds.candidates))

    def test_rerun_determinism(self):
        ds = self.make_dataset(seed=4, cand_prob=0.6)
        params = linear_model()
        a = refresh_augmentations(ds, params)
        b = refresh_augmentations(ds, params)
        for field in ("samples", "masks", "parents", "labels", "discards"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_guiding_labels_are_candidates(self):
        ds = self.make_dataset(seed=9, cand_prob=0.5)
        aset = refresh_augmentations(ds, linear_model())
        assert ds.candidates[aset.parents, aset.labels].all()

    def test_rows_sorted_by_parent_then_label(self):
        ds = self.make_dataset(n=12, seed=2, cand_prob=0.7)
        aset = refresh_augmentations(ds, linear_model())
        keys = aset.parents * ds.num_classes + aset.labels
        assert len(keys) > 1 and np.all(np.diff(keys) > 0)
        # kept rows and discards together cover every (sample, candidate) pair once
        pairs = np.concatenate([np.stack([aset.parents, aset.labels], axis=1), aset.discards])
        assert sorted(map(tuple, pairs.tolist())) == sorted(
            map(tuple, np.argwhere(ds.candidates).tolist()))

    @pytest.mark.parametrize("kind", ["linear", "mlp", "grid"])
    @pytest.mark.parametrize("top_fraction, eps", [(0.05, 0.3), (0.3, 0.0), (1.0, 1.0),
                                                   (0.3, 0.3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_per_pair_oracle(self, kind, top_fraction, eps, seed, monkeypatch):
        params, ds = tied_model_and_dataset(kind, seed)
        monkeypatch.setattr(augment, "REFRESH_BLOCK_ROWS", 4)  # several blocks
        aset = refresh_augmentations(ds, params, AugmentConfig(top_fraction, eps))
        samples, parents, labels, discards = per_pair_oracle(params, ds, top_fraction, eps)
        assert len(discards) >= ds.candidates[:, 0].sum() and len(parents) > 0
        if kind == "grid":
            assert_blur_close(aset.samples, samples)
        else:
            np.testing.assert_array_equal(aset.samples, samples)
        np.testing.assert_array_equal(aset.parents, parents)
        np.testing.assert_array_equal(aset.labels, labels)
        np.testing.assert_array_equal(aset.discards, discards)

    @pytest.mark.parametrize("block", [1, 3, 4, 10_000])
    def test_grid_refresh_forwards_each_sample_once_per_block(self, block, monkeypatch):
        params, ds = tied_model_and_dataset("grid", seed=0)
        rows = int(ds.candidates.sum())
        forwarded = []

        def counting_forward(model, x):
            forwarded.append(len(x))
            return forward(model, x)

        monkeypatch.setattr(augment, "forward", counting_forward)
        monkeypatch.setattr(augment, "REFRESH_BLOCK_ROWS", block)
        refresh_augmentations(ds, params)
        blocks = -(-rows // block)
        assert len(forwarded) == blocks
        # a sample whose rows straddle two blocks is forwarded in both
        assert sum(forwarded) <= len(ds) + blocks - 1
        if blocks == 1:
            assert sum(forwarded) == len(ds)

    def test_discarded_rows_get_no_float_buffer(self, monkeypatch):
        """The refresh's traced peak stays below one float row per kept pair,
        which storing the mixed rows needs: the set holds bool masks and
        reads its rows from the dataset's own features. Its ``samples`` are
        the kept rows alone."""
        n, c, dims = 200, 4, (6, 6, 2)
        config = EncoderConfig(input_dims=dims, num_classes=c, hidden_dims=(3, 4), embed_dim=3)
        params = init_params(config, seed=0)
        params.cls_w[:, 0] = 0.0  # every class-0 map is zero, so those rows are discarded
        feats = np.random.default_rng(0).normal(size=(n,) + dims)
        ds = PLLDataset(feats, np.ones((n, c), dtype=bool))
        monkeypatch.setattr(augment, "REFRESH_BLOCK_ROWS", 16)  # small block temporaries
        tracemalloc.start()
        try:
            aset = refresh_augmentations(ds, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes, rows, kept = 8 * math.prod(dims), n * c, len(aset.parents)
        assert len(aset.discards) == n and kept == rows - n
        assert aset.source is ds.features
        assert aset.masks.shape == (kept, 6, 6, 1) and aset.masks.dtype == bool
        own = [aset.masks, aset.parents, aset.labels, aset.discards]
        assert all(a.dtype != np.float64 for a in own)
        assert aset.samples.shape == (kept,) + dims and aset.samples.nbytes == kept * row_bytes
        assert peak < kept * row_bytes

    def test_grid_cam_gathers_feature_maps_in_bounded_blocks(self):
        """Over the forward's own peak, a grid refresh block adds its rows'
        single-channel maps and one CAM_GATHER_BYTES gather of feature maps,
        not one 32-channel map per (sample, label) row (4.2 MB here)."""
        n, c, dims = 32, 8, (8, 8, 2)
        config = EncoderConfig(input_dims=dims, num_classes=c, hidden_dims=(4, 32), embed_dim=3)
        params = init_params(config, seed=0)
        feats = np.random.default_rng(1).normal(size=(n,) + dims)
        ds = PLLDataset(feats, np.ones((n, c), dtype=bool))  # 256 rows: one block
        assert n * c == augment.REFRESH_BLOCK_ROWS
        tracemalloc.start()
        try:
            forward(params, feats)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            refresh_augmentations(ds, params)
            refresh_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        map_bytes = n * c * 8 * 8 * 8  # one float64 (8, 8, 1) map per row
        assert refresh_peak < forward_peak + augment.CAM_GATHER_BYTES + 8 * map_bytes

    # one row's (5, 5, 4) maps per gather, three rows', and the whole block's
    @pytest.mark.parametrize("gather", [1, 3 * 5 * 5 * 4 * 8, augment.CAM_GATHER_BYTES])
    def test_gather_size_does_not_change_masks(self, gather, monkeypatch):
        params, ds = tied_model_and_dataset("grid", seed=1)
        want = refresh_augmentations(ds, params)
        monkeypatch.setattr(augment, "CAM_GATHER_BYTES", gather)
        got = refresh_augmentations(ds, params)
        for field in ("masks", "parents", "labels", "discards"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("kind", ["linear", "mlp", "grid"])
    @pytest.mark.parametrize("batch", [1, 2, 5, 7])
    def test_drawn_rows_are_the_set_rows_bitwise(self, kind, batch):
        # a row's mix does not depend on the rows drawn with it
        params, ds = tied_model_and_dataset(kind, seed=6)
        aset = refresh_augmentations(ds, params)
        drawn = [aset.rows_of(np.arange(s, min(s + batch, len(ds))))[0]
                 for s in range(0, len(ds), batch)]
        np.testing.assert_array_equal(np.concatenate(drawn), aset.samples)

    @pytest.mark.parametrize("kind", ["linear", "mlp", "grid"])
    def test_block_size_does_not_change_the_rows(self, kind, monkeypatch):
        params, ds = tied_model_and_dataset(kind, seed=5)
        m = int(ds.candidates.sum())
        results = []
        for block in (1, 3, m + 1):
            monkeypatch.setattr(augment, "REFRESH_BLOCK_ROWS", block)
            results.append(refresh_augmentations(ds, params))
        for other in results[1:]:
            for field in ("samples", "masks", "parents", "labels", "discards"):
                np.testing.assert_array_equal(getattr(other, field), getattr(results[0], field))


def batch_rows_reference(aset, idx, n):
    """A batch's rows by scatter: each of the n samples' batch position, read
    per row, then the batch's rows stably sorted by it, each mixed alone from
    its sample in ``source``."""
    batch_pos = np.full(n, -1)
    batch_pos[idx] = np.arange(idx.size)
    owner = batch_pos[aset.parents]
    rows = np.flatnonzero(owner >= 0)
    rows = rows[np.argsort(owner[rows], kind="stable")]
    mixed = [apply_blur_mix(aset.source[aset.parents[r]][None], aset.masks[[r]], aset.epsilon)
             for r in rows]
    samples = np.concatenate(mixed) if mixed else np.empty((0,) + aset.source.shape[1:])
    return samples, owner[rows], aset.labels[rows]


class TestRowsOf:
    def random_set(self, rng, n, c=4, dims=(3,), rowless=5):
        """A set in (parent, label) order over n samples, ``rowless`` of them
        with no rows; grid ``dims`` get spatial masks."""
        keep = rng.random((n, c)) < 0.6
        keep[rng.choice(n, rowless, replace=False)] = False
        parents, labels = np.nonzero(keep)
        mask_dims = dims[:2] + (1,) if len(dims) == 3 else dims
        return AugmentationSet(masks=rng.random((len(parents),) + mask_dims) < 0.5,
                               parents=parents, labels=labels,
                               discards=np.zeros((0, 2), dtype=np.int64),
                               source=rng.normal(size=(n,) + dims), epsilon=0.3)

    def assert_matches_reference(self, aset, idx, n):
        for got, want in zip(aset.rows_of(idx), batch_rows_reference(aset, idx, n)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_scatter_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        aset = self.random_set(rng, n)
        order = rng.permutation(n)
        for idx in (order[:7], order[7:19], order, np.arange(n)):
            self.assert_matches_reference(aset, idx, n)

    @pytest.mark.parametrize("seed", range(2))
    def test_grid_rows_match_the_scatter_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        aset = self.random_set(rng, n, dims=(5, 4, 3))
        order = rng.permutation(n)
        for idx in (order[:1], order[1:8], order):
            self.assert_matches_reference(aset, idx, n)

    def test_rows_are_mixed_through_the_module_binding(self, monkeypatch):
        # a tracer wraps ``augment.apply_blur_mix``; the set's mix must go through it
        aset = self.random_set(np.random.default_rng(3), 10)
        calls = []

        def counting_mix(x, mask, eps):
            calls.append(len(x))
            return apply_blur_mix(x, mask, eps)

        monkeypatch.setattr(augment, "apply_blur_mix", counting_mix)
        samples, _, _ = aset.rows_of(np.arange(10))
        assert calls == [len(samples)] and len(samples) == len(aset.parents)

    @pytest.mark.parametrize("idx, match", [
        (np.array([1.0]), "sample indices must be integers, got dtype float64"),
        (np.array([0.0, 2.0]), "sample indices must be integers, got dtype float64"),
        (np.array([True, False]), "sample indices must be integers, got dtype bool"),
        (np.array([[0, 1]]), r"sample indices must have shape \(\*,\), got \(1, 2\)"),
        (np.array(1), r"sample indices must have shape \(\*,\), got \(\)"),
    ], ids=["float", "floats", "bool", "2d", "0d"])
    def test_non_integer_or_non_1d_idx_rejected(self, idx, match):
        aset = self.random_set(np.random.default_rng(4), 6, rowless=1)
        with pytest.raises(ValueError, match=match) as err:
            aset.rows_of(idx)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("idx", [[-1], [6], [0, 6], [-7, 2]])
    def test_out_of_range_idx_rejected(self, idx):
        aset = self.random_set(np.random.default_rng(4), 6, rowless=1)
        with pytest.raises(ValueError, match=r"sample indices must lie in \[0, 6\)"):
            aset.rows_of(np.array(idx))

    def test_one_sample_batches(self):
        rng = np.random.default_rng(7)
        n = 12
        aset = self.random_set(rng, n, rowless=3)
        counts = [len(aset.rows_of(np.array([i]))[1]) for i in range(n)]
        assert counts.count(0) >= 3 and max(counts) > 1
        for i in range(n):
            self.assert_matches_reference(aset, np.array([i]), n)

    def test_empty_set(self):
        aset = self.random_set(np.random.default_rng(0), 6, rowless=6)
        assert len(aset.parents) == 0
        samples, owner, labels = aset.rows_of(np.array([4, 1]))
        assert samples.shape == (0, 3) and len(owner) == len(labels) == 0
        self.assert_matches_reference(aset, np.array([4, 1]), 6)
