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
    ContractViolation,
    PluginContractError,
    PluginNotConfiguredError,
    apply_blur_mix,
    class_activation_mask,
    external_edit,
    load_augmentations,
    refresh_augmentations,
    save_augmentations,
)
from pllab.data import ParameterError, PLLDataset, ValidationError
from pllab.numkernel import EncoderConfig, NumericError, backward, forward, init_params


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
            sal = np.maximum(res.cache.fmaps[0] @ params.cls_w[:, s], 0.0)
        else:
            one_hot = np.zeros((1, params.config.num_classes))
            one_hot[0, s] = 1.0
            _, d_input = backward(params, res, d_logits=one_hot)
            sal = d_input[0] * x
        if sal.max() - sal.min() < UNIFORM_MAP_EPS:
            discards.append((i, s))
            continue
        flat = ((sal - sal.min()) / (sal.max() - sal.min())).reshape(-1)
        keep = np.zeros(flat.size)
        keep[np.lexsort((np.arange(flat.size), -flat))[:round(top_fraction * flat.size)]] = 1.0
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
        mask, kept = class_activation_mask(params, x[None], [1], top_fraction=0.3)
        assert kept.tolist() == [True]
        # feature 0 carries all attribution; ties among zeros resolve by index
        np.testing.assert_array_equal(mask, [[1, 1, 1, 0, 0, 0, 0, 0, 0, 0]])

    def test_uniform_attribution_discarded(self):
        params = linear_model()
        params.cls_w[:] = 0.0  # all logits constant in x
        mask, kept = class_activation_mask(params, np.ones((1, 10)), [0], top_fraction=0.3)
        assert kept.tolist() == [False]
        np.testing.assert_array_equal(mask, np.zeros((1, 10)))

    def test_zero_feature_maps_discarded(self):
        params = grid_model()
        for w, b in params.encoder:
            w[:] = 0.0
            b[:] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 6, 1))
        _, kept = class_activation_mask(params, x[None], [0], top_fraction=0.3)
        assert kept.tolist() == [False]

    def test_top_fraction_one_selects_everything(self):
        params = linear_model()
        x = np.random.default_rng(1).normal(size=10) + 3.0
        mask, _ = class_activation_mask(params, x[None], [2], top_fraction=1.0)
        np.testing.assert_array_equal(mask, np.ones((1, 10)))

    def test_grid_mask_is_spatial_and_broadcast(self):
        params = grid_model(h=6, w=6, ch=2)
        x = np.random.default_rng(2).normal(size=(6, 6, 2))
        mask, _ = class_activation_mask(params, x[None], [0], top_fraction=0.25)
        assert mask.shape == (1, 6, 6, 2)
        np.testing.assert_array_equal(mask[0, :, :, 0], mask[0, :, :, 1])
        assert mask[0, :, :, 0].sum() == round(0.25 * 36)

    def test_fraction_of_ones_matches_within_rounding(self):
        params = linear_model(d=17)
        x = np.random.default_rng(3).normal(size=17)
        for tf in (0.1, 0.3, 0.62, 1.0):
            mask, kept = class_activation_mask(params, x[None], [0], top_fraction=tf)
            if not kept[0]:
                continue
            assert abs(mask.sum() - tf * 17) <= 1.0

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_class_range_rejected(self, label):
        params = linear_model(c=3)
        with pytest.raises(ContractViolation, match=r"one guiding label in \[0, 3\) per row"):
            class_activation_mask(params, np.ones((2, 10)), [0, label])

    def test_label_count_must_match_rows(self):
        with pytest.raises(ContractViolation, match="one guiding label"):
            class_activation_mask(linear_model(), np.ones((3, 10)), [0, 1])


class TestApplyBlurMix:
    def onehot_mask(self, indicator):
        return np.asarray(indicator, dtype=np.float64)

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
        with pytest.raises(ParameterError):
            apply_blur_mix(np.ones((1, 2)), self.onehot_mask([[1, 0]]), eps=1.5)
        with pytest.raises(ParameterError):
            apply_blur_mix(np.ones((1, 2)), self.onehot_mask([[1, 0]]), eps=-0.1)

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
        for row in range(2):  # each grid is smoothed on its own
            np.testing.assert_array_equal(out[row], blur_one_grid(mixed[row]))
        assert not np.allclose(out, mixed)
        # flat rows of the same values are mixed but never smoothed
        flat = apply_blur_mix(grid.reshape(2, -1), self.onehot_mask(indicator.reshape(2, -1)),
                              eps=0.3)
        np.testing.assert_array_equal(flat, mixed.reshape(2, -1))

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            apply_blur_mix(np.ones((1, 4)), self.onehot_mask(np.ones((1, 5))), eps=0.5)

    @pytest.mark.parametrize("shape", [(4,), (5, 5, 2)])
    def test_unbatched_features_rejected(self, shape):
        with pytest.raises(ContractViolation, match="not a batch"):
            apply_blur_mix(np.ones(shape), np.ones(shape), eps=0.5)


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
        assert len(aset.parents) == len(aset.labels) == len(aset.sources) == 0
        assert len(aset.discards) == len(ds) * 3
        np.testing.assert_array_equal(aset.discards, np.argwhere(ds.candidates))

    def test_rerun_determinism(self):
        ds = self.make_dataset(seed=4, cand_prob=0.6)
        params = linear_model()
        a = refresh_augmentations(ds, params)
        b = refresh_augmentations(ds, params)
        for field in ("samples", "parents", "labels", "sources", "discards"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_guiding_labels_are_candidates(self):
        ds = self.make_dataset(seed=9, cand_prob=0.5)
        aset = refresh_augmentations(ds, linear_model())
        assert ds.candidates[aset.parents, aset.labels].all()
        assert (aset.sources == "builtin-cam").all()

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
        np.testing.assert_array_equal(aset.samples, samples)
        np.testing.assert_array_equal(aset.parents, parents)
        np.testing.assert_array_equal(aset.labels, labels)
        np.testing.assert_array_equal(aset.discards, discards)
        assert (aset.sources == "builtin-cam").all()

    @pytest.mark.parametrize("kind", ["linear", "mlp", "grid"])
    def test_block_size_does_not_change_the_rows(self, kind, monkeypatch):
        params, ds = tied_model_and_dataset(kind, seed=5)
        m = int(ds.candidates.sum())
        results = []
        for block in (1, 3, m + 1):
            monkeypatch.setattr(augment, "REFRESH_BLOCK_ROWS", block)
            results.append(refresh_augmentations(ds, params))
        for other in results[1:]:
            for field in ("samples", "parents", "labels", "sources", "discards"):
                np.testing.assert_array_equal(getattr(other, field), getattr(results[0], field))


class TestExternalEdit:
    def test_identity_plugin(self):
        x = np.random.default_rng(0).normal(size=6)
        out = external_edit(lambda f, d: f, x, 1, ["a", "b", "c"])
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_additive_plugin(self):
        x = np.arange(4.0)
        out = external_edit(lambda f, d: f + 1.0, x, 0, ["a"])
        np.testing.assert_array_equal(out, x + 1.0)

    def test_wrong_dims_names_plugin(self):
        def truncating_editor(f, d):
            return f[:-1]

        with pytest.raises(PluginContractError, match="truncating_editor"):
            external_edit(truncating_editor, np.ones(4), 0, ["a"])

    def test_nonfinite_output_rejected(self):
        def nan_editor(f, d):
            return np.where(f > 1.0, np.nan, f)

        with pytest.raises(NumericError, match="nan_editor"):
            external_edit(nan_editor, np.arange(4.0), 0, ["a"])

    def test_missing_plugin(self):
        with pytest.raises(PluginNotConfiguredError):
            external_edit(None, np.ones(3), 0, ["a"])

    def test_missing_class_name(self):
        with pytest.raises(ContractViolation):
            external_edit(lambda f, d: f, np.ones(3), 5, ["a", "b"])


class TestCacheFile:
    def test_roundtrip(self, tmp_path):
        ds = TestRefresh().make_dataset(seed=1)
        aset = refresh_augmentations(ds, linear_model())
        path = tmp_path / "aug.pllaug"
        save_augmentations(aset, path, num_classes=3)
        loaded = load_augmentations(path)
        for field in ("samples", "parents", "labels", "sources"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(aset, field))
        assert loaded.samples.dtype == np.float64
        assert loaded.parents.dtype == loaded.labels.dtype == np.int64
        assert loaded.discards.shape == (0, 2)

    def test_all_discarded_set_roundtrips_with_dims(self, tmp_path):
        ds = TestRefresh().make_dataset(seed=1)
        params = linear_model()
        params.cls_w[:] = 0.0
        aset = refresh_augmentations(ds, params)
        path = tmp_path / "empty.pllaug"
        save_augmentations(aset, path, num_classes=3)
        assert path.read_text().splitlines()[0] == "PLLAUG v1 n=0 c=3 dims=10"
        loaded = load_augmentations(path)
        assert loaded.samples.shape == (0, 10)
        assert len(loaded.parents) == len(loaded.labels) == len(loaded.sources) == 0

    def test_plugin_rows_roundtrip(self, tmp_path):
        aset = AugmentationSet(
            samples=np.arange(6.0).reshape(2, 3),
            parents=np.array([-1, 4]),
            labels=np.array([2, 0]),
            sources=np.array(["external-plugin", "builtin-cam"]),
            discards=np.zeros((0, 2), dtype=np.int64),
        )
        path = tmp_path / "plugin.pllaug"
        save_augmentations(aset, path, num_classes=3)
        loaded = load_augmentations(path)
        for field in ("samples", "parents", "labels", "sources"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(aset, field))

    @pytest.mark.parametrize("row, match", [
        ((0, 2, "builtin-cam"), r"record 1: guiding label 2 outside \[0, 2\)"),
        ((0, -1, "builtin-cam"), "record 1: guiding label -1 outside"),
        ((-2, 1, "builtin-cam"), "record 1: parent index -2 below -1"),
        ((0, 1, "bogus-source"), "record 1: unknown source 'bogus-source'"),
    ])
    def test_save_rejects_rows_the_loader_would_reject(self, tmp_path, row, match):
        aset = AugmentationSet(
            samples=np.zeros((2, 3)),
            parents=np.array([-1, row[0]]),
            labels=np.array([0, row[1]]),
            sources=np.array(["external-plugin", row[2]]),
            discards=np.zeros((0, 2), dtype=np.int64),
        )
        path = tmp_path / "bad.pllaug"
        with pytest.raises(ValidationError, match=match):
            save_augmentations(aset, path, num_classes=2)
        assert not path.exists()

    HEADER = "PLLAUG v1 n=2 c=3 dims=2"
    GOOD = "1.0,2.0|0|1|builtin-cam"

    @pytest.mark.parametrize("lines, match", [
        ([], "empty file"),
        (["PLLAUG v2 n=2 c=3 dims=2", GOOD, GOOD], "malformed header"),
        (["PLLAUG v1 n=two c=3 dims=2", GOOD, GOOD], "malformed header"),
        ([HEADER, GOOD], "n=2 but file has 1 records"),
        ([HEADER, GOOD, GOOD, GOOD], "n=2 but file has 3 records"),
        ([HEADER, GOOD, "1.0,2.0|0|1"], "record 1: expected 4"),
        ([HEADER, GOOD, "1.0,2.0,3.0|0|1|builtin-cam"], "record 1: expected 2 features"),
        ([HEADER, "1.0,nan|0|1|builtin-cam", GOOD], "record 0: non-finite"),
        ([HEADER, GOOD, "1.0,inf|0|1|builtin-cam"], "record 1: non-finite"),
        ([HEADER, GOOD, "1.0,2.0|x|1|builtin-cam"], "record 1: bad parent index"),
        ([HEADER, "1.0,2.0|-2|1|builtin-cam", GOOD], "record 0: parent index -2 below -1"),
        ([HEADER, GOOD, "1.0,2.0|0|3|builtin-cam"], "record 1: guiding label 3 outside"),
        ([HEADER, GOOD, "1.0,2.0|0|-1|builtin-cam"], r"record 1: guiding label -1 outside"),
        ([HEADER, "1.0,2.0|-7|9|bogus-source", GOOD], "record 0: parent index -7 below -1"),
        ([HEADER, GOOD, "1.0,2.0|0|1|bogus-source"], "record 1: unknown source 'bogus-source'"),
        ([HEADER, GOOD, "1.0,2.0|" + "9" * 30 + "|1|builtin-cam"], "record 1: bad parent index"),
    ])
    def test_malformed_file_names_the_problem(self, tmp_path, lines, match):
        path = tmp_path / "bad.pllaug"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValidationError, match=match):
            load_augmentations(path)
