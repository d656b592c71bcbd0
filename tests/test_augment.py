import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab.augment import (
    AugmentConfig,
    AugmentationSet,
    ClassMask,
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
from pllab.numkernel import EncoderConfig, NumericError, init_params


def linear_model(d=10, c=3):
    config = EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=(), embed_dim=4)
    params = init_params(config, seed=0)
    return params


def grid_model(h=6, w=6, ch=1, c=3):
    config = EncoderConfig(input_dims=(h, w, ch), num_classes=c, hidden_dims=(4, 5),
                           embed_dim=4)
    return init_params(config, seed=1)


class TestClassActivationMask:
    def test_one_hot_classifier_row_selects_by_attribution(self):
        params = linear_model(d=10, c=3)
        params.cls_w[:] = 0.0
        params.cls_w[0, 1] = 1.0  # logit 1 reads feature 0 only
        x = np.linspace(1.0, 2.0, 10)
        mask = class_activation_mask(params, x, s=1, top_fraction=0.3)
        assert mask is not None
        # feature 0 carries all attribution; ties among zeros resolve by index
        np.testing.assert_array_equal(
            mask.indicator, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        )
        assert mask.saliency_fraction == 0.3

    def test_uniform_attribution_discarded(self):
        params = linear_model()
        params.cls_w[:] = 0.0  # all logits constant in x
        x = np.ones(10)
        assert class_activation_mask(params, x, s=0, top_fraction=0.3) is None

    def test_zero_feature_maps_discarded(self):
        params = grid_model()
        for w, b in params.encoder:
            w[:] = 0.0
            b[:] = 0.0
        x = np.random.default_rng(0).normal(size=(6, 6, 1))
        assert class_activation_mask(params, x, s=0, top_fraction=0.3) is None

    def test_top_fraction_one_selects_everything(self):
        params = linear_model()
        x = np.random.default_rng(1).normal(size=10) + 3.0
        mask = class_activation_mask(params, x, s=2, top_fraction=1.0)
        np.testing.assert_array_equal(mask.indicator, np.ones(10))

    def test_grid_mask_is_spatial_and_broadcast(self):
        params = grid_model(h=6, w=6, ch=2)
        x = np.random.default_rng(2).normal(size=(6, 6, 2))
        mask = class_activation_mask(params, x, s=0, top_fraction=0.25)
        assert mask.indicator.shape == (6, 6, 2)
        np.testing.assert_array_equal(mask.indicator[:, :, 0], mask.indicator[:, :, 1])
        assert mask.indicator[:, :, 0].sum() == round(0.25 * 36)

    def test_fraction_of_ones_matches_within_rounding(self):
        params = linear_model(d=17)
        x = np.random.default_rng(3).normal(size=17)
        for tf in (0.1, 0.3, 0.62, 1.0):
            mask = class_activation_mask(params, x, s=0, top_fraction=tf)
            if mask is None:
                continue
            assert abs(mask.indicator.sum() - tf * 17) <= 1.0

    def test_non_candidate_guide_rejected(self):
        params = linear_model()
        ds = PLLDataset(np.ones((1, 10)), np.array([[True, False, True]]),
                        true_labels=[0])
        with pytest.raises(ContractViolation):
            class_activation_mask(params, ds[0], s=1, top_fraction=0.3)


class TestApplyBlurMix:
    def onehot_mask(self, indicator, label=0):
        return ClassMask(indicator=np.asarray(indicator, dtype=np.float64),
                         guiding_label=label, saliency_fraction=0.5)

    def test_eps_one_is_bit_exact_identity(self):
        x = np.random.default_rng(0).normal(size=8)
        mask = self.onehot_mask([1, 0, 1, 0, 1, 0, 1, 0])
        out = apply_blur_mix(x, mask, eps=1.0)
        np.testing.assert_array_equal(out.features, x)

    def test_all_ones_mask_any_eps(self):
        x = np.random.default_rng(1).normal(size=5)
        mask = self.onehot_mask(np.ones(5))
        out = apply_blur_mix(x, mask, eps=0.123)
        np.testing.assert_array_equal(out.features, x)

    def test_hand_example_2_4(self):
        out = apply_blur_mix(np.array([2.0, 4.0]), self.onehot_mask([1, 0]), eps=0.5)
        np.testing.assert_array_equal(out.features, [2.0, 2.0])

    def test_eps_zero_zeroes_masked_off(self):
        x = np.array([3.0, -1.0, 7.0])
        out = apply_blur_mix(x, self.onehot_mask([0, 1, 0]), eps=0.0)
        np.testing.assert_array_equal(out.features, [0.0, -1.0, 0.0])

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            apply_blur_mix(np.ones(2), self.onehot_mask([1, 0]), eps=1.5)
        with pytest.raises(ParameterError):
            apply_blur_mix(np.ones(2), self.onehot_mask([1, 0]), eps=-0.1)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), eps=st.floats(0.0, 1.0))
    def test_output_between_eps_x_and_x(self, seed, eps):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        indicator = (rng.random(12) < 0.5).astype(float)
        out = apply_blur_mix(x, self.onehot_mask(indicator), eps=eps).features
        lo = np.minimum(eps * x, x)
        hi = np.maximum(eps * x, x)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_smoothing_preserves_constant_grids(self):
        x = np.full((5, 5, 1), 2.5)
        mask = self.onehot_mask(np.ones((5, 5, 1)))
        out = apply_blur_mix(x, mask, eps=1.0, smooth=True)
        np.testing.assert_allclose(out.features, x, rtol=1e-12)

    def test_smoothing_rejected_on_flat(self):
        with pytest.raises(ParameterError):
            apply_blur_mix(np.ones(4), self.onehot_mask(np.ones(4)), eps=1.0, smooth=True)


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
        assert not aset.discards
        assert len(aset.samples) == len(ds) * 3
        for i in range(len(ds)):
            labels = [aset.samples[k].guiding_label for k in aset.by_parent()[i]]
            assert sorted(labels) == [0, 1, 2]

    def test_all_discarded_when_model_is_flat_zero(self):
        ds = self.make_dataset(cand_prob=1.0)
        params = linear_model()
        params.cls_w[:] = 0.0
        aset = refresh_augmentations(ds, params)
        assert aset.samples == []
        assert len(aset.discards) == len(ds) * 3

    def test_rerun_determinism(self):
        ds = self.make_dataset(seed=4, cand_prob=0.6)
        params = linear_model()
        a = refresh_augmentations(ds, params)
        b = refresh_augmentations(ds, params)
        assert len(a.samples) == len(b.samples)
        for s1, s2 in zip(a.samples, b.samples):
            assert (s1.parent_index, s1.guiding_label) == (s2.parent_index, s2.guiding_label)
            np.testing.assert_array_equal(s1.features, s2.features)

    def test_guiding_labels_are_candidates(self):
        ds = self.make_dataset(seed=9, cand_prob=0.5)
        aset = refresh_augmentations(ds, linear_model())
        for aug in aset.samples:
            assert ds.candidates[aug.parent_index, aug.guiding_label]

    def test_buckets_partition(self):
        ds = self.make_dataset(seed=2, cand_prob=0.7)
        aset = refresh_augmentations(ds, linear_model())
        buckets = aset.buckets()
        flat = sorted(i for idxs in buckets.values() for i in idxs)
        assert flat == list(range(len(aset.samples)))


class TestExternalEdit:
    def test_identity_plugin(self):
        x = np.random.default_rng(0).normal(size=6)
        out = external_edit(lambda f, d: f, x, 1, ["a", "b", "c"])
        np.testing.assert_array_equal(out.features, x)
        assert out.source == "external-plugin"

    def test_additive_plugin(self):
        x = np.arange(4.0)
        out = external_edit(lambda f, d: f + 1.0, x, 0, ["a"])
        np.testing.assert_array_equal(out.features, x + 1.0)

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
        assert len(loaded.samples) == len(aset.samples)
        for a, b in zip(aset.samples, loaded.samples):
            assert (a.parent_index, a.guiding_label, a.source) == (
                b.parent_index, b.guiding_label, b.source)
            np.testing.assert_array_equal(a.features, b.features)

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
    ])
    def test_malformed_file_names_the_problem(self, tmp_path, lines, match):
        path = tmp_path / "bad.pllaug"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValidationError, match=match):
            load_augmentations(path)
