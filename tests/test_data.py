import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab.data import (
    AnnotatorPosterior,
    DegeneratePosteriorError,
    GaussianClusterSpec,
    ParameterError,
    PLLDataset,
    ValidationError,
    entangled_cluster_spec,
    gen_entangled_gaussians,
    load_dataset,
    save_dataset,
    synthesize_candidates,
    synthesize_dataset,
    train_annotator,
)


def two_blob_dataset(n=200, gap=8.0, seed=0):
    spec = entangled_cluster_spec(2, 2, pair_distance=gap, group_distance=0.0)
    return gen_entangled_gaussians(spec, n, seed=seed)


class TestDatasetModel:
    def test_empty_candidate_set_rejected_with_index(self):
        feats = np.zeros((3, 2))
        cands = np.ones((3, 4), dtype=bool)
        cands[1] = False
        with pytest.raises(ValidationError, match="sample 1"):
            PLLDataset(feats, cands)

    def test_true_label_outside_candidates_rejected(self):
        feats = np.zeros((2, 2))
        cands = np.zeros((2, 3), dtype=bool)
        cands[:, 0] = True
        with pytest.raises(ValidationError, match="sample 1"):
            PLLDataset(feats, cands, true_labels=[0, 2])

    @pytest.mark.parametrize("label", [-5, -2, 3])
    def test_true_label_out_of_range_rejected(self, label):
        cands = np.ones((3, 3), dtype=bool)
        with pytest.raises(ValidationError, match=f"true label {label} out of range at sample 2"):
            PLLDataset(np.zeros((3, 2)), cands, true_labels=[0, -1, label])

    def test_minus_one_means_unknown(self):
        ds = PLLDataset(np.zeros((2, 2)), np.ones((2, 3), dtype=bool), true_labels=[0, -1])
        assert not ds.has_true_labels


class TestGaussianGenerator:
    def test_balanced_counts_within_one(self):
        spec = entangled_cluster_spec(4, 8)
        ds = gen_entangled_gaussians(spec, 1001, seed=0)
        counts = np.bincount(ds.true_labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1001

    def test_n_equals_c_gives_one_each(self):
        spec = entangled_cluster_spec(5, 12)
        ds = gen_entangled_gaussians(spec, 5, seed=1)
        assert sorted(ds.true_labels) == [0, 1, 2, 3, 4]

    def test_non_psd_covariance_rejected(self):
        cov = -np.eye(2)
        spec = GaussianClusterSpec(means=np.zeros((2, 2)), covariances=cov)
        with pytest.raises(ParameterError):
            gen_entangled_gaussians(spec, 10, seed=0)

    def test_far_separated_classes_have_low_cosine_overlap(self):
        # two classes on orthogonal axes, far from the origin: no raw-feature
        # pair crosses cosine 0.9 (brute-force scan)
        means = np.array([[100.0, 0.0], [0.0, 100.0]])
        spec = GaussianClusterSpec(means=means, covariances=np.eye(2))
        ds = gen_entangled_gaussians(spec, 100, seed=3)
        x = ds.features / np.linalg.norm(ds.features, axis=1, keepdims=True)
        sims = x @ x.T
        cross = ds.true_labels[:, None] != ds.true_labels[None, :]
        assert np.all(sims[cross] < 0.9)

    def test_identical_means_mix_nearest_neighbors(self):
        means = np.zeros((2, 4))
        spec = GaussianClusterSpec(means=means, covariances=np.eye(4),
                                   entangled_pairs=((0, 1),))
        ds = gen_entangled_gaussians(spec, 400, seed=7)
        x = ds.features
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        nn = np.argmin(d2, axis=1)
        frac_other = float(np.mean(ds.true_labels[nn] != ds.true_labels))
        assert frac_other > 0.5

    def test_seeded_determinism(self):
        spec = entangled_cluster_spec(4, 8)
        a = gen_entangled_gaussians(spec, 100, seed=5)
        b = gen_entangled_gaussians(spec, 100, seed=5)
        np.testing.assert_array_equal(a.features, b.features)


class TestAnnotator:
    def test_separable_blobs_high_accuracy(self):
        ds = two_blob_dataset(n=200, gap=8.0, seed=0)
        post = train_annotator(ds, epochs=30, seed=0)
        acc = float(np.mean(np.argmax(post.probs, axis=1) == ds.true_labels))
        assert acc > 0.95

    def test_untrained_annotator_near_uniform(self):
        ds = two_blob_dataset(n=50, gap=4.0, seed=1)
        post = train_annotator(ds, epochs=0, seed=0)
        assert np.all(np.abs(post.probs - 0.5) < 0.1)

    def test_one_sample_dataset_concentrates(self):
        feats = np.array([[1.0, -0.5]])
        cands = np.array([[False, True]])
        ds = PLLDataset(feats, cands, true_labels=[1], num_classes=2)
        post = train_annotator(ds, epochs=300, seed=0)
        assert post.probs[0, 1] > 0.9

    def test_single_class_space_rejected(self):
        feats = np.zeros((3, 2))
        cands = np.ones((3, 1), dtype=bool)
        ds = PLLDataset(feats, cands, true_labels=[0, 0, 0], num_classes=1)
        with pytest.raises(ValidationError):
            train_annotator(ds, epochs=1)


class TestSynthesis:
    def worked_posterior(self, n):
        # 3 classes, true label 0, posterior [0.6, 0.3, 0.1]:
        # p' = [2, 1, 1/3], flips = [-, min(1, 1.5), 0.5]
        return AnnotatorPosterior(np.tile([0.6, 0.3, 0.1], (n, 1))), np.zeros(n, dtype=np.int64)

    def test_tau_zero_gives_singletons(self):
        post, y = self.worked_posterior(500)
        mask = synthesize_candidates(post, y, tau_rate=0.0, seed=0)
        assert np.array_equal(mask.sum(axis=1), np.ones(500))
        assert np.all(mask[:, 0])

    def test_worked_example_class1_always_candidate(self):
        post, y = self.worked_posterior(2000)
        mask = synthesize_candidates(post, y, tau_rate=1.0, seed=0)
        assert np.all(mask[:, 0])  # true label kept
        assert np.all(mask[:, 1])  # flip probability clipped at 1

    def test_worked_example_class2_frequency_binomial(self):
        post, y = self.worked_posterior(10_000)
        mask = synthesize_candidates(post, y, tau_rate=1.0, seed=42)
        freq = float(mask[:, 2].mean())
        assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / 10_000)

    def test_flip_probabilities_match_analytic_oracle(self):
        # random posteriors: empirical per-label frequency over many streams
        # must match the clipped analytic flip probability within 3 sigma
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4))
        y = 2
        tau = 0.7
        trials = 10_000
        post = AnnotatorPosterior(np.tile(p, (trials, 1)))
        mask = synthesize_candidates(post, np.full(trials, y), tau_rate=tau, seed=9)
        wrong = np.arange(4) != y
        p_norm = p / p[wrong].max()
        p_flip = np.minimum(1.0, p_norm * 3 / p_norm[wrong].sum() * tau)
        for j in range(4):
            if j == y:
                continue
            freq = mask[:, j].mean()
            sigma = np.sqrt(max(p_flip[j] * (1 - p_flip[j]), 1e-12) / trials)
            assert abs(freq - p_flip[j]) <= 3 * sigma + 1e-9

    def test_avg_size_monotone_in_tau(self):
        ds = two_blob_dataset(n=300, gap=2.0, seed=2)
        post = train_annotator(ds, epochs=10, seed=0)
        sizes = []
        for tau in [0.0, 0.25, 0.5, 1.0, 2.0]:
            mask = synthesize_candidates(post, ds.true_labels, tau_rate=tau, seed=11)
            sizes.append(mask.sum(axis=1).mean())
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_degenerate_posterior_raises_with_index(self):
        probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        post = AnnotatorPosterior(probs)
        with pytest.raises(DegeneratePosteriorError, match="sample 1"):
            synthesize_candidates(post, np.zeros(2, dtype=np.int64), tau_rate=1.0)

    def test_deterministic_and_order_independent(self):
        post, y = self.worked_posterior(64)
        a = synthesize_candidates(post, y, tau_rate=0.8, seed=5)
        b = synthesize_candidates(post, y, tau_rate=0.8, seed=5)
        np.testing.assert_array_equal(a, b)
        # sample 10's draw is a pure function of (seed, index)
        sub = AnnotatorPosterior(post.probs[10:11])
        c = synthesize_candidates(sub, y[10:11], tau_rate=0.8, seed=5)
        # different index -> generally different stream; same index via full run
        np.testing.assert_array_equal(c[0], a[0])

    def test_synthesize_dataset_provenance(self):
        ds = two_blob_dataset(n=40, gap=3.0, seed=3)
        post = train_annotator(ds, epochs=5, seed=0)
        out = synthesize_dataset(ds, post, tau_rate=1.0, seed=6,
                                 annotator_meta={"epochs": 5})
        assert out.provenance["tau_rate"] == 1.0
        assert out.provenance["annotator"]["epochs"] == 5
        assert np.all(out.candidates[np.arange(len(out)), out.true_labels])


class TestDatasetIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        ds = two_blob_dataset(n=30, gap=2.5, seed=4)
        post = train_annotator(ds, epochs=5, seed=0)
        ds = synthesize_dataset(ds, post, tau_rate=1.0, seed=0)
        path = tmp_path / "ds.pllds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.candidates, ds.candidates)
        np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)

    def test_grid_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(4, 3, 3, 2))
        cands = np.ones((4, 3), dtype=bool)
        ds = PLLDataset(feats, cands, true_labels=[0, 1, 2, 0])
        path = tmp_path / "grid.pllds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.feature_dims == (3, 3, 2)
        np.testing.assert_array_equal(loaded.features, ds.features)

    def test_empty_candidates_at_row_named(self, tmp_path):
        lines = ["PLLDS v1 n=2 c=2 dims=1", "1.0|1|0", "2.0|0|-"]
        path = tmp_path / "bad.pllds"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="sample 1"):
            load_dataset(path)

    def test_negative_true_label_other_than_unknown_rejected(self, tmp_path):
        path = tmp_path / "bad.pllds"
        path.write_text("PLLDS v1 n=2 c=3 dims=2\n1.0,2.0|3|-\n1.0,2.0|3|-5\n")
        with pytest.raises(ValidationError, match="true label -5 out of range at sample 1"):
            load_dataset(path)

    def test_label_outside_candidates_rejected(self, tmp_path):
        lines = ["PLLDS v1 n=1 c=2 dims=1", "1.0|1|1"]
        path = tmp_path / "bad.pllds"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.pllds"
        path.write_text("PLLDS v2 whatever\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=12), c=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_property(self, tmp_path_factory, n, c, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(scale=100.0, size=(n, 3))
        cands = rng.random((n, c)) < 0.5
        labels = rng.integers(0, c, size=n)
        cands[np.arange(n), labels] = True
        ds = PLLDataset(feats, cands, labels, num_classes=c)
        path = tmp_path_factory.mktemp("io") / "ds.pllds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.candidates, ds.candidates)
        np.testing.assert_array_equal(loaded.true_labels, ds.true_labels)
