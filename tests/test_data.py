import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pllab.data
from pllab.data import (
    AnnotatorPosterior,
    GaussianClusterSpec,
    ParameterError,
    PLLDataset,
    ValidationError,
    _per_sample_uniforms,
    entangled_cluster_spec,
    gen_entangled_gaussians,
    load_dataset,
    save_dataset,
    synthesize_candidates,
    synthesize_dataset,
    train_annotator,
)
from pllab.losses import _softmax
from pllab.numkernel import EncoderConfig, NumericError, backward, forward, init_params


def two_blob_dataset(n=200, gap=8.0, seed=0):
    spec = entangled_cluster_spec(2, 2, pair_distance=gap, group_distance=0.0)
    return gen_entangled_gaussians(spec, n, seed=seed)


def unlabelled(ds):
    return PLLDataset(ds.features, ds.candidates)


# each rejecting branch of the module, with the module's own error type
@pytest.mark.parametrize("call, error, match", [
    (lambda: PLLDataset(np.zeros((3, 2)), np.ones((3, 4), bool), num_classes=3),
     ValidationError, "candidate mask shape"),
    (lambda: PLLDataset(np.zeros((3, 2)), np.ones((3, 2), bool), [0, 1]),
     ValidationError, "true_labels length"),
    (lambda: PLLDataset([[0.0], [np.nan], [1.0]], np.ones((3, 2), bool)),
     ValidationError, "non-finite feature values at sample 1"),
    (lambda: PLLDataset(np.zeros((2, 2)), np.ones((2, 3), bool), true_labels=[0.5, 2.9]),
     ValidationError, "true_labels must be integers, got dtype float64"),
    (lambda: PLLDataset(np.zeros((2, 2)), np.ones((2, 3), bool), true_labels=np.array([0.0, 2.0])),
     ValidationError, "true_labels must be integers, got dtype float64"),
    (lambda: PLLDataset(np.zeros((2, 2)), np.ones((2, 3), bool), num_classes=3.7),
     ValidationError, "num_classes must be an integer, got 3.7"),
    (lambda: PLLDataset(np.zeros((2, 2)), np.ones((2, 3), bool), num_classes=3.0),
     ValidationError, "num_classes must be an integer, got 3.0"),
    (lambda: AnnotatorPosterior(np.full(3, 1 / 3)), ValidationError, r"\(n, c\) matrix"),
    (lambda: AnnotatorPosterior([[1.5, -0.5]]), ValidationError, "negative"),
    (lambda: AnnotatorPosterior([[0.5, 0.5], [0.5, 0.4]]), ValidationError,
     "row 1 does not sum to 1"),
    (lambda: GaussianClusterSpec(np.zeros(4), np.eye(4)), ParameterError, "means"),
    (lambda: GaussianClusterSpec(np.zeros((2, 3)), np.eye(2)), ParameterError, "covariances"),
    (lambda: entangled_cluster_spec(1, 4), ParameterError,
     "num_classes must be at least 2, got 1"),
    (lambda: entangled_cluster_spec(4, 3), ParameterError, "dim must be at least 4, got 3"),
    (lambda: entangled_cluster_spec(2, 2, variance=0.0), ParameterError, "variance"),
    (lambda: gen_entangled_gaussians(GaussianClusterSpec(np.zeros((1, 2)), np.eye(2)), 4),
     ParameterError, "two classes"),
    (lambda: gen_entangled_gaussians(entangled_cluster_spec(4, 4), 3),
     ParameterError, "one sample per class"),
    (lambda: train_annotator(unlabelled(two_blob_dataset(n=10)), 1),
     ValidationError, "true labels"),
    (lambda: train_annotator(two_blob_dataset(n=10).subset([]), 1),
     ValidationError, "at least one sample"),
    (lambda: train_annotator(two_blob_dataset(n=10).subset([]), 0),
     ValidationError, "at least one sample"),
    pytest.param(lambda: synthesize_candidates(AnnotatorPosterior(np.full((3, 3), 1 / 3)),
                                               [0, 1], 1.0),
                 ParameterError, r"true_labels must have shape \(3,\), got \(2,\)",
                 id="<lambda>-ParameterError-true_labels length"),
    pytest.param(lambda: synthesize_dataset(two_blob_dataset(n=10),
                                            AnnotatorPosterior(np.full((9, 2), 0.5)), 1.0),
                 ParameterError, r"true_labels must have shape \(9,\), got \(10,\)",
                 id="<lambda>-ParameterError-posterior rows"),
    (lambda: synthesize_dataset(unlabelled(two_blob_dataset(n=10)),
                                AnnotatorPosterior(np.full((10, 2), 0.5)), 1.0),
     ValidationError, "true labels"),
    (lambda: AnnotatorPosterior([[0.25] * 4, [0.5, np.nan, 0.25, 0.25]]), ValidationError,
     "posterior row 1 has non-finite entries"),
    (lambda: AnnotatorPosterior([[0.5, 0.5], [np.inf, -np.inf]]), ValidationError,
     "posterior row 1 has non-finite entries"),
    (lambda: entangled_cluster_spec(4, 4, variance=np.nan), ParameterError,
     "variance must be positive and finite, got nan"),
    (lambda: entangled_cluster_spec(4, 4, pair_distance=np.nan), ParameterError,
     r"pair_distance must lie in \(-inf, inf\), got nan"),
    (lambda: entangled_cluster_spec(4, 4, group_distance=np.inf), ParameterError,
     r"group_distance must lie in \(-inf, inf\), got inf"),
    (lambda: GaussianClusterSpec(np.zeros((3, 2)), [np.eye(2), np.eye(2), [[1.0, np.nan],
                                                                          [0.0, 1.0]]]),
     ParameterError, "covariances of class 2 are not finite"),
    (lambda: entangled_cluster_spec(4.5, 10), ParameterError,
     "num_classes must be an integer, got 4.5"),
    (lambda: entangled_cluster_spec(4, 10.0), ParameterError, "dim must be an integer, got 10.0"),
    (lambda: gen_entangled_gaussians(entangled_cluster_spec(4, 4), 8, seed=-1),
     ParameterError, "seed must be nonnegative, got -1"),
    (lambda: gen_entangled_gaussians(entangled_cluster_spec(4, 4), 8, seed=1.5),
     ParameterError, "seed must be an integer, got 1.5"),
    (lambda: gen_entangled_gaussians(entangled_cluster_spec(4, 4), 8.5),
     ParameterError, "n must be an integer, got 8.5"),
    (lambda: train_annotator(two_blob_dataset(n=10), 1.5), ParameterError,
     "epochs must be an integer, got 1.5"),
    (lambda: train_annotator(two_blob_dataset(n=10), float("nan")), ParameterError,
     "epochs must be an integer, got nan"),
    (lambda: train_annotator(two_blob_dataset(n=10), 1, seed=-2), ParameterError,
     "seed must be nonnegative, got -2"),
    (lambda: synthesize_candidates(AnnotatorPosterior(np.full((3, 3), 1 / 3)), [0, 1, 2], 1.0,
                                   seed=-3), ParameterError, "seed must be nonnegative, got -3"),
    (lambda: synthesize_candidates(AnnotatorPosterior(np.full((3, 3), 1 / 3)),
                                   np.array([0, 1, 2]) + 0.5, 1.0),
     ParameterError, "true_labels must be integers, got dtype float64"),
])
def test_malformed_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


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

    @pytest.mark.parametrize("labels, classes", [
        ([0, 2], 3),
        (np.array([0, 2], dtype=np.int32), np.int64(3)),
        (np.array([0, 2], dtype=np.uint8), np.int32(3)),
        ([np.int64(0), np.int16(2)], None),
    ])
    def test_integer_labels_and_class_counts_accepted(self, labels, classes):
        ds = PLLDataset(np.zeros((2, 2)), np.ones((2, 3), bool), labels, num_classes=classes)
        assert ds.true_labels.dtype == np.int64
        assert ds.true_labels.tolist() == [0, 2]
        assert ds.num_classes == 3 and type(ds.num_classes) is int

    def test_minus_one_means_unknown(self):
        ds = PLLDataset(np.zeros((2, 2)), np.ones((2, 3), dtype=bool), true_labels=[0, -1])
        assert not ds.has_true_labels

    @pytest.mark.parametrize("indices", [[], (), np.arange(0), np.zeros(0, dtype=np.int32)])
    def test_empty_subset_keeps_dims_and_classes(self, indices):
        ds = PLLDataset(np.ones((3, 2, 4)), np.ones((3, 5), dtype=bool), true_labels=[0, 4, 2])
        empty = ds.subset(indices)
        assert len(empty) == 0
        assert empty.feature_dims == (2, 4)
        assert empty.num_classes == 5
        assert empty.candidates.shape == (0, 5)
        assert empty.true_labels.shape == (0,)
        empty.validate()

    @pytest.mark.parametrize("indices", [[2, 0], np.array([2, 0]), np.array([2, 0], np.int32)])
    def test_subset_takes_rows_in_order(self, indices):
        feats = np.arange(6.0).reshape(3, 2)
        ds = PLLDataset(feats, np.eye(3, dtype=bool), true_labels=[0, 1, 2])
        sub = ds.subset(indices)
        np.testing.assert_array_equal(sub.features, feats[[2, 0]])
        np.testing.assert_array_equal(sub.true_labels, [2, 0])
        np.testing.assert_array_equal(sub.candidates, np.eye(3, dtype=bool)[[2, 0]])


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

    def test_numpy_integer_count_and_seed_accepted(self):
        spec = entangled_cluster_spec(4, 8)
        a = gen_entangled_gaussians(spec, np.int32(20), seed=np.uint64(5))
        b = gen_entangled_gaussians(spec, 20, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.provenance["seed"] == 5


def annotator_reference(dataset, epochs, seed=0):
    """The annotator loop as it ran on the backbone's general ``forward`` and
    ``backward`` (a fresh gradient vector per batch), kept as the bitwise
    oracle of ``train_annotator``'s own step."""
    n = len(dataset)
    x = dataset.features.reshape(n, -1)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    x = (x - mu) / sd
    config = EncoderConfig(input_dims=(x.shape[1],), num_classes=dataset.num_classes,
                           hidden_dims=(32,), embed_dim=8)
    params = init_params(config, seed=seed)
    params.cls_w[:] = 0.0
    params.cls_b[:] = 0.0
    rng = np.random.default_rng([seed, 1])
    onehot = np.zeros((n, dataset.num_classes))
    onehot[np.arange(n), dataset.true_labels] = 1.0
    for _ in range(epochs):
        order = rng.permutation(n)
        xs, ys = x[order], onehot[order]
        for start in range(0, n, 32):
            stop = min(start + 32, n)
            res = forward(params, xs[start:stop])
            dz = (_softmax(res.logits) - ys[start:stop]) / (stop - start)
            grads, _ = backward(res, d_logits=dz)
            params.flat -= 0.05 * grads.flat
    return _softmax(forward(params, x).logits)


def annotator_case(n, c=3, dims=(5,), seed=0):
    rng = np.random.default_rng([n, c, seed])
    feats = rng.normal(scale=2.0, size=(n,) + dims)
    labels = rng.integers(0, c, size=n)
    return PLLDataset(feats, np.eye(c, dtype=bool)[labels], labels, num_classes=c)


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

    def test_negative_epochs_rejected(self):
        ds = two_blob_dataset(n=20, gap=4.0, seed=1)
        with pytest.raises(ParameterError, match="epochs must be nonnegative, got -3"):
            train_annotator(ds, epochs=-3, seed=0)

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

    # n = 33 leaves a one-row last batch, which numpy runs as a matrix-vector product
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 31, 33, 2000])
    def test_matches_reference_bitwise(self, n, epochs):
        ds = annotator_case(n)
        got = train_annotator(ds, epochs, seed=4).probs
        assert got.tobytes() == annotator_reference(ds, epochs, seed=4).tobytes()

    @pytest.mark.parametrize("c, dims", [(2, (5,)), (10, (5,)), (4, (3, 3, 2))],
                             ids=["2-classes", "10-classes", "grid"])
    @pytest.mark.parametrize("constant_column", [False, True])
    def test_shapes_match_reference_bitwise(self, c, dims, constant_column):
        ds = annotator_case(65, c, dims, seed=1)
        if constant_column:
            ds.features.reshape(65, -1)[:, 2] = 7.5  # zero variance: sd is replaced by 1
        got = train_annotator(ds, 3, seed=2).probs
        assert got.tobytes() == annotator_reference(ds, 3, seed=2).tobytes()

    def test_steps_without_backward_and_checks_in_one_final_forward(self, monkeypatch):
        def no_backward(*args, **kwargs):
            raise AssertionError("train_annotator called backward")

        rows = []

        def counting_forward(params, x):
            rows.append(len(x))
            return forward(params, x)

        monkeypatch.setattr(pllab.data, "backward", no_backward)
        monkeypatch.setattr(pllab.data, "forward", counting_forward)
        ds = annotator_case(70)
        post = train_annotator(ds, 2, seed=0)
        assert rows == [70]
        assert post.probs.shape == (70, 3)

    def test_nonfinite_weight_raises_at_the_final_forward(self, monkeypatch):
        def poisoned_init(config, seed=0):
            params = init_params(config, seed)
            params.encoder[0][0][0, 0] = np.nan
            return params

        monkeypatch.setattr(pllab.data, "init_params", poisoned_init)
        with pytest.raises(NumericError):
            train_annotator(annotator_case(40), 1)


@pytest.mark.parametrize("c", [1, 2, 17])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7])
def test_stream_matches_per_row_generators_bitwise(seed, c):
    # seeds of one to four 32-bit words: [seed, i] pads the pool of four, fills it or overflows it
    for n in (0, 1, 300):
        got = _per_sample_uniforms(seed, n, c)
        want = np.array([np.random.default_rng([seed, i]).random(c) for i in range(n)])
        assert got.shape == (n, c) and got.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.reshape(n, c).view(np.uint64))


def synthesize_candidates_loop(posteriors, true_labels, tau_rate, seed=0):
    """The per-sample loop ``synthesize_candidates`` ran before it computed
    every row's flip probabilities at once, kept as its bitwise oracle."""
    probs = posteriors.probs
    n, c = probs.shape
    mask = np.zeros((n, c), dtype=bool)
    for i in range(n):
        y = int(true_labels[i])
        p = probs[i]
        wrong = np.arange(c) != y
        m = p[wrong].max()
        if m == 0.0:
            raise ValidationError(
                f"sample {i}: posterior mass on every wrong label is zero"
            )
        p_norm = p / m
        denom = p_norm[wrong].sum()
        p_flip = np.minimum(1.0, p_norm * (c - 1) / denom * tau_rate)
        draws = np.random.default_rng([seed, i]).random(c)
        mask[i] = wrong & (draws < p_flip)
        mask[i, y] = True
    return mask


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

    @pytest.mark.parametrize("tau_rate", [-0.5, float("nan")])
    def test_bad_tau_rate_rejected(self, tau_rate):
        post, y = self.worked_posterior(4)
        with pytest.raises(ParameterError, match="tau_rate must be nonnegative"):
            synthesize_candidates(post, y, tau_rate=tau_rate)

    def test_degenerate_posterior_raises_with_index(self):
        probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        post = AnnotatorPosterior(probs)
        with pytest.raises(ValidationError, match="sample 1"):
            synthesize_candidates(post, np.zeros(2, dtype=np.int64), tau_rate=1.0)

    @pytest.mark.parametrize("case", range(40))
    def test_matches_per_sample_loop(self, case):
        rng = np.random.default_rng(case)
        c = int(rng.integers(2, 18))
        n = int(rng.integers(1, 60))
        probs = rng.dirichlet(np.full(c, rng.uniform(0.05, 3.0)), size=n)
        probs[::5] = 1.0 / c  # rows whose wrong labels all tie
        post = AnnotatorPosterior(probs)
        y = rng.integers(0, c, n)
        tau = float(rng.uniform(0.08, 1.0))
        np.testing.assert_array_equal(synthesize_candidates(post, y, tau, seed=case),
                                      synthesize_candidates_loop(post, y, tau, seed=case))

    def test_first_degenerate_sample_named(self):
        probs = np.tile([0.2, 0.3, 0.5], (6, 1))
        probs[[2, 4]] = [0.0, 0.0, 1.0]
        post, y = AnnotatorPosterior(probs), np.full(6, 2)
        with pytest.raises(ValidationError) as loop_err:
            synthesize_candidates_loop(post, y, tau_rate=1.0)
        with pytest.raises(ValidationError, match="sample 2:") as err:
            synthesize_candidates(post, y, tau_rate=1.0)
        assert str(err.value) == str(loop_err.value)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_true_label_out_of_range_rejected(self, label):
        post, y = self.worked_posterior(4)
        y[1] = label
        with pytest.raises(ParameterError, match="true_labels"):
            synthesize_candidates(post, y, tau_rate=1.0)

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

    def test_no_samples_give_an_empty_mask(self):
        mask = synthesize_candidates(AnnotatorPosterior(np.zeros((0, 4))),
                                     np.zeros(0, dtype=np.int64), tau_rate=1.0, seed=3)
        assert mask.shape == (0, 4)
        assert mask.dtype == bool

    def test_synthesize_dataset_provenance(self):
        ds = two_blob_dataset(n=40, gap=3.0, seed=3)
        post = train_annotator(ds, epochs=5, seed=0)
        out = synthesize_dataset(ds, post, tau_rate=1.0, seed=6)
        assert out.provenance["tau_rate"] == 1.0
        assert out.provenance["synthesis_seed"] == 6
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

    @pytest.mark.parametrize("dims", [(3,), (2, 3, 2)], ids=["flat", "grid"])
    def test_empty_roundtrip(self, tmp_path, dims):
        ds = PLLDataset(np.ones((2,) + dims), np.ones((2, 4), dtype=bool), [0, 3]).subset([])
        path = tmp_path / "empty.pllds"
        save_dataset(ds, path)
        assert path.read_text() == f"PLLDS v1 n=0 c=4 dims={','.join(map(str, dims))}\n"
        loaded = load_dataset(path)
        assert loaded.features.shape == (0,) + dims
        assert loaded.candidates.shape == (0, 4)
        assert loaded.num_classes == 4

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

    HEADER = "PLLDS v1 n=2 c=3 dims=2"
    GOOD = "1.0,2.0|3|0"

    @pytest.mark.parametrize("lines, match", [
        ([], "empty file"),
        (["PLLDS v2 n=2 c=3 dims=2", GOOD, GOOD], "malformed header"),
        (["PLLDS v1 n=two c=3 dims=2", GOOD, GOOD], "malformed header"),
        ([HEADER, GOOD], "n=2 but file has 1 records"),
        ([HEADER, GOOD, GOOD, GOOD], "n=2 but file has 3 records"),
        ([HEADER, GOOD, "1.0,2.0|3"], "sample 1: expected 3 |-separated fields"),
        ([HEADER, GOOD, "1.0,2.0,3.0|3|0"], "sample 1: expected 2 features, got 3"),
        ([HEADER, "1.0,nan|3|0", GOOD], "sample 0: non-finite"),
        ([HEADER, GOOD, "1.0,inf|3|0"], "sample 1: non-finite"),
        ([HEADER, GOOD, "1.0,two|3|0"], "sample 1: bad feature value"),
        (["PLLDS v1 n=2 c=3 dims=-1", GOOD, GOOD], "malformed header: negative count"),
        (["PLLDS v1 n=2 c=-1 dims=2", GOOD, GOOD], "malformed header: negative count"),
        ([HEADER, GOOD, "1.0,2.0|zz|0"], "sample 1: bad candidate bitmask"),
        ([HEADER, GOOD, "1.0,2.0|8|-"], "sample 1: candidate bit beyond 3 classes"),
        ([HEADER, GOOD, "1.0,2.0|3|x"], "sample 1: bad true label"),
        ([HEADER, GOOD, "1.0,2.0|3|" + "9" * 30], "sample 1: bad true label"),
        (["PLLDS v1 n=1 c=3 dims=10000000000000", GOOD], "over the .*-byte limit"),
        (["PLLDS v1 n=1 c=10000000000000 dims=2", GOOD], "over the .*-byte limit"),
        (["PLLDS v1 n=0 c=3 dims=" + "1" + "0" * 30], "over the .*-byte limit"),
        (["PLLDS v1 n=2 c=3 dims=", GOOD, GOOD], "malformed header: dims must be d or h,w,ch"),
        (["PLLDS v1 n=2 c=3 dims=2,1", GOOD, GOOD], "malformed header: dims must be d or h,w,ch"),
        (["PLLDS v1 n=2 c=3 dims=0", "|3|0", "|3|0"], "every entry >= 1"),
        (["PLLDS v1 n=2 c=3 dims=1,0,2", "|3|0", "|3|0"], "every entry >= 1"),
        # Python literal syntax that int() and float() accept, in every field
        ([HEADER, GOOD, "1_0,2.0|3|0"], "sample 1: bad feature value"),
        ([HEADER, GOOD, "1.0,2.0|0x3|0"], "sample 1: bad candidate bitmask"),
        ([HEADER, GOOD, "1.0,2.0|0X3|0"], "sample 1: bad candidate bitmask"),
        ([HEADER, GOOD, "1.0,2.0|0_3|0"], "sample 1: bad candidate bitmask"),
        ([HEADER, GOOD, "1.0,2.0|3|0_1"], "sample 1: bad true label"),
        (["PLLDS v1 n=0_2 c=3 dims=2", GOOD, GOOD], "malformed header"),
        (["PLLDS v1 n=2 c=0_3 dims=2", GOOD, GOOD], "malformed header"),
        (["PLLDS v1 n=2 c=3 dims=0_2", GOOD, GOOD], "malformed header"),
    ])
    def test_malformed_file_names_the_problem(self, tmp_path, lines, match):
        path = tmp_path / "bad.pllds"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValidationError, match=match):
            load_dataset(path)

    def test_non_ascii_byte_raises_validation_error(self, tmp_path):
        path = tmp_path / "bad.pllds"
        path.write_bytes(b"PLLDS v1 n=1 c=2 dims=1\n1.0|1|\xff\n")
        with pytest.raises(ValidationError, match="not an ASCII dataset file"):
            load_dataset(path)

    def test_mutated_files_load_or_raise_validation_error(self, tmp_path, mutations):
        # each mutation of a valid file loads cleanly or raises ValidationError
        rng = np.random.default_rng(0)
        labels = np.array([0, 1, 2, 3, 0])
        cands = rng.random((5, 4)) < 0.5
        cands[np.arange(5), labels] = True
        path = tmp_path / "ds.pllds"
        save_dataset(PLLDataset(rng.normal(size=(5, 3)), cands, [0, 1, 2, 3, -1]), path)
        for data in mutations(path.read_bytes(), 0, 100):
            path.write_bytes(data)
            try:
                load_dataset(path)
            except ValidationError:
                pass

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
