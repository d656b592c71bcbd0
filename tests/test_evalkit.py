import tracemalloc

import numpy as np
import pytest

from pllab import evalkit
from pllab.data import PLLDataset
from pllab.entangle import find_entangled
from pllab.evalkit import (
    ClassDistances,
    accuracy_from_confusion,
    class_distances,
    confusion_matrix,
    embed,
    entangled_metrics,
    full_report,
    label_overlap,
    predict,
    recovered_rate,
    write_report,
)
from pllab.numkernel import EncoderConfig, init_params
from pllab.trainer import ModelPair


def random_dataset(n=50, c=4, d=6, seed=0, full_cands=False):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    if full_cands:
        cands = np.ones((n, c), dtype=bool)
    else:
        cands = rng.random((n, c)) < 0.4
        cands[np.arange(n), labels] = True
    return PLLDataset(feats, cands, labels, num_classes=c)


def model_for(ds, seed=0):
    config = EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                           hidden_dims=(8,), embed_dim=4)
    return init_params(config, seed=seed)


@pytest.mark.parametrize("call, match", [
    (lambda ds: embed(model_for(ds), ds.features, space="logits"), "space must be"),
    pytest.param(lambda ds: confusion_matrix([0, 1], [0], 2), r"predictions must have shape \(2,\)",
                 id="<lambda>-lengths differ"),
    (lambda ds: class_distances(np.eye(3), [0, 0, 0]), "at least two populated classes"),
    (lambda ds: label_overlap(PLLDataset(ds.features, ds.candidates)), "true labels"),
    pytest.param(lambda ds: recovered_rate([0, 1], [0, 1], [0], [0, 1, 2]),
                 r"pll_predictions must have shape \(3,\), got \(2,\)", id="<lambda>-must align"),
    # labels and indices are never truncated to integers
    (lambda ds: confusion_matrix([0.5, 1.7], [0, 1], 2), "labels must be integers"),
    (lambda ds: confusion_matrix([0, 1], [0, 1.0], 2), "predictions must be integers"),
    (lambda ds: entangled_metrics([[0.9, 1.2]], [0, 1], np.eye(2), [0, 1]),
     "instance indices must be integers"),
    (lambda ds: entangled_metrics([[0, 1]], [0, 1], np.eye(2), [0.0, 1.0]),
     "true_labels must be integers"),
    (lambda ds: class_distances(np.eye(3), [0.2, 1.9, 1.1]), "labels must be integers"),
    # -1 marks a sample without a true label
    pytest.param(lambda ds: class_distances(np.eye(4), [0, 1, -1, 1]),
                 "labels must be nonnegative", id="<lambda>-labels must be non-negative"),
    (lambda ds: entangled_metrics([[0, 1]], [0.5, 1.0], np.eye(2), [0, 1]),
     "predictions must be integers, got dtype float64"),
    pytest.param(lambda ds: entangled_metrics([[0, 1]], [0, 1, 1], np.eye(2), [0, 1]),
                 r"predictions must have shape \(2,\), got \(3,\)",
                 id="<lambda>-one prediction per true label"),
    pytest.param(lambda ds: entangled_metrics([[0, 1]], [0, 1], np.ones(2), [0, 1]),
                 r"embeddings must have shape \(2, \*\), got \(2,\)",
                 id="<lambda>-embeddings must be 2-D with one row per label0"),
    pytest.param(lambda ds: entangled_metrics([[0, 1]], [0, 1], np.eye(3), [0, 1]),
                 r"embeddings must have shape \(2, \*\), got \(3, 3\)",
                 id="<lambda>-embeddings must be 2-D with one row per label1"),
    (lambda ds: recovered_rate([0.5, 1], [0, 1], [0], [0, 1]), "pll_predictions must be"),
    (lambda ds: recovered_rate([0, 1], [0, 1.5], [0], [0, 1]),
     "supervised_predictions must be"),
    (lambda ds: recovered_rate([0, 1], [0, 1], [0.5], [0, 1]), "instance indices must be"),
    (lambda ds: recovered_rate([0, 1], [0, 1], [0], [0, 1.0]), "true_labels must be"),
    # labels and predictions are nonnegative: -1 is no class, so it is neither
    # a match for the accuracy nor a miss for the recovered rate
    (lambda ds: entangled_metrics([[0, 1]], [-1, 0], np.zeros((2, 3)), [-3, 0]),
     "^true_labels must be nonnegative$"),
    (lambda ds: recovered_rate([-1, 1], [0, 1], [0], [0, 1]),
     "^pll_predictions must be nonnegative$"),
])
def test_malformed_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call(random_dataset())


class TestEmbed:
    @pytest.mark.parametrize("dims,hidden", [((6,), (8,)), ((6,), ()), ((4, 4, 2), (3, 5))])
    @pytest.mark.parametrize("space", ["features", "projection"])
    def test_empty_input_keeps_the_width(self, dims, hidden, space):
        config = EncoderConfig(input_dims=dims, num_classes=3, hidden_dims=hidden, embed_dim=7)
        params = init_params(config, seed=0)
        width = config.feature_dim if space == "features" else config.embed_dim
        out = embed(params, np.zeros((0,) + dims), space=space)
        assert out.shape == (0, width) and out.dtype == np.float64
        assert embed(params, np.zeros((3,) + dims), space=space).shape == (3, width)


class TestEvalChunks:
    """predict and embed forward chunks bounded by EVAL_CHUNK_BYTES; the
    split changes no bit."""

    @pytest.mark.parametrize("n", [22, 23])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @pytest.mark.parametrize("dims, hidden", [((20,), (32,)), ((8, 8, 3), (4, 6))])
    def test_outputs_do_not_depend_on_the_chunk_bytes(self, dims, hidden, chunk_rows, n,
                                                      monkeypatch):
        config = EncoderConfig(input_dims=dims, num_classes=5, hidden_dims=hidden, embed_dim=7)
        params = init_params(config, seed=3)
        x = np.random.default_rng(4).normal(size=(n,) + dims)
        calls = [lambda: predict(params, x), lambda: embed(params, x),
                 lambda: embed(params, x, space="projection")]
        whole = [call() for call in calls]  # one forward each at the default budget
        monkeypatch.setattr(evalkit, "EVAL_CHUNK_BYTES", chunk_rows * x[0].nbytes)
        sizes = []
        real_forward = evalkit.forward

        def counting_forward(p, chunk):
            sizes.append(len(chunk))
            return real_forward(p, chunk)

        monkeypatch.setattr(evalkit, "forward", counting_forward)
        for call, want in zip(calls, whole):
            np.testing.assert_array_equal(call(), want)
        # never a one-row chunk: a one-row product rounds apart from the gemm
        rows = max(2, chunk_rows)
        assert sum(sizes) == 3 * n and min(sizes) >= 2 and max(sizes) <= rows + 1

    @pytest.mark.parametrize("shape, sizes", [
        ((600, 8, 8, 8), [256, 256, 88]),  # 1 MiB of 8x8x8 grids is 256 rows
        ((257, 8, 8, 8), [257]),  # a one-row tail joins the chunk before it
        ((1600, 20), [1024, 576]),  # flat rows stay at EVAL_BATCH
        ((1, 20), [1]),
        ((0, 20), []),
    ])
    def test_default_chunks(self, shape, sizes):
        assert [len(c) for c in evalkit._chunks(np.zeros(shape))] == sizes


class TestConfusion:
    def test_perfect_predictor_diagonal(self):
        truth = np.array([0, 1, 2, 1, 0])
        mat = confusion_matrix(truth, truth, 3)
        assert np.all(mat == np.diag([2, 2, 1]))

    def test_constant_predictor_single_column(self):
        truth = np.array([0, 1, 2, 2])
        mat = confusion_matrix(truth, np.full(4, 1), 3)
        assert mat[:, 1].tolist() == [1, 1, 2]
        assert mat.sum() == 4
        assert np.all(mat[:, [0, 2]] == 0)

    def test_random_matches_tally_oracle(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 5, 200)
        pred = rng.integers(0, 5, 200)
        mat = confusion_matrix(truth, pred, 5)
        for i in range(5):
            for j in range(5):
                assert mat[i, j] == int(np.sum((truth == i) & (pred == j)))
        assert np.array_equal(mat.sum(axis=1), np.bincount(truth, minlength=5))

    @pytest.mark.parametrize("truth,pred", [([-1, 0], [0, 1]), ([0, 1], [0, -1]),
                                            ([5, 0], [0, 1]), ([0, 1], [2, 1])])
    def test_label_outside_the_classes_rejected(self, truth, pred):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            confusion_matrix(truth, pred, 2)

    def test_trace_over_n_is_accuracy_exactly(self):
        ds = random_dataset(seed=7)
        model = model_for(ds)
        preds = predict(model, ds.features)
        mat = confusion_matrix(ds.true_labels, preds, ds.num_classes)
        assert accuracy_from_confusion(mat) == np.mean(preds == ds.true_labels)


class TestEntangledMetrics:
    def test_single_pair_half_right(self):
        ds = random_dataset(n=4, c=2, full_cands=True, seed=1)
        model = model_for(ds)
        preds = predict(model, ds.features)
        truth = ds.true_labels
        correct = int(preds[0] == truth[0]) + int(preds[1] == truth[1])
        m = entangled_metrics(np.array([[0, 1]]), preds, embed(model, ds.features), truth)
        assert m.accuracy == pytest.approx(correct / 2.0)

    def test_identical_embeddings_zero_distance(self):
        ds = random_dataset(n=6, c=2, full_cands=True, seed=2)
        feats = np.tile(ds.features[0], (6, 1))
        ds2 = PLLDataset(feats, ds.candidates, ds.true_labels, num_classes=2)
        model = model_for(ds2)
        m = entangled_metrics(np.array([[0, 1], [2, 3]]), predict(model, feats),
                              embed(model, feats), ds2.true_labels)
        assert m.mean_distance == pytest.approx(0.0, abs=1e-12)

    def test_empty_pairs_undefined(self):
        ds = random_dataset()
        model = model_for(ds)
        m = entangled_metrics(np.zeros((0, 2), dtype=np.int64), predict(model, ds.features),
                              embed(model, ds.features), ds.true_labels)
        assert not m.defined
        assert (m.pair_count, m.instance_count) == (0, 0)
        # an empty list has shape (0,), not (0, 2); it still means no pairs
        assert entangled_metrics([], predict(model, ds.features), embed(model, ds.features),
                                 ds.true_labels) == m

    def test_matches_per_pair_loop_oracle(self):
        ds = random_dataset(n=40, c=3, seed=5)
        model = model_for(ds, seed=4)
        emb = embed(model, ds.features)
        pairs, _ = find_entangled(emb, ds, xi=0.0)
        if not len(pairs):
            pytest.skip("seed produced no pairs")
        preds = predict(model, ds.features)
        m = entangled_metrics(pairs, preds, emb, ds.true_labels)
        # oracle: loop over pairs and instances independently
        seen = sorted({int(i) for pair in pairs for i in pair})
        acc = sum(int(preds[i] == ds.true_labels[i]) for i in seen) / len(seen)
        dist = sum(float(np.linalg.norm(emb[i] - emb[j])) for i, j in pairs) / len(pairs)
        assert m.accuracy == pytest.approx(acc)
        assert m.mean_distance == pytest.approx(dist, rel=1e-12)
        assert m.instance_count == len(seen)

    @pytest.mark.parametrize("pairs", [[0, 1], [[0, 1, 2]], [[[0, 1]]]])
    def test_pairs_must_be_k_by_2(self, pairs):
        ds = random_dataset(n=6, c=2, full_cands=True, seed=2)
        model = model_for(ds)
        with pytest.raises(ValueError, match=r"instance indices must have shape \(\*, 2\)"):
            entangled_metrics(np.array(pairs), predict(model, ds.features),
                              embed(model, ds.features), ds.true_labels)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 6)])
    def test_index_outside_the_dataset_rejected(self, pair):
        ds = random_dataset(n=6, c=2, full_cands=True, seed=2)
        model = model_for(ds)
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            entangled_metrics(np.array([pair]), predict(model, ds.features),
                              embed(model, ds.features), ds.true_labels)


def entangled_metrics_reference(pairs, predictions, embeddings, true_labels):
    """The one-shot metrics: both endpoints' rows gathered for every pair at
    once, and the instances as np.unique over all 2k indices."""
    ij, truth = np.asarray(pairs), np.asarray(true_labels)
    emb = np.asarray(embeddings, dtype=np.float64)
    instances = np.unique(ij)
    dists = np.linalg.norm(emb[ij[:, 0]] - emb[ij[:, 1]], axis=1)
    return evalkit.EntangledMetrics(
        accuracy=float(np.mean(np.asarray(predictions)[instances] == truth[instances])),
        mean_distance=float(np.mean(dists)),
        instance_count=len(instances),
        pair_count=len(ij),
        defined=True,
    )


class TestEntangledMetricsChunked:
    @pytest.mark.parametrize("budget", [1, 64, 4000, evalkit.DISTANCE_TILE_BYTES])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_one_shot_reference(self, seed, budget, monkeypatch):
        rng = np.random.default_rng(70 + seed)
        n, d, k = int(rng.integers(2, 90)), int(rng.integers(1, 9)), int(rng.integers(1, 400))
        emb = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        i = rng.integers(0, n - 1, k)
        pairs = np.column_stack((i, i + 1 + rng.integers(0, n - 1 - i)))
        preds, truth = rng.integers(0, 3, n), rng.integers(0, 3, n)
        want = entangled_metrics_reference(pairs, preds, emb, truth)
        monkeypatch.setattr(evalkit, "DISTANCE_TILE_BYTES", budget)
        assert entangled_metrics(pairs, preds, emb, truth) == want


class TestClassDistances:
    def test_two_point_degenerate_clusters(self):
        emb = np.array([[0.0, 0.0], [3.0, 4.0]])
        cd = class_distances(emb, [0, 1])
        assert cd.instance == cd.avg_pairwise == cd.centroid == pytest.approx(5.0)

    def test_unit_triangle_singletons(self):
        emb = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        cd = class_distances(emb, [0, 1, 2])
        assert cd.instance == pytest.approx(1.0)
        assert cd.avg_pairwise == pytest.approx(1.0)
        assert cd.centroid == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(60, 5))
        labels = rng.integers(0, 4, 60)
        cd = class_distances(emb, labels)
        mins, cents = [], []
        for a in range(4):
            for b in range(a + 1, 4):
                block = [
                    float(np.linalg.norm(emb[i] - emb[j]))
                    for i in np.flatnonzero(labels == a)
                    for j in np.flatnonzero(labels == b)
                ]
                mins.append(min(block))
                ca = emb[labels == a].mean(axis=0)
                cb = emb[labels == b].mean(axis=0)
                cents.append(float(np.linalg.norm(ca - cb)))
        assert cd.instance == pytest.approx(min(mins), rel=1e-12)
        assert cd.avg_pairwise == pytest.approx(np.mean(mins), rel=1e-12)
        assert cd.centroid == pytest.approx(np.mean(cents), rel=1e-12)
        assert cd.instance <= cd.avg_pairwise

    def test_missing_class_warns(self):
        emb = np.zeros((4, 2))
        emb[2:] = 1.0
        labels = np.array([0, 0, 2, 2])  # class 1 absent
        with pytest.warns(UserWarning):
            cd = class_distances(emb, labels)
        assert cd.centroid == pytest.approx(np.sqrt(2))


def full_tensor_distances(emb, labels) -> ClassDistances:
    """The (n, n, d) difference-tensor computation, same arithmetic per pair."""
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    dist = np.sqrt(np.maximum(((emb[:, None, :] - emb[None, :, :]) ** 2).sum(-1), 0.0))
    mins, cents = [], []
    for x, a in enumerate(present):
        for b in present[x + 1:]:
            mins.append(float(dist[np.ix_(labels == a, labels == b)].min()))
            ca = emb[labels == a].mean(axis=0)
            cb = emb[labels == b].mean(axis=0)
            cents.append(float(np.linalg.norm(ca - cb)))
    return ClassDistances(float(min(mins)), float(np.mean(mins)), float(np.mean(cents)))


def distance_case(kind):
    rng = np.random.default_rng(21)
    if kind == "singletons":
        labels = rng.integers(1, 4, 37)
        labels[[5, 30]] = [0, 4]  # classes 0 and 4 hold one sample each
        return rng.normal(size=(37, 3)), labels
    if kind == "gap":
        labels = rng.choice([0, 1, 3, 4], 41)  # class 2 absent
        return rng.normal(size=(41, 3)), labels
    if kind == "offset":  # centroid distances are small differences of large centroids,
        # so the order of each centroid's sum shows in their last bits
        return rng.normal(size=(300, 8)) + 1e3, rng.integers(0, 9, 300)
    if kind == "near":  # cross-class near-duplicates 1e-9 apart on a 1e3 offset: the
        # gemm estimates of their squared distances are rounding noise (~1e-9), so
        # only the screen's error bound keeps the truly nearest pair of each block
        emb, labels = rng.normal(size=(120, 8)) + 1e3, np.arange(120) % 4
        for k in range(12):
            i, j = rng.choice(np.flatnonzero(labels != labels[k]), 2, replace=False)
            emb[i] = emb[k] + 1e-9 * (1 + k % 5) * rng.normal(size=8)
            emb[j] = emb[k] + 3e-9 * rng.normal(size=8)
        return emb, labels
    # duplicates: class 0's last row and class 1's first row reappear in class 3,
    # so the zero distance sits at the end and the start of a class's tiles
    emb, labels = rng.normal(size=(43, 3)), rng.integers(0, 5, 43)
    in3 = np.flatnonzero(labels == 3)
    emb[in3[:2]] = emb[[np.flatnonzero(labels == 0)[-1], np.flatnonzero(labels == 1)[0]]]
    return emb, labels


class TestClassDistancesTiled:
    @pytest.mark.parametrize("budget", [1, 100, 2000, evalkit.DISTANCE_TILE_BYTES, 1 << 20])
    @pytest.mark.parametrize("kind", ["singletons", "gap", "duplicates", "offset", "near"])
    def test_equals_full_tensor_oracle(self, kind, budget, monkeypatch):
        emb, labels = distance_case(kind)
        monkeypatch.setattr(evalkit, "DISTANCE_TILE_BYTES", budget)
        if kind == "gap":
            with pytest.warns(UserWarning):
                got = class_distances(emb, labels)
        else:
            got = class_distances(emb, labels)
        assert got == full_tensor_distances(emb, labels)
        if kind == "duplicates":
            assert got.instance == 0.0

    @pytest.mark.parametrize("budget", [1, 64, 4000, evalkit.DISTANCE_TILE_BYTES])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_cases_equal_full_tensor_oracle(self, seed, budget, monkeypatch):
        """Random sizes, class counts and scales, some rows repeated across classes."""
        rng = np.random.default_rng(90 + seed)
        n, d, c = int(rng.integers(4, 70)), int(rng.integers(1, 9)), int(rng.integers(2, 7))
        labels = np.concatenate((np.arange(c), rng.integers(0, c, n - c)))
        emb = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4) + rng.normal() * 100
        emb[rng.integers(0, n, 3)] = emb[rng.integers(0, n, 3)]
        monkeypatch.setattr(evalkit, "DISTANCE_TILE_BYTES", budget)
        assert class_distances(emb, labels) == full_tensor_distances(emb, labels)

    @pytest.mark.parametrize("shape", [(12,), (12, 3, 2), (1, 12, 3)])
    def test_embeddings_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=r"embeddings must have shape \(\*, \*\)"):
            class_distances(np.ones(shape), np.arange(12) % 3)

    @pytest.mark.parametrize("n_labels", [11, 13])
    def test_label_count_must_match_rows(self, n_labels):
        emb = np.random.default_rng(0).normal(size=(12, 3))
        with pytest.raises(ValueError, match=r"labels must have shape \(12,\)"):
            class_distances(emb, np.arange(n_labels) % 3)

    def test_near_duplicates_are_resolved(self):
        emb, labels = distance_case("near")
        cd = class_distances(emb, labels)
        assert 0.0 < cd.instance < 1e-8
        assert cd.avg_pairwise < 1e-8  # every class pair holds a near-duplicate

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        emb, labels = distance_case("singletons")
        emb[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            class_distances(emb, labels)

    @staticmethod
    def traced_peak(budget, monkeypatch):
        """tracemalloc peak of class_distances on 1200 rows at a tile budget."""
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(1200, 16))  # a full (n, n, d) tensor is 184 MB
        labels = rng.integers(0, 6, 1200)
        monkeypatch.setattr(evalkit, "DISTANCE_TILE_BYTES", budget)
        tracemalloc.start()
        try:
            class_distances(emb, labels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Beyond two tile buffers, the label-sorted copy (154 kB), O(n) vectors,
    # the screen's masks and the few pairs it passes fit in 512 kB.
    def test_memory_is_bounded(self, monkeypatch):
        budget = evalkit.DISTANCE_TILE_BYTES
        assert self.traced_peak(budget, monkeypatch) < 2 * budget + 2**19

    def test_memory_follows_the_tile_budget(self, monkeypatch):
        assert self.traced_peak(1 << 14, monkeypatch) < 2 * (1 << 14) + 2**19


def label_overlap_reference(dataset):
    """The masked pass per class pair that ``label_overlap`` ran before it
    counted candidate rows by true label, kept as its exact oracle."""
    c = dataset.num_classes
    lab = dataset.true_labels
    cand = dataset.candidates
    out = np.zeros((c, c))
    for i in range(c):
        for j in range(i, c):
            members = (lab == i) | (lab == j)
            total = int(members.sum())
            if total == 0:
                out[i, j] = out[j, i] = 0.0
                continue
            both = cand[members, i] & cand[members, j]
            out[i, j] = out[j, i] = float(both.sum()) / total
    return out


class TestLabelOverlap:
    def test_singleton_sets_identity(self):
        ds = random_dataset(n=30, c=3, seed=3)
        cands = np.zeros_like(ds.candidates)
        cands[np.arange(len(ds)), ds.true_labels] = True
        ds2 = PLLDataset(ds.features, cands, ds.true_labels, num_classes=3)
        mat = label_overlap(ds2)
        np.testing.assert_allclose(mat, np.eye(3))

    def test_full_sets_all_ones(self):
        ds = random_dataset(n=30, c=3, seed=4, full_cands=True)
        np.testing.assert_allclose(label_overlap(ds), np.ones((3, 3)))

    def test_matches_counting_oracle_and_symmetry(self):
        ds = random_dataset(n=80, c=4, seed=6)
        mat = label_overlap(ds)
        assert np.allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 1.0)
        for i in range(4):
            for j in range(4):
                members = [k for k in range(len(ds))
                           if ds.true_labels[k] in (i, j)]
                both = [k for k in members
                        if ds.candidates[k, i] and ds.candidates[k, j]]
                assert mat[i, j] == pytest.approx(len(both) / len(members))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_per_pair_passes_exactly(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 9))
        n = int(rng.integers(1, 120))
        present = rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)
        labels = rng.choice(present, size=n)  # classes outside ``present`` stay absent
        cands = rng.random((n, c)) < rng.uniform(0.05, 0.9)
        cands[np.arange(n), labels] = True
        ds = PLLDataset(rng.normal(size=(n, 3)), cands, labels, num_classes=c)
        np.testing.assert_array_equal(label_overlap(ds), label_overlap_reference(ds))

    def test_one_sample_beside_absent_classes(self):
        ds = PLLDataset(np.zeros((1, 2)), [[True, True, False]], [0], num_classes=3)
        want = [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        np.testing.assert_array_equal(label_overlap_reference(ds), want)
        np.testing.assert_array_equal(label_overlap(ds), want)


class TestRecoveredRate:
    def test_perfect_supervised(self):
        truth = np.array([0, 1, 2, 0])
        pll = np.array([1, 1, 0, 0])  # wrong on 0 and 2
        sup = truth.copy()
        r = recovered_rate(pll, sup, [0, 1, 2, 3], truth)
        assert r.defined and r.rate == 1.0 and r.misclassified == 2

    def test_identical_models_rate_zero(self):
        truth = np.array([0, 1, 2])
        pll = np.array([1, 0, 2])
        r = recovered_rate(pll, pll, [0, 1, 2], truth)
        assert r.defined and r.rate == 0.0

    def test_no_misclassified_undefined(self):
        truth = np.array([0, 1])
        r = recovered_rate(truth, truth, [0, 1], truth)
        assert not r.defined

    def test_random_matches_set_oracle(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 3, 100)
        pll = rng.integers(0, 3, 100)
        sup = rng.integers(0, 3, 100)
        idx = sorted(rng.choice(100, 40, replace=False).tolist())
        r = recovered_rate(pll, sup, idx, truth)
        wrong = [i for i in idx if pll[i] != truth[i]]
        rec = [i for i in wrong if sup[i] == truth[i]]
        assert r.misclassified == len(wrong)
        if wrong:
            assert r.rate == pytest.approx(len(rec) / len(wrong))

    @pytest.mark.parametrize("index", [-1, 4])
    def test_index_outside_the_dataset_rejected(self, index):
        truth = np.array([0, 1, 2, 0])
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            recovered_rate(truth[::-1], truth, [index], truth)


class TestFullReport:
    def test_report_shapes_and_writers(self, tmp_path):
        ds = random_dataset(n=60, c=3, seed=9)
        model = model_for(ds)
        report = full_report(model, ds, xis=(0.0, 0.5), ratios=(0.5,))
        assert report.confusion.shape == (3, 3)
        assert report.label_overlap.shape == (3, 3)
        assert len(report.entangled) == 3
        assert report.accuracy == accuracy_from_confusion(report.confusion)
        write_report(report, tmp_path)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "confusion.csv").exists()
        assert (tmp_path / "label_overlap.csv").exists()
        assert (tmp_path / "entangled.csv").exists()
        # undefined metrics must surface as empty cells, never NaN
        assert "nan" not in (tmp_path / "entangled.csv").read_text().lower()
        assert "NaN" not in (tmp_path / "summary.json").read_text()

    def test_model_pair_reports_its_query_side(self):
        ds = random_dataset(n=60, c=3, seed=9)
        pair = ModelPair(query=model_for(ds, seed=1), key=model_for(ds, seed=2))
        supervised = np.random.default_rng(0).integers(0, 3, len(ds))
        kwargs = dict(xis=(0.0,), ratios=(0.5,), supervised_predictions=supervised)
        got = full_report(pair, ds, **kwargs).summary_dict()
        assert got == full_report(pair.query, ds, **kwargs).summary_dict()
        assert got != full_report(pair.key, ds, **kwargs).summary_dict()

    def test_nested_threshold_subsets(self):
        ds = random_dataset(n=80, c=3, seed=10, full_cands=True)
        model = model_for(ds)
        emb = embed(model, ds.features)
        loose, _ = find_entangled(emb, ds, xi=0.1)
        tight, _ = find_entangled(emb, ds, xi=0.6)
        assert {tuple(p) for p in tight.tolist()} <= {tuple(p) for p in loose.tolist()}
        preds = predict(model, ds.features)
        m_loose = entangled_metrics(loose, preds, emb, ds.true_labels)
        m_tight = entangled_metrics(tight, preds, emb, ds.true_labels)
        if m_tight.defined:
            assert m_tight.instance_count <= m_loose.instance_count

    def test_unknown_labels_rejected(self):
        ds = random_dataset(n=20, c=3, seed=11)
        labels = ds.true_labels.copy()
        labels[4] = -1
        unlabeled = PLLDataset(ds.features, ds.candidates, labels, num_classes=3)
        with pytest.raises(ValueError, match="full_report needs true labels"):
            full_report(model_for(ds), unlabeled, ratios=(0.5,))

    def test_one_prediction_and_one_embedding_per_report(self, monkeypatch):
        ds = random_dataset(n=60, c=3, seed=9, full_cands=True)
        calls = {"predict": 0, "embed": 0}

        def counted(name):
            inner = getattr(evalkit, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evalkit, name, counted(name))
        supervised = np.random.default_rng(0).integers(0, 3, len(ds))
        report = full_report(model_for(ds), ds, xis=(0.0,), ratios=(0.05, 0.1, 0.2),
                             supervised_predictions=supervised)
        assert report.recovered is not None and len(report.entangled) == 4
        assert calls == {"predict": 1, "embed": 1}
