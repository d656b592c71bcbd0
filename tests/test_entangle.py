import math

import numpy as np
import pytest

from pllab import entangle
from pllab.data import PLLDataset
from pllab.entangle import (
    EntangledPair,
    RequiresGroundTruthError,
    find_entangled,
    top_fraction_pairs,
)
from pllab.evalkit import entangled_metrics
from pllab.numkernel import EncoderConfig, init_params


def random_pll(n, c, seed, dim=6):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(0, c, size=n)
    cands = rng.random((n, c)) < 0.45
    cands[np.arange(n), labels] = True
    return PLLDataset(feats, cands, labels, num_classes=c), rng.normal(size=(n, dim))


def brute_force_pairs(emb, ds, xi):
    """Literal three-conjunct scan, O(n^2)."""
    out = []
    norms = np.linalg.norm(emb, axis=1)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            yi, yj = int(ds.true_labels[i]), int(ds.true_labels[j])
            if yi == yj:
                continue
            both = {yi, yj}
            si = {int(k) for k in np.flatnonzero(ds.candidates[i])}
            sj = {int(k) for k in np.flatnonzero(ds.candidates[j])}
            if not both <= (si & sj):
                continue
            denom = norms[i] * norms[j]
            sim = float(emb[i] @ emb[j] / denom) if denom > 0 else 0.0
            if sim >= xi:
                out.append(EntangledPair(i, j, sim))
    out.sort(key=lambda p: (-p.similarity, p.i, p.j))
    return out


class TestFindEntangled:
    def test_identical_embeddings_different_classes(self):
        feats = np.zeros((2, 2))
        cands = np.array([[True, True], [True, True]])
        ds = PLLDataset(feats, cands, true_labels=[0, 1])
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        pairs = find_entangled(emb, ds, xi=0.99)
        assert len(pairs) == 1
        assert (pairs[0].i, pairs[0].j) == (0, 1)
        assert pairs[0].similarity == pytest.approx(1.0)

    def test_equal_classes_excluded(self):
        feats = np.zeros((2, 2))
        cands = np.array([[True, True], [True, True]])
        ds = PLLDataset(feats, cands, true_labels=[1, 1])
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert find_entangled(emb, ds, xi=0.5) == []

    def test_missing_labels_rejected(self):
        feats = np.zeros((2, 2))
        cands = np.array([[True, True], [True, True]])
        ds = PLLDataset(feats, cands, true_labels=[0, -1])
        with pytest.raises(RequiresGroundTruthError):
            find_entangled(np.eye(2), ds, xi=0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        ds, emb = random_pll(n=200, c=4, seed=seed)
        for xi in (-0.5, 0.0, 0.3, 0.9):
            got = find_entangled(emb, ds, xi)
            want = brute_force_pairs(emb, ds, xi)
            assert [(p.i, p.j) for p in got] == [(p.i, p.j) for p in want]
            np.testing.assert_allclose(
                [p.similarity for p in got], [p.similarity for p in want],
                rtol=1e-12, atol=1e-12,
            )

    def test_threshold_monotonicity(self):
        ds, emb = random_pll(n=150, c=3, seed=11)
        coarse = {(p.i, p.j) for p in find_entangled(emb, ds, xi=0.2)}
        fine = {(p.i, p.j) for p in find_entangled(emb, ds, xi=0.6)}
        assert fine <= coarse

    def test_returned_pairs_revalidate_conjuncts(self):
        ds, emb = random_pll(n=120, c=4, seed=3)
        xi = 0.1
        for p in find_entangled(emb, ds, xi):
            yi, yj = int(ds.true_labels[p.i]), int(ds.true_labels[p.j])
            assert yi != yj
            si = set(np.flatnonzero(ds.candidates[p.i]))
            sj = set(np.flatnonzero(ds.candidates[p.j]))
            assert {yi, yj} <= (si & sj)
            assert p.similarity >= xi


class TestTopFraction:
    def test_ratio_one_returns_all_qualifying(self):
        ds, emb = random_pll(n=100, c=3, seed=5)
        pairs, xi = top_fraction_pairs(emb, ds, ratio=1.0)
        all_pairs = brute_force_pairs(emb, ds, xi=-1.0 + 1e-12)
        # every qualifying pair has similarity >= -1, so ratio 1 must match
        assert len(pairs) == len(all_pairs)
        assert xi == pytest.approx(min(p.similarity for p in all_pairs))

    def test_single_pair_is_global_argmax(self):
        ds, emb = random_pll(n=100, c=3, seed=6)
        all_pairs, _ = top_fraction_pairs(emb, ds, ratio=1.0)
        tiny = 1.0 / (2 * len(all_pairs))  # ceil -> exactly one pair
        pairs, xi = top_fraction_pairs(emb, ds, ratio=tiny)
        assert len(pairs) == 1
        assert pairs[0] == all_pairs[0]
        assert xi == pairs[0].similarity

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sort_truncate_oracle(self, seed):
        ds, emb = random_pll(n=200, c=4, seed=100 + seed)
        ratio = 0.01
        want = brute_force_pairs(emb, ds, xi=-2.0)
        keep = int(np.ceil(ratio * len(want)))
        got, xi = top_fraction_pairs(emb, ds, ratio=ratio)
        assert [(p.i, p.j) for p in got] == [(p.i, p.j) for p in want[:keep]]
        assert xi == pytest.approx(want[keep - 1].similarity)

    def test_prefix_of_full_ordering(self):
        ds, emb = random_pll(n=150, c=3, seed=8)
        full, _ = top_fraction_pairs(emb, ds, ratio=1.0)
        for ratio in (0.05, 0.2, 0.5):
            sub, _ = top_fraction_pairs(emb, ds, ratio=ratio)
            assert sub == full[: len(sub)]

    def test_no_qualifying_pairs_flagged(self):
        feats = np.zeros((2, 2))
        cands = np.eye(2, dtype=bool)
        ds = PLLDataset(feats, cands, true_labels=[0, 1])
        pairs, xi = top_fraction_pairs(np.eye(2), ds, ratio=0.5)
        assert pairs == []
        assert xi is None


def tied_pll(n, c, seed):
    """Embeddings drawn from a few norm-2 integer vectors: every cosine is an
    exact multiple of 0.25, so many pairs share each similarity."""
    ds, _ = random_pll(n, c, seed)
    base = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, -1, 1, -1],
                     [2, 0, 0, 0], [0, 0, -2, 0], [1, 1, -1, -1]], dtype=np.float64)
    return ds, base[np.random.default_rng(seed).integers(0, len(base), n)]


class TestTopFractionTies:
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_at_the_cut_match_sort_truncate_oracle(self, seed):
        ds, emb = tied_pll(n=120, c=4, seed=seed)
        want = brute_force_pairs(emb, ds, xi=-2.0)
        total = len(want)
        # a cut after k pairs splits a group of equal similarities; k / total sits
        # on the ceil boundary and (k + 0.5) / total just past it
        k = next(k for k in range(total // 3, total) if
                 want[k - 1].similarity == want[k].similarity)
        straddled = 0
        for ratio in (0.5 / total, 0.1, 0.37, k / total, (k + 0.5) / total, 1.0):
            keep = math.ceil(ratio * total)
            got, xi = top_fraction_pairs(emb, ds, ratio=ratio)
            assert got == want[:keep]
            assert xi == want[keep - 1].similarity
            straddled += keep < total and want[keep - 1].similarity == want[keep].similarity
        assert straddled >= 2

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.5, 1.0])
    def test_builds_only_the_kept_pairs(self, ratio, monkeypatch):
        made = []

        class CountingPair(EntangledPair):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        ds, emb = tied_pll(n=150, c=3, seed=7)
        total = len(top_fraction_pairs(emb, ds, ratio=1.0)[0])
        monkeypatch.setattr(entangle, "EntangledPair", CountingPair)
        got, _ = top_fraction_pairs(emb, ds, ratio=ratio)
        assert len(made) == len(got) == math.ceil(ratio * total)


class TestReport:
    """Pair and instance counts of a pair list, as entangled_metrics reports them."""

    @staticmethod
    def metrics(pairs, n=60):
        ds, _ = random_pll(n, 4, seed=0)
        config = EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                               hidden_dims=(8,), embed_dim=4)
        return entangled_metrics(init_params(config, seed=0), ds, pairs)

    def test_shared_instance_counted_once(self):
        pairs = [EntangledPair(1, 2, 0.9), EntangledPair(1, 3, 0.8)]
        m = self.metrics(pairs)
        assert m.pair_count == 2
        assert m.instance_count == 3

    def test_empty(self):
        m = self.metrics([])
        assert not m.defined
        assert (m.pair_count, m.instance_count) == (0, 0)

    def test_random_matches_set_union_oracle(self):
        rng = np.random.default_rng(0)
        pairs = [
            EntangledPair(int(a), int(a + 1 + b), float(s))
            for a, b, s in zip(
                rng.integers(0, 50, 200), rng.integers(0, 10, 200), rng.random(200)
            )
        ]
        m = self.metrics(pairs)
        union = set()
        for p in pairs:
            union |= {p.i, p.j}
        assert m.instance_count == len(union)
        assert m.pair_count == len(pairs)
