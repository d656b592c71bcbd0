import math

import numpy as np
import pytest

from pllab.data import PLLDataset
from pllab.entangle import RequiresGroundTruthError, find_entangled, top_fraction_pairs
from pllab.evalkit import entangled_metrics


def random_pll(n, c, seed, dim=6):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim))
    labels = rng.integers(0, c, size=n)
    cands = rng.random((n, c)) < 0.45
    cands[np.arange(n), labels] = True
    return PLLDataset(feats, cands, labels, num_classes=c), rng.normal(size=(n, dim))


def triples(result):
    """A selector's (pairs, sims) arrays as a list of (i, j, similarity)."""
    pairs, sims = result
    assert pairs.dtype == np.int64 and pairs.shape == (len(sims), 2)
    assert sims.dtype == np.float64
    return [(int(i), int(j), float(s)) for (i, j), s in zip(pairs, sims)]


def brute_force_pairs(emb, ds, xi):
    """Literal three-conjunct scan, O(n^2), as (i, j, similarity) triples."""
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
                out.append((i, j, sim))
    out.sort(key=lambda p: (-p[2], p[0], p[1]))
    return out


class TestFindEntangled:
    def test_identical_embeddings_different_classes(self):
        feats = np.zeros((2, 2))
        cands = np.array([[True, True], [True, True]])
        ds = PLLDataset(feats, cands, true_labels=[0, 1])
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        [(i, j, sim)] = triples(find_entangled(emb, ds, xi=0.99))
        assert (i, j) == (0, 1)
        assert sim == pytest.approx(1.0)

    def test_equal_classes_excluded(self):
        feats = np.zeros((2, 2))
        cands = np.array([[True, True], [True, True]])
        ds = PLLDataset(feats, cands, true_labels=[1, 1])
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert triples(find_entangled(emb, ds, xi=0.5)) == []

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
            got = triples(find_entangled(emb, ds, xi))
            want = brute_force_pairs(emb, ds, xi)
            assert [p[:2] for p in got] == [p[:2] for p in want]
            np.testing.assert_allclose(
                [p[2] for p in got], [p[2] for p in want], rtol=1e-12, atol=1e-12,
            )

    def test_threshold_monotonicity(self):
        ds, emb = random_pll(n=150, c=3, seed=11)
        coarse = {p[:2] for p in triples(find_entangled(emb, ds, xi=0.2))}
        fine = {p[:2] for p in triples(find_entangled(emb, ds, xi=0.6))}
        assert fine <= coarse

    def test_returned_pairs_revalidate_conjuncts(self):
        ds, emb = random_pll(n=120, c=4, seed=3)
        xi = 0.1
        for i, j, sim in triples(find_entangled(emb, ds, xi)):
            assert i < j
            yi, yj = int(ds.true_labels[i]), int(ds.true_labels[j])
            assert yi != yj
            si = set(np.flatnonzero(ds.candidates[i]))
            sj = set(np.flatnonzero(ds.candidates[j]))
            assert {yi, yj} <= (si & sj)
            assert sim >= xi


class TestTopFraction:
    def test_ratio_one_returns_all_qualifying(self):
        ds, emb = random_pll(n=100, c=3, seed=5)
        pairs, sims = top_fraction_pairs(emb, ds, ratio=1.0)
        all_pairs = brute_force_pairs(emb, ds, xi=-1.0 + 1e-12)
        # every qualifying pair has similarity >= -1, so ratio 1 must match
        assert len(pairs) == len(all_pairs)
        assert sims[-1] == pytest.approx(min(p[2] for p in all_pairs))

    def test_single_pair_is_global_argmax(self):
        ds, emb = random_pll(n=100, c=3, seed=6)
        all_pairs = triples(top_fraction_pairs(emb, ds, ratio=1.0))
        tiny = 1.0 / (2 * len(all_pairs))  # ceil -> exactly one pair
        assert triples(top_fraction_pairs(emb, ds, ratio=tiny)) == all_pairs[:1]

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sort_truncate_oracle(self, seed):
        ds, emb = random_pll(n=200, c=4, seed=100 + seed)
        ratio = 0.01
        want = brute_force_pairs(emb, ds, xi=-2.0)
        keep = int(np.ceil(ratio * len(want)))
        got = triples(top_fraction_pairs(emb, ds, ratio=ratio))
        assert [p[:2] for p in got] == [p[:2] for p in want[:keep]]
        assert got[-1][2] == pytest.approx(want[keep - 1][2])

    def test_prefix_of_full_ordering(self):
        ds, emb = random_pll(n=150, c=3, seed=8)
        full = triples(top_fraction_pairs(emb, ds, ratio=1.0))
        for ratio in (0.05, 0.2, 0.5):
            sub = triples(top_fraction_pairs(emb, ds, ratio=ratio))
            assert sub == full[: len(sub)]

    def test_no_qualifying_pairs_flagged(self):
        feats = np.zeros((2, 2))
        cands = np.eye(2, dtype=bool)
        ds = PLLDataset(feats, cands, true_labels=[0, 1])
        assert triples(top_fraction_pairs(np.eye(2), ds, ratio=0.5)) == []


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
        k = next(k for k in range(total // 3, total) if want[k - 1][2] == want[k][2])
        straddled = 0
        for ratio in (0.5 / total, 0.1, 0.37, k / total, (k + 0.5) / total, 1.0):
            keep = math.ceil(ratio * total)
            assert triples(top_fraction_pairs(emb, ds, ratio=ratio)) == want[:keep]
            straddled += keep < total and want[keep - 1][2] == want[keep][2]
        assert straddled >= 2


class TestZeroNormEmbeddings:
    """All-zero rows (e.g. all-zero ReLU features) get similarity 0, never NaN."""

    @staticmethod
    def case():
        ds = PLLDataset(np.zeros((3, 2)), np.ones((3, 3), dtype=bool), true_labels=[0, 1, 2])
        return ds, np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])

    def test_find_entangled(self):
        ds, emb = self.case()
        want = [(0, 2, pytest.approx(np.sqrt(0.5))), (0, 1, 0.0), (1, 2, 0.0)]
        assert triples(find_entangled(emb, ds, xi=0.0)) == want
        assert triples(find_entangled(emb, ds, xi=1e-12)) == want[:1]

    def test_top_fraction_pairs(self):
        ds, emb = self.case()
        assert triples(top_fraction_pairs(emb, ds, ratio=1.0)) == [
            (0, 2, pytest.approx(np.sqrt(0.5))), (0, 1, 0.0), (1, 2, 0.0)]
        assert triples(top_fraction_pairs(emb, ds, ratio=0.5)) == [
            (0, 2, pytest.approx(np.sqrt(0.5))), (0, 1, 0.0)]


class TestReport:
    """Pair and instance counts of a pair array, as entangled_metrics reports them."""

    @staticmethod
    def metrics(pairs, n=60):
        ds, emb = random_pll(n, 4, seed=0)
        return entangled_metrics(np.array(pairs, dtype=np.int64).reshape(-1, 2),
                                 np.zeros(n, dtype=np.int64), emb, ds.true_labels)

    def test_shared_instance_counted_once(self):
        m = self.metrics([[1, 2], [1, 3]])
        assert m.pair_count == 2
        assert m.instance_count == 3

    def test_empty(self):
        m = self.metrics([])
        assert not m.defined
        assert (m.pair_count, m.instance_count) == (0, 0)

    def test_random_matches_set_union_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, 50, 200), rng.integers(0, 10, 200)
        pairs = np.column_stack((a, a + 1 + b))
        m = self.metrics(pairs)
        assert m.instance_count == len({int(i) for pair in pairs for i in pair})
        assert m.pair_count == len(pairs)
