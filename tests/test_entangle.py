import math
import tracemalloc

import numpy as np
import pytest

from pllab import entangle, evalkit
from pllab.data import PLLDataset
from pllab.entangle import find_entangled, top_fraction_pairs
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


def similarities_and_mask_reference(emb, ds):
    """The n x n kernel the block selectors replaced: the full cosine matrix and
    the upper-triangular mask of pairs meeting the class and label conjuncts."""
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / np.where(norms == 0.0, 1.0, norms)
    labels, cand = ds.true_labels, ds.candidates
    own = cand[np.arange(len(ds)), labels]
    cross = cand[:, labels]  # cross[i, j] = (y_j in S_i)
    mutual = own[:, None] & own[None, :] & cross & cross.T
    differ = labels[:, None] != labels[None, :]
    return unit @ unit.T, np.triu(mutual & differ, k=1)


def reference_find(emb, ds, xi):
    sim, mask = similarities_and_mask_reference(emb, ds)
    ii, jj = np.nonzero(mask & (sim >= xi))
    order = np.lexsort((jj, ii, -sim[ii, jj]))
    return np.column_stack((ii[order], jj[order])), sim[ii, jj][order]


def reference_top(emb, ds, ratio):
    pairs, sims = reference_find(emb, ds, -np.inf)
    keep = math.ceil(ratio * len(sims))
    return pairs[:keep], sims[:keep]


def top_fraction_pairs_reference(emb, ds, ratio):
    """The ratio selector that builds every qualifying pair, then cuts: the same
    block tiles of PAIR_TILE_BYTES (so the same cosine bits), one array of all
    P pairs, the keep-th largest by np.partition and one lexsort."""
    emb = np.asarray(emb, dtype=np.float64)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = emb / np.where(norms == 0.0, 1.0, norms)
    labels, cand = ds.true_labels, ds.candidates
    members = [np.flatnonzero(labels == a) for a in range(ds.num_classes)]
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for a, in_a in enumerate(members):
        for b in range(a + 1, ds.num_classes):
            rows, cols = in_a[cand[in_a, b]], members[b][cand[members[b], a]]
            if not (rows.size and cols.size):
                continue
            step = max(1, entangle.PAIR_TILE_BYTES // (8 * cols.size))
            for lo in range(0, rows.size, step):
                tile = rows[lo : lo + step]
                sim = unit[tile] @ unit[cols].T
                r, s = np.nonzero(sim >= -np.inf)
                i, j = tile[r], cols[s]
                found.append((np.minimum(i, j), np.maximum(i, j), sim[r, s]))
    ii, jj, sims = (np.concatenate(parts) for parts in zip(*found))
    keep = math.ceil(ratio * sims.size)
    if keep:
        cut = np.partition(sims, sims.size - keep)[sims.size - keep]
        top = np.flatnonzero(sims >= cut)
        ii, jj, sims = ii[top], jj[top], sims[top]
    order = np.lexsort((jj, ii, -sims))[:keep]
    return np.column_stack((ii[order], jj[order])).astype(np.int64), sims[order]


def assert_bitwise_selection(got, want):
    assert got[0].dtype == np.int64 and got[0].shape == want[0].shape
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1].dtype == np.float64 and got[1].tobytes() == want[1].tobytes()


def assert_same_selection(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=1e-15)


def absent_class_pll(seed):
    """Classes 1 and 4 of six hold no sample; label 1 still appears in candidate sets."""
    ds, emb = random_pll(n=160, c=6, seed=seed)
    labels = ds.true_labels.copy()
    labels[labels == 1], labels[labels == 4] = 0, 5
    cands = ds.candidates | np.eye(6, dtype=bool)[labels]
    return PLLDataset(ds.features, cands, labels, num_classes=6), emb


ORACLE_CASES = {
    "random": lambda seed: random_pll(n=180, c=4, seed=200 + seed),
    "tied": lambda seed: tied_pll(n=150, c=4, seed=seed),
    "absent-class": absent_class_pll,
}


class TestBlocksMatchFullMatrix:
    """Both selectors against the n x n reference kernel, pair for pair."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
    def test_find_entangled(self, kind, seed):
        ds, emb = ORACLE_CASES[kind](seed)
        for xi in (-0.9, -0.25, 0.0, 0.25, 0.5, 1.0):
            assert_same_selection(find_entangled(emb, ds, xi), reference_find(emb, ds, xi))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(ORACLE_CASES))
    def test_top_fraction_pairs(self, kind, seed):
        ds, emb = ORACLE_CASES[kind](seed)
        for ratio in (1e-4, 0.05, 0.1, 0.33, 1.0):
            assert_same_selection(top_fraction_pairs(emb, ds, ratio),
                                  reference_top(emb, ds, ratio))

    def test_absent_class_has_pairs(self):
        ds, emb = absent_class_pll(0)
        assert not np.any(np.isin(ds.true_labels, [1, 4]))
        assert ds.candidates[:, 1].any()
        assert len(top_fraction_pairs(emb, ds, 1.0)[0]) > 0

    @pytest.mark.parametrize("budget", [1, 64, 4000])
    def test_tiling_does_not_change_the_selection(self, budget, monkeypatch):
        ds, emb = random_pll(n=150, c=3, seed=9)
        want_find = find_entangled(emb, ds, 0.2)
        want_top = top_fraction_pairs(emb, ds, 0.3)
        monkeypatch.setattr(entangle, "PAIR_TILE_BYTES", budget)
        assert_same_selection(find_entangled(emb, ds, 0.2), want_find)
        assert_same_selection(top_fraction_pairs(emb, ds, 0.3), want_top)


def partner_pll(n, c, seed, dim=16):
    """Classes 2k and 2k + 1 pair up (c even) and every sample also holds its
    partner's label, so every cross pair of a partner block qualifies."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, n)
    cands = np.eye(c, dtype=bool)[labels]
    cands[np.arange(n), labels ^ 1] = True
    return PLLDataset(np.zeros((n, 1)), cands, labels, num_classes=c), rng.normal(size=(n, dim))


STREAM_CASES = {
    "absent-class": lambda seed: absent_class_pll(50 + seed),
    "random": lambda seed: random_pll(n=140, c=4, seed=300 + seed),
    "tied": lambda seed: tied_pll(n=130, c=4, seed=40 + seed),
    "partner": lambda seed: partner_pll(n=160, c=6, seed=seed, dim=3),
}


class TestStreamedCutMatchesReference:
    """The selection loop against the selector that builds every pair, bitwise:
    the threshold selector's pairs are the prefix of all P at or above xi."""

    @pytest.mark.parametrize("budget", [1, 64, 4000, entangle.PAIR_TILE_BYTES])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(STREAM_CASES))
    def test_find_entangled_bitwise(self, kind, seed, budget, monkeypatch):
        ds, emb = STREAM_CASES[kind](seed)
        monkeypatch.setattr(entangle, "PAIR_TILE_BYTES", budget)
        pairs, sims = top_fraction_pairs_reference(emb, ds, 1.0)
        for xi in (-0.9, 0.0, 0.25, 0.5, 1.0):
            kept = sims >= xi
            assert_bitwise_selection(find_entangled(emb, ds, xi), (pairs[kept], sims[kept]))

    @pytest.mark.parametrize("budget", [1, 64, 4000, entangle.PAIR_TILE_BYTES])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(STREAM_CASES))
    def test_bitwise(self, kind, seed, budget, monkeypatch):
        ds, emb = STREAM_CASES[kind](seed)
        monkeypatch.setattr(entangle, "PAIR_TILE_BYTES", budget)
        _, sims = top_fraction_pairs_reference(emb, ds, 1.0)
        ratios = [1e-3, 0.01, 0.05, 0.1, 0.37, 1.0]
        if kind == "tied":  # on and just past the ceil boundary of a cut inside ties
            k = next(k for k in range(len(sims) // 3, len(sims)) if sims[k - 1] == sims[k])
            ratios += [k / len(sims), (k + 0.5) / len(sims)]
        for ratio in ratios:
            assert_bitwise_selection(top_fraction_pairs(emb, ds, ratio),
                                     top_fraction_pairs_reference(emb, ds, ratio))

    @pytest.mark.parametrize("budget", [1, 64, entangle.PAIR_TILE_BYTES])
    def test_all_similarities_tied(self, budget, monkeypatch):
        """Every pair ties, so (i, j) alone decides which pairs a compaction keeps."""
        ds, _ = partner_pll(n=90, c=4, seed=2)
        emb = np.ones((90, 3))
        monkeypatch.setattr(entangle, "PAIR_TILE_BYTES", budget)
        for ratio in (1e-3, 0.3, 1.0):
            assert_bitwise_selection(top_fraction_pairs(emb, ds, ratio),
                                     top_fraction_pairs_reference(emb, ds, ratio))


class TestNonFiniteEmbeddings:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("select, value", [(find_entangled, 0.0), (top_fraction_pairs, 0.5)])
    def test_rejected(self, select, value, bad):
        ds, emb = random_pll(n=40, c=3, seed=1)
        emb[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            select(emb, ds, value)


class TestMalformedArguments:
    @pytest.mark.parametrize("select, value, rows, match", [
        pytest.param(find_entangled, 0.0, 39,
                     r"embeddings must have shape \(40, \*\), got \(39, 6\)",
                     id="find_entangled-0.0-39-one embedding per sample"),
        (find_entangled, 1.5, 40, "xi must lie"),
        (find_entangled, -1.0, 40, "xi must lie"),
        (top_fraction_pairs, 0.0, 40, "ratio must lie"),
        (top_fraction_pairs, 1.5, 40, "ratio must lie"),
    ])
    def test_rejected(self, select, value, rows, match):
        ds, emb = random_pll(n=40, c=3, seed=1)
        with pytest.raises(ValueError, match=match):
            select(emb[:rows], ds, value)


class TestBoundedMemory:
    def test_no_n_by_n_allocation(self):
        """n = 3000: one n x n float64 matrix is 72 MB; few pairs qualify."""
        n, c = 3000, 10
        rng = np.random.default_rng(5)
        labels = rng.integers(0, c, n)
        cands = np.eye(c, dtype=bool)[labels]
        extra = rng.choice(n, 300, replace=False)
        cands[extra, labels[extra] ^ 1] = True  # classes 2k and 2k + 1 pair up in 10% of sets
        ds = PLLDataset(np.zeros((n, 1)), cands, labels, num_classes=c)
        emb = rng.normal(size=(n, 16))
        tracemalloc.start()
        try:
            pairs, _ = find_entangled(emb, ds, -0.99)
            top, _ = top_fraction_pairs(emb, ds, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(top) <= len(pairs)
        assert peak < 2 * 2**20

    def test_memory_follows_the_output_when_every_similarity_ties(self):
        """All-zero embeddings (dead ReLU features) tie every cosine at 0, so
        each tile passes the running cut whole. At the default tile budget the
        chunks and their joined copy hold at most 2 * keep pairs plus a tile's
        at 16 bytes each, about four outputs, beside one tile's similarities."""
        ds, _ = partner_pll(n=3000, c=10, seed=5)
        emb = np.zeros((len(ds), 16))
        tracemalloc.start()
        try:
            pairs, sims = top_fraction_pairs(emb, ds, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_bitwise_selection((pairs, sims), top_fraction_pairs_reference(emb, ds, 0.1))
        out_bytes = pairs.nbytes + sims.nbytes
        assert peak < 4 * out_bytes + entangle.PAIR_TILE_BYTES + emb.nbytes

    def test_memory_follows_the_output_when_most_pairs_qualify(self, monkeypatch):
        """Every set holds its partner label, so P = 450k pairs (10.8 MB as
        pairs and similarities) qualify; the ratio selector and the metrics
        hold a few times their 45k-pair output and two tiles, not P pairs."""
        ds, emb = partner_pll(n=3000, c=10, seed=5)
        monkeypatch.setattr(entangle, "PAIR_TILE_BYTES", 1 << 18)
        preds = np.zeros(len(ds), dtype=np.int64)
        tracemalloc.start()
        try:
            pairs, sims = top_fraction_pairs(emb, ds, 0.1)
            select_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            metrics = entangled_metrics(pairs, preds, emb, ds.true_labels)
            metrics_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        out_bytes = pairs.nbytes + sims.nbytes
        assert len(pairs) == math.ceil(0.1 * 449_716)  # P of this seed
        assert select_peak < 5 * out_bytes + 2 * entangle.PAIR_TILE_BYTES + emb.nbytes
        assert metrics.pair_count == len(pairs)
        # the k distances, an n-long mask and a chunk's few arrays
        assert metrics_peak < 8 * len(pairs) + len(ds) + 4 * evalkit.DISTANCE_TILE_BYTES


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
        with pytest.raises(ValueError, match="without true labels"):
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
