import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pllab.losses
from pllab.losses import (
    ContrastBank,
    ContrastBatch,
    LossConfig,
    batch_total_loss,
    confidence_weights,
    contrastive_terms,
    discls_terms,
    pair_weights,
)
from pllab.numkernel import EncoderConfig, backward, check_gradients, forward_stack, init_params
from pllab.trainer import ModelPair


def rand_candidates(rng, n, c):
    cand = rng.random((n, c)) < 0.5
    labels = rng.integers(0, c, size=n)
    cand[np.arange(n), labels] = True
    return cand


def masked_softmax_reference(z, mask):
    """Row-wise softmax restricted to ``mask``, empty rows all-zero: the two-pass
    helper ``confidence_weights`` ran once per set before its one-pass form,
    kept as its oracle."""
    nonempty = mask.any(axis=-1, keepdims=True)
    neg = np.where(mask, z, -np.inf)
    zmax = np.where(nonempty, neg.max(axis=-1, keepdims=True), 0.0)
    e = np.where(mask, np.exp(np.where(mask, z - zmax, 0.0)), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def two_log_ce_reference(logits, omega, candidates):
    """Per-sample cross-entropy in the two-log form ``discls_terms`` used
    before it took one log per entry, kept as its oracle."""
    s = np.asarray(candidates).astype(np.float64)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.sum(omega * (-s * np.log(pc) - (1.0 - s) * np.log(1.0 - pc)), axis=1)


def confidence_weights_reference(logits_k, candidates):
    """``confidence_weights`` as it was before its array calls were cut (a float
    mask copy, the complement sum from its own where), kept as its oracle."""
    z = np.asarray(logits_k, dtype=np.float64)
    cand = np.asarray(candidates).astype(bool)
    in_max = np.where(cand, z, -np.inf).max(axis=1, keepdims=True)
    out_max = np.where(cand, -np.inf, z).max(axis=1, keepdims=True)
    e = np.exp(z - np.where(cand, in_max, out_max))
    in_sum = np.where(cand, e, 0.0).sum(axis=1, keepdims=True)
    out_sum = np.where(cand, 0.0, e).sum(axis=1, keepdims=True)
    e /= np.where(cand, in_sum, out_sum)
    return e


def discls_terms_reference(logits_q, omega, candidates):
    """``discls_terms`` as it was before its array calls were cut (a float mask,
    ``np.clip``, fresh temporaries), kept as its oracle."""
    g = np.asarray(logits_q, dtype=np.float64)
    w = np.asarray(omega, dtype=np.float64)
    s = np.asarray(candidates).astype(np.float64)
    p = g - g.max(axis=-1, keepdims=True)
    p = np.exp(p)
    p = p / p.sum(axis=-1, keepdims=True)
    sat = int(np.sum((p <= 1e-12) | (p >= 1.0 - 1e-12)))
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    qc = 1.0 - pc
    per = np.sum(w * -np.log(np.where(s, pc, qc)), axis=1)
    a = w * s
    b = w * (1.0 - s) * pc / qc
    d = p * (a.sum(axis=1, keepdims=True) - b.sum(axis=1, keepdims=True)) - a + b
    return per, d, sat


def oracle_batch(seed, n=64, c=10, scale=4.0):
    """Logits, key logits and masks with full-set rows (empty complement),
    single-candidate rows and ties."""
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=scale, size=(n, c))
    zk = rng.normal(scale=scale, size=(n, c))
    cand = rand_candidates(rng, n, c)
    cand[:4] = True
    cand[4:8] = np.eye(c, dtype=bool)[:4]
    zk[8] = 0.0
    return z, zk, cand


class TestLossConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["tau", "tau2", "beta"])
    def test_nonfinite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            LossConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("field", ["tau", "tau2", "beta"])
    def test_bools_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            LossConfig(**{field: value})

    # the kernels take the temperatures LossConfig takes, and no others
    @pytest.mark.parametrize("call, match", [
        (lambda b: LossConfig(tau=0.0), "tau must be positive"),
        (lambda b: LossConfig(tau2=-1.0), "tau2 must be positive"),
        (lambda b: contrastive_terms(b, 0.0, 0.4), "tau must be positive"),
        (lambda b: contrastive_terms(b, -1.0, 0.4), "tau must be positive"),
        (lambda b: contrastive_terms(b, 0.12, 0.0), "tau2 must be positive"),
        (lambda b: pair_weights(b.query_logits, b.key_logits, 0.0), "tau2 must be positive"),
        (lambda b: pair_weights(b.query_logits, b.key_logits, float("inf")),
         "tau2 must be positive"),
    ])
    def test_kernels_reject_what_the_config_rejects(self, call, match):
        batch = random_contrast_batch(np.random.default_rng(0), 2, 4)
        with pytest.raises(ValueError, match=match):
            call(batch)


class TestConfidenceWeights:
    def test_uniform_logits_split_by_set_size(self):
        cand = np.zeros(10, dtype=bool)
        cand[[1, 4, 7]] = True
        omega = confidence_weights(np.zeros((1, 10)), cand[None])[0]
        np.testing.assert_allclose(omega[cand], 1 / 3, atol=1e-12)
        np.testing.assert_allclose(omega[~cand], 1 / 7, atol=1e-12)

    def test_full_candidate_set_is_plain_softmax(self):
        z = np.array([2.0, -1.0, 0.5])
        omega = confidence_weights(z[None], np.ones((1, 3), dtype=bool))[0]
        e = np.exp(z - z.max())
        np.testing.assert_allclose(omega, e / e.sum(), atol=1e-12)

    def test_hand_example(self):
        omega = confidence_weights(np.array([[2.0, 1.0, 0.0]]), [[True, True, False]])[0]
        np.testing.assert_allclose(omega[:2], [0.7311, 0.2689], atol=5e-5)
        assert omega[2] == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), c=st.integers(2, 12))
    def test_within_set_sums_are_one(self, seed, c):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=3.0, size=c)
        cand = rand_candidates(rng, 1, c)[0]
        omega = confidence_weights(z[None], cand[None])[0]
        assert abs(omega[cand].sum() - 1.0) < 1e-9
        if (~cand).any():
            assert abs(omega[~cand].sum() - 1.0) < 1e-9

    def test_positive_scaling_keeps_argmax_within_set(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=6)
            cand = rand_candidates(rng, 1, 6)[0]
            o1 = confidence_weights(z[None], cand[None])[0]
            o2 = confidence_weights(3.7 * z[None], cand[None])[0]
            idx = np.flatnonzero(cand)
            assert idx[np.argmax(o1[idx])] == idx[np.argmax(o2[idx])]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_two_pass_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n, c = 64, 10
        z = rng.normal(scale=4.0, size=(n, c))
        cand = rand_candidates(rng, n, c)
        cand[:5] = True  # candidate sets holding every class: empty complement
        cand[5:8] = np.eye(c, dtype=bool)[:3]  # singleton sets
        z[8] = 0.0  # ties
        expected = masked_softmax_reference(z, cand) + masked_softmax_reference(z, ~cand)
        np.testing.assert_array_equal(confidence_weights(z, cand), expected)
        np.testing.assert_array_equal(confidence_weights(z, cand.astype(int)), expected)

    def test_empty_candidate_set_rejected(self):
        cand = np.array([[True, False], [False, False]])
        with pytest.raises(ValueError, match="nonempty"):
            confidence_weights(np.zeros((2, 2)), cand)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mask", ["bool", "int", "float"])
    def test_matches_previous_kernel_bitwise(self, seed, mask):
        _, zk, cand = oracle_batch(seed)
        m = {"bool": cand, "int": cand.astype(np.int64), "float": cand.astype(float)}[mask]
        np.testing.assert_array_equal(confidence_weights(zk, m),
                                      confidence_weights_reference(zk, cand))

    @pytest.mark.parametrize("zrows, crows", [(4, 1), (1, 4)], ids=["row_mask", "row_logits"])
    def test_row_input_not_broadcast_over_batch(self, zrows, crows):
        with pytest.raises(ValueError, match=f"^candidates must have shape \\({zrows}, 3\\), "
                                             f"got \\({crows}, 3\\)$"):
            confidence_weights(np.zeros((zrows, 3)), np.ones((crows, 3), dtype=bool))

    @pytest.mark.parametrize("logits, cand", [
        (np.zeros(3), np.ones(3, dtype=bool)),
        (np.zeros((2, 2, 3)), np.ones((2, 2, 3), dtype=bool)),
    ], ids=["1-D", "3-D"])
    def test_unbatched_input_rejected(self, logits, cand):
        with pytest.raises(ValueError, match=r"^logits_k must have shape \(\*, \*\), got "):
            confidence_weights(logits, cand)

    def test_uniform_replacement(self):
        # the "w/o CA" weights, 1/|S| in the set and 1/|complement| outside,
        # are the confidences of constant logits, bit for bit
        cand = rand_candidates(np.random.default_rng(4), 200, 5)
        cand[0] = [True, False, True, False, False]
        cand[1] = True  # a full set: no complement
        omega = confidence_weights(np.zeros(cand.shape), cand)
        np.testing.assert_array_equal(omega[0], [0.5, 1 / 3, 0.5, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(omega[1], np.full(5, 0.2))
        s = cand.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(omega, np.where(cand, 1.0 / s, 1.0 / np.maximum(5 - s, 1)))


class TestPairWeights:
    def test_singleton_bucket(self):
        w = pair_weights(np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]]), tau2=0.4)
        assert w.tolist() == [[pytest.approx(1.0)]]

    def test_equal_products_symmetric(self):
        zq = np.array([[1.0, 0.0]])
        bucket = np.array([[2.0, 5.0], [2.0, -3.0], [2.0, 0.0]])  # all dot 2.0
        w = pair_weights(zq, bucket, tau2=0.7)
        np.testing.assert_allclose(w, np.ones((1, 3)) / 3, atol=1e-12)

    def test_hand_softmax_example(self):
        # inner products {2, 0} at tau2=0.4 -> softmax([5, 0])
        zq = np.array([[2.0, 0.0]])
        bucket = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = pair_weights(zq, bucket, tau2=0.4)
        np.testing.assert_allclose(w, [[0.99330714907, 0.00669285092]], atol=1e-9)

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            pair_weights(np.ones((1, 2)), np.zeros((0, 2)), tau2=0.4)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 8))
    def test_bucket_weights_sum_to_one(self, seed, k):
        rng = np.random.default_rng(seed)
        w = pair_weights(rng.normal(size=(1, 3)), rng.normal(size=(k, 3)), tau2=0.4)
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w > 0)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_block_rows_equal_single_query_calls(self, k):
        rng = np.random.default_rng(k)
        zq = rng.normal(scale=2.0, size=(5, 4))
        bucket = rng.normal(scale=2.0, size=(k, 4))
        block = pair_weights(zq, bucket, tau2=0.4)
        assert block.shape == (5, k)
        rows = np.concatenate([pair_weights(z[None], bucket, tau2=0.4) for z in zq])
        np.testing.assert_allclose(block, rows, rtol=1e-14, atol=0.0)

    def test_query_width_must_match_bucket(self):
        with pytest.raises(ValueError):
            pair_weights(np.ones((2, 3)), np.ones((4, 2)), tau2=0.4)

    def test_unbatched_query_rejected(self):
        # one query is a block of one, as in every other helper
        with pytest.raises(ValueError, match=r"^z_query must have shape \(\*, 2\), got \(2,\)$"):
            pair_weights(np.ones(2), np.ones((4, 2)), tau2=0.4)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def active_mean(terms):
    """Mean contrastive loss over the queries that had a positive."""
    assert terms.active.any()
    return float(terms.per_query[terms.active].mean())


def per_query_reference(batch, tau, tau2):
    """The per-query loop the grouped kernel replaced, kept as its oracle.

    Returns (per_query, d_queries, active, skipped) like ContrastResult.
    """
    q = np.asarray(batch.queries, dtype=np.float64)
    k = np.asarray(batch.keys, dtype=np.float64)
    m = q.shape[0]
    per_query = np.zeros(m)
    d_queries = np.zeros_like(q)
    active = np.zeros(m, dtype=bool)
    skipped = 0

    sims = q @ k.T / tau
    sims = sims - sims.max(axis=1, keepdims=True)
    log_sm = sims - np.log(np.exp(sims).sum(axis=1, keepdims=True))
    sm = np.exp(log_sm)

    key_labels = np.asarray(batch.key_labels)
    for i in range(m):
        pos = np.flatnonzero(key_labels == batch.query_labels[i])
        if pos.size == 0:
            skipped += 1
            continue
        active[i] = True
        scores = batch.key_logits[pos] @ batch.query_logits[i] / tau2
        w = np.exp(scores - scores.max())
        w /= w.sum()
        per_query[i] = -float(w @ log_sm[i, pos])
        coeff = sm[i].copy()
        coeff[pos] -= w
        d_queries[i] = coeff @ k / tau
    return per_query, d_queries, active, skipped


def masked_bucket_reference(batch, tau2):
    """Each query's positives mixed by w, gathering every label's rows and
    bucket with boolean masks as the grouped kernel did before it sorted by
    label; kept as the oracle of the sorted buckets."""
    query_labels, key_labels = np.asarray(batch.query_labels), np.asarray(batch.key_labels)
    active = np.isin(query_labels, key_labels)
    wk = np.zeros_like(batch.queries)
    for label in np.unique(query_labels[active]):
        rows, pos = query_labels == label, key_labels == label
        wk[rows] = pair_weights(batch.query_logits[rows], batch.key_logits[pos],
                                tau2) @ batch.keys[pos]
    return wk, active


def random_contrast_batch(rng, m, M, e=6, c=4, query_classes=4, key_classes=4):
    """Unit-norm queries and keys with labels drawn from the first classes."""
    return ContrastBatch(
        unit_rows(rng.normal(size=(m, e))), rng.integers(0, query_classes, m),
        rng.normal(scale=2.0, size=(m, c)),
        unit_rows(rng.normal(size=(M, e))), rng.integers(0, key_classes, M),
        rng.normal(scale=2.0, size=(M, c)),
    )


class TestGroupedKernelParity:
    """The grouped kernel against the per-query loop it replaced."""

    def assert_matches_reference(self, batch, tau=0.12, tau2=0.4):
        terms = contrastive_terms(batch, tau, tau2)
        per, dq, active, skipped = per_query_reference(batch, tau, tau2)
        np.testing.assert_array_equal(terms.active, active)
        assert terms.skipped == skipped
        np.testing.assert_allclose(terms.per_query, per, rtol=1e-12, atol=1e-12)
        # gradients to 1e-12 of the reference row's norm (absolute below norm 1)
        err = np.abs(terms.d_queries - dq).max(axis=1, initial=0.0)
        scale = np.maximum(np.linalg.norm(dq, axis=1), 1.0)
        assert np.all(err <= 1e-12 * scale)
        return terms

    @pytest.mark.parametrize("seed", range(10))
    def test_several_labels_with_skipped_queries(self, seed):
        rng = np.random.default_rng(seed)
        # queries draw from 6 labels, keys from 4: labels 4 and 5 are skipped
        batch = random_contrast_batch(rng, 40, 90, query_classes=6, key_classes=4)
        terms = self.assert_matches_reference(batch)
        assert 0 < terms.skipped < 40

    @pytest.mark.parametrize("seed", range(5))
    def test_single_key(self, seed):
        rng = np.random.default_rng(100 + seed)
        batch = random_contrast_batch(rng, 8, 1, query_classes=2, key_classes=1)
        self.assert_matches_reference(batch)

    def test_query_labels_no_key_has(self):
        rng = np.random.default_rng(200)
        b = random_contrast_batch(rng, 6, 10)
        batch = ContrastBatch(b.queries, b.query_labels + 10, b.query_logits,
                              b.keys, b.key_labels, b.key_logits)
        terms = self.assert_matches_reference(batch)
        assert terms.skipped == 6
        assert not terms.per_query.any() and not terms.d_queries.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_one_label_takes_every_key(self, seed):
        rng = np.random.default_rng(300 + seed)
        batch = random_contrast_batch(rng, 12, 30, query_classes=3, key_classes=1)
        terms = self.assert_matches_reference(batch)
        np.testing.assert_array_equal(terms.active, batch.query_labels == 0)

    @pytest.mark.parametrize("tau,tau2", [(0.05, 0.1), (0.12, 0.4), (1.0, 2.0)])
    def test_temperatures(self, tau, tau2):
        rng = np.random.default_rng(400)
        self.assert_matches_reference(random_contrast_batch(rng, 30, 60), tau, tau2)

    @pytest.mark.parametrize("tau,tau2", [(1e-3, 1e-2), (1e-4, 1e-3)])
    def test_tiny_temperatures_stay_finite(self, tau, tau2):
        # at 2 / tau > 745 a fixed shift by the largest possible score would
        # underflow every exp in a row; the row-max shift keeps the largest at 1
        rng = np.random.default_rng(450)
        terms = self.assert_matches_reference(random_contrast_batch(rng, 30, 60), tau, tau2)
        assert np.isfinite(terms.per_query).all() and np.isfinite(terms.d_queries).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_buckets_match_masked_buckets_bitwise(self, seed):
        rng = np.random.default_rng(600 + seed)
        batch = random_contrast_batch(rng, 50, 120, query_classes=7, key_classes=5)
        wk, active = masked_bucket_reference(batch, 0.4)
        terms = contrastive_terms(batch, 0.12, 0.4)
        np.testing.assert_array_equal(terms.active, active)
        # the kernel's order of operations: 1/tau on the queries, and the
        # softmax's denominator divided out after the second gemm
        s = (batch.queries / 0.12) @ batch.keys.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        d_ref = (e @ batch.keys) / e.sum(axis=1)[:, None]
        d_ref -= wk
        d_ref /= 0.12
        d_ref[~active] = 0.0
        np.testing.assert_array_equal(terms.d_queries, d_ref)

    def test_no_queries(self):
        rng = np.random.default_rng(500)
        terms = self.assert_matches_reference(random_contrast_batch(rng, 0, 5))
        assert terms.per_query.shape == (0,) and terms.d_queries.shape == (0, 6)


class TestContrastBatchValidation:
    def fields(self):
        rng = np.random.default_rng(0)
        b = random_contrast_batch(rng, 3, 5)
        return dict(queries=b.queries, query_labels=b.query_labels,
                    query_logits=b.query_logits, keys=b.keys,
                    key_labels=b.key_labels, key_logits=b.key_logits)

    def test_well_formed_accepted(self):
        ContrastBatch(**self.fields())

    @pytest.mark.parametrize("name,bad", [
        ("key_labels", lambda f: f["key_labels"][:-1]),
        ("key_labels", lambda f: f["key_labels"][:, None]),
        ("query_labels", lambda f: np.append(f["query_labels"], 0)),
        ("query_labels", lambda f: f["query_labels"][0]),
        ("key_logits", lambda f: f["key_logits"][:-1]),
        ("query_logits", lambda f: f["query_logits"][:-1]),
        ("query_logits", lambda f: f["query_logits"][:, :-1]),
        ("key_logits", lambda f: f["key_logits"].ravel()),
        ("queries", lambda f: np.where(np.arange(6) == 0, np.nan, f["queries"])),
        ("keys", lambda f: np.where(np.arange(6) == 0, np.nan, f["keys"])),
        ("queries", lambda f: 2.0 * f["queries"]),
        ("queries", lambda f: f["queries"][:, :-1]),
        ("keys", lambda f: f["keys"][:0]),
        ("key_labels", lambda f: f["key_labels"] - 5),
        ("query_labels", lambda f: f["query_labels"] + 0.5),
    ], ids=[
        "key_labels_short", "key_labels_2d", "query_labels_long", "query_labels_scalar",
        "key_logits_short", "query_logits_short", "logit_widths_differ", "key_logits_1d",
        "queries_nan", "keys_nan", "queries_not_unit", "embedding_widths_differ",
        "keys_empty", "key_labels_negative", "query_labels_float",
    ])
    def test_malformed_rejected(self, name, bad):
        f = self.fields()
        f[name] = bad(f)
        with pytest.raises(ValueError):
            ContrastBatch(**f)


class TestContrastive:
    def test_single_key_sole_positive_zero_loss(self):
        q = unit_rows(np.array([[1.0, 1.0]]))
        k = unit_rows(np.array([[0.3, -0.8]]))
        batch = ContrastBatch(q, np.array([2]), np.array([[0.1, 0.2]]),
                              k, np.array([2]), np.array([[0.5, 0.5]]))
        terms = contrastive_terms(batch, tau=0.12, tau2=0.4)
        assert active_mean(terms) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(terms.d_queries, 0.0, atol=1e-12)

    def test_two_orthogonal_keys_equidistant_log2(self):
        q = np.array([[1.0, 0.0]])
        keys = unit_rows(np.array([[1.0, 1.0], [1.0, -1.0]]))  # equal dots with q
        batch = ContrastBatch(q, np.array([0]), np.ones((1, 3)),
                              keys, np.array([0, 5]), np.ones((2, 3)))
        terms = contrastive_terms(batch, tau=0.25, tau2=0.4)
        assert active_mean(terms) == pytest.approx(math.log(2.0))

    def test_skipped_queries_counted(self):
        q = unit_rows(np.ones((2, 3)))
        keys = unit_rows(np.array([[1.0, 0.0, 0.0]]))
        batch = ContrastBatch(q, np.array([0, 1]), np.zeros((2, 2)),
                              keys, np.array([0]), np.zeros((1, 2)))
        terms = contrastive_terms(batch, tau=0.12, tau2=0.4)
        assert terms.skipped == 1
        assert terms.active.tolist() == [True, False]
        assert terms.per_query[1] == 0.0

    def eq3_oracle(self, batch, tau, tau2):
        """Literal per-query re-evaluation of the weighted contrastive sum."""
        total = []
        for i in range(batch.queries.shape[0]):
            pos = [j for j in range(len(batch.key_labels))
                   if batch.key_labels[j] == batch.query_labels[i]]
            if not pos:
                continue
            scores = [float(batch.query_logits[i] @ batch.key_logits[j]) / tau2 for j in pos]
            mx = max(scores)
            es = [math.exp(v - mx) for v in scores]
            ws = [v / sum(es) for v in es]
            denom_terms = [float(batch.queries[i] @ k) / tau for k in batch.keys]
            mden = max(denom_terms)
            logz = mden + math.log(sum(math.exp(t - mden) for t in denom_terms))
            li = -sum(
                w * (float(batch.queries[i] @ batch.keys[j]) / tau - logz)
                for w, j in zip(ws, pos)
            )
            total.append(li)
        return sum(total) / len(total)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_batch_matches_direct_eq3_and_fd(self, seed):
        rng = np.random.default_rng(seed)
        m, M, e, c = 4, 8, 5, 3
        q = unit_rows(rng.normal(size=(m, e)))
        keys = unit_rows(rng.normal(size=(M, e)))
        batch = ContrastBatch(q, rng.integers(0, c, m), rng.normal(size=(m, c)),
                              keys, rng.integers(0, c, M), rng.normal(size=(M, c)))
        tau, tau2 = 0.12, 0.4
        terms = contrastive_terms(batch, tau, tau2)
        loss = active_mean(terms)
        assert loss >= 0.0
        assert loss == pytest.approx(self.eq3_oracle(batch, tau, tau2), rel=1e-12)

        # finite differences of the active-query mean on the query embeddings
        # (free-vector gradient)
        dq = terms.d_queries / terms.active.sum()
        h = 1e-6
        numeric = np.zeros_like(dq)
        for i in range(m):
            for d in range(e):
                vals = []
                for sign in (+1, -1):
                    qq = q.copy()
                    qq[i, d] += sign * h
                    b2 = ContrastBatch(qq, batch.query_labels, batch.query_logits,
                                       keys, batch.key_labels, batch.key_logits)
                    vals.append(active_mean(contrastive_terms(b2, tau, tau2)))
                numeric[i, d] = (vals[0] - vals[1]) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(dq), np.abs(numeric)), 1e-12)
        assert np.max(np.abs(dq - numeric) / denom) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_permuting_queries_permutes_results_bitwise(self, seed):
        rng = np.random.default_rng(700 + seed)
        b = random_contrast_batch(rng, 40, 90, query_classes=6, key_classes=4)
        perm = rng.permutation(40)
        permuted = ContrastBatch(b.queries[perm], b.query_labels[perm], b.query_logits[perm],
                                 b.keys, b.key_labels, b.key_logits)
        terms = contrastive_terms(b, 0.12, 0.4)
        moved = contrastive_terms(permuted, 0.12, 0.4)
        np.testing.assert_array_equal(moved.per_query, terms.per_query[perm])
        np.testing.assert_array_equal(moved.d_queries, terms.d_queries[perm])
        np.testing.assert_array_equal(moved.active, terms.active[perm])

    def test_peak_memory_is_one_score_block(self):
        # a flat-cad step's shape: the (m, M) score block is the one large
        # temporary, so a second block-sized array would show here
        m, M = 190, 1214
        batch = random_contrast_batch(np.random.default_rng(800), m, M, e=32, c=10,
                                      query_classes=10, key_classes=10)
        tracemalloc.start()
        try:
            contrastive_terms(batch, 0.12, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * m * M * 8

    def test_nonnegative_on_random_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            m, M = rng.integers(1, 5), rng.integers(1, 10)
            batch = ContrastBatch(
                unit_rows(rng.normal(size=(m, 4))), rng.integers(0, 3, m),
                rng.normal(size=(m, 3)),
                unit_rows(rng.normal(size=(M, 4))), rng.integers(0, 3, M),
                rng.normal(size=(M, 3)),
            )
            terms = contrastive_terms(batch, 0.12, 0.4)
            assert np.all(terms.per_query >= 0.0)

    def test_nonnegative_with_one_shared_label_key(self):
        # the loss of a query whose only key is its positive is exactly zero;
        # the closed form lse - q . wk / tau lands a few ulps either side of it
        rng = np.random.default_rng(7)
        for _ in range(2000):
            label = rng.integers(0, 3, 1)
            batch = ContrastBatch(
                unit_rows(rng.normal(size=(1, 5))), label, rng.normal(size=(1, 3)),
                unit_rows(rng.normal(size=(1, 5))), label, rng.normal(size=(1, 3)),
            )
            terms = contrastive_terms(batch, 0.12, 0.4)
            assert terms.per_query[0] >= 0.0
            assert terms.per_query[0] < 1e-12


class TestDiscls:
    def test_ce_full_set_uniform_weights_is_mean_ce(self):
        z = np.array([1.0, -0.5, 0.25, 2.0])
        cand = np.ones((1, 4), dtype=bool)
        omega = confidence_weights(np.zeros(cand.shape), cand)
        (loss,), _, _ = discls_terms(z[None], omega, cand)
        p = np.exp(z - z.max())
        p /= p.sum()
        assert loss == pytest.approx(float(np.mean(-np.log(p))))

    @pytest.mark.parametrize("scale", [1.0, 5.0, 400.0])
    def test_ce_matches_two_log_reference_bitwise(self, scale):
        rng = np.random.default_rng(int(scale))
        z = rng.normal(scale=scale, size=(64, 10))  # 400 saturates the clamp
        cand = rand_candidates(rng, 64, 10)
        cand[:3] = True
        omega = confidence_weights(rng.normal(size=(64, 10)), cand)
        per, _, _ = discls_terms(z, omega, cand)
        np.testing.assert_array_equal(per, two_log_ce_reference(z, omega, cand))

    def test_hand_ce_example(self):
        z = np.array([1.0, 0.0, -1.0])
        cand = np.array([[True, False, False]])
        omega = confidence_weights(z[None], cand)
        (loss,), _, _ = discls_terms(z[None], omega, cand)
        e = [math.exp(v) for v in z]
        p = [v / sum(e) for v in e]
        w1 = math.exp(0.0) / (math.exp(0.0) + math.exp(-1.0))
        w2 = 1.0 - w1
        expected = -math.log(p[0]) + w1 * (-math.log(1 - p[1])) + w2 * (-math.log(1 - p[2]))
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5), ids=lambda seed: f"{seed}-cross-entropy")
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        c = 5
        z = rng.normal(size=(1, c))
        cand = rand_candidates(rng, 1, c)
        omega = confidence_weights(rng.normal(size=(1, c)), cand)
        _, grad, _ = discls_terms(z, omega, cand)
        h = 1e-6
        numeric = np.zeros((1, c))
        for k in range(c):
            zp, zm = z.copy(), z.copy()
            zp[0, k] += h
            zm[0, k] -= h
            lp, _, _ = discls_terms(zp, omega, cand)
            lm, _, _ = discls_terms(zm, omega, cand)
            numeric[0, k] = (lp[0] - lm[0]) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_saturation_clamped_and_counted(self):
        z = np.array([[800.0, -800.0, 0.0]])
        cand = np.array([[True, False, False]])
        omega = confidence_weights(np.zeros(cand.shape), cand)
        per, grad, sat = discls_terms(z, omega, cand)
        assert np.isfinite(per)
        assert np.all(np.isfinite(grad))
        assert sat > 0

    @pytest.mark.parametrize("scale", [0.5, 4.0, 60.0, 400.0])
    @pytest.mark.parametrize("mask", ["bool", "int"])
    def test_matches_previous_kernel_bitwise(self, scale, mask):
        # 60 and 400 push probabilities past PROB_CLAMP on both sides
        z, zk, cand = oracle_batch(int(scale), scale=scale)
        omega = confidence_weights_reference(zk, cand)
        m = cand.astype(np.int64) if mask == "int" else cand
        per, d, sat = discls_terms(z, omega, m)
        per_ref, d_ref, sat_ref = discls_terms_reference(z, omega, cand)
        np.testing.assert_array_equal(per, per_ref)
        np.testing.assert_array_equal(d, d_ref)
        assert type(sat) is int and sat == sat_ref
        if scale >= 60.0:
            assert sat > 0

    def test_arbitrary_weights_match_previous_kernel_bitwise(self):
        # the bool mask enters as 0/1 factors, so even negative weights
        # follow the old float-mask products
        z, _, cand = oracle_batch(9)
        omega = np.random.default_rng(9).normal(size=z.shape)
        for got, want in zip(discls_terms(z, omega, cand), discls_terms_reference(z, omega, cand)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("arg, shapes", [
        ("omega", ((4, 3), (1, 3), (4, 3))),
        ("candidates", ((4, 3), (4, 3), (1, 3))),
    ])
    def test_row_input_not_broadcast_over_batch(self, arg, shapes):
        zshape, wshape, cshape = shapes
        with pytest.raises(ValueError, match=f"^{arg} must have shape \\(4, 3\\), "
                                             r"got \(1, 3\)$"):
            discls_terms(np.zeros(zshape), np.full(wshape, 1 / 3), np.ones(cshape, dtype=bool))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match=r"^logits_q must have shape \(\*, \*\), got \(3,\)$"):
            discls_terms(np.zeros(3), np.full(3, 1 / 3), np.ones(3, dtype=bool))


def make_scene(seed, batch=8, d=6, c=4, hidden=(8,), e=5, bank_size=12,
               drop_prob=0.2):
    """Random model pair, batch, augmentations, and a full ContrastBank for objective tests.

    Augmentations come as the (features, owner, labels) triple that
    batch_total_loss takes, in batch order with labels ascending per sample.

    Inputs are drawn at scale 2 so gradient entries stay well clear of the
    finite-difference rounding floor (~1e-11 absolute at h=1e-5).
    """
    rng = np.random.default_rng(seed)
    config = EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=hidden, embed_dim=e)
    pair = ModelPair(init_params(config, seed=seed), init_params(config, seed=seed + 1000))
    x = 2.0 * rng.normal(size=(batch, d))
    cand = rand_candidates(rng, batch, c)
    feats, owner, labels = [], [], []
    for i in range(batch):
        for s in np.flatnonzero(cand[i]):
            if rng.random() < drop_prob:
                continue  # simulated discard
            feats.append(np.where(rng.random(d) < 0.5, x[i], 0.3 * x[i]))
            owner.append(i)
            labels.append(s)
    augs = (np.array(feats).reshape(-1, d), np.array(owner, dtype=np.int64),
            np.array(labels, dtype=np.int64))
    bk = rng.normal(size=(bank_size, e))
    bk /= np.linalg.norm(bk, axis=1, keepdims=True)
    bank = ContrastBank(bank_size)
    bank.push(bk, rng.normal(size=(bank_size, c)), rng.integers(0, c, bank_size))
    return pair, x, cand, augs, bank


class TestTotalLoss:
    def test_beta_zero_equals_discls(self):
        pair, x, cand, augs, bank = make_scene(0)
        cfg0 = LossConfig(beta=0.0)
        res = batch_total_loss(x, cand, augs, pair, bank, cfg0)
        from pllab.numkernel import forward

        rq = forward(pair.query, x)
        rk = forward(pair.key, x)
        omega = confidence_weights(rk.logits, cand)
        per, _, _ = discls_terms(rq.logits, omega, cand)
        assert res.loss == float(per.mean())
        assert res.contrastive_part == 0.0

    def test_no_augmentations_equals_discls(self):
        pair, x, cand, _, bank = make_scene(1)
        cfg = LossConfig(beta=1.0)
        empty = (np.zeros((0, x.shape[1])), np.zeros(0, dtype=np.int64),
                 np.zeros(0, dtype=np.int64))
        res0 = batch_total_loss(x, cand, None, pair, bank, LossConfig(beta=0.0))
        for augs in (None, empty):
            res = batch_total_loss(x, cand, augs, pair, bank, cfg)
            assert res.loss == res0.loss
            assert res.key_set is None

    def test_contrastive_scale_is_beta_over_owner_set_size(self):
        # reference: the per-sample loop, scale beta/|S| for each of a
        # sample's augmentations and 1/B for the batch mean; the key set, the
        # parts and the gradients are those of the checked ContrastBatch,
        # bit for bit
        pair, x, cand, augs, bank = make_scene(2, batch=6)
        cfg = LossConfig(beta=0.7)
        res = batch_total_loss(x, cand, augs, pair, bank, cfg)

        ax, owner, labels = augs
        rq, rk = forward_stack(pair.stacked, ax)
        key_set = tuple(np.concatenate([held, rows]) for held, rows in
                        zip(bank.as_arrays(), (rk.embedding, rk.logits, labels)))
        terms = contrastive_terms(ContrastBatch(
            rq.embedding, labels, rk.logits, key_set[0], key_set[2], key_set[1],
        ), cfg.tau, cfg.tau2)
        expected = 0.0
        for j, i in enumerate(owner):
            expected += cfg.beta / max(int(cand[i].sum()), 1) * terms.per_query[j]
        assert res.contrastive_part == pytest.approx(expected / x.shape[0], rel=1e-12)

        for got, want in zip(res.key_set, key_set, strict=True):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        scales = cfg.beta / np.maximum(cand.sum(axis=1), 1)[owner]
        assert res.contrastive_part == float(np.sum(terms.per_query * scales)) / x.shape[0]
        discls = batch_total_loss(x, cand, None, pair, bank, cfg)
        assert res.discls_part == discls.discls_part
        aug_grads, _ = backward(rq, d_embedding=terms.d_queries * (scales / x.shape[0])[:, None])
        np.testing.assert_array_equal(res.grads.flat, discls.grads.flat + aug_grads.flat)

    @pytest.mark.parametrize("bank", [None, ContrastBank(4)], ids=["none", "empty"])
    def test_key_set_owns_its_rows(self, bank):
        # with no rows held the key set is still built afresh, so a bank that
        # keeps it never holds an array its caller owns
        pair, x, cand, augs, _ = make_scene(6)
        augs = tuple(a.copy() for a in augs)
        res = batch_total_loss(x, cand, augs, pair, bank, LossConfig())
        snapshot = [a.copy() for a in res.key_set]
        for a in augs:
            a[...] = 0
        for got, before in zip(res.key_set, snapshot, strict=True):
            np.testing.assert_array_equal(got, before)
        np.testing.assert_array_equal(snapshot[2], make_scene(6)[3][2])

    @pytest.mark.parametrize("uniform", [False, True])
    def test_uniform_confidence_skips_raw_key_pass(self, monkeypatch, uniform):
        # one stacked pass per row set; under uniform confidences the raw
        # rows need only the query model, run as its own one-row stack
        pair, x, cand, augs, bank = make_scene(5)
        passes = []
        real_stack = pllab.losses.forward_stack

        def counting_stack(stack, inp):
            assert stack in (pair.stacked, pair.query.stack)
            passes.append(("pair" if stack is pair.stacked else "query",
                           "raw" if inp is x else "aug"))
            return real_stack(stack, inp)

        monkeypatch.setattr(pllab.losses, "forward_stack", counting_stack)
        batch_total_loss(x, cand, augs, pair, bank, LossConfig(), uniform_confidence=uniform)
        raw = ("query", "raw") if uniform else ("pair", "raw")
        assert passes == [raw, ("pair", "aug")]

    def test_owner_outside_batch_rejected(self):
        pair, x, cand, (ax, owner, labels), bank = make_scene(4)
        for bad in (owner - owner.min() - 1, owner + x.shape[0]):
            with pytest.raises(ValueError, match="owner"):
                batch_total_loss(x, cand, (ax, bad, labels), pair, bank, LossConfig())

    @pytest.mark.parametrize("bad_owner", [
        lambda owner: owner[:1],  # broadcast one sample's scale over every row
        lambda owner: owner[:-1],
        lambda owner: owner[:, None],
    ], ids=["first_only", "one_short", "column"])
    def test_owner_not_one_per_augmentation_rejected(self, bad_owner):
        pair, x, cand, (ax, owner, labels), bank = make_scene(2, batch=6)
        with pytest.raises(ValueError, match=r"^augmentation owner must have shape \("):
            batch_total_loss(x, cand, (ax, bad_owner(owner), labels), pair, bank, LossConfig())

    def test_non_integer_owner_rejected(self):
        pair, x, cand, (ax, owner, labels), bank = make_scene(4)
        for bad in (owner.astype(float), owner.astype(bool), owner.astype(str)):
            with pytest.raises(ValueError, match="owner must be integers") as err:
                batch_total_loss(x, cand, (ax, bad, labels), pair, bank, LossConfig())
            assert type(err.value) is ValueError

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_non_integer_labels_rejected_at_entry(self, beta):
        # with beta == 0 the labels are never read, and with beta > 0 they
        # reached the check only as ContrastBatch's query_labels
        pair, x, cand, (ax, owner, labels), bank = make_scene(4)
        for bad, match in ((labels + 0.5, "be integers, got dtype float64"),
                           (labels - labels.max() - 1, "be nonnegative")):
            with pytest.raises(ValueError, match=f"^augmentation labels must {match}$"):
                batch_total_loss(x, cand, (ax, owner, bad), pair, bank, LossConfig(beta=beta))

    def test_labels_not_one_per_augmentation_rejected(self):
        pair, x, cand, (ax, owner, labels), bank = make_scene(2, batch=6)
        for bad in (labels[:-1], labels[:, None]):
            with pytest.raises(ValueError, match=r"^augmentation labels must have shape \("):
                batch_total_loss(x, cand, (ax, owner, bad), pair, bank, LossConfig())

    def test_candidates_not_batch_by_classes_rejected(self):
        pair, x, cand, augs, bank = make_scene(2, batch=6)
        for bad in (cand[:-1], cand[:, :-1], cand[0]):
            with pytest.raises(ValueError, match=r"^candidates must have shape \(6, 4\), got "):
                batch_total_loss(x, bad, augs, pair, bank, LossConfig())

    def test_loss_nonnegative_ce(self):
        for seed in range(5):
            pair, x, cand, augs, bank = make_scene(seed + 10)
            res = batch_total_loss(x, cand, augs, pair, bank, LossConfig())
            assert res.loss >= 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_full_gradient_matches_finite_differences(self, seed):
        pair, x, cand, augs, bank = make_scene(seed + 20)
        cfg = LossConfig()

        def loss_fn(qp):
            p2 = ModelPair(qp, pair.key)
            res = batch_total_loss(x, cand, augs, p2, bank, cfg)
            return res.loss, res.grads.flat

        report = check_gradients(loss_fn, pair.query, h=1e-5)
        assert report.max_rel_error < 1e-6

    def test_divisor_stays_full_set_size(self):
        # one candidate's augmentation discarded: contrastive sum shrinks but
        # the beta/|S| divisor must not
        pair, x, cand, augs, bank = make_scene(3, batch=1, drop_prob=0.0)
        assert len(augs[1]) >= 2
        full = batch_total_loss(x, cand, augs, pair, bank, LossConfig(beta=1.0))
        part_augs = tuple(a[:-1] for a in augs)
        part = batch_total_loss(x, cand, part_augs, pair, bank, LossConfig(beta=1.0))
        # removing one augmentation removes one key from the set too, so
        # recompute the dropped term under the reduced key set for comparison
        assert part.contrastive_part < full.contrastive_part + 1e-9
