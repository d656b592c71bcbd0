import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pllab.losses import (
    ContrastBatch,
    LossConfig,
    batch_total_loss,
    confidence_weights,
    contrastive_loss,
    contrastive_terms,
    discls_terms,
    lws_equivalence_check,
    pair_weight,
    pair_weights,
    sigmoid_surrogate,
    uniform_confidence_weights,
)
from pllab.numkernel import EncoderConfig, check_gradients, init_params


def rand_candidates(rng, n, c):
    cand = rng.random((n, c)) < 0.5
    labels = rng.integers(0, c, size=n)
    cand[np.arange(n), labels] = True
    return cand


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

    def test_uniform_replacement(self):
        cand = np.array([[True, False, True, False, False]])
        omega = uniform_confidence_weights(cand)
        np.testing.assert_allclose(omega, [[0.5, 1 / 3, 0.5, 1 / 3, 1 / 3]])


class TestPairWeights:
    def test_singleton_bucket(self):
        w = pair_weight(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                        np.array([[0.5, 0.5]]), tau2=0.4)
        assert w == pytest.approx(1.0)

    def test_equal_products_symmetric(self):
        zq = np.array([1.0, 0.0])
        bucket = np.array([[2.0, 5.0], [2.0, -3.0], [2.0, 0.0]])  # all dot 2.0
        w = pair_weights(zq, bucket, tau2=0.7)
        np.testing.assert_allclose(w, np.ones(3) / 3, atol=1e-12)

    def test_hand_softmax_example(self):
        # inner products {2, 0} at tau2=0.4 -> softmax([5, 0])
        zq = np.array([2.0, 0.0])
        bucket = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = pair_weights(zq, bucket, tau2=0.4)
        np.testing.assert_allclose(w, [0.99330714907, 0.00669285092], atol=1e-9)
        assert pair_weight(zq, bucket[0], bucket, 0.4) == pytest.approx(w[0])

    def test_empty_bucket_rejected(self):
        with pytest.raises(ValueError):
            pair_weights(np.ones(2), np.zeros((0, 2)), tau2=0.4)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(1, 8))
    def test_bucket_weights_sum_to_one(self, seed, k):
        rng = np.random.default_rng(seed)
        w = pair_weights(rng.normal(size=3), rng.normal(size=(k, 3)), tau2=0.4)
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w > 0)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


class TestContrastive:
    def test_single_key_sole_positive_zero_loss(self):
        q = unit_rows(np.array([[1.0, 1.0]]))
        k = unit_rows(np.array([[0.3, -0.8]]))
        batch = ContrastBatch(q, np.array([2]), np.array([[0.1, 0.2]]),
                              k, np.array([2]), np.array([[0.5, 0.5]]))
        loss, grads = contrastive_loss(batch, tau=0.12, tau2=0.4)
        assert loss == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_two_orthogonal_keys_equidistant_log2(self):
        q = np.array([[1.0, 0.0]])
        keys = unit_rows(np.array([[1.0, 1.0], [1.0, -1.0]]))  # equal dots with q
        batch = ContrastBatch(q, np.array([0]), np.ones((1, 3)),
                              keys, np.array([0, 5]), np.ones((2, 3)))
        loss, _ = contrastive_loss(batch, tau=0.25, tau2=0.4)
        assert loss == pytest.approx(math.log(2.0))

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
        loss, dq = contrastive_loss(batch, tau, tau2)
        assert loss >= 0.0
        assert loss == pytest.approx(self.eq3_oracle(batch, tau, tau2), rel=1e-12)

        # finite differences on the query embeddings (free-vector gradient)
        h = 1e-6
        numeric = np.zeros_like(dq)
        for i in range(m):
            for d in range(e):
                for sign, store in ((+1, 0), (-1, 1)):
                    qq = q.copy()
                    qq[i, d] += sign * h
                    b2 = ContrastBatch(qq, batch.query_labels, batch.query_logits,
                                       keys, batch.key_labels, batch.key_logits)
                    val, _ = contrastive_loss(b2, tau, tau2)
                    if sign > 0:
                        plus = val
                    else:
                        numeric[i, d] = (plus - val) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(dq), np.abs(numeric)), 1e-12)
        assert np.max(np.abs(dq - numeric) / denom) < 1e-6

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


class TestDiscls:
    def test_ce_full_set_uniform_weights_is_mean_ce(self):
        z = np.array([1.0, -0.5, 0.25, 2.0])
        cand = np.ones((1, 4), dtype=bool)
        omega = uniform_confidence_weights(cand)
        (loss,), _, _ = discls_terms(z[None], omega, cand, "cross-entropy")
        p = np.exp(z - z.max())
        p /= p.sum()
        assert loss == pytest.approx(float(np.mean(-np.log(p))))

    def test_sigmoid_symmetry_identity(self):
        t = np.linspace(-20, 20, 101)
        np.testing.assert_allclose(sigmoid_surrogate(t) + sigmoid_surrogate(-t),
                                   np.ones_like(t), atol=1e-12)

    def test_hand_ce_example(self):
        z = np.array([1.0, 0.0, -1.0])
        cand = np.array([[True, False, False]])
        omega = confidence_weights(z[None], cand)
        (loss,), _, _ = discls_terms(z[None], omega, cand, "cross-entropy")
        e = [math.exp(v) for v in z]
        p = [v / sum(e) for v in e]
        w1 = math.exp(0.0) / (math.exp(0.0) + math.exp(-1.0))
        w2 = 1.0 - w1
        expected = -math.log(p[0]) + w1 * (-math.log(1 - p[1])) + w2 * (-math.log(1 - p[2]))
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("surrogate", ["cross-entropy", "sigmoid"])
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, surrogate, seed):
        rng = np.random.default_rng(seed)
        c = 5
        z = rng.normal(size=(1, c))
        cand = rand_candidates(rng, 1, c)
        omega = confidence_weights(rng.normal(size=(1, c)), cand)
        _, grad, _ = discls_terms(z, omega, cand, surrogate)
        h = 1e-6
        numeric = np.zeros((1, c))
        for k in range(c):
            zp, zm = z.copy(), z.copy()
            zp[0, k] += h
            zm[0, k] -= h
            lp, _, _ = discls_terms(zp, omega, cand, surrogate)
            lm, _, _ = discls_terms(zm, omega, cand, surrogate)
            numeric[0, k] = (lp[0] - lm[0]) / (2 * h)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)

    def test_saturation_clamped_and_counted(self):
        z = np.array([[800.0, -800.0, 0.0]])
        cand = np.array([[True, False, False]])
        omega = uniform_confidence_weights(cand)
        per, grad, sat = discls_terms(z, omega, cand, "cross-entropy")
        assert np.isfinite(per)
        assert np.all(np.isfinite(grad))
        assert sat > 0


class TestLWS:
    def test_random_draws_equivalence(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=2.0, size=(1000, 6))
        cand = rand_candidates(rng, 1000, 6)
        assert lws_equivalence_check(z, cand) < 1e-9

    def test_full_set_reduction(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(50, 4))
        cand = np.ones((50, 4), dtype=bool)
        assert lws_equivalence_check(z, cand) < 1e-12

    def test_asymmetric_surrogate_fails(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(100, 5))
        cand = rand_candidates(rng, 100, 5)

        def hinge(t):
            return np.maximum(0.0, 1.0 - np.asarray(t))

        assert lws_equivalence_check(z, cand, psi=hinge) > 0.0


def make_scene(seed, batch=8, d=6, c=4, hidden=(8,), e=5, bank_size=12,
               drop_prob=0.2):
    """Random model pair, batch, augmentations, and queue for objective tests.

    Augmentations come as the (features, owner, labels) triple that
    batch_total_loss takes, in batch order with labels ascending per sample.

    Inputs are drawn at scale 2 so gradient entries stay well clear of the
    finite-difference rounding floor (~1e-11 absolute at h=1e-5).
    """
    rng = np.random.default_rng(seed)
    config = EncoderConfig(input_dims=(d,), num_classes=c, hidden_dims=hidden, embed_dim=e)
    pair = SimpleNamespace(query=init_params(config, seed=seed),
                           key=init_params(config, seed=seed + 1000))
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
    bank = (bk, rng.normal(size=(bank_size, c)), rng.integers(0, c, bank_size))
    return pair, x, cand, augs, bank


class TestTotalLoss:
    def test_beta_zero_equals_discls(self):
        pair, x, cand, augs, bank = make_scene(0)
        cfg0 = LossConfig(beta=0.0)
        res = batch_total_loss(x, cand, augs, pair, bank, cfg0)
        from pllab.numkernel import forward

        rq = forward(pair.query, x, want_cache=False)
        rk = forward(pair.key, x, want_cache=False)
        omega = confidence_weights(rk.logits, cand)
        per, _, _ = discls_terms(rq.logits, omega, cand, cfg0.surrogate)
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
            assert res.aug_keys is None

    def test_contrastive_scale_is_beta_over_owner_set_size(self):
        # reference: the per-sample loop, scale beta/|S| for each of a
        # sample's augmentations and 1/B for the batch mean
        pair, x, cand, augs, bank = make_scene(2, batch=6)
        cfg = LossConfig(beta=0.7)
        res = batch_total_loss(x, cand, augs, pair, bank, cfg)
        from pllab.numkernel import forward

        ax, owner, labels = augs
        rq = forward(pair.query, ax, want_cache=False)
        rk = forward(pair.key, ax, want_cache=False)
        terms = contrastive_terms(ContrastBatch(
            rq.embedding, labels, rk.logits,
            np.concatenate([bank[0], rk.embedding]), np.concatenate([bank[2], labels]),
            np.concatenate([bank[1], rk.logits]),
        ), cfg.tau, cfg.tau2)
        expected = 0.0
        for j, i in enumerate(owner):
            expected += cfg.beta / max(int(cand[i].sum()), 1) * terms.per_query[j]
        assert res.contrastive_part == pytest.approx(expected / x.shape[0], rel=1e-12)
        np.testing.assert_array_equal(res.aug_labels, labels)

    def test_owner_outside_batch_rejected(self):
        pair, x, cand, (ax, owner, labels), bank = make_scene(4)
        for bad in (owner - owner.min() - 1, owner + x.shape[0]):
            with pytest.raises(ValueError, match="owner"):
                batch_total_loss(x, cand, (ax, bad, labels), pair, bank, LossConfig())

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
            p2 = SimpleNamespace(query=qp, key=pair.key)
            res = batch_total_loss(x, cand, augs, p2, bank, cfg)
            return res.loss, res.grads

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
