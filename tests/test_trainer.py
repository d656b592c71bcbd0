import weakref
from dataclasses import replace

import numpy as np
import pytest

import pllab.trainer
from pllab.augment import refresh_augmentations
from pllab.data import (
    PLLDataset,
    entangled_cluster_spec,
    gen_entangled_gaussians,
    synthesize_dataset,
    train_annotator,
)
from pllab.evalkit import predict
from pllab.losses import (
    ContrastBatch,
    LossConfig,
    batch_total_loss,
    confidence_weights,
    discls_terms,
)
from pllab.numkernel import EncoderConfig, NumericError, backward, forward, init_params
from pllab.trainer import (
    ContrastBank,
    EpochStats,
    ModelPair,
    TrainConfig,
    TrainingDivergedError,
    ablation_suite,
    momentum_update,
    save_history_csv,
    train,
)


def small_pll_dataset(n=60, seed=0, tau_rate=1.0, classes=4, dim=8):
    spec = entangled_cluster_spec(classes, dim, pair_distance=2.0, group_distance=6.0)
    clean = gen_entangled_gaussians(spec, n, seed=seed)
    post = train_annotator(clean, epochs=10, seed=seed)
    return synthesize_dataset(clean, post, tau_rate=tau_rate, seed=seed)


def tiny_config(**kw):
    defaults = dict(epochs=4, batch_size=16, lr=0.05, weight_decay=0.0,
                    warmup_epochs=1, refresh_period=1, queue_capacity=64,
                    hidden_dims=(16,), embed_dim=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestMomentumUpdate:
    def make_pair(self, m):
        config = EncoderConfig(input_dims=(3,), num_classes=2, hidden_dims=(4,), embed_dim=2)
        pair = ModelPair.initialize(config, seed=0, momentum=m)
        pair.query = pair.query.with_flat(
            np.random.default_rng(1).normal(size=pair.query.flat.size))
        return pair

    def test_m_one_keeps_key(self):
        pair = self.make_pair(1.0)
        before = pair.key.flat.copy()
        momentum_update(pair)
        np.testing.assert_array_equal(pair.key.flat, before)

    def test_m_zero_copies_query(self):
        pair = self.make_pair(0.0)
        momentum_update(pair)
        np.testing.assert_array_equal(pair.key.flat, pair.query.flat)

    def test_scalar_example(self):
        pair = self.make_pair(0.9)
        pair.key = pair.key.with_flat(np.full_like(pair.key.flat, 2.0))
        pair.query = pair.query.with_flat(np.full_like(pair.query.flat, 4.0))
        momentum_update(pair)
        np.testing.assert_allclose(pair.key.flat, 2.2, rtol=1e-15)

    def test_query_untouched(self):
        pair = self.make_pair(0.5)
        before = pair.query.flat.copy()
        momentum_update(pair)
        np.testing.assert_array_equal(pair.query.flat, before)

    def test_geometric_closed_form_over_100_steps(self):
        # 2-parameter toy: key(T) = m^T key(0) + (1-m) sum m^(T-1-t) query(t)
        m = 0.97
        rng = np.random.default_rng(5)
        key0 = np.array([0.5, -1.5])
        queries = rng.normal(size=(100, 2))

        class Toy:
            def __init__(self, vals):
                self.flat = np.array(vals, dtype=np.float64)

        pair = ModelPair.__new__(ModelPair)  # bypass shape validation for the toy
        pair.query = Toy([0.0, 0.0])
        pair.key = Toy(key0.copy())
        pair.momentum = m
        for t in range(100):
            pair.query.flat[:] = queries[t]
            momentum_update(pair)
        closed = (m ** 100) * key0
        for t in range(100):
            closed = closed + (1 - m) * (m ** (100 - 1 - t)) * queries[t]
        np.testing.assert_allclose(pair.key.flat, closed, atol=1e-12)


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def unit_keys(m, e):
    """``m`` unit-norm key rows of width ``e``."""
    return unit_rows(np.ones((m, e)))


def bank_holding(e, c):
    """A bank holding one row of key width ``e`` and logit width ``c``."""
    bank = ContrastBank(4)
    bank.push(unit_keys(1, e), np.ones((1, c)), [0])
    return bank


@pytest.mark.parametrize("build, match", [
    (lambda q: ModelPair(q, q.copy(), momentum=1.5), "momentum"),
    (lambda q: ModelPair(q, init_params(replace(q.config, hidden_dims=(5,)))), "shapes differ"),
    (lambda q: ContrastBank(0), "capacity"),
    (lambda q: ContrastBank(2.5), "capacity must be an integer"),
    (lambda q: ContrastBank("3"), "capacity must be an integer"),
    (lambda q: ContrastBank(4).push(unit_keys(1, 3)[0], np.ones(3), np.arange(3)), "keys"),
    (lambda q: ContrastBank(4).push(unit_keys(3, 2), np.ones(3), np.arange(3)), "logits"),
    (lambda q: ContrastBank(4).push(unit_keys(3, 2), np.ones((3, 2)), np.zeros((3, 1), int)),
     "labels"),
    (lambda q: bank_holding(e=2, c=2).push(unit_keys(1, 3), np.ones((1, 2)), [0]), "keys"),
    (lambda q: bank_holding(e=2, c=2).push(unit_keys(1, 2), np.ones((1, 3)), [0]), "logits"),
])
def test_pair_and_bank_reject_bad_arguments(build, match):
    query = init_params(EncoderConfig(input_dims=(3,), num_classes=2, hidden_dims=(4,)))
    with pytest.raises(ValueError, match=match):
        build(query)


class TestContrastBank:
    def entry(self, val, label=0, c=2, e=3):
        return (np.full((1, e), val) / np.linalg.norm(np.full(e, val)),
                np.full((1, c), val), [label])

    def test_fifo_eviction(self):
        bank = ContrastBank(capacity=2)
        for v, lab in ((1.0, 0), (2.0, 1), (3.0, 2)):
            k, z, l = self.entry(v, lab)
            bank.push(k, z, l)
        keys, logits, labels = bank.as_arrays()
        assert labels.tolist() == [1, 2]
        assert logits[0, 0] == 2.0 and logits[1, 0] == 3.0

    def test_empty_push_no_change(self):
        bank = ContrastBank(capacity=3)
        bank.push(np.zeros((0, 3)), np.zeros((0, 2)), [])
        assert len(bank) == 0
        assert bank.as_arrays() is None

    def test_interleaved_matches_reference_queue(self):
        rng = np.random.default_rng(0)
        bank = ContrastBank(capacity=5)
        reference = []
        for _ in range(40):
            # up to 8 rows: pushes larger than the capacity keep only the newest
            count = int(rng.integers(0, 9))
            vals = rng.normal(size=(count, 3))
            vals = vals / np.maximum(np.linalg.norm(vals, axis=1, keepdims=True), 1e-9)
            logits = rng.normal(size=(count, 2))
            labels = rng.integers(0, 4, count)
            bank.push(vals, logits, labels)
            for k in range(count):
                reference.append((vals[k], logits[k], int(labels[k])))
                if len(reference) > 5:
                    reference.pop(0)
            if reference:
                keys, zs, ls = bank.as_arrays()
                np.testing.assert_array_equal(keys, np.stack([r[0] for r in reference]))
                np.testing.assert_array_equal(zs, np.stack([r[1] for r in reference]))
                assert ls.tolist() == [r[2] for r in reference]

    def test_returned_triple_survives_later_pushes(self):
        rng = np.random.default_rng(1)
        bank = ContrastBank(capacity=4)
        keys, logits, labels = unit_rows(rng.normal(size=(3, 3))), rng.normal(size=(3, 2)), [0, 1, 2]
        bank.push(keys, logits, labels)
        keys[:] = 0.0  # the bank holds its own rows, not the caller's
        first = bank.as_arrays()
        snapshot = [a.copy() for a in first]
        # an oversized push keeps only its newest `capacity` rows
        big = unit_rows(rng.normal(size=(6, 3))), rng.normal(size=(6, 2)), np.arange(6)
        bank.push(*big)
        for before, after in zip(snapshot, first):
            np.testing.assert_array_equal(after, before)
        assert not np.any(first[0] == 0.0)
        for got, pushed in zip(bank.as_arrays(), big):
            np.testing.assert_array_equal(got, pushed[2:])
        assert len(bank) == 4

    @pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, 2.0], [True, False]])
    def test_non_integer_labels_rejected(self, labels):
        bank = ContrastBank(capacity=4)
        with pytest.raises(ValueError, match="integers"):
            bank.push(np.eye(2, 3), np.zeros((2, 2)), labels)
        assert len(bank) == 0

    def test_misaligned_rejected(self):
        bank = ContrastBank(capacity=4)
        with pytest.raises(ValueError):
            bank.push(unit_keys(2, 3), np.zeros((1, 2)), [0, 1])

    @pytest.mark.parametrize("key, label, match", [
        (unit_keys(1, 3), -1, "nonnegative integers"),
        (np.full((1, 3), np.nan), 0, "unit-norm"),
        (np.zeros((1, 3)), 0, "unit-norm"),
        (2.0 * unit_keys(1, 3), 0, "unit-norm"),
    ], ids=["negative_label", "nan_key", "zero_key", "long_key"])
    def test_rows_a_contrast_batch_rejects_are_rejected(self, key, label, match):
        """A stored row is a key of every later batch, so a row that
        ContrastBatch rejects would break each step until it is evicted."""
        bank = bank_holding(e=3, c=2)
        with pytest.raises(ValueError, match=match):
            bank.push(key, np.zeros((1, 2)), [label])
        keys, logits, labels = bank.as_arrays()
        ContrastBatch(keys, labels, logits, keys, labels, logits)
        assert len(bank) == 1


class TestTrain:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_config(batch_size=batch_size)

    @pytest.mark.parametrize("field,value", [
        ("queue_capacity", 0), ("lr", -1.0), ("lr", float("nan")), ("lr", float("inf")),
        ("sgd_momentum", 1.5), ("sgd_momentum", -0.1), ("sgd_momentum", 1.0),
        ("momentum", 2.0), ("momentum", -0.5), ("weight_decay", -1.0),
        ("weight_decay", float("inf")), ("embed_dim", 0), ("warmup_epochs", -2),
        ("hidden_dims", (0,)), ("hidden_dims", (16, -1)), ("epochs", -1),
        ("warmup_epochs", 5), ("refresh_period", 0),
        # integer counts: range() and the batch slicing cannot take fractions
        ("epochs", 1.5), ("batch_size", 2.5), ("warmup_epochs", 0.5),
        ("refresh_period", 1.5), ("queue_capacity", 2.5), ("embed_dim", 2.5),
        ("hidden_dims", (8.5,)), ("hidden_dims", (16, 3.0)),
        # the seed feeds numpy's SeedSequence, which takes nonnegative integers
        ("seed", -1), ("seed", 1.5), ("seed", "a"),
    ])
    def test_out_of_range_hyperparameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = tiny_config(epochs=np.int64(2), batch_size=np.int32(16),
                          warmup_epochs=np.int64(1), refresh_period=np.int64(1),
                          queue_capacity=np.int64(64), embed_dim=np.int64(8),
                          seed=np.int64(3))
        _, history = train(small_pll_dataset(n=40), cfg)
        assert [h.epoch for h in history] == [0, 1]

    @pytest.mark.parametrize("case", ["empty train", "test dims", "test classes",
                                      "unlabelled test", "empty test"])
    def test_bad_datasets_rejected_before_training(self, case, monkeypatch):
        ds = small_pll_dataset(n=40)
        test = small_pll_dataset(n=40, seed=1)
        if case == "empty train":
            ds = ds.subset(np.arange(0))
        elif case == "test dims":
            test = small_pll_dataset(n=40, seed=1, dim=6)
        elif case == "test classes":
            test = PLLDataset(test.features, np.ones((len(test), 5), dtype=bool),
                              test.true_labels)
        elif case == "unlabelled test":
            test = PLLDataset(test.features, test.candidates)
        else:
            test = test.subset(np.arange(0))

        def never(*args, **kwargs):
            raise AssertionError("a batch was trained")

        monkeypatch.setattr(pllab.trainer, "batch_total_loss", never)
        with pytest.raises(ValueError, match="training set|test set"):
            train(ds, tiny_config(epochs=1), test)

    def test_unlabelled_training_set_has_no_train_accuracy(self):
        ds = small_pll_dataset(n=40)
        test = small_pll_dataset(n=40, seed=1)
        unlabelled = PLLDataset(ds.features, ds.candidates)
        _, history = train(unlabelled, tiny_config(epochs=2), test)
        _, labelled = train(ds, tiny_config(epochs=2), test)
        assert [h.train_acc for h in history] == [None, None]
        assert [h.test_acc for h in history] == [h.test_acc for h in labelled]

    def test_nonfinite_projection_head_diverges_without_rl(self, monkeypatch):
        # w/o RL never reads the embedding, yet an inf projection bias must
        # still stop training: forward checks the pre-normalization head
        real_init = pllab.trainer.init_params

        def poisoned_init(*args, **kwargs):
            params = real_init(*args, **kwargs)
            params.proj_b[0] = np.inf
            return params

        monkeypatch.setattr(pllab.trainer, "init_params", poisoned_init)
        with pytest.raises(TrainingDivergedError) as err:
            train(small_pll_dataset(), tiny_config(no_rl=True))
        assert (err.value.epoch, err.value.batch) == (0, 0)

    def test_zero_epochs(self):
        ds = small_pll_dataset()
        pair, history = train(ds, tiny_config(epochs=0, warmup_epochs=0))
        assert history == []
        ref = ModelPair.initialize(
            EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                          hidden_dims=(16,), embed_dim=8), seed=0)
        np.testing.assert_array_equal(pair.query.flat, ref.query.flat)

    def test_determinism_same_seed(self):
        ds = small_pll_dataset()
        cfg = tiny_config()
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        np.testing.assert_array_equal(p1.query.flat, p2.query.flat)
        np.testing.assert_array_equal(p1.key.flat, p2.key.flat)
        assert h1 == h2

    def test_history_records_every_epoch(self):
        ds = small_pll_dataset()
        test_ds = small_pll_dataset(seed=9)
        _, history = train(ds, tiny_config(epochs=3), test_dataset=test_ds)
        assert [h.epoch for h in history] == [0, 1, 2]
        assert all(h.test_acc is not None for h in history)
        assert all(np.isfinite(h.total_loss) for h in history)

    def test_key_side_never_gradient_updated(self):
        # with momentum 1 the key must stay exactly at its initial copy even
        # though the query trains, proving no gradient path touches it
        ds = small_pll_dataset()
        cfg = tiny_config(momentum=1.0)
        init = ModelPair.initialize(
            EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                          hidden_dims=(16,), embed_dim=8), seed=0)
        pair, _ = train(ds, cfg)
        np.testing.assert_array_equal(pair.key.flat, init.key.flat)
        assert not np.array_equal(pair.query.flat, init.query.flat)

    def test_wo_both_matches_standalone_weighted_ce_trainer(self):
        ds = small_pll_dataset()
        cfg = tiny_config(no_rl=True, no_ca=True, weight_decay=1e-3)
        pair, history = train(ds, cfg)

        # standalone reference loop: uniform-in-set weighted CE + SGD momentum
        import math

        enc = EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                            hidden_dims=(16,), embed_dim=8)
        query = init_params(enc, seed=cfg.seed)
        key = query.copy()
        rng = np.random.default_rng([cfg.seed, 1])
        velocity = np.zeros_like(query.flat)
        losses = []
        for epoch in range(cfg.epochs):
            lr_t = cfg.lr * 0.5 * (1 + math.cos(math.pi * epoch / cfg.epochs))
            order = rng.permutation(len(ds))
            epoch_losses = []
            for start in range(0, len(ds), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                res = forward(query, ds.features[idx])
                cand = ds.candidates[idx]
                size = cand.sum(axis=1, keepdims=True)
                omega = np.where(cand, 1.0 / size, 1.0 / np.maximum(ds.num_classes - size, 1))
                per, dz, _ = discls_terms(res.logits, omega, ds.candidates[idx])
                grads, _ = backward(res, d_logits=dz / idx.size)
                theta = query.flat
                velocity = cfg.sgd_momentum * velocity + grads.flat + cfg.weight_decay * theta
                query = query.with_flat(theta - lr_t * velocity)
                for (_, kq), (_, ka) in zip(query.tensors(), key.tensors()):
                    ka *= cfg.momentum
                    ka += (1 - cfg.momentum) * kq
                epoch_losses.append(float(per.mean()))
            losses.append(sum(epoch_losses) / len(epoch_losses))

        np.testing.assert_array_equal(pair.query.flat, query.flat)
        np.testing.assert_array_equal([h.total_loss for h in history], losses)

    def test_cad_matches_standalone_reference_loop(self):
        # full CAD: warm-up, then a stored augmentation set serving two
        # epochs; each batch's rows picked sample by sample, a list-based
        # FIFO of key rows and key-model confidences
        import math

        ds = small_pll_dataset()
        cfg = tiny_config(epochs=5, warmup_epochs=1, refresh_period=2)
        pair, history = train(ds, cfg)

        enc = EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                            hidden_dims=(16,), embed_dim=8)
        ref = ModelPair.initialize(enc, seed=cfg.seed, momentum=cfg.momentum)
        rng = np.random.default_rng([cfg.seed, 1])
        velocity = np.zeros_like(ref.query.flat)
        fifo = []  # (key embedding, key logits, label) rows, oldest first
        aset = None
        expected = []
        for epoch in range(cfg.epochs):
            if epoch in (1, 3):
                aset = refresh_augmentations(ds, ref.query, cfg.augment)
                samples = aset.samples  # every row mixed, read once per refresh
            lr_t = cfg.lr * 0.5 * (1 + math.cos(math.pi * epoch / cfg.epochs))
            order = rng.permutation(len(ds))
            parts = []
            for start in range(0, len(ds), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                augs = None
                if aset is not None:
                    rows, owner = [], []
                    for pos, i in enumerate(idx):
                        for r in range(len(aset.parents)):
                            if aset.parents[r] == i:
                                rows.append(r)
                                owner.append(pos)
                    augs = (samples[rows], np.array(owner, dtype=np.int64),
                            aset.labels[rows])
                bank = None
                if fifo:
                    bank = tuple(np.array([row[k] for row in fifo]) for k in range(3))
                res = batch_total_loss(ds.features[idx], ds.candidates[idx], augs, ref,
                                       bank, cfg.loss)
                if augs is not None and len(augs[1]):
                    keys = forward(ref.key, augs[0])  # the pre-step key side
                    fifo += list(zip(keys.embedding, keys.logits, augs[2]))
                    fifo = fifo[-cfg.queue_capacity:]
                theta = ref.query.flat
                velocity = cfg.sgd_momentum * velocity + res.grads.flat + cfg.weight_decay * theta
                ref.query = ref.query.with_flat(theta - lr_t * velocity)
                ref.key = ref.key.with_flat(
                    cfg.momentum * ref.key.flat + (1 - cfg.momentum) * ref.query.flat)
                parts.append((res.discls_part, res.contrastive_part, res.loss))
            means = [sum(p[k] for p in parts) / len(parts) for k in range(3)]
            acc = float(np.mean(predict(ref.query, ds.features) == ds.true_labels))
            expected.append(EpochStats(epoch, *means, acc, None))

        assert len(fifo) == cfg.queue_capacity  # the bank filled and evicted
        np.testing.assert_array_equal(pair.query.flat, ref.query.flat)
        np.testing.assert_array_equal(pair.key.flat, ref.key.flat)
        assert history == expected

    def test_losses_decrease_on_easy_data(self):
        ds = small_pll_dataset(n=120, tau_rate=0.5)
        cfg = tiny_config(epochs=12, warmup_epochs=2, refresh_period=2, lr=0.05)
        _, history = train(ds, cfg)
        # compare within phases: the total jumps at the end of warm-up when
        # the contrastive term switches on
        assert history[-1].discls_loss < history[0].discls_loss
        first_active = next(h for h in history if h.contrastive_loss > 0)
        assert history[-1].contrastive_loss < first_active.contrastive_loss
        assert history[-1].train_acc > history[0].train_acc

    def test_each_batch_gets_its_own_augmentation_rows(self, monkeypatch):
        ds = small_pll_dataset()
        real_refresh = pllab.trainer.refresh_augmentations
        real_loss = pllab.trainer.batch_total_loss
        refreshes, calls = [], []

        def record_refresh(*args, **kwargs):
            refreshes.append(real_refresh(*args, **kwargs))
            return refreshes[-1]

        def record_loss(features, candidates, augs, *args, **kwargs):
            calls.append((len(refreshes), np.array(features), augs))
            return real_loss(features, candidates, augs, *args, **kwargs)

        monkeypatch.setattr(pllab.trainer, "refresh_augmentations", record_refresh)
        monkeypatch.setattr(pllab.trainer, "batch_total_loss", record_loss)
        train(ds, tiny_config(epochs=3, warmup_epochs=1, refresh_period=1))
        assert len(refreshes) == 2
        samples = [aset.samples for aset in refreshes]  # every row mixed, once per refresh
        rows_seen = 0
        for refreshed, feats, augs in calls:
            if refreshed == 0:
                assert augs is None  # warm-up batches carry no augmentations
                continue
            aset = refreshes[refreshed - 1]
            # feature rows are continuous draws, so each names its sample
            idx = [int(np.flatnonzero((ds.features == row).all(axis=1))[0]) for row in feats]
            per_sample = [np.flatnonzero(aset.parents == i) for i in idx]
            rows = np.concatenate(per_sample)
            ax, owner, labels = augs
            np.testing.assert_array_equal(
                owner, np.repeat(np.arange(len(idx)), [len(r) for r in per_sample]))
            np.testing.assert_array_equal(ax, samples[refreshed - 1][rows])
            np.testing.assert_array_equal(labels, aset.labels[rows])
            assert np.all(np.diff(labels)[np.diff(owner) == 0] > 0)
            rows_seen += len(rows)
        # each post-warm-up epoch visits every sample, hence every row, once
        assert rows_seen == len(samples[0]) + len(samples[1])

    def test_previous_augmentation_set_is_freed_before_the_next_refresh(self, monkeypatch):
        ds = small_pll_dataset()
        real_refresh = pllab.trainer.refresh_augmentations
        previous, alive = [], []

        def spying_refresh(*args, **kwargs):
            alive.extend(ref() is not None for ref in previous)
            aset = real_refresh(*args, **kwargs)
            previous[:] = [weakref.ref(aset)]
            return aset

        monkeypatch.setattr(pllab.trainer, "refresh_augmentations", spying_refresh)
        train(ds, tiny_config(epochs=4, warmup_epochs=1, refresh_period=1))
        assert alive == [False, False]  # checked at the second and third refresh

    def test_default_widths_fit_flat_and_grid_inputs(self):
        flat = small_pll_dataset(n=24, dim=4)
        pair, _ = train(flat, TrainConfig(epochs=0))
        assert pair.query.config.hidden_dims == (32,)
        # lift each 4-vector onto a 4x4 grid with 4 channels plus pixel noise
        noise = np.random.default_rng(3).normal(scale=0.1, size=(24, 4, 4, 4))
        grid = PLLDataset(flat.features[:, None, None, :] + noise, flat.candidates,
                          flat.true_labels, num_classes=flat.num_classes)
        pair, history = train(grid, TrainConfig(epochs=2, warmup_epochs=1, refresh_period=1,
                                                batch_size=8))
        assert pair.query.config.hidden_dims == (32, 32)
        assert len(history) == 2
        assert all(np.isfinite(h.total_loss) for h in history)
        assert history[1].contrastive_loss > 0.0  # the refresh epoch used grid augmentations

    def test_divergence_reports_coordinates(self):
        ds = small_pll_dataset()
        cfg = tiny_config(lr=1e12, epochs=3, warmup_epochs=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(ds, cfg)
        assert err.value.epoch >= 0
        assert err.value.batch >= 0

    def test_overflowing_batch_loss_diverges_at_its_batch(self):
        # each part is finite, but beta times the first contrastive part
        # overflows the total of the first batch after warm-up
        ds = small_pll_dataset()
        cfg = tiny_config(epochs=3, warmup_epochs=1, loss=LossConfig(beta=1e308))
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(ds, cfg)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert isinstance(err.value.__cause__, NumericError)

    def test_divergence_in_the_last_batch_is_reported_by_its_coordinates(self):
        # one batch per epoch: its step writes parameters whose forward
        # overflows, and the epoch's evaluation is the first forward to read them
        ds = small_pll_dataset(n=16)
        cfg = tiny_config(lr=1e200, epochs=2, warmup_epochs=0, batch_size=16)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(ds, cfg)
        assert (err.value.epoch, err.value.batch) == (0, 0)
        assert isinstance(err.value.__cause__, NumericError)

    def test_divergence_in_the_last_batch_is_reported_without_evaluation(self):
        # no true labels and no test set: nothing is evaluated, so a forward
        # on the last batch is what reads the overflowing step
        ds = small_pll_dataset(n=16)
        unlabelled = PLLDataset(ds.features, ds.candidates)
        cfg = tiny_config(lr=1e200, epochs=1, warmup_epochs=0, batch_size=16)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                train(unlabelled, cfg)
        assert (err.value.epoch, err.value.batch) == (0, 0)
        assert isinstance(err.value.__cause__, NumericError)

    def test_history_csv_roundtrip_format(self, tmp_path):
        history = [EpochStats(0, 1.5, 0.25, 1.75, None, None),
                   EpochStats(1, 1.0, 0.20, 1.20, 0.75, 0.7)]
        path = tmp_path / "history.csv"
        save_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,discls_loss,contrastive_loss,total_loss,train_acc,test_acc"
        assert lines[1].endswith(",,")  # no train or test accuracy -> empty cells
        assert len(lines) == 3


class TestAblationSuite:
    def test_collapsed_config_gives_identical_rows(self):
        ds = small_pll_dataset(n=40)
        cfg = tiny_config(epochs=2, no_ca=True,
                          loss=LossConfig(beta=0.0))
        rows = ablation_suite(ds, cfg, seeds=(0, 1))
        accs = {row.variant: row.accuracies for row in rows}
        assert len(rows) == 4
        base = accs["CAD"]
        for variant in ("w/o CA", "w/o RL", "w/o Both"):
            assert accs[variant] == base

    @pytest.mark.parametrize("with_test", [False, True])
    def test_accuracies_are_the_trained_models(self, with_test):
        ds = small_pll_dataset(n=40)
        test = small_pll_dataset(n=40, seed=1) if with_test else None
        cfg = tiny_config(epochs=2)
        rows = ablation_suite(ds, cfg, test, seeds=(0, 3))
        eval_set = test if with_test else ds
        for row in rows[:1] + rows[2:3]:  # CAD and w/o RL
            for seed, acc in zip((0, 3), row.accuracies):
                pair, _ = train(ds, replace(cfg, seed=seed, no_rl=row.variant == "w/o RL"),
                                test)
                preds = predict(pair.query, eval_set.features)
                assert acc == float(np.mean(preds == eval_set.true_labels))

    def test_zero_epochs_scores_the_untrained_model(self):
        ds = small_pll_dataset(n=40)
        rows = ablation_suite(ds, tiny_config(epochs=0, warmup_epochs=0), seeds=(0,))
        pair, _ = train(ds, tiny_config(epochs=0, warmup_epochs=0))
        expected = float(np.mean(predict(pair.query, ds.features) == ds.true_labels))
        assert [r.accuracies for r in rows] == [(expected,)] * 4

    def test_unlabelled_eval_set_rejected(self):
        ds = small_pll_dataset(n=40)
        with pytest.raises(ValueError, match="true label"):
            ablation_suite(PLLDataset(ds.features, ds.candidates), tiny_config(epochs=1),
                           seeds=(0,))

    def test_no_seeds_rejected_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(pllab.trainer, "train", no_training)
        with pytest.raises(ValueError, match="at least one seed"):
            ablation_suite(small_pll_dataset(n=40), tiny_config(epochs=1), seeds=())

    def test_variant_labels_and_stats(self):
        ds = small_pll_dataset(n=40)
        rows = ablation_suite(ds, tiny_config(epochs=2), seeds=(0, 1))
        assert [r.variant for r in rows] == ["CAD", "w/o CA", "w/o RL", "w/o Both"]
        for r in rows:
            assert r.mean == pytest.approx(np.mean(r.accuracies))
            assert r.std == pytest.approx(np.std(r.accuracies))
