import numpy as np
import pytest

import pllab.trainer
from pllab.data import (
    PLLDataset,
    entangled_cluster_spec,
    gen_entangled_gaussians,
    synthesize_dataset,
    train_annotator,
)
from pllab.losses import (
    LossConfig,
    confidence_weights,
    discls_terms,
    uniform_confidence_weights,
)
from pllab.numkernel import EncoderConfig, backward, forward, init_params
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
            np.random.default_rng(1).normal(size=pair.query.flatten().size))
        return pair

    def test_m_one_keeps_key(self):
        pair = self.make_pair(1.0)
        before = pair.key.flatten().copy()
        momentum_update(pair)
        np.testing.assert_array_equal(pair.key.flatten(), before)

    def test_m_zero_copies_query(self):
        pair = self.make_pair(0.0)
        momentum_update(pair)
        np.testing.assert_array_equal(pair.key.flatten(), pair.query.flatten())

    def test_scalar_example(self):
        pair = self.make_pair(0.9)
        pair.key = pair.key.with_flat(np.full_like(pair.key.flatten(), 2.0))
        pair.query = pair.query.with_flat(np.full_like(pair.query.flatten(), 4.0))
        momentum_update(pair)
        np.testing.assert_allclose(pair.key.flatten(), 2.2, rtol=1e-15)

    def test_query_untouched(self):
        pair = self.make_pair(0.5)
        before = pair.query.flatten().copy()
        momentum_update(pair)
        np.testing.assert_array_equal(pair.query.flatten(), before)

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

    def test_misaligned_rejected(self):
        bank = ContrastBank(capacity=4)
        with pytest.raises(ValueError):
            bank.push(np.zeros((2, 3)), np.zeros((1, 2)), [0, 1])

    def test_age_counts_pushes(self):
        bank = ContrastBank(capacity=10)
        bank.push(*self.entry(1.0))
        assert bank.age(0) == 0
        bank.push(*self.entry(2.0))
        assert bank.age(0) == 1  # position 0 is still the first entry
        assert bank.age(1) == 0
        with pytest.raises(IndexError):
            bank.age(2)


class TestTrain:
    def test_zero_epochs(self):
        ds = small_pll_dataset()
        pair, history = train(ds, tiny_config(epochs=0, warmup_epochs=0))
        assert history == []
        ref = ModelPair.initialize(
            EncoderConfig(input_dims=ds.feature_dims, num_classes=ds.num_classes,
                          hidden_dims=(16,), embed_dim=8), seed=0)
        np.testing.assert_array_equal(pair.query.flatten(), ref.query.flatten())

    def test_determinism_same_seed(self):
        ds = small_pll_dataset()
        cfg = tiny_config()
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        np.testing.assert_array_equal(p1.query.flatten(), p2.query.flatten())
        np.testing.assert_array_equal(p1.key.flatten(), p2.key.flatten())
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
        np.testing.assert_array_equal(pair.key.flatten(), init.key.flatten())
        assert not np.array_equal(pair.query.flatten(), init.query.flatten())

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
        velocity = np.zeros_like(query.flatten())
        losses = []
        for epoch in range(cfg.epochs):
            lr_t = cfg.lr * 0.5 * (1 + math.cos(math.pi * epoch / cfg.epochs))
            order = rng.permutation(len(ds))
            epoch_losses = []
            for start in range(0, len(ds), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                res = forward(query, ds.features[idx])
                omega = uniform_confidence_weights(ds.candidates[idx])
                per, dz, _ = discls_terms(res.logits, omega, ds.candidates[idx],
                                          "cross-entropy")
                grads, _ = backward(query, res, d_logits=dz / idx.size)
                theta = query.flatten()
                velocity = cfg.sgd_momentum * velocity + grads.flatten() + cfg.weight_decay * theta
                query = query.with_flat(theta - lr_t * velocity)
                for (_, kq), (_, ka) in zip(query.tensors(), key.tensors()):
                    ka *= cfg.momentum
                    ka += (1 - cfg.momentum) * kq
                epoch_losses.append(float(per.mean()))
            losses.append(sum(epoch_losses) / len(epoch_losses))

        np.testing.assert_array_equal(pair.query.flatten(), query.flatten())
        np.testing.assert_array_equal([h.total_loss for h in history], losses)

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
            np.testing.assert_array_equal(ax, aset.samples[rows])
            np.testing.assert_array_equal(labels, aset.labels[rows])
            assert np.all(np.diff(labels)[np.diff(owner) == 0] > 0)
            rows_seen += len(rows)
        # each post-warm-up epoch visits every sample, hence every row, once
        assert rows_seen == len(refreshes[0].samples) + len(refreshes[1].samples)

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

    def test_history_csv_roundtrip_format(self, tmp_path):
        history = [EpochStats(0, 1.5, 0.25, 1.75, 0.5, None),
                   EpochStats(1, 1.0, 0.20, 1.20, 0.75, 0.7)]
        path = tmp_path / "history.csv"
        save_history_csv(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,discls_loss,contrastive_loss,total_loss,train_acc,test_acc"
        assert lines[1].endswith(",")  # no test accuracy -> empty cell
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

    def test_variant_labels_and_stats(self):
        ds = small_pll_dataset(n=40)
        rows = ablation_suite(ds, tiny_config(epochs=2), seeds=(0, 1))
        assert [r.variant for r in rows] == ["CAD", "w/o CA", "w/o RL", "w/o Both"]
        for r in rows:
            assert r.mean == pytest.approx(np.mean(r.accuracies))
            assert r.std == pytest.approx(np.std(r.accuracies))
