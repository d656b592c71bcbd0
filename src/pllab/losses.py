"""Training objectives: weighted contrastive alignment plus disambiguation.

The contrastive side aligns same-guide augmentations: each query embedding is
scored against every key via a temperature-scaled softmax, and each positive's
log-score is weighted by a second softmax over the positive bucket's
confidence-logit similarities. Gradients flow to the query embeddings only;
keys and confidence logits come from the momentum side and are treated as
constants.

The disambiguation side weights a per-label binary loss by confidences
normalized separately inside the candidate set and its complement, so each
set contributes total weight one regardless of its size. Two surrogates are
supported: the symmetric sigmoid form and a cross-entropy variant in
log-probability space. With the symmetric surrogate the loss coincides with
the leveraged weighted family at leverage 1, which ``lws_equivalence_check``
verifies numerically (the leveraged form is evaluated through the symmetric
complement 1 - psi(t), so an asymmetric surrogate makes the check fail by
construction). These helpers take (n, c) batches only; one sample is a batch
of one.

The combined objective adds the scaled contrastive terms of a sample's
augmentations to its disambiguation loss, dividing by the full candidate-set
size even when some augmentations were discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import BackboneParams, ParamGrads, backward, forward

__all__ = [
    "LossConfig",
    "ContrastBatch",
    "ContrastResult",
    "TotalLossResult",
    "sigmoid_surrogate",
    "confidence_weights",
    "uniform_confidence_weights",
    "pair_weights",
    "pair_weight",
    "contrastive_terms",
    "contrastive_loss",
    "discls_terms",
    "lws_equivalence_check",
    "batch_total_loss",
]

PROB_CLAMP = 1e-12
SURROGATES = ("cross-entropy", "sigmoid")


@dataclass(frozen=True)
class LossConfig:
    """Temperatures, balance weight, and surrogate choice."""

    tau: float = 0.12
    tau2: float = 0.4
    beta: float = 1.0
    surrogate: str = "cross-entropy"

    def __post_init__(self):
        if self.tau <= 0 or self.tau2 <= 0:
            raise ValueError("temperatures must be positive")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.surrogate not in SURROGATES:
            raise ValueError(f"surrogate must be one of {SURROGATES}")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _masked_softmax(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise softmax restricted to ``mask``; empty rows come back all-zero."""
    z = np.asarray(z, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    nonempty = mask.any(axis=-1, keepdims=True)
    neg = np.where(mask, z, -np.inf)
    zmax = np.where(nonempty, neg.max(axis=-1, keepdims=True), 0.0)
    e = np.where(mask, np.exp(np.where(mask, z - zmax, 0.0)), 0.0)
    denom = e.sum(axis=-1, keepdims=True)
    return np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)


def sigmoid_surrogate(t: np.ndarray) -> np.ndarray:
    """The non-increasing symmetric binary surrogate psi(t) = sigmoid(-t)."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = np.exp(-t[pos]) / (1.0 + np.exp(-t[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(t[~pos]))
    return out


# ---------------------------------------------------------------------------
# Confidence weights


def confidence_weights(logits_k, candidates) -> np.ndarray:
    """Normalized confidences: softmax within the candidate set for candidate
    labels and within the complement for the rest.

    Takes (n, c) logits and candidate masks (boolean or 0/1 indicators); one
    sample is a batch of one. Each nonempty set's weights sum to exactly one.
    """
    z = np.asarray(logits_k, dtype=np.float64)
    cand = np.asarray(candidates).astype(bool)
    if not cand.any(axis=1).all():
        raise ValueError("every sample needs a nonempty candidate set")
    return _masked_softmax(z, cand) + _masked_softmax(z, ~cand)


def uniform_confidence_weights(candidates) -> np.ndarray:
    """The ablation replacement: 1/|S| inside the set, 1/|complement| outside.

    Takes an (n, c) candidate mask.
    """
    cand = np.asarray(candidates).astype(bool)
    s = cand.sum(axis=1, keepdims=True).astype(np.float64)
    sbar = (~cand).sum(axis=1, keepdims=True).astype(np.float64)
    omega = np.where(cand, 1.0 / s, 0.0)
    omega += np.where(~cand, np.divide(1.0, sbar, out=np.zeros_like(sbar), where=sbar > 0), 0.0)
    return omega


# ---------------------------------------------------------------------------
# Pair weights and contrastive loss


def pair_weights(z_query, bucket_logits, tau2: float) -> np.ndarray:
    """Softmax over a positive bucket of confidence-logit inner products."""
    bucket = np.asarray(bucket_logits, dtype=np.float64)
    if bucket.ndim != 2 or bucket.shape[0] == 0:
        raise ValueError("positive bucket must be a nonempty (k, c) logit set")
    scores = bucket @ np.asarray(z_query, dtype=np.float64) / tau2
    return _softmax(scores)


def pair_weight(z_query, z_pos, bucket_logits, tau2: float) -> float:
    """Weight of one positive inside its bucket (the bucket must contain it)."""
    bucket = np.asarray(bucket_logits, dtype=np.float64)
    z_pos = np.asarray(z_pos, dtype=np.float64)
    matches = np.flatnonzero((bucket == z_pos).all(axis=1))
    if matches.size == 0:
        raise ValueError("z_pos is not a member of the positive bucket")
    return float(pair_weights(z_query, bucket, tau2)[matches[0]])


@dataclass(frozen=True)
class ContrastBatch:
    """Queries plus the key set they score against.

    ``keys`` is the full denominator set (queue contents plus the current
    batch's keys); positives for a query are the keys sharing its guiding
    label, weighted via the confidence logits.
    """

    queries: np.ndarray
    query_labels: np.ndarray
    query_logits: np.ndarray
    keys: np.ndarray
    key_labels: np.ndarray
    key_logits: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=np.float64)
        k = np.asarray(self.keys, dtype=np.float64)
        if k.shape[0] == 0:
            raise ValueError("key set must be nonempty")
        for name, emb in (("queries", q), ("keys", k)):
            norms = np.linalg.norm(emb, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError(f"{name} must be unit-norm embeddings")


@dataclass
class ContrastResult:
    per_query: np.ndarray  # loss per query; 0 where skipped
    d_queries: np.ndarray  # gradient of per_query[i] w.r.t. queries[i]
    active: np.ndarray  # False where a query had no same-label positive
    skipped: int

    @property
    def mean_loss(self) -> float:
        if not self.active.any():
            return 0.0
        return float(self.per_query[self.active].mean())


def contrastive_terms(batch: ContrastBatch, tau: float, tau2: float) -> ContrastResult:
    """Per-query weighted contrastive losses and query-side gradients.

    For query q with guiding label y: loss = -sum over positives p of
    w(q, p) * log softmax_K(q . k_p / tau), where w is the bucket softmax of
    confidence-logit similarities at temperature tau2. Queries without a
    positive are skipped and counted.
    """
    q = np.asarray(batch.queries, dtype=np.float64)
    k = np.asarray(batch.keys, dtype=np.float64)
    m = q.shape[0]
    per_query = np.zeros(m)
    d_queries = np.zeros_like(q)
    active = np.zeros(m, dtype=bool)
    skipped = 0

    sims = q @ k.T / tau  # (m, M)
    log_sm = _log_softmax(sims)
    sm = np.exp(log_sm)

    key_labels = np.asarray(batch.key_labels)
    for i in range(m):
        pos = np.flatnonzero(key_labels == batch.query_labels[i])
        if pos.size == 0:
            skipped += 1
            continue
        active[i] = True
        w = pair_weights(batch.query_logits[i], batch.key_logits[pos], tau2)
        per_query[i] = -float(w @ log_sm[i, pos])
        # d/dq of -sum_p w_p log softmax = (softmax * sum(w) - scatter(w)) @ K / tau
        coeff = sm[i].copy()
        coeff[pos] -= w
        d_queries[i] = coeff @ k / tau
    return ContrastResult(per_query, d_queries, active, skipped)


def contrastive_loss(batch: ContrastBatch, tau: float, tau2: float):
    """Mean loss over active queries plus its gradient w.r.t. the queries."""
    terms = contrastive_terms(batch, tau, tau2)
    n_active = int(terms.active.sum())
    if n_active == 0:
        return 0.0, np.zeros_like(terms.d_queries)
    return terms.mean_loss, terms.d_queries / n_active


# ---------------------------------------------------------------------------
# Disambiguation loss


def discls_terms(logits_q, omega, candidates, surrogate: str = "cross-entropy"):
    """Batched per-sample disambiguation losses and logit gradients.

    Takes (n, c) logits, confidences and candidate masks. Returns (per_sample
    (n,), d_logits (n, c), saturation_count); the count records how often a
    cross-entropy probability had to be clamped away from {0, 1}.
    """
    g = np.asarray(logits_q, dtype=np.float64)
    w = np.asarray(omega, dtype=np.float64)
    s = np.asarray(candidates).astype(np.float64)
    if surrogate == "sigmoid":
        psi_pos = sigmoid_surrogate(g)
        psi_neg = sigmoid_surrogate(-g)
        per = np.sum(w * (s * psi_pos + (1.0 - s) * psi_neg), axis=1)
        # d psi(g)/dg = -psi(g) psi(-g); candidates pull logits up, others down
        d = w * psi_pos * psi_neg * (1.0 - 2.0 * s)
        sat = 0
    elif surrogate == "cross-entropy":
        p = _softmax(g)
        sat = int(np.sum((p <= PROB_CLAMP) | (p >= 1.0 - PROB_CLAMP)))
        pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
        per = np.sum(w * (-s * np.log(pc) - (1.0 - s) * np.log(1.0 - pc)), axis=1)
        a = w * s
        b = w * (1.0 - s) * pc / (1.0 - pc)
        d = p * (a.sum(axis=1, keepdims=True) - b.sum(axis=1, keepdims=True)) - a + b
    else:
        raise ValueError(f"surrogate must be one of {SURROGATES}")
    return per, d, sat


# ---------------------------------------------------------------------------
# Leveraged-weighted equivalence


def lws_equivalence_check(logits, candidates, psi: Callable | None = None,
                          beta: float = 1.0) -> float:
    """Max |direct loss - leveraged form| over the given (n, c) draws.

    The direct side evaluates the per-label surrogate loss; the leveraged side
    is sum_S w psi(g) + beta * sum_outside w (1 - psi(g)), which matches only
    when psi satisfies psi(t) + psi(-t) = 1. Weights are the normalized
    confidences of the same logits.
    """
    if psi is None:
        psi = sigmoid_surrogate
    g = np.asarray(logits, dtype=np.float64)
    s = np.asarray(candidates).astype(np.float64)
    omega = confidence_weights(g, s)
    direct = np.sum(omega * (s * psi(g) + (1.0 - s) * psi(-g)), axis=1)
    lws = np.sum(omega * s * psi(g), axis=1) + beta * np.sum(
        omega * (1.0 - s) * (1.0 - psi(g)), axis=1
    )
    return float(np.max(np.abs(direct - lws)))


# ---------------------------------------------------------------------------
# Combined objective


@dataclass
class TotalLossResult:
    loss: float
    grads: ParamGrads
    discls_part: float
    contrastive_part: float
    skipped_queries: int
    saturations: int
    # the batch's own momentum-side outputs, for the caller's queue push
    aug_keys: np.ndarray | None = None
    aug_key_logits: np.ndarray | None = None
    aug_labels: np.ndarray | None = None


def batch_total_loss(features, candidates, augs, pair, bank=None,
                     config: LossConfig | None = None,
                     uniform_confidence: bool = False) -> TotalLossResult:
    """Mean combined objective over a batch, with query-side gradients.

    ``pair`` provides .query/.key parameter snapshots. ``augs`` is None or an
    (features, owner, labels) triple of augmentations, ``owner`` giving each
    one's row in the batch; ``bank`` is an optional (keys, key_logits,
    key_labels) triple of queue contents. Per sample the objective is the
    disambiguation loss plus beta/|S| times the sum of its augmentations'
    contrastive losses; the divisor stays |S| even when some augmentations
    were discarded. The key set is the queue plus the batch's own keys;
    confidence weights and keys are momentum-side constants.
    """
    config = config or LossConfig()
    query: BackboneParams = pair.query
    key: BackboneParams = pair.key
    x = np.asarray(features, dtype=np.float64)
    cand = np.asarray(candidates).astype(bool)
    bsz = x.shape[0]

    # disambiguation branch on the raw instances
    res_q = forward(query, x)
    res_k = forward(key, x, want_cache=False)
    if uniform_confidence:
        omega = uniform_confidence_weights(cand)
    else:
        omega = confidence_weights(res_k.logits, cand)
    per_d, d_logits, saturations = discls_terms(res_q.logits, omega, cand, config.surrogate)
    grads, _ = backward(query, res_q, d_logits=d_logits / bsz)

    contrast_part = 0.0
    skipped = 0
    aug_keys = aug_key_logits = aug_labels = None
    if config.beta > 0.0 and augs is not None and len(augs[1]):
        ax = np.asarray(augs[0], dtype=np.float64)
        owner = np.asarray(augs[1])
        aug_labels = np.asarray(augs[2])
        if owner.min() < 0 or owner.max() >= bsz:
            raise ValueError("augmentation owner outside the batch")
        res_aq = forward(query, ax)
        res_ak = forward(key, ax, want_cache=False)
        keys = res_ak.embedding
        key_logits = res_ak.logits
        key_labels = aug_labels
        if bank is not None and len(bank[0]):
            keys = np.concatenate([np.asarray(bank[0], dtype=np.float64), keys])
            key_logits = np.concatenate([np.asarray(bank[1], dtype=np.float64), key_logits])
            key_labels = np.concatenate([np.asarray(bank[2]), aug_labels])
        batch_obj = ContrastBatch(
            queries=res_aq.embedding,
            query_labels=aug_labels,
            query_logits=res_ak.logits,
            keys=keys,
            key_labels=key_labels,
            key_logits=key_logits,
        )
        terms = contrastive_terms(batch_obj, config.tau, config.tau2)
        skipped = terms.skipped
        # per-sample scale beta / |S|, batch-mean scale 1/B
        scales = config.beta / np.maximum(cand.sum(axis=1), 1)[owner]
        contrast_part = float(np.sum(terms.per_query * scales)) / bsz
        d_emb = terms.d_queries * (scales / bsz)[:, None]
        aug_grads, _ = backward(query, res_aq, d_embedding=d_emb)
        grads.flat += aug_grads.flat
        aug_keys = res_ak.embedding
        aug_key_logits = res_ak.logits

    discls_part = float(per_d.mean()) if bsz else 0.0
    return TotalLossResult(
        loss=discls_part + contrast_part,
        grads=grads,
        discls_part=discls_part,
        contrastive_part=contrast_part,
        skipped_queries=skipped,
        saturations=saturations,
        aug_keys=aug_keys,
        aug_key_logits=aug_key_logits,
        aug_labels=aug_labels,
    )
