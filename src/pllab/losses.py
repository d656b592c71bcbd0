"""Training objectives: weighted contrastive alignment plus disambiguation.

The contrastive side aligns same-guide augmentations: each query embedding is
scored against every key via a temperature-scaled softmax, and each positive's
log-score is weighted by a second softmax over the positive bucket's
confidence-logit similarities. Gradients flow to the query embeddings only;
keys and confidence logits come from the momentum side and are treated as
constants. Positives are exactly the keys that share a query's guiding label,
so the terms are computed per label group rather than per query: one softmax
over the whole (queries x keys) block, plus one small pair-weight block per
label; queries and keys are sorted by label once, so each label's rows and
positives are slices. The block is the kernel's only large array and is
read six times: two gemms, the row max, its shift, the exp and the row sum.
The temperature scales the queries before the first gemm, and the
softmax's denominator divides the second gemm's (queries x width) result.
The row-max shift stays because a fixed shift underflows every exp of a
row at small temperatures. The closed-form loss is floored at zero, which
only absorbs rounding where a query's sole key is its positive.

The disambiguation side weights a per-label cross-entropy by confidences
normalized separately inside the candidate set and its complement, so each
set contributes total weight one regardless of its size. The set and its
complement partition each row, so one exp, shifted by each entry's own set
maximum, serves both softmaxes. The "w/o CA" ablation's uniform weights are
the confidences of constant logits. The per-label loss works in
log-probability space and takes one log per entry: of p for candidates, of
1 - p for the rest. These helpers take (n, c) batches only; one sample is a
batch of one, and an input of another shape raises ValueError rather than
being broadcast over the batch.

Both helpers run once per SGD step on blocks of a few hundred entries, where
numpy's fixed cost per array call outweighs the arithmetic. So they keep the
calls few: a bool mask is read without a copy, the complement's sum comes
from the exact difference of the exps and their in-set part, the clamp is a
plain maximum and minimum, and temporaries are updated in place. The
operations and their order are those of the plainer forms, so every loss,
gradient and saturation count is bit for bit the same; the tests keep those
forms as oracles.

The combined objective adds the scaled contrastive terms of a sample's
augmentations to its disambiguation loss, dividing by the full candidate-set
size even when some augmentations were discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import BackboneParams, ParamGrads, backward, forward

__all__ = [
    "LossConfig",
    "ContrastBatch",
    "ContrastResult",
    "TotalLossResult",
    "confidence_weights",
    "pair_weights",
    "contrastive_terms",
    "discls_terms",
    "batch_total_loss",
]

PROB_CLAMP = 1e-12


def _check_temperature(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class LossConfig:
    """Temperatures and the contrastive balance weight."""

    tau: float = 0.12
    tau2: float = 0.4
    beta: float = 1.0

    def __post_init__(self):
        _check_temperature("tau", self.tau)
        _check_temperature("tau2", self.tau2)
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be nonnegative and finite")


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_batch(first, *rest) -> None:
    """Raise ValueError naming the argument unless every (name, array) pair is
    2-D with the shape of the first; the check compares shape tuples only."""
    name, a = first
    if a.ndim != 2:
        raise ValueError(f"{name} must be an (n, c) batch, got shape {a.shape}")
    for other, b in rest:
        if b.shape != a.shape:
            raise ValueError(f"{other} of shape {b.shape} does not match "
                             f"{name} of shape {a.shape}")


# ---------------------------------------------------------------------------
# Confidence weights


def confidence_weights(logits_k, candidates) -> np.ndarray:
    """Normalized confidences: softmax within the candidate set for candidate
    labels and within the complement for the rest.

    Takes (n, c) logits and candidate masks (boolean or 0/1 indicators) of
    one shape; one sample is a batch of one. Each nonempty set's weights sum
    to exactly one.
    Constant logits give the uniform weights 1/|S| inside the set and
    1/|complement| outside it, exactly: each entry's exp is one and each
    sum counts ones.
    """
    z = np.asarray(logits_k, dtype=np.float64)
    cand = np.asarray(candidates, dtype=bool)  # no copy of a bool mask
    _check_batch(("logits_k", z), ("candidates", cand))
    if not cand.any(axis=1).all():
        raise ValueError("every sample needs a nonempty candidate set")
    # one exp, each entry shifted by its own set's maximum; a set's sum runs
    # over the row with zeros outside the set
    in_max = np.where(cand, z, -np.inf).max(axis=1, keepdims=True)
    out_max = np.where(cand, -np.inf, z).max(axis=1, keepdims=True)
    e = z - np.where(cand, in_max, out_max)
    np.exp(e, out=e)
    e_in = np.where(cand, e, 0.0)
    in_sum = e_in.sum(axis=1, keepdims=True)
    # e - e_in is exact: zeros in the set, the complement's entries outside it
    out_sum = (e - e_in).sum(axis=1, keepdims=True)
    e /= np.where(cand, in_sum, out_sum)
    return e


# ---------------------------------------------------------------------------
# Pair weights and contrastive loss


def pair_weights(z_query, bucket_logits, tau2: float) -> np.ndarray:
    """Softmax over a positive bucket of confidence-logit inner products.

    ``z_query`` is an (m, c) block of query logits; one query is a block of
    one. Each row's weights run over the (k, c) bucket, shape (m, k).
    ``tau2`` must be positive and finite, as in LossConfig.
    """
    _check_temperature("tau2", tau2)
    bucket = np.asarray(bucket_logits, dtype=np.float64)
    z = np.asarray(z_query, dtype=np.float64)
    if bucket.ndim != 2 or bucket.shape[0] == 0:
        raise ValueError("positive bucket must be a nonempty (k, c) logit set")
    if z.ndim != 2 or z.shape[1] != bucket.shape[1]:
        raise ValueError("query logits must be (m, c) with the bucket's width")
    return _softmax(z @ bucket.T / tau2)


def _check_contrast_rows(side: str, emb: np.ndarray, labels, logits) -> int:
    """Raise ValueError unless the 2-D float64 ``emb`` has unit-norm rows, with
    one nonnegative integer label and one 2-D logit row per row; return the
    logits' width. ContrastBatch checks its query and key sides with it, and
    ContrastBank.push the rows it stores, which later batches read as keys."""
    labels = np.asarray(labels)
    if labels.shape != emb.shape[:1]:
        raise ValueError(f"{side}_labels must be 1-D, one per {side}")
    if labels.size and not (np.issubdtype(labels.dtype, np.integer) and labels.min() >= 0):
        raise ValueError(f"{side}_labels must be nonnegative integers")
    if np.ndim(logits) != 2 or np.shape(logits)[0] != emb.shape[0]:
        raise ValueError(f"{side}_logits must be 2-D, one row per {side}")
    # written so that a NaN norm fails too
    if not np.all(np.abs(np.sqrt(np.einsum("ij,ij->i", emb, emb)) - 1.0) <= 1e-6):
        raise ValueError(f"{side} embeddings must be unit-norm")
    return np.shape(logits)[1]


@dataclass(frozen=True)
class ContrastBatch:
    """Queries plus the key set they score against.

    ``keys`` is the full denominator set (queue contents plus the current
    batch's keys); positives for a query are the keys sharing its guiding
    label, weighted via the confidence logits. Embeddings are unit-norm
    (m, e) and (M, e) rows, labels are 1-D nonnegative integers aligned with
    them, and the logits are (m, c) and (M, c).
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
        if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
            raise ValueError("queries and keys must be 2-D embeddings of one width")
        if k.shape[0] == 0:
            raise ValueError("key set must be nonempty")
        widths = {_check_contrast_rows("query", q, self.query_labels, self.query_logits),
                  _check_contrast_rows("key", k, self.key_labels, self.key_logits)}
        if len(widths) != 1:
            raise ValueError("query_logits and key_logits must have the same width")


@dataclass
class ContrastResult:
    per_query: np.ndarray  # loss per query; 0 where skipped
    d_queries: np.ndarray  # gradient of per_query[i] w.r.t. queries[i]
    active: np.ndarray  # False where a query had no same-label positive
    skipped: int


def contrastive_terms(batch: ContrastBatch, tau: float, tau2: float) -> ContrastResult:
    """Per-query weighted contrastive losses and query-side gradients.

    For query q with guiding label y: loss = -sum over positives p of
    w(q, p) * log softmax_K(q . k_p / tau), where w is the bucket softmax of
    confidence-logit similarities at temperature tau2. Queries without a
    positive are skipped and counted, and get zero loss and gradient.

    Because each row of w sums to one, loss = lse - q . wk / tau and
    gradient = (softmax @ keys - wk) / tau, where wk mixes a query's
    positive keys by w. The loss form cancels to a few ulps below zero when
    a query's only key is its positive, so it is floored at zero, which the
    true loss never goes below.

    The (m, M) score block is the one large array, and it makes six passes:
    the gemm ``(q / tau) @ keys.T`` (1/tau scales the (m, e) queries), the
    row max, the shift by it, the exp, the row sum, and the gemm ``e @ keys``.
    The softmax's denominator divides the (m, e) product, not the block.
    The shift stays a per-row max: a fixed shift by the largest possible
    score 1/tau would push every exp of a row below the smallest double
    once 2/tau exceeds about 745. Per guiding label, one (m_l, M_l)
    pair-weight block combines that label's keys into ``wk``; queries and
    keys are sorted stably by label once, so both sides of a label are
    slices. Both temperatures must be positive and finite, as in LossConfig.
    """
    _check_temperature("tau", tau)
    _check_temperature("tau2", tau2)
    q = np.asarray(batch.queries, dtype=np.float64)
    k = np.asarray(batch.keys, dtype=np.float64)
    query_labels = np.asarray(batch.query_labels, dtype=np.int64)
    key_labels = np.asarray(batch.key_labels, dtype=np.int64)
    query_logits = np.asarray(batch.query_logits, dtype=np.float64)
    key_logits = np.asarray(batch.key_logits, dtype=np.float64)

    e = (q / tau) @ k.T  # the (m, M) block, shifted and exponentiated in place
    zmax = e.max(axis=1)
    e -= zmax[:, None]
    np.exp(e, out=e)
    denom = e.sum(axis=1)
    lse = zmax + np.log(denom)
    d_queries = e @ k
    d_queries /= denom[:, None]  # softmax-weighted keys: e @ k / denom

    # queries and keys sorted stably by label, so each label's rows and its
    # positives are slices in their original order
    labels = max(query_labels.max(initial=-1), key_labels.max()) + 1
    query_counts = np.bincount(query_labels, minlength=labels)
    key_counts = np.bincount(key_labels, minlength=labels)
    query_starts = np.concatenate(([0], np.cumsum(query_counts)))
    key_starts = np.concatenate(([0], np.cumsum(key_counts)))
    query_order = np.argsort(query_labels, kind="stable")
    key_order = np.argsort(key_labels, kind="stable")
    query_logits_sorted = query_logits[query_order]
    k_sorted, key_logits_sorted = k[key_order], key_logits[key_order]
    active = key_counts[query_labels] > 0
    wk_sorted = np.zeros_like(q)  # per query, its positives' keys mixed by w
    for label in np.flatnonzero((query_counts > 0) & (key_counts > 0)):
        rows = slice(query_starts[label], query_starts[label + 1])
        pos = slice(key_starts[label], key_starts[label + 1])
        wk_sorted[rows] = pair_weights(query_logits_sorted[rows], key_logits_sorted[pos],
                                       tau2) @ k_sorted[pos]
    wk = np.empty_like(q)
    wk[query_order] = wk_sorted

    per_query = np.maximum(lse - np.einsum("ij,ij->i", q, wk) / tau, 0.0)
    per_query[~active] = 0.0
    d_queries -= wk
    d_queries /= tau
    d_queries[~active] = 0.0
    return ContrastResult(per_query, d_queries, active, int(np.count_nonzero(~active)))


# ---------------------------------------------------------------------------
# Disambiguation loss


def discls_terms(logits_q, omega, candidates):
    """Batched per-sample disambiguation losses and logit gradients.

    Takes (n, c) logits, confidences and candidate masks of one shape. The
    per-label loss is -log p for candidates and -log(1 - p) for the rest,
    weighted by the confidences. Returns (per_sample (n,), d_logits (n, c),
    saturation_count); the count records how often a probability had to be
    clamped away from {0, 1}.
    """
    g = np.asarray(logits_q, dtype=np.float64)
    w = np.asarray(omega, dtype=np.float64)
    s = np.asarray(candidates, dtype=bool)
    _check_batch(("logits_q", g), ("omega", w), ("candidates", s))
    p = _softmax(g)
    sat = int(np.count_nonzero((p <= PROB_CLAMP) | (p >= 1.0 - PROB_CLAMP)))
    pc = np.minimum(np.maximum(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    qc = 1.0 - pc
    nll = np.where(s, pc, qc)  # -log of it, times w, is the per-label loss
    np.log(nll, out=nll)
    np.negative(nll, out=nll)
    nll *= w
    per = nll.sum(axis=1)
    # a = w s and b = w (1 - s) pc / qc, with the bool mask read as 0/1
    a = w * s
    b = w * ~s
    b *= pc
    b /= qc
    d = p  # p * (sum a - sum b) - a + b, in p's buffer
    d *= a.sum(axis=1, keepdims=True) - b.sum(axis=1, keepdims=True)
    d -= a
    d += b
    return per, d, sat


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
    # the batch's own momentum-side (keys, logits, labels), in ContrastBank.push
    # order, or None when the batch ran no contrastive term
    bank_rows: tuple | None = None


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
    ``uniform_confidence`` (the "w/o CA" ablation) takes the confidences of
    constant logits, so the key side skips the raw instances. Raises
    ValueError unless ``candidates`` is (batch, classes) and ``owner`` and
    the labels are 1-D with one entry per augmentation row, owners integers
    inside the batch.
    """
    config = config or LossConfig()
    query: BackboneParams = pair.query
    key: BackboneParams = pair.key
    x = np.asarray(features, dtype=np.float64)
    cand = np.asarray(candidates, dtype=bool)
    bsz = x.shape[0]
    if cand.shape != (bsz, query.config.num_classes):
        raise ValueError(f"candidates of shape {cand.shape} are not "
                         f"{(bsz, query.config.num_classes)} for this batch")
    if augs is not None:
        ax = np.asarray(augs[0], dtype=np.float64)
        owner = np.asarray(augs[1])
        if owner.size and not np.issubdtype(owner.dtype, np.integer):
            raise ValueError(f"augmentation owner must be integers, got dtype {owner.dtype}")
        if owner.ndim != 1 or owner.shape != ax.shape[:1]:
            raise ValueError(f"augmentation owner of shape {owner.shape} is not "
                             f"one entry per augmentation row ({ax.shape[:1]})")
        if np.shape(augs[2]) != owner.shape:
            raise ValueError(f"augmentation labels of shape {np.shape(augs[2])} are not "
                             f"one per augmentation row ({owner.shape})")
        if len(owner) and (owner.min() < 0 or owner.max() >= bsz):
            raise ValueError("augmentation owner outside the batch")

    # disambiguation branch on the raw instances
    res_q = forward(query, x)
    conf_logits = np.zeros(cand.shape) if uniform_confidence else forward(key, x).logits
    omega = confidence_weights(conf_logits, cand)
    per_d, d_logits, saturations = discls_terms(res_q.logits, omega, cand)
    d_logits /= bsz
    grads, _ = backward(res_q, d_logits=d_logits)
    del res_q  # frees the raw pass's activations before the augmentation passes

    contrast_part = 0.0
    skipped = 0
    bank_rows = None
    if config.beta > 0.0 and augs is not None and len(owner):
        aug_labels = np.asarray(augs[2])
        res_aq = forward(query, ax)
        res_ak = forward(key, ax)
        bank_rows = (res_ak.embedding, res_ak.logits, aug_labels)
        del res_ak  # keeps the key pass's outputs, frees its activations
        keys, key_logits, key_labels = bank_rows
        if bank is not None and len(bank[0]):
            keys = np.concatenate([np.asarray(bank[0], dtype=np.float64), keys])
            key_logits = np.concatenate([np.asarray(bank[1], dtype=np.float64), key_logits])
            key_labels = np.concatenate([np.asarray(bank[2]), aug_labels])
        batch_obj = ContrastBatch(
            queries=res_aq.embedding,
            query_labels=aug_labels,
            query_logits=bank_rows[1],
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
        aug_grads, _ = backward(res_aq, d_embedding=d_emb)
        grads.flat += aug_grads.flat

    discls_part = float(per_d.sum() / bsz) if bsz else 0.0  # per_d.mean(), bit for bit
    return TotalLossResult(
        loss=discls_part + contrast_part,
        grads=grads,
        discls_part=discls_part,
        contrastive_part=contrast_part,
        skipped_queries=skipped,
        saturations=saturations,
        bank_rows=bank_rows,
    )
