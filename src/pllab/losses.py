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

A CAD step builds its key set once, the FIFO bank's rows followed by the
batch's own key rows in one concatenation per array, and the bank then keeps
the newest rows of it as read-only views. Each row is checked once, where it
enters: ``ContrastBank.push`` checks the rows a caller stores, and
``batch_total_loss`` the augmentation labels, beside ``forward``'s unit-norm
embeddings. So the step's ContrastBatch skips the public constructor's checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``forward`` is unused here; the benchmark's span bindings name pllab.losses.forward
from .numkernel import (ParamGrads, _array, _indices, _integer, _real, _softmax, backward,
                         forward, forward_stack)

__all__ = [
    "LossConfig",
    "ContrastBatch",
    "ContrastBank",
    "ContrastResult",
    "TotalLossResult",
    "confidence_weights",
    "pair_weights",
    "contrastive_terms",
    "discls_terms",
    "batch_total_loss",
]

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """Temperatures and the contrastive balance weight."""

    tau: float = 0.12
    tau2: float = 0.4
    beta: float = 1.0

    def __post_init__(self):
        _real("tau", self.tau, 0.0, open_low=True)
        _real("tau2", self.tau2, 0.0, open_low=True)
        _real("beta", self.beta, 0.0)


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
    z = _array("logits_k", logits_k, (None, None))
    cand = _array("candidates", candidates, z.shape, bool)  # no copy of a bool mask
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
    _real("tau2", tau2, 0.0, open_low=True)
    bucket = _array("bucket_logits", bucket_logits, (None, None))
    if not len(bucket):
        raise ValueError("positive bucket must be nonempty")
    z = _array("z_query", z_query, (None, bucket.shape[1]))
    return _softmax(z @ bucket.T / tau2)


def _check_contrast_rows(side: str, emb: np.ndarray, labels, logits, width=None):
    """(labels, logits) as int64 and float64 arrays; ValueError unless the 2-D
    float64 ``emb`` has unit-norm rows, with one nonnegative integer label and
    one logit row, of ``width`` entries when it is given, per row.
    ContrastBatch checks its query and key sides with it, and ContrastBank.push
    the rows it stores, which later batches read as keys."""
    labels = _indices(labels, name=f"{side}_labels", shape=emb.shape[:1])
    logits = _array(f"{side}_logits", logits, (len(emb), width))
    # written so that a NaN norm fails too
    if not np.all(np.abs(np.sqrt(np.einsum("ij,ij->i", emb, emb)) - 1.0) <= 1e-6):
        raise ValueError(f"{side} embeddings must be unit-norm")
    return labels, logits


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
        q = _array("queries", self.queries, (None, None))
        k = _array("keys", self.keys, (None, q.shape[1]))
        if not len(k):
            raise ValueError("key set must be nonempty")
        _, logits = _check_contrast_rows("query", q, self.query_labels, self.query_logits)
        _check_contrast_rows("key", k, self.key_labels, self.key_logits, logits.shape[1])

    @classmethod
    def _unchecked(cls, **fields) -> "ContrastBatch":
        """A batch of rows checked where they entered; skips ``__post_init__``."""
        batch = object.__new__(cls)
        batch.__dict__.update(fields)
        return batch


class ContrastBank:
    """Fixed-capacity FIFO of (key embedding, confidence logits, label) rows.

    The contents are one (keys, logits, labels) triple of read-only arrays,
    oldest row first, so the key and confidence sides stay index-aligned by
    construction. A push checks its rows, drops the oldest rows it evicts and
    appends its own, keeping the newest ``capacity`` in new arrays. Training
    does not push: ``batch_total_loss`` builds each step's key set, the held
    rows followed by the batch's, in arrays of its own, and the bank keeps
    the newest ``capacity`` rows of it as views. Neither path writes an array
    it stored, so a triple returned earlier never changes.
    """

    def __init__(self, capacity: int):
        self.capacity = _integer("capacity", capacity, low=1)
        self._arrays = None

    def __len__(self) -> int:
        return 0 if self._arrays is None else len(self._arrays[2])

    def push(self, keys, logits, labels) -> None:
        """Append rows; ValueError unless they are rows a ContrastBatch accepts
        as keys (unit-norm, one logit row and one nonnegative integer label
        each) of the stored rows' widths."""
        key_width, logit_width = (None, None) if self._arrays is None else (
            self._arrays[0].shape[1], self._arrays[1].shape[1])
        keys = _array("keys", keys, (None, key_width))
        labels, logits = _check_contrast_rows("key", keys, labels, logits, logit_width)
        if len(keys) == 0:
            return
        old = self._arrays or (keys[:0], logits[:0], np.empty(0, dtype=np.int64))
        drop = len(self) + len(keys) - self.capacity  # oldest rows this push evicts
        self._keep_newest(*(np.concatenate([a[max(drop, 0):], b])
                            for a, b in zip(old, (keys, logits, labels))))

    def _keep_newest(self, keys, logits, labels) -> None:
        """Hold the newest ``capacity`` rows of arrays no caller writes, unchecked."""
        self._arrays = tuple(a[-self.capacity :] for a in (keys, logits, labels))
        for a in self._arrays:
            a.flags.writeable = False

    def as_arrays(self):
        """(keys, logits, labels) triple in FIFO order, or None when empty."""
        return self._arrays


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
    _real("tau", tau, 0.0, open_low=True)
    _real("tau2", tau2, 0.0, open_low=True)
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
        wk_sorted[rows] = _softmax(query_logits_sorted[rows] @ key_logits_sorted[pos].T
                                   / tau2) @ k_sorted[pos]  # pair_weights, unchecked
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
    g = _array("logits_q", logits_q, (None, None))
    w = _array("omega", omega, g.shape)
    s = _array("candidates", candidates, g.shape, bool)
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
    # the step's (keys, logits, labels): the bank's rows, then the batch's own
    # momentum-side rows; None when the batch ran no contrastive term
    key_set: tuple | None = None


def batch_total_loss(features, candidates, augs, pair, bank: ContrastBank | None = None,
                     config: LossConfig | None = None,
                     uniform_confidence: bool = False,
                     out: ParamGrads | None = None) -> TotalLossResult:
    """Mean combined objective over a batch, with query-side gradients.

    ``pair`` is a ModelPair: its query and key models are the rows of one
    (2, P) stack, ``pair.stacked``. ``augs`` is None or an
    (features, owner, labels) triple of augmentations, ``owner`` giving each
    one's row in the batch; ``bank`` is an optional ContrastBank of queue
    contents. Per sample the objective is the disambiguation loss plus
    beta/|S| times the sum of its augmentations' contrastive losses; the
    divisor stays |S| even when some augmentations were discarded. The key
    set is the queue's rows followed by the batch's own keys, returned as
    ``key_set`` in new arrays even when the queue is empty, so that a bank
    may keep them; confidence weights and keys are momentum-side constants.
    ``uniform_confidence`` (the "w/o CA" ablation) takes the confidences of
    constant logits, so the key side skips the raw instances and the query
    runs alone (``pair.query.stack``); otherwise one ``forward_stack`` of the
    pair's stack runs both models on them, and another runs both on the
    augmentation rows. The gradients are written to ``out`` (see
    ``backward``), which is then ``grads``; a fresh buffer is allocated when
    it is None. Raises ValueError unless ``candidates`` is (batch, classes)
    and ``owner`` and the labels are 1-D with one entry per augmentation row,
    owners integers inside the batch and labels nonnegative integers, whether
    or not beta > 0.
    """
    config = config or LossConfig()
    stack = pair.stacked
    x = np.asarray(features, dtype=np.float64)
    bsz = x.shape[0]
    cand = _array("candidates", candidates, (bsz, stack.config.num_classes), bool)
    if augs is not None:
        ax = np.asarray(augs[0], dtype=np.float64)
        owner = _indices(augs[1], bsz, "augmentation owner", shape=ax.shape[:1])
        aug_labels = _indices(augs[2], name="augmentation labels", shape=ax.shape[:1])

    # disambiguation branch on the raw instances
    if uniform_confidence:
        res_q, = forward_stack(pair.query.stack, x)
        omega = confidence_weights(np.zeros(cand.shape), cand)
    else:
        res_q, res_k = forward_stack(stack, x)
        omega = confidence_weights(res_k.logits, cand)
        del res_k
    per_d, d_logits, saturations = discls_terms(res_q.logits, omega, cand)
    d_logits /= bsz
    grads, _ = backward(res_q, d_logits=d_logits, out=out)
    del res_q  # frees the raw pass's activations before the augmentation pass

    contrast_part = 0.0
    skipped = 0
    key_set = None
    if config.beta > 0.0 and augs is not None and len(owner):
        res_aq, res_ak = forward_stack(stack, ax)
        rows = (res_ak.embedding, res_ak.logits, aug_labels)
        del res_ak  # keeps the key pass's outputs; on grids, frees its conv maps
        held = (bank.as_arrays() if bank is not None else None) or [a[:0] for a in rows]
        key_set = tuple(np.concatenate([a, b]) for a, b in zip(held, rows))
        batch_obj = ContrastBatch._unchecked(
            queries=res_aq.embedding, query_labels=aug_labels, query_logits=rows[1],
            keys=key_set[0], key_labels=key_set[2], key_logits=key_set[1])
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
        key_set=key_set,
    )
