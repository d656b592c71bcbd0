"""In-memory span tracer that wraps pllab's public layer boundaries from outside.

``Tracer.installed()`` replaces the module and class bindings that pllab's own
callers use (for example ``pllab.trainer.batch_total_loss`` or
``ContrastBank.push``) with thin wrappers. Each wrapper records a span
(name, start, end, parent id) and, through an optional hook, counts work done
at that boundary. Leaving the context puts every original binding back, so an
untraced run executes exactly the program's own code.

Self time of a span is its duration minus the durations of its direct child
spans; summing self times over every span therefore adds up to the traced
wall time without double counting.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _forward_rows(tracer, args, kwargs, result):
    logits = result.logits
    tracer.count("numkernel.forward_rows", logits.shape[0] if logits.ndim == 2 else 1)


def _refresh_counts(tracer, args, kwargs, result):
    tracer.count("augment.kept", len(result.samples))
    tracer.count("augment.discards", len(result.discards))


def _discls_counts(tracer, args, kwargs, result):
    tracer.count("losses.saturations", result[2])


def _contrastive_counts(tracer, args, kwargs, result):
    batch = args[0] if args else kwargs["batch"]
    tracer.count("losses.queries", batch.queries.shape[0])
    tracer.count("losses.keys", batch.keys.shape[0])
    tracer.count("losses.skipped_queries", result.skipped)
    tracer.count("losses.active_queries", int(result.active.sum()))


def _bank_fill(tracer, args, kwargs, result):
    tracer.counts["trainer.bank_fill"] = len(args[0])


def _selected_pairs(tracer, args, kwargs, result):
    tracer.count("entangle.pairs", len(result[0]))


# (module, attribute path inside it, span name, counting hook). Functions that
# pllab imports by name are wrapped in every importing module, because the
# caller looks the name up in its own globals.
BINDINGS = (
    ("pllab.data", "gen_entangled_gaussians", "data.gen", None),
    ("pllab.data", "train_annotator", "data.annotator", None),
    ("pllab.data", "synthesize_dataset", "data.synth", None),
    ("pllab.trainer", "train", "trainer.train", None),
    ("pllab.trainer", "refresh_augmentations", "augment.refresh", _refresh_counts),
    ("pllab.augment", "class_activation_mask", "augment.mask", None),
    ("pllab.augment", "apply_blur_mix", "augment.blur", None),
    ("pllab.trainer", "batch_total_loss", "losses.batch_total", None),
    ("pllab.losses", "discls_terms", "losses.discls", _discls_counts),
    ("pllab.losses", "contrastive_terms", "losses.contrastive", _contrastive_counts),
    ("pllab.trainer", "momentum_update", "trainer.ema", None),
    ("pllab.trainer", "ContrastBank.push", "trainer.bank_push", _bank_fill),
    ("pllab.trainer", "ContrastBank.as_arrays", "trainer.bank_read", None),
    ("pllab.trainer", "predict", "evalkit.epoch_eval", None),
    ("pllab.evalkit", "full_report", "evalkit.full_report", None),
    ("pllab.evalkit", "predict", "evalkit.predict", None),
    ("pllab.evalkit", "embed", "evalkit.embed", None),
    ("pllab.evalkit", "class_distances", "evalkit.class_distances", None),
    ("pllab.evalkit", "label_overlap", "evalkit.label_overlap", None),
    ("pllab.evalkit", "entangled_metrics", "evalkit.entangled_metrics", None),
    ("pllab.entangle", "top_fraction_pairs", "entangle.find", _selected_pairs),
    ("pllab.entangle", "find_entangled", "entangle.find", None),
    ("pllab.numkernel", "forward", "numkernel.forward", _forward_rows),
    ("pllab.data", "forward", "numkernel.forward", _forward_rows),
    ("pllab.augment", "forward", "numkernel.forward", _forward_rows),
    ("pllab.losses", "forward", "numkernel.forward", _forward_rows),
    ("pllab.evalkit", "forward", "numkernel.forward", _forward_rows),
    ("pllab.numkernel", "backward", "numkernel.backward", None),
    ("pllab.data", "backward", "numkernel.backward", None),
    ("pllab.augment", "backward", "numkernel.backward", None),
    ("pllab.losses", "backward", "numkernel.backward", None),
    ("pllab.numkernel", "BackboneParams.flatten", "numkernel.flatten", None),
    ("pllab.numkernel", "ParamGrads.flatten", "numkernel.flatten", None),
    ("pllab.numkernel", "BackboneParams.with_flat", "numkernel.flatten", None),
)


def _resolve(module_name, attr_path):
    """(owner object, attribute name) for ``module:attr_path``."""
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans as parallel lists: name, start, end, parent index (-1 for roots)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} ended while span {popped} was open")

    def count(self, name: str, value=1) -> None:
        self.counts[name] += value

    def wrap(self, fn, name, hook=None):
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap each binding for a traced wrapper; restore them all on exit."""
        saved = []
        try:
            for module_name, attr_path, name, hook in BINDINGS:
                owner, attr = _resolve(module_name, attr_path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        children = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(sid)
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        duration = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, name in enumerate(self.names):
            calls[name] += 1
            inclusive[name] += duration[sid]
            own[name] += duration[sid] - sum(duration[c] for c in children[sid])
        return calls, dict(inclusive), dict(own)


def layer_metrics(tracer: Tracer, outcome) -> dict:
    """Per-layer metrics of one traced experiment: name -> (value, unit).

    ``*_s`` are self times and ``*_incl_s`` inclusive times, summed over the
    layer's spans and scaled to the reference host speed like the
    experiment's own times; the rest are call and row counts.
    """
    calls, inclusive, own = tracer.summary()
    s = lambda name: (own.get(name, 0.0) / outcome.speed, "s")
    incl = lambda name: (inclusive.get(name, 0.0) / outcome.speed, "s")
    n = lambda name: (calls[name], "count")
    return {
        "data.gen_s": s("data.gen"),
        "data.annotator_s": s("data.annotator"),
        "data.annotator_incl_s": incl("data.annotator"),
        "data.synth_s": s("data.synth"),
        "augment.refresh_s": s("augment.refresh"),
        "augment.refresh_incl_s": incl("augment.refresh"),
        "augment.refresh_calls": n("augment.refresh"),
        "augment.mask_s": s("augment.mask"),
        "augment.mask_calls": n("augment.mask"),
        "augment.blur_s": s("augment.blur"),
        "losses.batch_total_s": s("losses.batch_total"),
        "losses.batch_total_incl_s": incl("losses.batch_total"),
        "losses.batch_calls": n("losses.batch_total"),
        "losses.discls_s": s("losses.discls"),
        "losses.contrastive_s": s("losses.contrastive"),
        "losses.contrastive_calls": n("losses.contrastive"),
        "numkernel.forward_s": s("numkernel.forward"),
        "numkernel.forward_calls": n("numkernel.forward"),
        "numkernel.forward_rows": (tracer.counts["numkernel.forward_rows"], "rows"),
        "numkernel.backward_s": s("numkernel.backward"),
        "numkernel.backward_calls": n("numkernel.backward"),
        "numkernel.flatten_s": s("numkernel.flatten"),
        "numkernel.flatten_calls": n("numkernel.flatten"),
        "trainer.self_s": s("trainer.train"),
        "trainer.train_incl_s": incl("trainer.train"),
        "trainer.ema_s": s("trainer.ema"),
        "trainer.bank_push_s": s("trainer.bank_push"),
        "trainer.bank_push_calls": n("trainer.bank_push"),
        "trainer.bank_read_s": s("trainer.bank_read"),
        "trainer.bank_read_calls": n("trainer.bank_read"),
        "evalkit.epoch_eval_s": s("evalkit.epoch_eval"),
        "evalkit.epoch_eval_incl_s": incl("evalkit.epoch_eval"),
        "evalkit.full_report_s": s("evalkit.full_report"),
        "evalkit.full_report_incl_s": incl("evalkit.full_report"),
        "evalkit.predict_s": s("evalkit.predict"),
        "evalkit.embed_s": s("evalkit.embed"),
        "evalkit.class_distances_s": s("evalkit.class_distances"),
        "evalkit.label_overlap_s": s("evalkit.label_overlap"),
        "evalkit.entangled_metrics_s": s("evalkit.entangled_metrics"),
        "entangle.find_s": s("entangle.find"),
        "entangle.find_calls": n("entangle.find"),
        "trace.spans": (len(tracer.names), "count"),
    }


def traffic(tracer: Tracer) -> dict:
    """Properties of the work a traced experiment handed to each layer.

    They describe the inputs, not how fast a layer handles them, so no
    direction is better and they are printed rather than reported as metrics.
    """
    calls, c = tracer.summary()[0], tracer.counts
    per = lambda num, den: num / den if den else 0.0
    kept, discards = c["augment.kept"], c["augment.discards"]
    refreshes = calls["augment.refresh"]
    return {
        "augment.kept": kept,
        "augment.discards": discards,
        "augment.kept_per_refresh": per(kept, refreshes),
        "augment.discards_per_refresh": per(discards, refreshes),
        "augment.kept_ratio": per(kept, kept + discards),
        "losses.saturations": c["losses.saturations"],
        "losses.queries": c["losses.queries"],
        "losses.keys_per_batch": per(c["losses.keys"], calls["losses.contrastive"]),
        "losses.skipped_queries": c["losses.skipped_queries"],
        "losses.active_ratio": per(c["losses.active_queries"], c["losses.queries"]),
        "trainer.bank_fill": c["trainer.bank_fill"],
        "entangle.pairs": c["entangle.pairs"],
    }
