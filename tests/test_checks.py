"""Argument checks shared by every module.

``numkernel._integer`` decides what an integer argument is and its lower
bound, ``numkernel._real`` what a float argument is and its range,
``numkernel._indices`` what an index array is, and ``numkernel._array`` what
a float array argument is; each module calls them with its own error type.
An index array has an integer dtype (an empty one of any dtype passes), the
shape its call gives, a ``None`` extent matching any, and entries of at least
0 (unless the call opts out with ``low=None``) and below the call's bound
``n``, if it has one. A float array has the shape its call gives and, where
the call asks, finite entries. A shape error reads ``<name> must have shape
(<spec>), got <shape>``, with ``*`` for a free extent.

The tables below pass every public integer and float argument values it must
reject: a bool, which Python and numpy both take as 0 or 1, a value past each
finite end and, for floats, a string, None and the non-finite values. The
index table passes every public index-array argument a bool array, a float
array, a negative entry, a wrong shape and, where the call has a bound, an
entry at the bound. The guard keeps the decisions in numkernel.
"""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from pllab.augment import (AugmentConfig, apply_blur_mix, class_activation_mask,
                           refresh_augmentations)
from pllab.data import (AnnotatorPosterior, ParameterError, PLLDataset, ValidationError,
                        entangled_cluster_spec, gen_entangled_gaussians, synthesize_candidates,
                        synthesize_dataset, train_annotator)
from pllab.entangle import find_entangled, top_fraction_pairs
from pllab.evalkit import class_distances, confusion_matrix, entangled_metrics, recovered_rate
from pllab.losses import (ContrastBatch, LossConfig, batch_total_loss, contrastive_terms,
                          pair_weights)
from pllab.numkernel import (DimensionError, EncoderConfig, _real, check_gradients, forward,
                             forward_stack, init_params)
from pllab.trainer import ContrastBank, ModelPair, TrainConfig

SPEC = entangled_cluster_spec(4, 4)
CLEAN = gen_entangled_gaussians(SPEC, 8, seed=0)
UNIFORM = AnnotatorPosterior(np.full((8, 4), 0.25))
PARAMS = init_params(EncoderConfig((3,), 2), seed=0)
BATCH = ContrastBatch(queries=[[1.0, 0.0]], query_labels=[0], query_logits=[[0.0, 1.0]],
                      keys=[[0.0, 1.0]], key_labels=[0], key_logits=[[1.0, 0.0]])
PAIR = ModelPair(PARAMS, PARAMS)
AUGS = refresh_augmentations(CLEAN, init_params(EncoderConfig((4,), 4), seed=0))


def _zero_loss(params):
    return 0.0, np.zeros(params.flat.size)


# (call taking the value, the module's own error type, the field it names,
# the smallest value it takes, or None when only its type is checked)
INTEGER_ARGUMENTS = [
    (lambda v: gen_entangled_gaussians(SPEC, v), ParameterError, "n", 0),
    (lambda v: gen_entangled_gaussians(SPEC, 8, seed=v), ParameterError, "seed", 0),
    (lambda v: train_annotator(CLEAN, v), ParameterError, "epochs", 0),
    (lambda v: train_annotator(CLEAN, 1, seed=v), ParameterError, "seed", 0),
    (lambda v: synthesize_candidates(UNIFORM, CLEAN.true_labels, 1.0, seed=v),
     ParameterError, "seed", 0),
    (lambda v: PLLDataset(np.zeros((2, 2)), np.ones((2, 2), bool), num_classes=v),
     ValidationError, "num_classes", None),
    (lambda v: entangled_cluster_spec(v, 4), ParameterError, "num_classes", 2),
    (lambda v: entangled_cluster_spec(4, v), ParameterError, "dim", 4),
    (lambda v: TrainConfig(epochs=v), ValueError, "epochs", 0),
    (lambda v: TrainConfig(epochs=2, batch_size=v), ValueError, "batch_size", 1),
    (lambda v: TrainConfig(epochs=2, warmup_epochs=v), ValueError, "warmup_epochs", 0),
    (lambda v: TrainConfig(epochs=2, refresh_period=v), ValueError, "refresh_period", 1),
    (lambda v: TrainConfig(epochs=2, queue_capacity=v), ValueError, "queue_capacity", 1),
    (lambda v: TrainConfig(epochs=2, seed=v), ValueError, "seed", 0),
    (lambda v: ContrastBank(v), ValueError, "capacity", 1),
    (lambda v: EncoderConfig((v,), 2), DimensionError, "input_dims", 1),
    (lambda v: EncoderConfig((3,), v), DimensionError, "num_classes", 2),
    (lambda v: EncoderConfig((3,), 2, hidden_dims=(4, v)), DimensionError, "hidden_dims", 1),
    (lambda v: EncoderConfig((3,), 2, embed_dim=v), DimensionError, "embed_dim", 1),
    (lambda v: EncoderConfig((4, 4, 1), 2, kernel_size=v), DimensionError, "kernel_size", 1),
    (lambda v: confusion_matrix([], [], v), ValueError, "num_classes", 0),
]

POSITIVE, NONNEGATIVE = "be positive and finite", "be nonnegative and finite"
REAL, UNIT, HALF_OPEN_UNIT = "lie in (-inf, inf)", "lie in [0, 1]", "lie in (0, 1]"

# (call taking the value, the module's own error type, the field it names,
# the range its message states, a value past each finite end of that range)
FLOAT_ARGUMENTS = [
    (lambda v: synthesize_candidates(UNIFORM, CLEAN.true_labels, v), ParameterError,
     "tau_rate", NONNEGATIVE, (-0.5,)),
    (lambda v: synthesize_dataset(CLEAN, UNIFORM, v), ParameterError, "tau_rate", NONNEGATIVE,
     (-0.5,)),
    (lambda v: entangled_cluster_spec(4, 4, pair_distance=v), ParameterError, "pair_distance",
     REAL, ()),
    (lambda v: entangled_cluster_spec(4, 4, group_distance=v), ParameterError,
     "group_distance", REAL, ()),
    (lambda v: entangled_cluster_spec(4, 4, variance=v), ParameterError, "variance", POSITIVE,
     (0.0,)),
    (lambda v: find_entangled(np.ones((8, 3)), CLEAN, v), ValueError, "xi",
     "lie in (-1, 1]", (-1.0, 1.5)),
    (lambda v: top_fraction_pairs(np.ones((8, 3)), CLEAN, v), ValueError, "ratio",
     HALF_OPEN_UNIT, (0.0, 1.5)),
    (lambda v: apply_blur_mix(np.ones((1, 3)), np.ones((1, 3), bool), v), ValueError, "eps",
     UNIT, (-0.5, 1.5)),
    (lambda v: LossConfig(tau=v), ValueError, "tau", POSITIVE, (0.0,)),
    (lambda v: LossConfig(tau2=v), ValueError, "tau2", POSITIVE, (0.0,)),
    (lambda v: LossConfig(beta=v), ValueError, "beta", NONNEGATIVE, (-0.5,)),
    (lambda v: TrainConfig(epochs=2, lr=v), ValueError, "lr", NONNEGATIVE, (-0.5,)),
    (lambda v: TrainConfig(epochs=2, weight_decay=v), ValueError, "weight_decay", NONNEGATIVE,
     (-0.5,)),
    (lambda v: TrainConfig(epochs=2, sgd_momentum=v), ValueError, "sgd_momentum",
     "lie in [0, 1)", (-0.5, 1.0)),
    (lambda v: TrainConfig(epochs=2, momentum=v), ValueError, "momentum", UNIT, (-0.5, 1.5)),
    (lambda v: AugmentConfig(top_fraction=v), ValueError, "top_fraction", HALF_OPEN_UNIT,
     (0.0, 1.5)),
    (lambda v: AugmentConfig(epsilon=v), ValueError, "epsilon", UNIT, (-0.5, 1.5)),
    (lambda v: ModelPair(PARAMS, PARAMS, momentum=v), ValueError, "momentum", UNIT,
     (-0.5, 1.5)),
    (lambda v: check_gradients(_zero_loss, PARAMS, h=v), ValueError, "h", POSITIVE, (0.0,)),
    (lambda v: pair_weights(np.ones((1, 2)), np.ones((1, 2)), v), ValueError, "tau2",
     POSITIVE, (0.0,)),
    (lambda v: contrastive_terms(BATCH, v, 0.4), ValueError, "tau", POSITIVE, (0.0,)),
    (lambda v: contrastive_terms(BATCH, 0.12, v), ValueError, "tau2", POSITIVE, (0.0,)),
    (lambda v: class_activation_mask(PARAMS, np.ones((1, 3)), [0], [0], v), ValueError,
     "top_fraction", HALF_OPEN_UNIT, (0.0, 1.5)),
]


# (call taking the array, the module's own error type, the name its messages
# give, a value it takes, its bound n or None, whether its shape is checked)
INDEX_ARGUMENTS = [
    (lambda v: ContrastBatch([[1.0, 0.0]], v, [[0.0, 1.0]], [[0.0, 1.0]], [0], [[1.0, 0.0]]),
     ValueError, "query_labels", [0], None, True),
    (lambda v: ContrastBatch([[1.0, 0.0]], [0], [[0.0, 1.0]], [[0.0, 1.0]], v, [[1.0, 0.0]]),
     ValueError, "key_labels", [0], None, True),
    (lambda v: ContrastBank(4).push(np.eye(2, 3), np.zeros((2, 2)), v), ValueError,
     "key_labels", [0, 1], None, True),
    (lambda v: batch_total_loss(np.ones((2, 3)), np.ones((2, 2), bool),
                                (np.ones((2, 3)), v, [0, 1]), PAIR),
     ValueError, "augmentation owner", [0, 1], 2, True),
    (lambda v: batch_total_loss(np.ones((2, 3)), np.ones((2, 2), bool),
                                (np.ones((2, 3)), [0, 1], v), PAIR),
     ValueError, "augmentation labels", [0, 1], None, True),
    (AUGS.rows_of, ValueError, "sample indices", [0, 1], 8, True),
    (lambda v: class_activation_mask(PARAMS, np.ones((2, 3)), v, [0, 1]), ValueError,
     "owner", [0, 1], 2, True),
    (lambda v: class_activation_mask(PARAMS, np.ones((2, 3)), [0, 1], v), ValueError,
     "labels", [0, 1], 2, True),
    (CLEAN.subset, ValidationError, "indices", [0, 1], 8, True),
    (lambda v: synthesize_candidates(UNIFORM, v, 1.0), ParameterError, "true_labels",
     CLEAN.true_labels, 4, True),
    (lambda v: confusion_matrix(v, [0, 1], 2), ValueError, "labels", [0, 1], 2, True),
    (lambda v: confusion_matrix([0, 1], v, 2), ValueError, "predictions", [0, 1], 2, True),
    (lambda v: entangled_metrics(v, [0, 1], np.eye(2), [0, 1]), ValueError,
     "instance indices", [[0, 1]], 2, True),
    (lambda v: entangled_metrics([[0, 1]], v, np.eye(2), [0, 1]), ValueError, "predictions",
     [0, 1], None, True),
    (lambda v: entangled_metrics([[0, 1]], [0, 1], np.eye(2), v), ValueError, "true_labels",
     [0, 1], None, True),
    (lambda v: class_distances(np.eye(2), v), ValueError, "labels", [0, 1], None, True),
    (lambda v: recovered_rate(v, [0, 1], [0], [0, 1]), ValueError, "pll_predictions",
     [0, 1], None, True),
    (lambda v: recovered_rate([0, 1], v, [0], [0, 1]), ValueError, "supervised_predictions",
     [0, 1], None, True),
    # entangled instances may come as the (k, 2) pairs themselves: any shape is read flat
    (lambda v: recovered_rate([0, 1], [0, 1], v, [0, 1]), ValueError, "instance indices",
     [0], 2, False),
    (lambda v: recovered_rate([0, 1], [0, 1], [0], v), ValueError, "true_labels", [0, 1],
     None, True),
]


def _ids(table):
    return [f"{row[1].__name__}-{row[2]}-{i}" for i, row in enumerate(table)]


def _rejects(call, value, error, match):
    with pytest.raises(error, match=match) as err:
        call(value)
    assert type(err.value) is error


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np_bool"])
@pytest.mark.parametrize("call, error, field, low", INTEGER_ARGUMENTS,
                         ids=_ids(INTEGER_ARGUMENTS))
def test_bool_is_not_an_integer_argument(call, error, field, low, value):
    _rejects(call, value, error, f"^{field} must be an integer, got ")


BOUNDED_INTEGERS = [row for row in INTEGER_ARGUMENTS if row[3] is not None]


@pytest.mark.parametrize("call, error, field, low", BOUNDED_INTEGERS,
                         ids=_ids(BOUNDED_INTEGERS))
def test_integer_below_its_bound_is_rejected(call, error, field, low):
    bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
    _rejects(call, low - 1, error, f"^{field} must be {bound}, got {low - 1}$")


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np_bool"])
@pytest.mark.parametrize("call, error, field, rule, past", FLOAT_ARGUMENTS,
                         ids=_ids(FLOAT_ARGUMENTS))
def test_bool_is_not_a_float_argument(call, error, field, rule, past, value):
    _rejects(call, value, error, f"^{field} must be a number, got {value!r}$")


@pytest.mark.parametrize("value", ["0.5", None], ids=["str", "None"])
@pytest.mark.parametrize("call, error, field, rule, past", FLOAT_ARGUMENTS,
                         ids=_ids(FLOAT_ARGUMENTS))
def test_non_number_is_not_a_float_argument(call, error, field, rule, past, value):
    _rejects(call, value, error, f"^{field} must be a number, got {value!r}$")


OUT_OF_RANGE = [pytest.param(call, error, field, rule, value, id=f"{id_}-{value}")
                for id_, (call, error, field, rule, past)
                in zip(_ids(FLOAT_ARGUMENTS), FLOAT_ARGUMENTS)
                for value in (np.nan, np.inf, -np.inf) + past]


@pytest.mark.parametrize("call, error, field, rule, value", OUT_OF_RANGE)
def test_float_outside_its_range_is_rejected(call, error, field, rule, value):
    _rejects(call, value, error, f"^{field} must {re.escape(rule)}, got {value!r}$")


def test_real_numbers_come_back_as_plain_floats():
    for value in (0.25, np.float64(0.25), np.float32(0.25), 1, np.int64(1)):
        out = _real("x", value, 0.0, 1.0)
        assert type(out) is float and out == value
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got 10000"):
        _real("x", 10 ** 400, 0.0, 1.0)


@pytest.mark.parametrize("indices, match", [
    ([True, False] * 4, "indices must be integers, got dtype bool"),
    ([-1], r"indices must lie in \[0, 8\)"),
    ([8], r"indices must lie in \[0, 8\)"),
    ([0.0, 1.0], "indices must be integers, got dtype float64"),
    pytest.param([[0, 1]], r"indices must have shape \(\*,\), got \(1, 2\)",
                 id=r"indices4-indices must be 1-D, got shape \(1, 2\)"),
])
def test_subset_takes_only_a_1d_array_of_indices_in_range(indices, match):
    _rejects(CLEAN.subset, indices, ValidationError, f"^{match}")


def test_params_that_ran_forward_are_freed_without_the_cyclic_gc():
    params = init_params(EncoderConfig((3,), 2), seed=1)
    pair = ModelPair.initialize(EncoderConfig((3,), 2), seed=1)
    x = np.ones((2, 3))
    forward(params, x)
    forward(pair.query, x)
    forward_stack(pair.stacked, x)
    forward_stack(pair.query.stack, x)
    refs = [weakref.ref(params), weakref.ref(pair), weakref.ref(pair.query)]
    gc.disable()
    try:
        del params, pair
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _with_first(value, entry):
    out = np.array(value)
    out.flat[0] = entry
    return out


def _index_cases(name, good, n, shaped):
    """(kind, value, match) of each value the argument must reject."""
    yield "bool", np.ones(np.shape(good), bool), f"^{name} must be integers, got dtype bool$"
    yield "float", np.asarray(good, float), f"^{name} must be integers, got dtype float64$"
    rule = "be nonnegative" if n is None else rf"lie in \[0, {n}\)"
    yield "negative", _with_first(good, -1), f"^{name} must {rule}$"
    if shaped:  # the error may name the argument this one's shape is checked against
        yield "shape", np.asarray(good)[None], r" must have shape \("
    if n is not None:
        yield "past", _with_first(good, n), f"^{name} must {rule}$"


INDEX_CASES = [pytest.param(call, error, value, match, id=f"{id_}-{kind}")
               for id_, (call, error, name, good, n, shaped)
               in zip(_ids(INDEX_ARGUMENTS), INDEX_ARGUMENTS)
               for kind, value, match in _index_cases(name, good, n, shaped)]


@pytest.mark.parametrize("call, error, name, good, n, shaped", INDEX_ARGUMENTS,
                         ids=_ids(INDEX_ARGUMENTS))
def test_index_argument_takes_its_valid_value(call, error, name, good, n, shaped):
    call(np.asarray(good))


@pytest.mark.parametrize("call, error, value, match", INDEX_CASES)
def test_index_argument_rejects_what_is_not_an_index(call, error, value, match):
    _rejects(call, value, error, match)


SRC = Path(__file__).resolve().parents[1] / "src" / "pllab"
SCALAR_CHECK = re.compile(
    r"operator\.index|numbers\.Integral|issubdtype\([^)]*np\.integer|math\.isfinite"
    r"|\.min\(\) < 0")


def test_scalar_and_index_checks_live_in_numkernel():
    found = [f"{path.name}: {m.group(0)}" for path in sorted(SRC.glob("*.py"))
             if path.name != "numkernel.py"
             for m in SCALAR_CHECK.finditer(path.read_text())]
    assert (SRC / "numkernel.py").is_file()
    assert found == [], "checks outside numkernel; call _integer, _real, _indices or _array"
