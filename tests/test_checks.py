"""Argument checks shared by every module.

``numkernel._integer`` decides what an integer argument is and
``numkernel._indices`` what an index array is; each module calls them with its
own error type. The table below passes a bool, which Python and numpy both
take as 0 or 1, to every public integer and float argument; the guard keeps
the decision in numkernel.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from pllab.augment import apply_blur_mix
from pllab.data import (AnnotatorPosterior, ParameterError, PLLDataset, ValidationError,
                        entangled_cluster_spec, gen_entangled_gaussians, synthesize_candidates,
                        synthesize_dataset, train_annotator)
from pllab.entangle import find_entangled, top_fraction_pairs
from pllab.numkernel import DimensionError, EncoderConfig
from pllab.trainer import ContrastBank, TrainConfig

SPEC = entangled_cluster_spec(4, 4)
CLEAN = gen_entangled_gaussians(SPEC, 8, seed=0)
UNIFORM = AnnotatorPosterior(np.full((8, 4), 0.25))


# (call taking the bool, the module's own error type, the field it names)
INTEGER_ARGUMENTS = [
    (lambda v: gen_entangled_gaussians(SPEC, v), ParameterError, "n"),
    (lambda v: gen_entangled_gaussians(SPEC, 8, seed=v), ParameterError, "seed"),
    (lambda v: train_annotator(CLEAN, v), ParameterError, "epochs"),
    (lambda v: train_annotator(CLEAN, 1, seed=v), ParameterError, "seed"),
    (lambda v: synthesize_candidates(UNIFORM, CLEAN.true_labels, 1.0, seed=v),
     ParameterError, "seed"),
    (lambda v: PLLDataset(np.zeros((2, 2)), np.ones((2, 2), bool), num_classes=v),
     ValidationError, "num_classes"),
    (lambda v: entangled_cluster_spec(v, 4), ParameterError, "num_classes"),
    (lambda v: entangled_cluster_spec(4, v), ParameterError, "dim"),
    (lambda v: TrainConfig(epochs=v), ValueError, "epochs"),
    (lambda v: TrainConfig(epochs=2, batch_size=v), ValueError, "batch_size"),
    (lambda v: TrainConfig(epochs=2, warmup_epochs=v), ValueError, "warmup_epochs"),
    (lambda v: TrainConfig(epochs=2, refresh_period=v), ValueError, "refresh_period"),
    (lambda v: TrainConfig(epochs=2, queue_capacity=v), ValueError, "queue_capacity"),
    (lambda v: TrainConfig(epochs=2, seed=v), ValueError, "seed"),
    (lambda v: ContrastBank(v), ValueError, "capacity"),
    (lambda v: EncoderConfig((v,), 2), DimensionError, "input_dims"),
    (lambda v: EncoderConfig((3,), v), DimensionError, "num_classes"),
    (lambda v: EncoderConfig((3,), 2, hidden_dims=(4, v)), DimensionError, "hidden_dims"),
    (lambda v: EncoderConfig((3,), 2, embed_dim=v), DimensionError, "embed_dim"),
    (lambda v: EncoderConfig((4, 4, 1), 2, kernel_size=v), DimensionError, "kernel_size"),
]

FLOAT_ARGUMENTS = [
    (lambda v: synthesize_candidates(UNIFORM, CLEAN.true_labels, v), ParameterError,
     "tau_rate"),
    (lambda v: synthesize_dataset(CLEAN, UNIFORM, v), ParameterError, "tau_rate"),
    (lambda v: entangled_cluster_spec(4, 4, pair_distance=v), ParameterError, "pair_distance"),
    (lambda v: entangled_cluster_spec(4, 4, group_distance=v), ParameterError, "group_distance"),
    (lambda v: entangled_cluster_spec(4, 4, variance=v), ParameterError, "variance"),
    (lambda v: find_entangled(np.ones((8, 3)), CLEAN, v), ValueError, "xi"),
    (lambda v: top_fraction_pairs(np.ones((8, 3)), CLEAN, v), ValueError, "ratio"),
    (lambda v: apply_blur_mix(np.ones((1, 3)), np.ones((1, 3), bool), v), ValueError, "eps"),
]


def _ids(table):
    return [f"{error.__name__}-{field}-{i}" for i, (_, error, field) in enumerate(table)]


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np_bool"])
@pytest.mark.parametrize("call, error, field", INTEGER_ARGUMENTS, ids=_ids(INTEGER_ARGUMENTS))
def test_bool_is_not_an_integer_argument(call, error, field, value):
    with pytest.raises(error, match=f"^{field} must be an integer, got ") as err:
        call(value)
    assert type(err.value) is error


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np_bool"])
@pytest.mark.parametrize("call, error, field", FLOAT_ARGUMENTS, ids=_ids(FLOAT_ARGUMENTS))
def test_bool_is_not_a_float_argument(call, error, field, value):
    with pytest.raises(error, match=f"^{field} must be a number, got the bool ") as err:
        call(value)
    assert type(err.value) is error


SRC = Path(__file__).resolve().parents[1] / "src" / "pllab"
INTEGER_CHECK = re.compile(r"operator\.index|numbers\.Integral|issubdtype\([^)]*np\.integer")


def test_integer_and_index_checks_live_in_numkernel():
    found = [f"{path.name}: {m.group(0)}" for path in sorted(SRC.glob("*.py"))
             if path.name != "numkernel.py"
             for m in INTEGER_CHECK.finditer(path.read_text())]
    assert (SRC / "numkernel.py").is_file()
    assert found == [], "integer checks outside numkernel; call _integer or _indices"
