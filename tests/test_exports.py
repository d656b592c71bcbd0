import ast
import importlib
import pkgutil
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import pllab
from pllab.augment import AugmentConfig
from pllab.losses import LossConfig
from pllab.numkernel import EncoderConfig
from pllab.trainer import TrainConfig

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__, "pllab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(set(exported)) == sorted(exported), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_exception_types_are_the_six_shared_ones():
    # a check that one function needs raises a builtin or one of these; an
    # error type raised at one site and caught nowhere adds only a name
    defined = set()
    for name in MODULES:
        module = importlib.import_module(name)
        defined |= {obj.__name__ for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == name}
    assert defined == {"NumericError", "DimensionError", "CheckpointError",
                       "ValidationError", "ParameterError", "TrainingDivergedError"}


def test_settable_values_are_the_26_pinned_ones():
    # each config field doubles the configurations tests and the bench must
    # cover; adding or dropping a knob edits this list
    assert {cls.__name__: [f.name for f in fields(cls)]
            for cls in (TrainConfig, LossConfig, AugmentConfig, EncoderConfig)} == {
        "TrainConfig": ["epochs", "batch_size", "lr", "weight_decay", "sgd_momentum",
                        "warmup_epochs", "refresh_period", "momentum", "queue_capacity",
                        "no_rl", "no_ca", "seed", "hidden_dims", "embed_dim", "loss",
                        "augment"],
        "LossConfig": ["tau", "tau2", "beta"],
        "AugmentConfig": ["top_fraction", "epsilon"],
        "EncoderConfig": ["input_dims", "num_classes", "hidden_dims", "embed_dim",
                          "kernel_size"],
    }


def test_runtime_imports_are_stdlib_numpy_or_pllab():
    # numpy is the only runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "pllab"}
    foreign = []
    for path in sorted(Path(pllab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside pllab
            foreign += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert foreign == []
