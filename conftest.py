"""Pin BLAS to one thread before numpy is imported, as the benchmark does.

Training results depend on the BLAS thread count in their last bits, so
tier-1 runs the same one-thread path as ``perfbench/run.py``. A value already
set in the environment wins.

The ``mutations`` fixture serves the loaders' fuzz tests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # imported after the thread pins
import pytest


def _mutations(data: bytes, seed: int, per_kind: int):
    """Yield ``per_kind`` seeded mutations of ``data`` of each kind, in turn:
    one byte set to a random value, a slice cut out, 1-8 random bytes
    inserted, and a truncation."""
    rng = np.random.default_rng(seed)
    n = len(data)
    for _ in range(per_kind):
        i = int(rng.integers(n))
        yield data[:i] + bytes([int(rng.integers(256))]) + data[i + 1 :]
        i, j = sorted(int(v) for v in rng.integers(n + 1, size=2))
        yield data[:i] + data[j:]
        i = int(rng.integers(n + 1))
        yield data[:i] + rng.bytes(int(rng.integers(1, 9))) + data[i:]
        yield data[: int(rng.integers(n))]


@pytest.fixture
def mutations():
    """``mutations(data, seed, per_kind)``: seeded corruptions of a file's bytes."""
    return _mutations
