"""Pin BLAS to one thread before numpy is imported, as the benchmark does.

Training results depend on the BLAS thread count in their last bits, so
tier-1 runs the same one-thread path as ``perfbench/run.py``. A value already
set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
