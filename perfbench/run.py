"""pllab benchmark: one seeded workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload flat-cad --seed 1 --seconds 40 --trace 0

Run from the repository root. The program under test is imported from
``src/``; the run exits with code 2, printing no result, when it is missing.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats the experiment until ``--seconds`` have passed, cycling
over the workload's datasets, and reports medians of the times, the mean
accuracy over those datasets, and the process's peak resident memory.
``--trace 1`` alternates untraced and traced repeats of the first dataset and
reports per-layer self times, counts and the tracing overhead.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported anywhere in the process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("train_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("test_acc", "ratio"),
    ("entangled_acc", "ratio"),
)
# Printed with the end-to-end metrics but left out of the JSON line: on a
# shared host, report_s's spread across runs reaches the largest bound allowed.
UNGATED = (("report_s", "s"),)


def git_revision() -> str:
    """HEAD's commit read from ``.git`` directly (no subprocess); 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def attempt(w, seed, k, scratch, tracer=None):
    """Run one experiment; an exception is reported and counted as a failure."""
    from workloads import run_experiment

    try:
        return run_experiment(w, seed, k, scratch, tracer)
    except Exception:  # the run must go on and count the failure
        traceback.print_exc()
        return None


def measure(w, seed, seconds, trace, scratch):
    """Repeat experiments for about ``seconds``; returns (outcomes, attempted, tracers)."""
    from time import perf_counter

    from spans import Tracer

    outcomes, tracers = [], []
    minimum = 2 if trace else w.subseeds + 1  # every run repeats one dataset
    start = perf_counter()
    r = 0
    # stop before a repeat that would, at the mean pace so far, end past ``seconds``
    while r < minimum or (perf_counter() - start) * (r + 1) / r <= seconds:
        tracer = Tracer() if trace and r % 2 == 1 else None
        k = 0 if trace else r % w.subseeds
        outcome = attempt(w, seed, k, scratch, tracer)
        r += 1
        if outcome is None:
            continue
        outcomes.append(outcome)
        if tracer is not None:
            tracers.append((tracer, outcome))
    return outcomes, r, tracers


def mark_nondeterminism(outcomes) -> None:
    """A repeat whose fingerprint differs from the first one of its dataset fails."""
    first = {}
    for o in outcomes:
        ref = first.setdefault(o.subseed_index, o.fingerprint)
        if o.fingerprint != ref:
            o.failures.append("repeat of the same seed is not bit-identical")


def end_to_end_metrics(outcomes) -> dict:
    med = lambda attr: statistics.median(getattr(o, attr) for o in outcomes)
    per_dataset = {}
    for o in outcomes:
        per_dataset.setdefault(o.subseed_index, o)
    firsts = list(per_dataset.values())
    values = {
        "setup_s": statistics.median(t for o in outcomes for t in o.setup_samples),
        "train_s": med("train_s"),
        "report_s": med("report_s"),
        "total_s": med("total_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_acc": statistics.fmean(o.test_acc for o in firsts),
        "entangled_acc": statistics.fmean(o.entangled_acc for o in firsts),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END + UNGATED}


def per_layer_metrics(outcomes, tracers) -> dict:
    from spans import layer_metrics

    rows = [layer_metrics(tracer, o) for tracer, o in tracers]
    untraced = [o.total_s for o in outcomes if not o.traced]
    traced = [o.total_s for o in outcomes if o.traced]
    out = {}
    for name, (_, unit) in rows[0].items():
        out[name] = {"value": statistics.median(row[name][0] for row in rows), "unit": unit}
    out["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pllab" / "__init__.py").is_file():
        print(f"perfbench: no pllab sources under {SRC.name}/ at the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pllab

    if Path(pllab.__file__).resolve().parent != SRC / "pllab":
        print(f"perfbench: imported pllab from {pllab.__file__}, not from src/",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build, prefix="perfbench-") as scratch:
        outcomes, attempted, tracers = measure(w, args.seed, args.seconds, args.trace, scratch)
    mark_nondeterminism(outcomes)
    good = [o for o in outcomes if not o.failures]
    failed = attempted - len(good)

    env = environment()
    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for o in outcomes:
        for failure in o.failures:
            print(f"# FAILED repeat (dataset {o.subseed_index}): {failure}")
    if not good:
        print("perfbench: no repeat passed its checks", file=sys.stderr)
        return 1
    traced = [(t, o) for t, o in tracers if not o.failures]
    if args.trace and (not traced or all(o.traced for o in good)):
        print("perfbench: need a passing traced and untraced repeat", file=sys.stderr)
        return 1
    props = dict(good[0].traffic)
    if traced:
        from spans import traffic

        props.update(traced[0][1].traffic)
        props.update(traffic(traced[0][0]))
    print("# traffic " + " ".join(f"{k}={v:g}" for k, v in props.items()))
    print(f"# repeats={attempted} failed={failed} "
          f"datasets={len({o.subseed_index for o in outcomes})}")
    speeds = [o.speed for o in good]
    print(f"# host slowdown: median {statistics.median(speeds):.3f} "
          f"(range {min(speeds):.3f}-{max(speeds):.3f}); unscaled wall total_s median "
          f"{statistics.median(o.wall_total_s for o in good):.4g} s")
    metrics = per_layer_metrics(good, traced) if args.trace else end_to_end_metrics(good)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    # not a JSON metric, because it is 0 whenever nothing fails; the JSON
    # line carries it as failed / attempted
    print(f"{'fail_rate':32s} {failed / attempted:>16.6g} ratio")
    gated = {name: m for name, m in metrics.items() if name not in dict(UNGATED)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
