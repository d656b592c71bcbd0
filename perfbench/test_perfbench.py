"""Tests of the benchmark itself: tiny workloads end to end, span arithmetic,
and that tracing leaves pllab's bindings exactly as it found them.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json

import pytest

import run
import workloads
from spans import BINDINGS, Tracer, _resolve, layer_metrics, traffic

TINY = {
    "flat-cad": dict(n_train=80, n_test=40,
                     train_kwargs=dict(epochs=2, warmup_epochs=1, refresh_period=1,
                                       hidden_dims=(8,), embed_dim=8, queue_capacity=64)),
    "flat-wo-rl": dict(n_train=80, n_test=40, subseeds=2,
                       train_kwargs=dict(epochs=3, no_rl=True, hidden_dims=(8,), embed_dim=8)),
    "grid-cad": dict(n_train=48, n_test=48, subseeds=2,
                     train_kwargs=dict(epochs=2, warmup_epochs=1, refresh_period=1,
                                       hidden_dims=(4, 4), embed_dim=8, queue_capacity=64)),
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    tiny = {name: dataclasses.replace(w, **TINY[name]) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    return tiny


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_with_all_checks_passing(tiny_workloads, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert result["metrics"]["trainer.train_incl_s"]["value"] > 0
        assert "trace.overhead_s" in result["metrics"]
    else:
        w = tiny_workloads[name]
        assert result["attempted"] == w.subseeds + 1
        assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
        assert all(result["metrics"][m]["value"] > 0
                   for m in ("setup_s", "train_s", "total_s", "peak_rss_mb"))
        assert any(line.startswith("report_s ") for line in out.splitlines())


def test_tracing_does_not_change_results(tiny_workloads, tmp_path):
    w = tiny_workloads["flat-cad"]
    plain = workloads.run_experiment(w, 5, 0, tmp_path)
    traced = workloads.run_experiment(w, 5, 0, tmp_path, Tracer())
    assert plain.failures == [] and traced.failures == []
    assert plain.fingerprint == traced.fingerprint


def test_no_rl_control_skips_augment_contrastive_and_bank(tiny_workloads, tmp_path):
    tracer = Tracer()
    outcome = workloads.run_experiment(tiny_workloads["flat-wo-rl"], 0, 0, tmp_path, tracer)
    metrics = {name: value for name, (value, _) in layer_metrics(tracer, outcome).items()}
    for name in ("augment.refresh_calls", "augment.mask_calls", "losses.contrastive_calls",
                 "trainer.bank_push_calls"):
        assert metrics[name] == 0, name
    props = traffic(tracer)
    for name in ("augment.kept", "losses.queries", "trainer.bank_fill"):
        assert props[name] == 0, name
    assert metrics["losses.batch_calls"] > 0 and metrics["numkernel.forward_calls"] > 0


def test_self_time_of_hand_built_nested_trace():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 20.0, 21.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.begin("root")  # [0, 10]
    a = tracer.begin("a")  # [1, 4]
    inner = tracer.begin("inner")  # [2, 3]
    tracer.end(inner)
    tracer.end(a)
    b = tracer.begin("a")  # [5, 7], same name as its sibling
    tracer.end(b)
    tracer.end(root)
    other = tracer.begin("root")  # [20, 21], a second root
    tracer.end(other)
    assert tracer.parents == [-1, root, a, root, -1]
    calls, inclusive, own = tracer.summary()
    assert calls == {"root": 2, "a": 2, "inner": 1}
    assert inclusive == {"root": 11.0, "a": 5.0, "inner": 1.0}
    assert own == {"root": 6.0, "a": 4.0, "inner": 1.0}
    assert sum(own.values()) == 11.0


def test_end_out_of_order_is_rejected():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def _bindings():
    out = []
    for module_name, attr_path, _, _ in BINDINGS:
        owner, attr = _resolve(module_name, attr_path)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    with Tracer().installed():
        for owner, attr, original in before:
            current = vars(owner)[attr]
            assert current is not original and current.__wrapped__ is original
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_uninstall_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer().installed():
            1 / 0
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_git_revision_without_a_repository(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_revision() == "unknown"


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "flat-cad", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
