"""The benchmark's own tests, on tiny workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import instrument
import run
import workloads
from prunekit import workflow
from prunekit.workflow import ramp_steps

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "classify-ramp": dataclasses.replace(
        workloads.WORKLOADS["classify-ramp"],
        model_args={"width": 4, "classes": 4, "input_size": 8},
        image_size=8,
        train_samples=32,
        test_samples=8,
        batch_size=8,
        steps=tuple(ramp_steps((0.01, 0.5), warmup_epochs=1, epochs_per_step=1, final_epochs=1)),
        score_floor=0.0,
        max_drop=None,
    ),
    "segment-sparsity": dataclasses.replace(
        workloads.WORKLOADS["segment-sparsity"],
        model_args={"width": 2, "classes": 3, "depth": 2},
        image_size=16,
        train_samples=8,
        test_samples=2,
        batch_size=4,
        steps=workloads.SEGMENT_STEPS[:2] + workloads.SEGMENT_STEPS[-1:],
        score_floor=0.0,
    ),
}


def _run_tiny(name: str, seed: int, points) -> run.Outcome:
    w = TINY[name]
    train, test = w.make_data(seed)
    return run.run_workflow(w, train, test, seed, points)


def _wrap_targets():
    points = instrument.TRACE_POINTS + ((workflow, "batches", None),)
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in points]


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, w in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, w)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny_workloads, capsys, trace, section):
    # The set-up probe runs in a fresh process, so it builds the full-size
    # workload up to its first batch; everything else here is tiny.
    code = run.main(["--workload", "classify-ramp", "--seed", "3",
                     "--seconds", "60", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    # Set-up probe and the workload's fixed workflows, or the three of a trace.
    assert result["attempted"] == (3 if trace else 1 + TINY["classify-ramp"].repeats)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    info = json.loads(out[-2])["perfbench"]
    for key in ("seed", "git_commit", "source_sha256", "nproc", "blas", "numpy", "python"):
        assert key in info
    assert set(info["blas"]) == {"name", "version", "threads"}


def test_seconds_is_a_ceiling_not_a_workflow_count(tiny_workloads, capsys):
    code = run.main(["--workload", "classify-ramp", "--seed", "3",
                     "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_span_self_times_sum_to_wall_time(name):
    outcome = _run_tiny(name, 0, instrument.TRACE_POINTS)
    tracer = outcome.instrument.tracer
    roots = [i for i, p in enumerate(tracer.parents) if p < 0]
    assert [tracer.names[i] for i in roots] == ["workflow.run"]
    wall = tracer.ends[roots[0]] - tracer.starts[roots[0]]
    total = float(np.sum(instrument.self_times(tracer)))
    assert total == pytest.approx(wall, rel=1e-9)
    assert wall <= outcome.workflow_s
    assert wall == pytest.approx(outcome.workflow_s, rel=0.02, abs=2e-3)
    assert len(instrument.step_durations(tracer)) == len(outcome.samples) > 0


def test_wrapped_attributes_are_the_originals_afterwards():
    before = _wrap_targets()
    _run_tiny("classify-ramp", 0, instrument.TRACE_POINTS)
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)

    original_run = vars(workflow)["run"]
    with pytest.raises(ZeroDivisionError):
        with instrument.Instrument(instrument.TRACE_POINTS):
            assert vars(workflow)["run"] is not original_run
            1 / 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_agree_bitwise(name):
    plain = _run_tiny(name, 5, instrument.CLOCK_POINTS)
    traced = _run_tiny(name, 5, instrument.TRACE_POINTS)
    assert plain.scores == traced.scores
    assert plain.flops_kept == traced.flops_kept
    assert plain.params_kept == traced.params_kept
    assert run._identical(plain, traced)
    assert len(traced.instrument.tracer) > len(plain.instrument.tracer)


def test_another_seed_changes_the_inputs():
    for w in workloads.WORKLOADS.values():
        a_train, a_test = w.make_data(0)
        b_train, _ = w.make_data(0)
        c_train, c_test = w.make_data(1)
        assert a_train.fingerprint() == b_train.fingerprint()
        assert a_train.fingerprint() != c_train.fingerprint()
        assert a_test.fingerprint() != c_test.fingerprint()
    assert workloads.workflow_seed(4, 0) == 4
    assert workloads.workflow_seed(4, 1) != workloads.workflow_seed(5, 1)


def test_output_checks_flag_bad_runs():
    w = workloads.WORKLOADS["classify-ramp"]
    cuts = sum(1 for s in w.steps if s.prune)
    good = dict(scores=[0.97, 0.99], losses=[0.5, 0.1], residuals=[1e-7] * cuts)
    assert workloads.check_outputs(w, **good) == []
    for change in (
        {"scores": [0.90, 0.99]},
        {"scores": [0.99, 0.95]},
        {"losses": [0.5, math.nan]},
        {"residuals": [1e-7] * (cuts - 1) + [1e-2]},
        {"residuals": [1e-7]},
    ):
        assert len(workloads.check_outputs(w, **{**good, **change})) == 1, change
    seg = workloads.WORKLOADS["segment-sparsity"]
    assert workloads.check_outputs(seg, scores=[0.5, 0.89], losses=[1.0], residuals=[0.0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
