"""Tests for workflow configuration, evaluation, orchestration, and the CLI."""
from __future__ import annotations

import csv

import numpy as np
import pytest
import yaml

from prunekit import graphio, pruner, workflow
from prunekit.accounting import structure_measures
from prunekit.cli import main as cli_main
from prunekit.data import BLOBS, SHAPES, generate_synthetic, split
from prunekit.engine import forward
from prunekit.errors import InvalidConfig, RewriteMismatch
from prunekit.graph import TensorShape, infer_shapes, validate
from prunekit.objective import ObjectiveConfig, confusion_counts, mean_iou
from prunekit.optim import OptimConfig, load_checkpoint
from prunekit.relax import snapshot
from prunekit.subgraph import identify_subgraphs
from prunekit.workflow import (
    DEFAULT_THRESHOLD_RAMP,
    METRIC_COLUMNS,
    StepSpec,
    WorkflowConfig,
    evaluate,
    ramp_steps,
    run,
)


# -- configuration --------------------------------------------------------------------


class TestStepSpec:
    def test_prune_requires_threshold(self):
        with pytest.raises(InvalidConfig):
            StepSpec(prune=True)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_threshold_range(self, bad):
        with pytest.raises(InvalidConfig):
            StepSpec(prune=True, threshold=bad)

    def test_negative_epochs(self):
        with pytest.raises(InvalidConfig):
            StepSpec(epochs=-1)

    def test_zero_threshold_allowed(self):
        assert StepSpec(prune=True, threshold=0.0).threshold == 0.0


class TestWorkflowConfig:
    def test_needs_steps(self):
        with pytest.raises(InvalidConfig):
            WorkflowConfig(steps=[])

    def test_ramp_must_not_decrease(self):
        steps = [
            StepSpec(prune=True, threshold=0.4),
            StepSpec(prune=False),
            StepSpec(prune=True, threshold=0.2),
        ]
        with pytest.raises(InvalidConfig):
            WorkflowConfig(steps=steps)

    def test_equal_thresholds_allowed(self):
        steps = [StepSpec(prune=True, threshold=0.3), StepSpec(prune=True, threshold=0.3)]
        assert len(WorkflowConfig(steps=steps).steps) == 2

    def test_bad_batch_size(self):
        with pytest.raises(InvalidConfig):
            WorkflowConfig(batch_size=0)

    def test_from_dict_coerces_nested_sections(self):
        raw = {
            "model": "unet-small",
            "steps": [
                {"prune": False, "epochs": 2},
                {"prune": True, "threshold": 0.25, "epochs": 1, "lr": 0.01},
            ],
            "objective": {
                "mode": "flops",
                "target": 0.4,
                "mu": [[0, 0.5], [3, 1.5]],
                "lam": 0.2,
            },
            "optimizer": {"kind": "sgd", "lr": 0.05},
        }
        config = WorkflowConfig.from_dict(raw)
        assert config.model == "unet-small"
        assert isinstance(config.steps[1], StepSpec)
        assert config.steps[1].threshold == 0.25
        assert isinstance(config.objective, ObjectiveConfig)
        assert config.objective.mu == [(0, 0.5), (3, 1.5)]
        assert config.objective.lam == 0.2
        assert isinstance(config.optimizer, OptimConfig)
        assert config.optimizer.kind == "sgd"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig):
            WorkflowConfig.from_dict({"learning_rate": 0.1})

    def test_dict_round_trip(self):
        config = WorkflowConfig(
            model="resnet8",
            model_args={"width": 4},
            steps=[StepSpec(epochs=1), StepSpec(prune=True, threshold=0.5)],
            objective=ObjectiveConfig(mode="sparsity", target=0.25, mu=1.0, lam=2.0),
        )
        again = WorkflowConfig.from_dict(config.to_dict())
        assert again == config

    def test_from_yaml(self, tmp_path):
        doc = {
            "model": "resnet8",
            "dataset": BLOBS,
            "dataset_size": 100,
            "batch_size": 10,
            "steps": [{"prune": False, "epochs": 3}],
            "objective": {"mode": "sparsity", "target": 0.3, "mu": "auto", "lam": "auto"},
        }
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        config = WorkflowConfig.from_yaml(path)
        assert config.dataset_size == 100
        assert config.steps[0].epochs == 3
        assert config.objective.mu == "auto"

    def test_from_yaml_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(InvalidConfig):
            WorkflowConfig.from_yaml(path)


class TestRampSteps:
    def test_default_structure(self):
        steps = ramp_steps()
        assert len(steps) == 1 + len(DEFAULT_THRESHOLD_RAMP)
        assert not steps[0].prune and steps[0].epochs == 2
        assert [s.threshold for s in steps[1:]] == list(DEFAULT_THRESHOLD_RAMP)
        assert all(s.prune for s in steps[1:])

    def test_final_epochs_override(self):
        steps = ramp_steps(thresholds=(0.1, 0.3), epochs_per_step=2, final_epochs=7)
        assert [s.epochs for s in steps] == [2, 2, 7]

    def test_thresholds_validate_as_config(self):
        config = WorkflowConfig(steps=ramp_steps())
        assert sum(s.prune for s in config.steps) == len(DEFAULT_THRESHOLD_RAMP)


# -- evaluate -------------------------------------------------------------------------


class TestEvaluate:
    def test_classification_matches_whole_set_forward(self):
        from prunekit.engine import init_weights
        from prunekit.models import build_reference_model

        ds = generate_synthetic(BLOBS, 30, seed=2, size=16)
        graph = build_reference_model("resnet8", width=4, classes=4, input_size=16)
        shapes = infer_shapes(graph, TensorShape(1, 3, (16, 16)))
        weights = init_weights(graph, shapes, np.random.default_rng(0))

        got = evaluate(graph, weights, ds, batch_size=7)
        pred = np.argmax(forward(graph, weights, ds.inputs, training=False).output, axis=1)
        expected = float(np.mean(pred == ds.labels))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dense_matches_whole_set_confusion(self):
        from prunekit.engine import init_weights
        from prunekit.models import build_reference_model

        ds = generate_synthetic(SHAPES, 10, seed=4, size=16)
        graph = build_reference_model("unet-small", width=2, classes=3, depth=2)
        shapes = infer_shapes(graph, TensorShape(1, 3, (16, 16)))
        weights = init_weights(graph, shapes, np.random.default_rng(1))

        got = evaluate(graph, weights, ds, batch_size=3)
        pred = np.argmax(forward(graph, weights, ds.inputs, training=False).output, axis=1)
        inter, p_count, t_count = confusion_counts(pred, ds.labels, 3)
        assert got == pytest.approx(mean_iou(inter, p_count, t_count), abs=1e-12)


# -- end-to-end mini run --------------------------------------------------------------


def mini_config(out_dir, **overrides):
    base = dict(
        model="resnet8",
        model_args={"width": 8, "classes": 4, "input_size": 16},
        dataset=BLOBS,
        dataset_size=48,
        train_fraction=0.75,
        seed=3,
        batch_size=12,
        steps=[
            StepSpec(prune=False, epochs=1),
            StepSpec(prune=True, threshold=0.73, epochs=1),
        ],
        objective=ObjectiveConfig(mode="flops", target=0.5),
        optimizer=OptimConfig(kind="adam", lr=3e-3),
        gate_jitter=0.05,
        min_keep=1,
        out_dir=str(out_dir) if out_dir else None,
    )
    base.update(overrides)
    return WorkflowConfig(**base)


def mini_data(config):
    full = generate_synthetic(config.dataset, config.dataset_size, seed=config.seed, size=16)
    return split(full, config.train_fraction, seed=config.seed)


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("mini")
    config = mini_config(out_dir)
    train_set, test_set = mini_data(config)
    result = run(config, train_set, test_set)
    return config, result, out_dir


class TestRunArtifacts:
    def test_expected_files_exist(self, mini_run):
        _, _, out_dir = mini_run
        for name in (
            "metrics.csv",
            "step_00.npz",
            "step_01.npz",
            "prune_step_01.txt",
            "final_graph.txt",
            "final_model.npz",
            "gates_snapshot.txt",
        ):
            assert (out_dir / name).exists(), name

    def test_metrics_columns_and_phases(self, mini_run):
        _, _, out_dir = mini_run
        with open(out_dir / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRIC_COLUMNS
        body = [dict(zip(rows[0], r)) for r in rows[1:]]
        phases = [r["phase"] for r in body]
        # warm-up: 3 train batches + test; prune step: prune + 3 train + test.
        assert phases == ["train"] * 3 + ["test", "prune"] + ["train"] * 3 + ["test"]
        for row in body:
            if row["phase"] == "train":
                assert float(row["task_loss"]) > 0.0
                assert float(row["total_loss"]) >= float(row["task_loss"]) - 1e-9

    def test_warmup_trains_without_pressure(self, mini_run):
        _, result, out_dir = mini_run
        with open(out_dir / "metrics.csv") as fh:
            body = list(csv.DictReader(fh))
        warmup = [r for r in body if r["phase"] == "train" and r["step"] == "0"]
        assert warmup and all(float(r["pressure_term"]) == 0.0 for r in warmup)
        later = [r for r in body if r["phase"] == "train" and r["step"] == "1"]
        assert later and any(float(r["pressure_term"]) > 0.0 for r in later)
        assert result.resolved_mu is not None and result.resolved_mu > 0.0
        assert result.resolved_lam == result.resolved_mu

    def test_prune_row_reports_tiny_rewrite_residual(self, mini_run):
        _, _, out_dir = mini_run
        with open(out_dir / "metrics.csv") as fh:
            prune_rows = [r for r in csv.DictReader(fh) if r["phase"] == "prune"]
        assert len(prune_rows) == 1
        assert float(prune_rows[0]["score"]) < 1e-4
        assert float(prune_rows[0]["sigma_p"]) < 1.0

    def test_model_actually_shrank(self, mini_run):
        _, result, _ = mini_run
        plain = structure_measures(result.graph, result.coloring, None, result.shapes)
        assert plain.total_params < result.baseline[0]
        assert plain.total_flops < result.baseline[1]
        against_baseline = structure_measures(
            result.graph, result.coloring, None, result.shapes, baseline=result.baseline
        )
        assert 0.0 < against_baseline.sigma_p < 1.0

    def test_final_graph_document_is_valid(self, mini_run):
        _, result, out_dir = mini_run
        graph = graphio.load(str(out_dir / "final_graph.txt"))
        assert validate(graph, TensorShape(1, 3, (16, 16))) == []
        assert graphio.serialize(graph) == graphio.serialize(result.graph)

    def test_final_model_runs_without_gates(self, mini_run):
        _, result, out_dir = mini_run
        ckpt = load_checkpoint(out_dir / "final_model.npz")
        assert ckpt.gates is None
        probe = np.random.default_rng(7).normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = forward(ckpt.graph, ckpt.weights, probe, training=False).output
        again = forward(result.graph, result.weights, probe, training=False).output
        np.testing.assert_array_equal(out, again)

    def test_folded_final_weights_match_gated_network(self, mini_run):
        _, result, _ = mini_run
        ckpt_weights = result.weights  # gains already folded in
        probe = np.random.default_rng(8).normal(size=(2, 3, 16, 16)).astype(np.float32)
        plain = forward(result.graph, ckpt_weights, probe, training=False).output
        gated = forward(
            result.graph, {k: v for k, v in ckpt_weights.items()}, probe,
            coloring=result.coloring, gates=result.gates, training=False,
        ).output
        # Folding multiplies the gate gains into producer kernels, so running
        # the folded weights *with* gates applies the gains twice.
        assert not np.allclose(plain, gated)

    def test_gate_snapshot_covers_prunable_groups(self, mini_run):
        _, result, out_dir = mini_run
        text = (out_dir / "gates_snapshot.txt").read_text()
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == len(snapshot(result.gates))

    def test_scores_recorded_per_test_step(self, mini_run):
        _, result, _ = mini_run
        assert [s for s, _ in result.scores] == [0, 1]
        assert all(0.0 <= v <= 1.0 for _, v in result.scores)

    def test_step_checkpoints_restore(self, mini_run):
        config, _, out_dir = mini_run
        ckpt = load_checkpoint(out_dir / "step_00.npz")
        assert ckpt.meta["next_step"] == 1
        assert ckpt.meta["global_epoch"] == 1
        assert ckpt.gates is not None
        assert ckpt.opt_state is not None
        assert tuple(ckpt.meta["baseline"]) == mini_run[1].baseline


def test_run_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = mini_config(None, steps=[StepSpec(epochs=1)])
    train_set, test_set = mini_data(config)
    result = run(config, train_set, test_set)
    assert result.metrics_path is None and result.out_dir is None
    assert list(tmp_path.iterdir()) == []
    assert len(result.scores) == 1


# -- resume ---------------------------------------------------------------------------


def read_rows_without_timing(path):
    with open(path) as fh:
        return [
            {k: v for k, v in row.items() if k != "seconds"} for row in csv.DictReader(fh)
        ]


def test_resume_reproduces_uninterrupted_run(tmp_path):
    steps = [
        StepSpec(prune=False, epochs=1),
        StepSpec(prune=True, threshold=0.5, epochs=1),
        StepSpec(prune=True, threshold=0.73, epochs=1),
    ]
    dir_full = tmp_path / "full"
    dir_part = tmp_path / "part"

    config_full = mini_config(dir_full, steps=steps)
    train_set, test_set = mini_data(config_full)
    full = run(config_full, train_set, test_set)

    # Interrupted variant: stop after step 1, then continue from its checkpoint.
    config_part = mini_config(dir_part, steps=steps[:2])
    run(config_part, train_set, test_set)
    config_cont = mini_config(dir_part, steps=steps)
    resumed = run(config_cont, train_set, test_set, resume_from=dir_part / "step_01.npz")

    assert set(full.weights) == set(resumed.weights)
    for nid in full.weights:
        assert set(full.weights[nid]) == set(resumed.weights[nid])
        for name in full.weights[nid]:
            np.testing.assert_array_equal(full.weights[nid][name], resumed.weights[nid][name])
    full_gates = snapshot(full.gates)
    resumed_gates = snapshot(resumed.gates)
    assert set(full_gates) == set(resumed_gates)
    for gid in full_gates:
        np.testing.assert_array_equal(full_gates[gid], resumed_gates[gid])
    assert full.scores == resumed.scores
    assert graphio.serialize(full.graph) == graphio.serialize(resumed.graph)

    # The appended metrics stream must match the uninterrupted one exactly.
    assert read_rows_without_timing(dir_full / "metrics.csv") == read_rows_without_timing(
        dir_part / "metrics.csv"
    )

    ck_full = load_checkpoint(dir_full / "step_02.npz")
    ck_resumed = load_checkpoint(dir_part / "step_02.npz")
    assert ck_full.rng_state == ck_resumed.rng_state
    assert set(ck_full.opt_state["slots"]) == set(ck_resumed.opt_state["slots"])


def test_resume_from_earlier_checkpoint_does_not_duplicate_metrics(tmp_path):
    steps = [
        StepSpec(prune=False, epochs=1),
        StepSpec(prune=True, threshold=0.5, epochs=1),
        StepSpec(prune=True, threshold=0.73, epochs=1),
    ]
    config = mini_config(tmp_path, steps=steps)
    train_set, test_set = mini_data(config)
    run(config, train_set, test_set)
    uninterrupted = read_rows_without_timing(tmp_path / "metrics.csv")
    assert {row["step"] for row in uninterrupted} == {"0", "1", "2"}

    # Resuming the finished run from its first checkpoint repeats steps 1
    # and 2; their rows replace the ones written before, not follow them.
    run(config, train_set, test_set, resume_from=tmp_path / "step_00.npz")
    assert read_rows_without_timing(tmp_path / "metrics.csv") == uninterrupted


@pytest.mark.parametrize("shift", [1.0, np.nan])
def test_corrupted_rewrite_stops_the_run(tmp_path, monkeypatch, shift):
    def corrupted_rewrite(*args, **kwargs):
        result = pruner.rewrite(*args, **kwargs)
        head = result.weights["head"]
        result.weights["head"] = {**head, "bias": head["bias"] + shift}
        return result

    monkeypatch.setattr(workflow, "rewrite", corrupted_rewrite)
    config = mini_config(tmp_path)
    with pytest.raises(RewriteMismatch, match="step 1"):
        run(config, *mini_data(config))
    # Rows written before the failed check stay in the file.
    assert {row["step"] for row in read_rows_without_timing(tmp_path / "metrics.csv")} == {"0"}


# -- command line ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli_run")
    doc = {
        "model": "resnet8",
        "model_args": {"width": 4, "classes": 4, "input_size": 32},
        "dataset": BLOBS,
        "dataset_size": 40,
        "train_fraction": 0.75,
        "seed": 1,
        "batch_size": 15,
        "steps": [{"prune": False, "epochs": 1}],
        "objective": {"mode": "sparsity", "target": 0.4, "mu": 0.1, "lam": 0.1},
        "optimizer": {"kind": "sgd", "lr": 0.01},
    }
    config_path = out_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    assert cli_main(["train", "--config", str(config_path), "--out-dir", str(out_dir)]) == 0
    return out_dir


class TestCli:
    def test_show_graph_prints_valid_document(self, capsys):
        assert cli_main(["show-graph", "--model", "resnet8"]) == 0
        text = capsys.readouterr().out
        graph = graphio.deserialize(text)
        assert validate(graph, TensorShape(1, 3, (32, 32))) == []

    def test_show_graph_reports_diagnostics(self, capsys):
        code = cli_main(["show-graph", "--model", "resnet8", "--input-shape", "3x5x5"])
        assert code == 0
        assert "#" in capsys.readouterr().out.splitlines()[-1]

    def test_train_writes_artifacts(self, trained, capsys):
        assert (trained / "metrics.csv").exists()
        assert (trained / "final_model.npz").exists()

    def test_eval_prints_score(self, trained, capsys):
        code = cli_main([
            "eval", "--checkpoint", str(trained / "step_00.npz"),
            "--size", "40", "--seed", "1",
        ])
        assert code == 0
        assert "score" in capsys.readouterr().out

    def test_report_prints_totals(self, trained, capsys):
        code = cli_main(["report", "--checkpoint", str(trained / "step_00.npz")])
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_p" in out and "sigma_q" in out

    def test_export_gates_round_trips(self, trained, capsys, tmp_path):
        out = tmp_path / "gates.txt"
        code = cli_main([
            "export-gates", "--checkpoint", str(trained / "step_00.npz"), "--out", str(out)
        ])
        assert code == 0
        assert out.read_text().strip()

    def test_missing_checkpoint_is_a_clean_error(self, capsys, tmp_path):
        code = cli_main(["eval", "--checkpoint", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "error" in capsys.readouterr().err
