"""Loss assembly: cross-entropy oracles, schedules, pressure + stiffening."""
import math
import sys

import numpy as np
import pytest

from prunekit import relax
from prunekit.engine import forward, init_weights
from prunekit.errors import (
    EmptySchedule,
    InvalidConfig,
    LabelOutOfRange,
    LengthMismatch,
    ScheduleUnresolved,
)
from prunekit.graph import TensorShape, infer_shapes
from prunekit.models import build_reference_model
from prunekit.objective import (
    MODE_FLOPS,
    MODE_SPARSITY,
    ObjectiveConfig,
    architecture_terms,
    confusion_counts,
    cross_entropy,
    mean_iou,
    resolve_schedule,
    total_loss,
)
from prunekit.relax import init_gates, sigma, snapshot
from prunekit.subgraph import identify_subgraphs

from gen import gated_setups, random_gates
from oracles import relative_error


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((8, 4))
        labels = np.arange(8) % 4
        loss, _ = cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_prediction(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, grad = cross_entropy(logits, np.array([1, 2]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_two_class_hand_value(self):
        # softmax([1, 0]) = [e/(e+1), 1/(e+1)]; -log p(correct=0)
        logits = np.array([[1.0, 0.0]])
        loss, grad = cross_entropy(logits, np.array([0]))
        expected = math.log(1.0 + math.exp(-1.0))
        assert loss == pytest.approx(expected, abs=1e-12)
        p1 = 1.0 / (1.0 + math.exp(1.0))
        np.testing.assert_allclose(grad, [[-p1, p1]], rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 2, (5, 7)).astype(np.float64)
        labels = rng.integers(0, 7, 5)
        _, grad = cross_entropy(logits, labels)
        h = 1e-6
        for i in range(5):
            for j in range(7):
                keep = logits[i, j]
                logits[i, j] = keep + h
                up, _ = cross_entropy(logits, labels)
                logits[i, j] = keep - h
                dn, _ = cross_entropy(logits, labels)
                logits[i, j] = keep
                assert relative_error(grad[i, j], (up - dn) / (2 * h)) < 1e-6

    def test_dense_prediction(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 1, (2, 3, 4, 4))
        labels = rng.integers(0, 3, (2, 4, 4))
        loss, grad = cross_entropy(logits, labels)
        assert grad.shape == logits.shape
        # mean over positions: equals flattening positions into the batch
        flat_logits = np.moveaxis(logits, 1, -1).reshape(-1, 3).copy()
        flat_labels = labels.reshape(-1)
        flat_loss, _ = cross_entropy(flat_logits, flat_labels)
        assert loss == pytest.approx(flat_loss, rel=1e-12)

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1e30, -1e30, 0.0]])
        loss, grad = cross_entropy(logits, np.array([0]))
        assert math.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(LabelOutOfRange):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            cross_entropy(np.zeros((2, 3)), np.zeros((3,), dtype=int))
        with pytest.raises(LengthMismatch):
            cross_entropy(np.zeros(4), np.zeros(4, dtype=int))


class TestSchedules:
    def test_constant(self):
        assert resolve_schedule(0.5, 0) == 0.5
        assert resolve_schedule(2, 99) == 2.0

    def test_piecewise(self):
        spec = [(0, 0.1), (2, 0.5), (5, 1.0)]
        assert resolve_schedule(spec, 0) == 0.1
        assert resolve_schedule(spec, 1) == 0.1
        assert resolve_schedule(spec, 2) == 0.5
        assert resolve_schedule(spec, 4) == 0.5
        assert resolve_schedule(spec, 5) == 1.0
        assert resolve_schedule(spec, 50) == 1.0

    def test_unordered_entries_are_sorted(self):
        assert resolve_schedule([(5, 1.0), (0, 0.1)], 3) == 0.1

    def test_errors(self):
        with pytest.raises(ScheduleUnresolved):
            resolve_schedule("auto", 0)
        with pytest.raises(ScheduleUnresolved):
            resolve_schedule([(2, 0.5)], 1)
        with pytest.raises(EmptySchedule):
            resolve_schedule([], 0)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            ObjectiveConfig(mode="speed")
        with pytest.raises(InvalidConfig):
            ObjectiveConfig(target=1.5)
        cfg = ObjectiveConfig(mode=MODE_FLOPS, target=0.4)
        resolved = cfg.resolved(0.7)
        assert resolved.mu == 0.7 and resolved.lam == 0.7
        explicit = ObjectiveConfig(mu=0.2, lam=0.3).resolved(9.0)
        assert explicit.mu == 0.2 and explicit.lam == 0.3  # explicit wins
        mixed = ObjectiveConfig(mu="auto", lam=[(0, 0.3)]).resolved(2.0)
        assert mixed.mu == 2.0 and mixed.lam == [(0, 0.3)]


class TestArchitectureTerms:
    def setup_case(self, mode, target, mu=0.5, lam=0.25):
        graph = build_reference_model("resnet8")
        shapes = infer_shapes(graph, TensorShape(1, 3, (32, 32)))
        col = identify_subgraphs(graph, shapes)
        gates = init_gates(col, dtype=np.float64)
        cfg = ObjectiveConfig(mode=mode, target=target, mu=mu, lam=lam)
        return graph, shapes, col, gates, cfg

    def test_zero_weights_give_zero_terms(self):
        graph, shapes, col, gates, _ = self.setup_case(MODE_SPARSITY, 0.3)
        cfg = ObjectiveConfig(mode=MODE_SPARSITY, target=0.3, mu=0.0, lam=0.0)
        pressure, stiff, ratio, sp, sq, grads = architecture_terms(
            graph, col, gates, snapshot(gates), shapes, cfg, step=0
        )
        assert pressure == 0.0 and stiff == 0.0
        assert grads == {}
        assert 0 < ratio < 1

    def test_pressure_value_and_direction(self):
        graph, shapes, col, gates, cfg = self.setup_case(MODE_SPARSITY, 0.0, mu=2.0, lam=0.0)
        pressure, stiff, ratio, sp, sq, grads = architecture_terms(
            graph, col, gates, snapshot(gates), shapes, cfg, step=0
        )
        assert pressure == pytest.approx(2.0 * abs(sp - 0.0), rel=1e-12)
        # ratio above target: positive gradient pushes scores (and gains) down
        for gid, arr in grads.items():
            assert np.all(arr > 0)

    def test_pressure_sign_flips_below_target(self):
        graph, shapes, col, gates, cfg = self.setup_case(MODE_SPARSITY, 1.0, mu=2.0, lam=0.0)
        _, _, ratio, _, _, grads = architecture_terms(
            graph, col, gates, snapshot(gates), shapes, cfg, step=0
        )
        assert ratio < 1.0
        for arr in grads.values():
            assert np.all(arr < 0)

    def test_exact_target_uses_zero_subgradient(self):
        graph, shapes, col, gates, _ = self.setup_case(MODE_SPARSITY, 0.3)
        probe = architecture_terms(
            graph, col, gates, snapshot(gates), shapes,
            ObjectiveConfig(mode=MODE_SPARSITY, target=0.3, mu=1.0, lam=0.0), step=0,
        )
        ratio = probe[2]
        cfg = ObjectiveConfig(mode=MODE_SPARSITY, target=ratio, mu=1.0, lam=0.0)
        pressure, _, _, _, _, grads = architecture_terms(
            graph, col, gates, snapshot(gates), shapes, cfg, step=0
        )
        assert pressure == pytest.approx(0.0, abs=1e-12)
        assert grads == {}

    def test_gradient_matches_finite_differences(self):
        for mode in (MODE_SPARSITY, MODE_FLOPS):
            graph, shapes, col, gates, cfg = self.setup_case(mode, 0.0, mu=0.8, lam=0.3)
            rng = np.random.default_rng(4)
            for gid in gates.values:
                gates.values[gid] = rng.normal(0.2, 0.6, gates.values[gid].shape)

            def objective_value():
                p, s, *_ = architecture_terms(
                    graph, col, gates, snapshot(gates), shapes, cfg, step=0
                )
                return p + s

            _, _, _, _, _, grads = architecture_terms(
                graph, col, gates, snapshot(gates), shapes, cfg, step=0
            )
            h = 1e-6
            for gid in gates.values:
                vec = gates.values[gid]
                for i in range(vec.size):
                    keep = vec[i]
                    vec[i] = keep + h
                    up = objective_value()
                    vec[i] = keep - h
                    dn = objective_value()
                    vec[i] = keep
                    fd = (up - dn) / (2 * h)
                    assert relative_error(grads[("s", gid)][i], fd) < 1e-5, (mode, gid, i)

    def test_schedule_driven_weights(self):
        graph, shapes, col, gates, _ = self.setup_case(MODE_SPARSITY, 0.0)
        cfg = ObjectiveConfig(
            mode=MODE_SPARSITY, target=0.0, mu=[(0, 0.0), (3, 1.0)], lam=0.0
        )
        early = architecture_terms(graph, col, gates, snapshot(gates), shapes, cfg, step=0)
        late = architecture_terms(graph, col, gates, snapshot(gates), shapes, cfg, step=3)
        assert early[0] == 0.0
        assert late[0] > 0.0


class TestTotalLoss:
    def make_inputs(self, seed=0):
        seed0, graph, entry_shape, shapes, col = gated_setups(1, start_seed=seed)[0]
        rng = np.random.default_rng(seed0 + 500)
        weights = init_weights(graph, shapes, rng, dtype=np.float64)
        x = rng.normal(0, 1, entry_shape.dims())
        gates = random_gates(col, rng, dtype=np.float64)
        out_shape = forward(graph, weights, x).output.shape
        labels = rng.integers(0, out_shape[1], (out_shape[0],) + tuple(out_shape[2:]))
        return graph, shapes, col, weights, gates, x, labels

    def test_breakdown_adds_up(self):
        graph, shapes, col, weights, gates, x, labels = self.make_inputs()
        cfg = ObjectiveConfig(mode=MODE_FLOPS, target=0.2, mu=0.5, lam=0.25)
        breakdown, grads, run = total_loss(
            graph, weights, x, labels,
            coloring=col, gates=gates, shapes=shapes, objective=cfg, training=False,
        )
        assert breakdown.total == pytest.approx(
            breakdown.task_loss + breakdown.pressure_term + breakdown.stiffening_term, rel=1e-12
        )
        assert breakdown.ratio == pytest.approx(breakdown.sigma_q, rel=1e-12)
        assert any(key[0] == "w" for key in grads)
        assert any(key[0] == "s" for key in grads)

    def test_gains_are_evaluated_once_per_group(self, monkeypatch):
        graph = build_reference_model("resnet18", width=16, classes=4, input_size=8)
        entry = TensorShape(8, 3, (8, 8))
        shapes = infer_shapes(graph, entry)
        col = identify_subgraphs(graph, shapes)
        rng = np.random.default_rng(0)
        weights = init_weights(graph, shapes, rng)
        gates = init_gates(col, jitter=0.02, rng=rng)
        x = rng.normal(0, 1, entry.dims()).astype(np.float32)
        labels = rng.integers(0, 4, entry.batch)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        original = relax.sigma
        for name, module in list(sys.modules.items()):
            if name.startswith("prunekit") and getattr(module, "sigma", None) is original:
                monkeypatch.setattr(module, "sigma", counted)
        cfg = ObjectiveConfig(mode=MODE_FLOPS, target=0.0, mu=1.0, lam=1.0)
        total_loss(
            graph, weights, x, labels,
            coloring=col, gates=gates, shapes=shapes, objective=cfg,
        )
        assert len(gates.values) == 12
        assert len(calls) == len(gates.values)

    def test_zero_weights_reduce_to_task_loss(self):
        graph, shapes, col, weights, gates, x, labels = self.make_inputs()
        cfg = ObjectiveConfig(mode=MODE_SPARSITY, target=0.2, mu=0.0, lam=0.0)
        breakdown, grads, _ = total_loss(
            graph, weights, x, labels,
            coloring=col, gates=gates, shapes=shapes, objective=cfg, training=False,
        )
        assert breakdown.total == breakdown.task_loss
        assert breakdown.pressure_term == 0.0
        assert breakdown.stiffening_term == 0.0

    def test_architecture_grads_are_additive(self):
        graph, shapes, col, weights, gates, x, labels = self.make_inputs(seed=3)
        task_only = ObjectiveConfig(mode=MODE_SPARSITY, target=0.0, mu=0.0, lam=0.0)
        both = ObjectiveConfig(mode=MODE_SPARSITY, target=0.0, mu=0.7, lam=0.2)
        _, g_task, _ = total_loss(
            graph, weights, x, labels,
            coloring=col, gates=gates, shapes=shapes, objective=task_only, training=False,
        )
        _, g_both, _ = total_loss(
            graph, weights, x, labels,
            coloring=col, gates=gates, shapes=shapes, objective=both, training=False,
        )
        _, _, _, _, _, g_arch = architecture_terms(
            graph, col, gates, snapshot(gates), shapes, both, step=0
        )
        for key in g_both:
            if key[0] == "w":
                np.testing.assert_allclose(g_both[key], g_task[key], rtol=1e-12)
            else:
                expected = g_task.get(key, 0.0) + g_arch.get(key, 0.0)
                np.testing.assert_allclose(g_both[key], expected, rtol=1e-10, atol=1e-15)


class TestMetrics:
    def test_confusion_and_miou_hand_case(self):
        pred = np.array([0, 0, 1, 1, 2, 2])
        true = np.array([0, 1, 1, 1, 2, 0])
        inter, p, t = confusion_counts(pred, true, classes=4)
        np.testing.assert_array_equal(inter, [1, 2, 1, 0])
        np.testing.assert_array_equal(p, [2, 2, 2, 0])
        np.testing.assert_array_equal(t, [2, 3, 1, 0])
        # unions: 3, 3, 2; class 3 absent everywhere -> excluded
        expected = (1 / 3 + 2 / 3 + 1 / 2) / 3
        assert mean_iou(inter, p, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_confusion_counts_match_a_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        classes = int(rng.integers(1, 6))
        # Predictions may name more classes than the labels carry.
        pred = rng.integers(0, classes + 2, size=(3, 5, 4))
        labels = rng.integers(0, classes, size=(3, 5, 4))
        got = confusion_counts(pred, labels, classes)
        for c in range(classes):
            pc, tc = pred == c, labels == c
            assert [g[c] for g in got] == [np.count_nonzero(pc & tc), np.count_nonzero(pc),
                                           np.count_nonzero(tc)]
        assert all(g.shape == (classes,) for g in got)
        assert int(got[0].sum()) == np.count_nonzero(pred == labels)

    def test_miou_perfect_and_empty(self):
        pred = np.array([0, 1])
        inter, p, t = confusion_counts(pred, pred, classes=3)
        assert mean_iou(inter, p, t) == 1.0
        z = np.zeros(3, dtype=np.int64)
        assert mean_iou(z, z, z) == 0.0
