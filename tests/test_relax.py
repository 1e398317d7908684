"""Gate math: logistic gains, masks, stiffening penalty, snapshots."""
import math

import numpy as np
import pytest

from prunekit.errors import InvalidConfig
from prunekit.graph import TensorShape, infer_shapes
from prunekit.models import build_reference_model
from prunekit.pruner import threshold_masks
from prunekit.relax import (
    GateSet,
    export_snapshot,
    init_gates,
    sigma,
    slope,
    snapshot,
    stiffening,
)
from prunekit.subgraph import identify_subgraphs


def resnet8_coloring():
    g = build_reference_model("resnet8")
    shapes = infer_shapes(g, TensorShape(1, 3, (32, 32)))
    return identify_subgraphs(g, shapes)


class TestSigma:
    # Frozen by hand: 1/(1+e^-1) and 1/(1+e^-4).
    def test_known_values(self):
        assert sigma(0.0, steepness=4.0) == pytest.approx(0.5, abs=1e-15)
        assert sigma(0.25, steepness=4.0) == pytest.approx(0.7310585786300049, abs=1e-15)
        assert sigma(1.0, steepness=4.0) == pytest.approx(0.9820137900379085, abs=1e-15)
        assert sigma(1.0, steepness=1.0) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_symmetry(self):
        s = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(sigma(s) + sigma(-s), np.ones_like(s), atol=1e-15)

    def test_saturation_is_stable(self):
        big = np.array([-1e4, -60.0, 60.0, 1e4])
        out = sigma(big, steepness=4.0)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 1.0], atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        s = rng.normal(0, 1.5, size=40)
        h = 1e-6
        fd = (sigma(s + h, 4.0) - sigma(s - h, 4.0)) / (2 * h)
        np.testing.assert_allclose(slope(sigma(s, 4.0), 4.0), fd, rtol=1e-7, atol=1e-9)

    def test_grad_peak_at_zero(self):
        # a * 0.25 at s = 0
        assert slope(sigma(0.0, steepness=4.0), 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_steepness_rejected(self):
        with pytest.raises(InvalidConfig):
            sigma(0.0, steepness=0.0)


class TestGateSet:
    def test_init_default_score(self):
        col = resnet8_coloring()
        gates = init_gates(col, steepness=4.0)
        assert set(gates.values) == {g.id for g in col.prunable_groups()}
        for g in col.prunable_groups():
            assert gates.values[g.id].shape == (g.width,)
            np.testing.assert_allclose(gates.values[g.id], 0.25)
            np.testing.assert_allclose(snapshot(gates)[g.id], 0.7310585786300049, rtol=1e-6)
        assert gates.total_size() == sum(g.width for g in col.prunable_groups())

    def test_init_jitter_is_deterministic_and_zero_mean(self):
        col = resnet8_coloring()
        a = init_gates(col, jitter=0.02, rng=np.random.default_rng(7))
        b = init_gates(col, jitter=0.02, rng=np.random.default_rng(7))
        c = init_gates(col, jitter=0.02, rng=np.random.default_rng(8))
        for gid in a.values:
            np.testing.assert_array_equal(a.values[gid], b.values[gid])
            assert not np.array_equal(a.values[gid], c.values[gid])
            spread = a.values[gid] - 0.25
            assert 0 < np.abs(spread).max() < 0.2
        # Within one group the scores must actually differ from each other.
        widest = max(a.values.values(), key=len)
        assert len(np.unique(widest)) == len(widest)

    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_init_rejects_negative_jitter(self, bad):
        with pytest.raises(InvalidConfig, match="jitter"):
            init_gates(resnet8_coloring(), jitter=bad, rng=np.random.default_rng(0))

    def test_invalid_hyperparameters(self):
        with pytest.raises(InvalidConfig):
            GateSet(values={}, steepness=-1.0)
        with pytest.raises(InvalidConfig):
            GateSet(values={}, stiffening_sd=0.0)


class TestMasks:
    def test_threshold_is_strict(self):
        # sigma(0.25, a=4) = 0.7310585786300049 exactly at the threshold -> drop
        gates = GateSet(values={0: np.array([0.25, 0.3, -0.25])}, steepness=4.0)
        mask = threshold_masks(gates, 0.7310585786300049)
        np.testing.assert_array_equal(mask.masks[0], [0, 1, 0])

    def test_zero_threshold_keeps_everything(self):
        gates = GateSet(values={0: np.array([-50.0, 0.0, 50.0])})
        mask = threshold_masks(gates, 0.0)
        np.testing.assert_array_equal(mask.masks[0], [1, 1, 1])

    def test_threshold_domain(self):
        gates = GateSet(values={0: np.zeros(3)})
        with pytest.raises(InvalidConfig):
            threshold_masks(gates, 1.0)
        with pytest.raises(InvalidConfig):
            threshold_masks(gates, -0.1)


class TestStiffening:
    def test_known_values(self):
        # exp(-s^2 / (2 b^2)) averaged over all gate entries.
        gates = GateSet(values={0: np.array([1.0])}, stiffening_sd=1.0)
        assert stiffening(gates)[0] == pytest.approx(0.6065306597126334, abs=1e-15)
        gates = GateSet(values={0: np.array([0.0, 1e8])}, stiffening_sd=1.0)
        assert stiffening(gates)[0] == pytest.approx(0.5, abs=1e-12)
        gates = GateSet(values={0: np.array([2.0])}, stiffening_sd=2.0)
        assert stiffening(gates)[0] == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_average_spans_groups_of_unequal_width(self):
        gates = GateSet(values={0: np.zeros(3), 1: np.array([1e8])}, stiffening_sd=1.0)
        # (3 * 1.0 + 0.0) / 4
        assert stiffening(gates)[0] == pytest.approx(0.75, abs=1e-12)

    def test_maximised_at_zero_scores(self):
        gates = GateSet(values={0: np.zeros(5)})
        assert stiffening(gates)[0] == pytest.approx(1.0, abs=1e-15)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        values = {0: rng.normal(0, 1, 5), 3: rng.normal(0, 1, 2)}
        gates = GateSet(values={k: v.copy() for k, v in values.items()}, stiffening_sd=0.8)
        _, grads = stiffening(gates)
        h = 1e-6
        for gid, vec in values.items():
            for i in range(len(vec)):
                up = {k: v.copy() for k, v in values.items()}
                dn = {k: v.copy() for k, v in values.items()}
                up[gid][i] += h
                dn[gid][i] -= h
                fd = (
                    stiffening(GateSet(values=up, stiffening_sd=0.8))[0]
                    - stiffening(GateSet(values=dn, stiffening_sd=0.8))[0]
                ) / (2 * h)
                assert grads[gid][i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_grad_zero_for_empty_gates(self):
        gates = GateSet(values={})
        assert stiffening(gates) == (0.0, {})


class TestSnapshots:
    def test_snapshot_copies(self):
        gates = GateSet(values={0: np.array([0.1, 0.2])})
        snap = snapshot(gates)
        snap[0][0] = 99.0
        assert gates.values[0][0] == pytest.approx(0.1)

    def test_export_is_text_with_gains(self):
        gates = GateSet(values={0: np.array([0.25]), 2: np.array([-0.25, 1.0])})
        text = export_snapshot(gates)
        assert "0.7310" in text  # sigma(0.25, a=4)
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        assert len(lines) == 2  # one record per group
