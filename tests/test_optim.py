"""Optimizers against hand-stepped updates; checkpoint round trips."""
import json

import numpy as np
import pytest

from prunekit.cli import main as cli_main
from prunekit.engine import init_weights
from prunekit.errors import CheckpointError, InvalidConfig, NonFiniteGradient
from prunekit.graph import TensorShape, infer_shapes
from prunekit.graphio import serialize
from prunekit.models import build_reference_model
from prunekit.optim import (
    Checkpoint,
    OptimConfig,
    Optimizer,
    load_checkpoint,
    save_checkpoint,
)
from prunekit.relax import init_gates
from prunekit.subgraph import identify_subgraphs

from oracles import reference_optimizer_step


def hand_adam(theta0, grads, lr, b1, b2, eps):
    """Textbook Adam with bias correction, stepped in plain Python."""
    theta = float(theta0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (vhat ** 0.5 + eps)
    return theta


def hand_sgd(theta0, grads, lr, momentum):
    theta = float(theta0)
    vel = 0.0
    for g in grads:
        vel = momentum * vel + g
        theta -= lr * vel
    return theta


class TestOptimizers:
    def test_adam_matches_hand_computation(self):
        cfg = OptimConfig(kind="adam", lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        opt = Optimizer(cfg)
        p = {("w", "n", "kernel"): np.array([1.0])}
        gs = [0.3, -0.2, 0.7]
        for g in gs:
            opt.step(p, {("w", "n", "kernel"): np.array([g])})
        expected = hand_adam(1.0, gs, 0.01, 0.9, 0.999, 1e-8)
        assert p[("w", "n", "kernel")][0] == pytest.approx(expected, rel=1e-12)

    def test_sgd_momentum_matches_hand_computation(self):
        cfg = OptimConfig(kind="sgd", lr=0.1, momentum=0.9)
        opt = Optimizer(cfg)
        p = {("s", 0): np.array([2.0])}
        gs = [1.0, 1.0, -0.5]
        for g in gs:
            opt.step(p, {("s", 0): np.array([g])})
        assert p[("s", 0)][0] == pytest.approx(hand_sgd(2.0, gs, 0.1, 0.9), rel=1e-12)

    def test_weight_decay_only_on_matrices(self):
        cfg = OptimConfig(kind="sgd", lr=1.0, momentum=0.0, weight_decay=0.1)
        opt = Optimizer(cfg)
        p = {
            ("w", "c", "kernel"): np.array([1.0]),
            ("w", "c", "bias"): np.array([1.0]),
            ("w", "bn", "gamma"): np.array([1.0]),
            ("s", 3): np.array([1.0]),
        }
        zero = {key: np.array([0.0]) for key in p}
        opt.step(p, zero)
        assert p[("w", "c", "kernel")][0] == pytest.approx(0.9)  # decayed
        assert p[("w", "c", "bias")][0] == 1.0
        assert p[("w", "bn", "gamma")][0] == 1.0
        assert p[("s", 3)][0] == 1.0

    def test_lr_override(self):
        cfg = OptimConfig(kind="sgd", lr=1.0, momentum=0.0)
        opt = Optimizer(cfg)
        p = {("s", 0): np.array([1.0])}
        opt.step(p, {("s", 0): np.array([1.0])}, lr=0.25)
        assert p[("s", 0)][0] == pytest.approx(0.75)

    def test_params_without_grads_untouched(self):
        opt = Optimizer(OptimConfig(kind="sgd", lr=1.0, momentum=0.0))
        p = {("s", 0): np.array([1.0]), ("s", 1): np.array([5.0])}
        opt.step(p, {("s", 0): np.array([1.0])})
        assert p[("s", 1)][0] == 5.0

    def test_nonfinite_gradient_rejected(self):
        opt = Optimizer(OptimConfig())
        p = {("s", 0): np.array([1.0])}
        with pytest.raises(NonFiniteGradient):
            opt.step(p, {("s", 0): np.array([np.nan])})
        with pytest.raises(NonFiniteGradient):
            opt.step(p, {("s", 0): np.array([np.inf])})

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_rejected_step_changes_nothing(self, kind):
        opt = Optimizer(OptimConfig(kind=kind, lr=0.1))
        p = {("s", 0): np.array([1.0, 2.0]), ("s", 1): np.array([3.0])}
        opt.step(p, {("s", 0): np.array([0.5, -0.5]), ("s", 1): np.array([1.0])})
        before_p = {k: v.copy() for k, v in p.items()}
        before_slots = {k: {n: a.copy() for n, a in slot.items()} for k, slot in opt.slots.items()}
        # the NaN sits on the last key in sorted order, after a finite one
        with pytest.raises(NonFiniteGradient):
            opt.step(p, {("s", 0): np.array([0.1, 0.1]), ("s", 1): np.array([np.nan])})
        assert opt.t == 1
        for key, arr in before_p.items():
            np.testing.assert_array_equal(p[key], arr)
        assert opt.slots.keys() == before_slots.keys()
        for key, slot in before_slots.items():
            assert opt.slots[key].keys() == slot.keys()
            for name, arr in slot.items():
                np.testing.assert_array_equal(opt.slots[key][name], arr)

    def test_update_order_independent_of_dict_order(self):
        rng = np.random.default_rng(0)
        keys = [("w", "b", "kernel"), ("w", "a", "kernel"), ("s", 1), ("s", 0)]
        values = {k: rng.normal(0, 1, 4) for k in keys}
        grads = {k: rng.normal(0, 1, 4) for k in keys}

        p1 = {k: values[k].copy() for k in keys}
        p2 = {k: values[k].copy() for k in reversed(keys)}
        o1, o2 = Optimizer(OptimConfig()), Optimizer(OptimConfig())
        o1.step(p1, dict(grads))
        o2.step(p2, {k: grads[k] for k in reversed(keys)})
        for k in keys:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            OptimConfig(kind="adagrad")
        with pytest.raises(InvalidConfig):
            OptimConfig(lr=0.0)
        with pytest.raises(InvalidConfig):
            OptimConfig(lr=float("nan"))

    def test_state_dict_round_trip(self, tmp_path):
        opt = Optimizer(OptimConfig(kind="adam", lr=0.01))
        p = {("w", "n", "kernel"): np.array([1.0, 2.0])}
        for _ in range(3):
            opt.step(p, {("w", "n", "kernel"): np.array([0.5, -0.5])})
        save_checkpoint(tmp_path / "ck.npz", graph=build_reference_model("resnet8"),
                        weights={}, optimizer=opt)
        clone = Optimizer(OptimConfig(kind="adam", lr=0.01))
        state = load_checkpoint(tmp_path / "ck.npz").opt_state
        clone.t, clone.slots = state["t"], state["slots"]
        assert clone.t == 3
        p2 = {("w", "n", "kernel"): p[("w", "n", "kernel")].copy()}
        g = {("w", "n", "kernel"): np.array([0.1, 0.2])}
        opt.step(p, dict(g))
        clone.step(p2, dict(g))
        np.testing.assert_array_equal(p[("w", "n", "kernel")], p2[("w", "n", "kernel")])


def assert_same_bits(got: dict, want: dict):
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


class TestInPlaceUpdates:
    """The in-place optimizer against ``oracles.reference_optimizer_step``,
    which computes every expression out of place, bit for bit."""

    def problem(self, seed=0):
        """Parameters of both dtypes and several sizes (the largest is not
        first in key order), and a gradient stream that skips one key at one
        step and gives one float32 parameter float64 gradients."""
        rng = np.random.default_rng(seed)
        shapes = {
            ("s", 0): (3,), ("s", 1): (5,),
            ("w", "a", "kernel"): (4, 3, 3, 3), ("w", "b", "kernel"): (8, 4, 3, 3),
            ("w", "bn", "beta"): (8,), ("w", "bn", "gamma"): (8,),
            ("w", "fc", "bias"): (2,), ("w", "fc", "weight"): (2, 8),
        }
        params = {
            k: rng.normal(0, 1, s).astype(np.float64 if k[0] == "s" else np.float32)
            for k, s in shapes.items()
        }
        steps = []
        for i in range(6):
            grads = {k: rng.normal(0, 1, p.shape).astype(p.dtype) for k, p in params.items()}
            grads[("w", "fc", "weight")] = grads[("w", "fc", "weight")].astype(np.float64)
            if i == 2:
                del grads[("w", "a", "kernel")]
            steps.append((grads, 0.003 if i == 4 else None))
        return params, steps

    def check(self, cfg, params, steps, opt=None, state=None):
        opt = opt or Optimizer(cfg)
        state = state or {"t": 0, "slots": {}}
        want = {k: p.copy() for k, p in params.items()}
        for grads, lr in steps:
            snapshot = {k: g.copy() for k, g in grads.items()}
            opt.step(params, grads, lr=lr)
            reference_optimizer_step(cfg, state, want, grads, lr=lr)
            assert_same_bits(grads, snapshot)  # the caller's gradients stay as they were
        assert opt.t == state["t"]
        assert_same_bits(params, want)
        assert opt.slots.keys() == state["slots"].keys()
        for key, slot in state["slots"].items():
            assert_same_bits(opt.slots[key], slot)
        return opt, state

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_steps_match_the_reference_bitwise(self, kind, weight_decay):
        params, steps = self.problem()
        self.check(OptimConfig(kind=kind, lr=0.01, weight_decay=weight_decay), params, steps)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_resumed_steps_match_the_reference_bitwise(self, kind, tmp_path):
        cfg = OptimConfig(kind=kind, lr=0.01, weight_decay=0.05)
        params, steps = self.problem(1)
        opt, state = self.check(cfg, params, steps[:3])
        save_checkpoint(tmp_path / "ck.npz", graph=build_reference_model("resnet8"),
                        weights={}, optimizer=opt)
        resumed = Optimizer(cfg)
        loaded = load_checkpoint(tmp_path / "ck.npz").opt_state
        resumed.t, resumed.slots = loaded["t"], loaded["slots"]
        self.check(cfg, params, steps[3:], resumed, state)


class TestCheckpoints:
    def build_state(self):
        graph = build_reference_model("resnet8")
        shapes = infer_shapes(graph, TensorShape(1, 3, (32, 32)))
        col = identify_subgraphs(graph, shapes)
        rng = np.random.default_rng(9)
        weights = init_weights(graph, shapes, rng)
        gates = init_gates(col, jitter=0.02, rng=rng)
        opt = Optimizer(OptimConfig(kind="adam", lr=2e-3))
        params = {("w", "stem.conv", "kernel"): weights["stem.conv"]["kernel"]}
        opt.step(params, {("w", "stem.conv", "kernel"): np.ones_like(params[("w", "stem.conv", "kernel")])})
        return graph, weights, gates, opt, rng

    def test_round_trip_bitwise(self, tmp_path):
        graph, weights, gates, opt, rng = self.build_state()
        rng.normal(size=10)  # advance the stream so the state is nontrivial
        path = tmp_path / "ck.npz"
        meta = {"next_step": 3, "score": 0.91, "config": {"seed": 7}}
        save_checkpoint(
            str(path), graph=graph, weights=weights, gates=gates,
            optimizer=opt, rng=rng, meta=meta,
        )
        ck = load_checkpoint(str(path))
        assert isinstance(ck, Checkpoint)
        assert serialize(ck.graph) == serialize(graph)
        assert set(ck.weights) == set(weights)
        for nid in weights:
            for name in weights[nid]:
                np.testing.assert_array_equal(ck.weights[nid][name], weights[nid][name])
                assert ck.weights[nid][name].dtype == weights[nid][name].dtype
        for gid in gates.values:
            np.testing.assert_array_equal(ck.gates.values[gid], gates.values[gid])
        assert ck.gates.steepness == gates.steepness
        assert ck.gates.stiffening_sd == gates.stiffening_sd
        assert ck.meta == meta

        # optimizer state restores exactly
        clone = Optimizer(OptimConfig(kind="adam", lr=2e-3))
        clone.t, clone.slots = ck.opt_state["t"], ck.opt_state["slots"]
        assert clone.t == opt.t
        for key, slot in opt.slots.items():
            for name, arr in slot.items():
                np.testing.assert_array_equal(clone.slots[key][name], arr)

        # the restored generator continues the exact stream
        resumed = np.random.default_rng()
        resumed.bit_generator.state = ck.rng_state
        np.testing.assert_array_equal(resumed.normal(size=5), rng.normal(size=5))

    def test_checkpoint_without_optional_parts(self, tmp_path):
        graph, weights, gates, opt, rng = self.build_state()
        path = tmp_path / "bare.npz"
        save_checkpoint(str(path), graph=graph, weights=weights, gates=None,
                        optimizer=None, rng=None, meta={})
        ck = load_checkpoint(str(path))
        assert ck.gates.values == {}
        assert ck.opt_state is None
        assert ck.rng_state is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.npz"))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_archive(self, tmp_path):
        graph, weights, gates, opt, rng = self.build_state()
        path = tmp_path / "ok.npz"
        save_checkpoint(str(path), graph=graph, weights=weights, gates=gates,
                        optimizer=opt, rng=rng, meta={})
        blob = path.read_bytes()
        bad = tmp_path / "cut.npz"
        bad.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("part, name", [
        ("header", "graph"),
        ("header", "index"),
        ("header", "gates"),
        ("header", "opt_t"),
        ("array", "w"),
        ("array", "s"),
        ("array", "m"),
        ("gates", "steepness"),
    ])
    def test_malformed_checkpoint(self, tmp_path, part, name):
        graph, weights, gates, opt, rng = self.build_state()
        path = tmp_path / "ok.npz"
        save_checkpoint(str(path), graph=graph, weights=weights, gates=gates,
                        optimizer=opt, rng=rng, meta={})
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        header = json.loads(arrays["header"].tobytes().decode("utf-8"))
        if part == "array":
            # the first array whose index entry is of this kind
            i = next(i for i, key in enumerate(header["index"]) if key[0] == name)
            name = f"a{i:05d}"
            del arrays[name]
        else:
            del (header if part == "header" else header["gates"])[name]
            arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with pytest.raises(CheckpointError, match=f"lacks '{name}'"):
            load_checkpoint(str(bad))

    def write_version_1(self, path):
        """An archive in the version-1 layout: one prefix and one index list
        per kind of array."""
        graph, weights, _, _, _ = self.build_state()
        w_index = [[nid, name] for nid in sorted(weights) for name in sorted(weights[nid])]
        arrays = {f"w{i:05d}": weights[nid][name] for i, (nid, name) in enumerate(w_index)}
        header = {"version": 1, "graph": serialize(graph), "meta": {}, "w_index": w_index}
        arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

    def test_version_1_archive_refused(self, tmp_path):
        path = tmp_path / "v1.npz"
        self.write_version_1(path)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(str(path))

    def test_eval_on_version_1_archive_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "v1.npz"
        self.write_version_1(path)
        assert cli_main(["eval", "--checkpoint", str(path), "--size", "40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unsupported checkpoint version 1" in err

    def test_no_stray_tmp_file(self, tmp_path):
        graph, weights, gates, opt, rng = self.build_state()
        path = tmp_path / "clean.npz"
        save_checkpoint(str(path), graph=graph, weights=weights, gates=gates,
                        optimizer=opt, rng=rng, meta={})
        assert [p.name for p in tmp_path.iterdir()] == ["clean.npz"]
