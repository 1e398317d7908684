"""Gradient-descent optimizers and checkpoint serialization.

Updates are applied in place and iterate over sorted parameter keys, so a
training step is a pure function of (parameters, gradients, state) — no dict
ordering or threading effects. Checkpoints are single ``.npz`` files that
embed the serialized graph, all weight and gate arrays, optimizer slots, the
RNG state and a JSON metadata block; restoring one resumes training bitwise.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import ParamKey, Weights
from .errors import CheckpointError, InvalidConfig, NonFiniteGradient
from .graph import Graph
from .graphio import deserialize, serialize
from .relax import GateSet

CHECKPOINT_VERSION = 2

# Weight decay applies only to multiplicative weight matrices; biases,
# BatchNorm affine terms and gate scores are exempt.
_DECAYED = {"kernel", "weight"}


@dataclass
class OptimConfig:
    kind: str = "adam"  # "adam" | "sgd"
    lr: float = 1e-3
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("adam", "sgd"):
            raise InvalidConfig(f"unknown optimizer kind {self.kind!r}")
        if not self.lr > 0:
            raise InvalidConfig(f"learning rate must be positive, got {self.lr}")


class Optimizer:
    """SGD-with-momentum or Adam over a flat {key: array} parameter view.

    Moments are updated in place, and a step puts every update's temporaries
    into one pair of scratch arrays per dtype, as large as the step's largest
    parameter and let go when the step ends. The operations keep the order of
    the textbook formulas, so the result is bitwise that of computing them
    out of place."""

    def __init__(self, config: OptimConfig):
        self.config = config
        self.t = 0
        self.slots: dict[ParamKey, dict[str, np.ndarray]] = {}

    def step(
        self,
        params: dict[ParamKey, np.ndarray],
        grads: dict[ParamKey, np.ndarray],
        lr: float | None = None,
    ) -> None:
        """Apply one update in place. Parameters without a gradient are left
        untouched; non-finite gradients abort the step."""
        cfg = self.config
        rate = cfg.lr if lr is None else lr
        # Validate every gradient before mutating anything, so a rejected
        # step leaves parameters, slots and the step count untouched.
        updates = []
        for key in sorted(grads):
            if key not in params:
                continue
            p = params[key]
            g = np.asarray(grads[key], dtype=p.dtype)
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"gradient for {key!r} contains NaN or Inf")
            updates.append((key, p, g))
        self.t += 1
        sizes: dict[np.dtype, int] = {}
        for _, p, _ in updates:
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        scratch = {dtype: (np.empty(n, dtype), np.empty(n, dtype)) for dtype, n in sizes.items()}
        for key, p, g in updates:
            # g may be the caller's array: it is read, never written.
            s1, s2 = (a[:p.size].reshape(p.shape) for a in scratch[p.dtype])
            if cfg.weight_decay and key[0] == "w" and key[2] in _DECAYED:
                np.multiply(p, cfg.weight_decay, out=s1)
                s1 += g  # g + weight_decay * p
                g = s1
            slot = self.slots.setdefault(key, {})
            if cfg.kind == "sgd":
                if "vel" not in slot:
                    slot["vel"] = np.zeros_like(p)
                vel = slot["vel"]
                vel *= cfg.momentum
                vel += g
                p -= np.multiply(vel, rate, out=s2)
            else:
                if "m" not in slot:
                    slot["m"], slot["v"] = np.zeros_like(p), np.zeros_like(p)
                m, v = slot["m"], slot["v"]
                m *= cfg.beta1
                m += np.multiply(g, 1 - cfg.beta1, out=s2)
                v *= cfg.beta2
                np.square(g, out=s2)
                s2 *= 1 - cfg.beta2
                v += s2
                # p -= rate * mhat / (sqrt(vhat) + eps), mhat in s1, vhat in s2
                np.divide(m, 1 - cfg.beta1 ** self.t, out=s1)
                np.divide(v, 1 - cfg.beta2 ** self.t, out=s2)
                s1 *= rate
                np.sqrt(s2, out=s2)
                s2 += cfg.eps
                s1 /= s2
                p -= s1


# -- checkpoints -----------------------------------------------------------------


@dataclass
class Checkpoint:
    graph: Graph
    weights: Weights
    gates: GateSet  # empty when the archive holds no gate record
    opt_state: dict | None
    rng_state: dict | None
    meta: dict = field(default_factory=dict)


def save_checkpoint(
    path: str | Path,
    *,
    graph: Graph,
    weights: Weights,
    gates: GateSet | None = None,
    optimizer: Optimizer | None = None,
    rng: np.random.Generator | None = None,
    meta: dict | None = None,
) -> None:
    """Write a self-contained training snapshot.

    Array names in the archive are positional (``a00000`` ...); the JSON
    header's ``index`` names each one by its key: ``["w", node, name]`` for a
    weight, ``["s", group]`` for gate scores and ``[slot, *param key]`` for an
    optimizer moment, so arbitrary node-id strings round-trip safely.
    ``gates=None`` writes no gate record (a folded model); such a checkpoint
    loads with an empty gate set.
    """
    arrays: dict[str, np.ndarray] = {}
    index: list[list] = []
    header: dict = {"version": CHECKPOINT_VERSION, "graph": serialize(graph),
                    "meta": meta or {}, "index": index}

    def put(key: list, arr: np.ndarray) -> None:
        arrays[f"a{len(index):05d}"] = arr
        index.append(key)

    for nid in sorted(weights):
        for name in sorted(weights[nid]):
            put(["w", nid, name], weights[nid][name])
    if gates is not None:
        for gid in sorted(gates.values):
            put(["s", int(gid)], gates.values[gid])
        header["gates"] = {"steepness": gates.steepness, "stiffening_sd": gates.stiffening_sd}
    if optimizer is not None:
        for key in sorted(optimizer.slots):
            for slot_name in sorted(optimizer.slots[key]):
                put([slot_name, *key], optimizer.slots[key][slot_name])
        header["opt_t"] = optimizer.t
    if rng is not None:
        header["rng_state"] = rng.bit_generator.state

    arrays["header"] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write to a temporary file then rename so an interrupted save never
    # leaves a truncated checkpoint under the final name. np.savez gets the
    # open handle: given the path it would append ".npz" to it.
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; an unreadable archive, another version or a
    missing part (named) raises :class:`CheckpointError`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if "header" not in arrays:
        raise CheckpointError(f"checkpoint {path} has no header block")
    try:
        header = json.loads(bytes(arrays["header"].tobytes()).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(f"corrupt header in {path}: {exc}") from exc
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")

    try:
        graph = deserialize(header["graph"])
        weights: Weights = {}
        values: dict[int, np.ndarray] = {}
        slots: dict[ParamKey, dict[str, np.ndarray]] = {}
        for i, key in enumerate(header["index"]):
            arr = arrays[f"a{i:05d}"]
            if key[0] == "w":
                weights.setdefault(key[1], {})[key[2]] = arr
            elif key[0] == "s":
                values[int(key[1])] = arr
            else:
                slots.setdefault(tuple(key[1:]), {})[key[0]] = arr
        # Gate scores need their record, and moments their step count.
        gates = GateSet(values={})
        if values or "gates" in header:
            record = header["gates"]
            gates = GateSet(values=values, steepness=record["steepness"],
                            stiffening_sd=record["stiffening_sd"])
        opt_state = {"t": header["opt_t"], "slots": slots} if slots or "opt_t" in header else None
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} lacks {exc}") from exc

    return Checkpoint(
        graph=graph,
        weights=weights,
        gates=gates,
        opt_state=opt_state,
        rng_state=header.get("rng_state"),
        meta=header.get("meta", {}),
    )
