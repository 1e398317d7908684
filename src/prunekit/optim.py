"""Gradient-descent optimizers and checkpoint serialization.

Updates are applied in place and iterate over sorted parameter keys, so a
training step is a pure function of (parameters, gradients, state) — no dict
ordering or threading effects. Checkpoints are single ``.npz`` files that
embed the serialized graph, all weight and gate arrays, optimizer slots, the
RNG state and a JSON metadata block; restoring one resumes training bitwise.

Packed groups: a step updates each parameter of more than ``_PACK_ELEMENTS``
elements on its own. The others, in sorted key order, form one packed group
per dtype and weight-decay class: the group's gradients are concatenated in
the parameters' dtype, checked for NaN and Inf at once and run through one
set of ufunc calls, and each parameter then subtracts its slice of the
update. A group's moments live in one flat buffer per slot name, and each
key's ``slots`` entry is a view of its span, so a checkpoint still stores one
``[slot, *key]`` array per key. Moments assigned to ``slots`` from outside
(a resumed run's) are copied into fresh buffers at the next step, as are a
group's when its key set changes. Every operation is elementwise, so packing
changes no bit of any result.

The bound, 2048 elements, was measured with float32 Adam on 2 cores (NumPy
2.4.6, one BLAS thread): one by one, a key's update costs about 7.5 us up to
256 elements and 9.5 us at 2048; packed, a key of 2048 elements costs
3.5-5.2 us in groups of 4 to 256 keys, one of 4096 elements 9.3 us against
11.5 us, and one of 16384 elements 35 us against 22 us. 2048 is the largest
power of two at which packing still about halves a key's cost. In resnet18
w16 it packs 56 of the 74 parameters (4,580 of 701,412 elements), and an
isolated Adam step on it took 1.21 ms one by one and 0.87 ms packed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import ParamKey, Weights
from .errors import CheckpointError, InvalidConfig, NonFiniteGradient, ShapeMismatch
from .graph import Graph
from .graphio import deserialize, serialize
from .relax import GateSet

CHECKPOINT_VERSION = 2

# Weight decay applies only to multiplicative weight matrices; biases,
# BatchNorm affine terms and gate scores are exempt.
_DECAYED = {"kernel", "weight"}
# Parameters of at most this many elements are updated in packed groups (see
# the module docstring).
_PACK_ELEMENTS = 2048


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
        # Each comparison is false for NaN, so NaN fails it too.
        for name in ("momentum", "beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise InvalidConfig(f"eps must be positive, got {self.eps}")
        if not self.weight_decay >= 0:
            raise InvalidConfig(f"weight_decay must be non-negative, got {self.weight_decay}")


class _Pack:
    """The moments of one packed group: a flat buffer per slot name, of
    which the group's ``slots`` entries are views, one per key."""

    def __init__(self, keys: list, ps: list, names: tuple, slots: dict):
        self.keys = keys
        self.spans = []  # (start, stop, shape) of each key in the buffers
        start = 0
        for p in ps:
            self.spans.append((start, start + p.size, p.shape))
            start += p.size
        self.moments: dict[str, np.ndarray] = {}
        self.views = []  # (key, slot name, view)
        for name in names:
            buf = self.moments[name] = np.empty(start, ps[0].dtype)
            for key, (a, b, shape) in zip(keys, self.spans):
                # A moment the key already has (a loaded checkpoint's, or a
                # view into an earlier pack) moves in; a new one starts at 0.
                moment = slots.setdefault(key, {}).get(name)
                view = buf[a:b].reshape(shape)
                view[...] = 0 if moment is None else moment
                slots[key][name] = view
                self.views.append((key, name, view))

    def held(self, keys: list, slots: dict) -> bool:
        """Whether this pack is ``keys``' and ``slots`` still holds its views
        (an assigned state, such as a resumed run's, replaces them)."""
        return keys == self.keys and all(
            slots.get(key, {}).get(name) is view for key, name, view in self.views
        )


class Optimizer:
    """SGD-with-momentum or Adam over a flat {key: array} parameter view.

    A step updates each parameter above ``_PACK_ELEMENTS`` elements on its
    own and the others in packed groups (see the module docstring). Moments
    are updated in place, and a step puts every update's temporaries into
    one pair of scratch arrays per dtype, as large as the step's largest
    parameter or group and let go when the step ends. The operations keep
    the order of the textbook formulas, so the result is bitwise that of
    computing them out of place, key by key."""

    def __init__(self, config: OptimConfig):
        self.config = config
        self.t = 0
        self.slots: dict[ParamKey, dict[str, np.ndarray]] = {}
        self._packs: dict[tuple, _Pack] = {}  # by (dtype, decayed)

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
        present = [key for key in sorted(grads) if key in params]
        # Units in sorted key order: (keys, parameters, decayed, packed);
        # each large parameter is one, each (dtype, decayed) group another.
        units: list[tuple[list, list, bool, bool]] = []
        groups: dict[tuple, tuple[list, list, bool, bool]] = {}
        decay = cfg.weight_decay != 0
        for key in present:
            p = params[key]
            # Checked before anything changes: a group would take a gradient
            # of another shape but the same size without complaint.
            if np.shape(grads[key]) != p.shape:
                raise ShapeMismatch(f"gradient for {key!r} has shape {np.shape(grads[key])}, "
                                    f"its parameter {p.shape}")
            decayed = decay and key[0] == "w" and key[2] in _DECAYED
            if p.size > _PACK_ELEMENTS:
                units.append(([key], [p], decayed, False))
                continue
            if (p.dtype, decayed) not in groups:
                groups[p.dtype, decayed] = ([], [], decayed, True)
                units.append(groups[p.dtype, decayed])
            keys, ps, _, _ = groups[p.dtype, decayed]
            keys.append(key)
            ps.append(p)
        # Validate every gradient before mutating anything, so a rejected
        # step leaves parameters, slots and the step count untouched.
        flats = []
        for keys, ps, _, packed in units:
            dtype = ps[0].dtype
            if packed:
                g = np.concatenate([grads[key] for key in keys], axis=None, dtype=dtype)
            else:
                g = np.asarray(grads[keys[0]], dtype=dtype)
            if not np.all(np.isfinite(g)):
                bad = next(k for k in present
                           if not np.all(np.isfinite(np.asarray(grads[k], params[k].dtype))))
                raise NonFiniteGradient(f"gradient for {bad!r} contains NaN or Inf")
            flats.append(g)
        self.t += 1
        names = ("vel",) if cfg.kind == "sgd" else ("m", "v")
        packs: dict[tuple, _Pack] = {}
        sizes: dict[np.dtype, int] = {}
        work = []  # (first key, parameters, decayed, pack or None) per unit
        for (keys, ps, decayed, packed), g in zip(units, flats):
            sizes[g.dtype] = max(sizes.get(g.dtype, 0), g.size)
            pack = None
            if packed:
                pack = self._packs.get((g.dtype, decayed))
                if pack is None or not pack.held(keys, self.slots):
                    pack = _Pack(keys, ps, names, self.slots)
                packs[g.dtype, decayed] = pack
            work.append((keys[0], ps, decayed, pack))
        self._packs = packs
        scratch = {dtype: (np.empty(n, dtype), np.empty(n, dtype)) for dtype, n in sizes.items()}
        for (key, ps, decayed, pack), g in zip(work, flats):
            # g may be the caller's array: it is read, never written. A
            # group's g, scratch and moments are flat, a parameter's shaped.
            s1, s2 = (a[:g.size].reshape(g.shape) for a in scratch[g.dtype])
            if decayed:
                if pack is not None:
                    np.concatenate(ps, axis=None, out=s1)
                    s1 *= cfg.weight_decay
                else:
                    np.multiply(ps[0], cfg.weight_decay, out=s1)
                s1 += g  # g + weight_decay * p
                g = s1
            if pack is not None:
                moments = pack.moments
            else:
                moments = self.slots.setdefault(key, {})
                for name in names:
                    if name not in moments:
                        moments[name] = np.zeros_like(ps[0])
            if cfg.kind == "sgd":
                vel = moments["vel"]
                vel *= cfg.momentum
                vel += g
                np.multiply(vel, rate, out=s1)
            else:
                m, v = moments["m"], moments["v"]
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
            if pack is not None:
                for p, (a, b, shape) in zip(ps, pack.spans):
                    p -= s1[a:b].reshape(shape)
            else:
                ps[0] -= s1


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
