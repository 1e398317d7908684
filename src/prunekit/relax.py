"""Continuous channel gates.

Every prunable channel group carries a trainable score vector ``s``; the
effective per-channel gain is the logistic ``sigma(s) = 1 / (1 + exp(-a*s))``
with a fixed steepness ``a``. Gains are thresholded into binary keep/drop
masks when pruning, and a Gaussian "stiffening" penalty pushes scores away
from the undecided region around zero so that thresholding changes the
network as little as possible.

Gate sites: a group's gains multiply the output of each of its producing
operators (convolution and fully-connected outputs), applied through
``engine.forward``'s ``node_scales``. :func:`gate_sites` is the one place
that picks those nodes; training, evaluation, the masked model, folding and
the score carry-over of a rewrite all go through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .subgraph import ROLE_CONV_OUT, ROLE_FC_OUT, Coloring

DEFAULT_STEEPNESS = 4.0
DEFAULT_STIFFENING_SD = 1.0


def sigma(s: np.ndarray | float, steepness: float = DEFAULT_STEEPNESS) -> np.ndarray:
    """Numerically stable logistic ``1 / (1 + exp(-steepness * s))``."""
    if steepness <= 0:
        raise InvalidConfig(f"steepness must be positive, got {steepness}")
    x = np.asarray(s, dtype=np.float64) * steepness
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigma_grad(s: np.ndarray | float, steepness: float = DEFAULT_STEEPNESS) -> np.ndarray:
    """Derivative of :func:`sigma` with respect to ``s``."""
    g = sigma(s, steepness)
    return steepness * g * (1.0 - g)


@dataclass
class GateSet:
    """Score vectors for every prunable group of one graph.

    ``values[gid]`` has exactly the group's width; non-prunable groups carry
    no entry at all.
    """

    values: dict[int, np.ndarray]
    steepness: float = DEFAULT_STEEPNESS
    stiffening_sd: float = DEFAULT_STIFFENING_SD

    def __post_init__(self) -> None:
        if self.steepness <= 0:
            raise InvalidConfig(f"steepness must be positive, got {self.steepness}")
        if self.stiffening_sd <= 0:
            raise InvalidConfig(f"stiffening_sd must be positive, got {self.stiffening_sd}")

    def gains(self, group_id: int) -> np.ndarray:
        return sigma(self.values[group_id], self.steepness)

    def total_size(self) -> int:
        return sum(v.size for v in self.values.values())


@dataclass
class MaskSet:
    """Binary keep masks per prunable group, from one threshold."""

    masks: dict[int, np.ndarray]
    threshold: float


def init_gates(
    coloring: Coloring,
    steepness: float = DEFAULT_STEEPNESS,
    stiffening_sd: float = DEFAULT_STIFFENING_SD,
    initial_score: float | None = None,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
    dtype: np.dtype = np.float32,
) -> GateSet:
    """Fresh gates for every prunable group.

    The default initial score is ``1 / steepness`` so every gate starts at
    ``sigma = 1 / (1 + 1/e) ~ 0.73``: clearly on, but with usable slope.
    ``jitter`` adds zero-mean Gaussian noise to the scores: channels of one
    group feel identical architecture pressure, so without some asymmetry a
    whole group would move in lockstep and die or survive only as a unit.
    """
    s0 = (1.0 / steepness) if initial_score is None else initial_score
    if jitter and rng is None:
        rng = np.random.default_rng(0)
    values: dict[int, np.ndarray] = {}
    for g in coloring.groups:
        if not g.prunable:
            continue
        scores = np.full(g.width, s0, dtype=np.float64)
        if jitter:
            scores += rng.normal(0.0, jitter, size=g.width)
        values[g.id] = scores.astype(dtype)
    return GateSet(values=values, steepness=steepness, stiffening_sd=stiffening_sd)


def gate_sites(coloring: Coloring) -> dict[str, int]:
    """The node whose output carries each prunable group's gains.

    Every producing member of a prunable group (a convolution or
    fully-connected output) is a site, so a group merged by a Sum is scaled
    once per producer and members that merely preserve its channels see the
    scaled values through normal data flow. Sites are listed group by group,
    in member order.
    """
    return {
        member.node: group.id
        for group in coloring.prunable_groups()
        for member in group.members
        if member.role in (ROLE_CONV_OUT, ROLE_FC_OUT)
    }


def gate_scales(coloring: Coloring, gates: GateSet, dtype) -> dict[str, np.ndarray]:
    """Current gains as ``engine.forward``'s ``node_scales``, in ``dtype``."""
    gains = {gid: sigma(s, gates.steepness).astype(dtype) for gid, s in gates.values.items()}
    return {nid: gains[gid] for nid, gid in gate_sites(coloring).items() if gid in gains}


def score_grads(coloring: Coloring, gates: GateSet, grads: dict) -> dict:
    """``grads`` with each gate site's ``("n", node)`` gradient replaced by
    its share of the ``("s", group)`` score gradient.

    The shares are added in the order ``grads`` lists them, which for a
    backward pass is the reverse order of the tape.
    """
    sites = gate_sites(coloring)
    out: dict = {}
    for key, g in grads.items():
        if key[0] == "n" and key[1] in sites:
            s = gates.values[sites[key[1]]]
            g = (sigma_grad(s, gates.steepness) * g).astype(s.dtype)
            key = ("s", sites[key[1]])
        out[key] = out[key] + g if key in out else g
    return out


def stiffening(gates: GateSet) -> float:
    """Mean Gaussian bump over all gate scores: ``mean(exp(-s^2 / (2 sd^2)))``.

    Maximal (1.0) when every score sits at zero, vanishing as scores
    polarise; adding it to a loss therefore pays for undecided gates. An
    empty gate set has no undecided gates, so its penalty is zero.
    """
    n = gates.total_size()
    if n == 0:
        return 0.0
    sd2 = 2.0 * gates.stiffening_sd ** 2
    total = 0.0
    for s in gates.values.values():
        x = np.asarray(s, dtype=np.float64)
        total += float(np.sum(np.exp(-np.square(x) / sd2)))
    return total / n


def stiffening_grad(gates: GateSet) -> dict[int, np.ndarray]:
    """Per-group gradient of :func:`stiffening` with respect to the scores."""
    n = gates.total_size()
    if n == 0:
        return {}
    sd2 = gates.stiffening_sd ** 2
    out: dict[int, np.ndarray] = {}
    for gid, s in gates.values.items():
        x = np.asarray(s, dtype=np.float64)
        out[gid] = np.exp(-np.square(x) / (2.0 * sd2)) * (-x / sd2) / n
    return out


def snapshot(gates: GateSet) -> dict[int, np.ndarray]:
    """Current gain vector ``sigma(s)`` per group."""
    return {gid: sigma(s, gates.steepness) for gid, s in gates.values.items()}


def export_snapshot(gates: GateSet, extra: dict[int, dict[str, object]] | None = None) -> str:
    """Render gains as structured text, one ``group`` record per line.

    ``extra`` may add per-group fields (e.g. spatial resolution) emitted as
    ``key=value`` tokens after the gains.
    """
    lines = [f"# gate snapshot: steepness={gates.steepness!r} stiffening_sd={gates.stiffening_sd!r}"]
    for gid in sorted(gates.values):
        gains = sigma(gates.values[gid], gates.steepness)
        fields = [f"group {gid}", f"width={gains.size}"]
        for key, value in sorted((extra or {}).get(gid, {}).items()):
            fields.append(f"{key}={value}")
        fields.append("sigma=" + ",".join(f"{v:.6f}" for v in gains))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
