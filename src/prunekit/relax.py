"""Continuous channel gates.

Every prunable channel group carries a trainable score vector ``s``; the
effective per-channel gain is the logistic ``sigma(s) = 1 / (1 + exp(-a*s))``
with a fixed steepness ``a``. Gains are thresholded into binary keep/drop
masks when pruning, and a Gaussian "stiffening" penalty pushes scores away
from the undecided region around zero so that thresholding changes the
network as little as possible.

A training step evaluates the gains once (:func:`snapshot`); the forward
scales, the score chain rule and the group widths all read that one dict.

This module owns the gate rules. :func:`init_gates` is the one fresh-score
rule, also for a group a rewrite makes prunable. A group's gains multiply the
output of each of its producers (``Coloring.producers``), and
:func:`gate_sites` is the one place that picks those nodes. Training,
evaluation and the masked model pass the float64 gains to ``engine.forward``
as ``node_scales`` (:func:`gate_scales`); folding and a rewrite's fresh-gain
division apply them to the sites' weights (:func:`scale_sites`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, InvalidConfig
from .subgraph import Coloring

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


def slope(g: np.ndarray | float, steepness: float) -> np.ndarray:
    """Derivative of :func:`sigma` with respect to the score, given the gain
    ``g = sigma(s)`` it was evaluated at."""
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
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
    dtype: np.dtype = np.float32,
) -> GateSet:
    """Fresh gates for every prunable group.

    Every score starts at ``1 / steepness`` so every gate starts at
    ``sigma = 1 / (1 + 1/e) ~ 0.73``: clearly on, but with usable slope.
    ``jitter >= 0`` adds zero-mean Gaussian noise to the scores: channels of
    one group feel identical architecture pressure, so without some asymmetry
    a whole group would move in lockstep and die or survive only as a unit.
    """
    if not jitter >= 0:
        raise InvalidConfig(f"gate jitter must be non-negative, got {jitter}")
    if jitter and rng is None:
        rng = np.random.default_rng(0)
    values: dict[int, np.ndarray] = {}
    for g in coloring.prunable_groups():
        noise = rng.normal(0.0, jitter, size=g.width) if jitter else 0.0
        values[g.id] = (np.full(g.width, 1.0 / steepness) + noise).astype(dtype)
    return GateSet(values=values, steepness=steepness, stiffening_sd=stiffening_sd)


def check_gates(coloring: Coloring, gates: GateSet, source: str) -> None:
    """Raise :class:`CheckpointError` naming a group unless ``gates`` (loaded
    from ``source``) fit ``coloring``: one score vector of the group's width
    for each prunable group, and none for any other id."""
    widths = {g.id: g.width for g in coloring.prunable_groups()}
    for gid in sorted(widths.keys() | gates.values.keys()):
        got = f"gates of shape {gates.values[gid].shape}" if gid in gates.values else "no gates"
        want = f"gates of shape {(widths[gid],)}" if gid in widths else "no gates"
        if got != want:
            raise CheckpointError(f"{source}: group {gid} has {got} where the graph needs {want}")


def gate_sites(coloring: Coloring) -> dict[str, int]:
    """The nodes whose outputs carry each prunable group's gains, in
    topological order: every producer of the group (``coloring.producers``),
    so a group merged by a Sum is scaled once per producer, and operators that
    merely preserve its channels see the scaled values through data flow.
    Every prunable group has a site: each group but the entry's is seeded by a
    producer.
    """
    return {nid: gid for nid, gid in coloring.producers.items() if coloring.group(gid).prunable}


def gate_scales(coloring: Coloring, gains: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-group ``gains`` as ``engine.forward``'s ``node_scales``; the
    engine casts them to the activation dtype."""
    return {nid: gains[gid] for nid, gid in gate_sites(coloring).items() if gid in gains}


def scale_sites(coloring: Coloring, gains: dict[int, np.ndarray], weights: dict, op) -> None:
    """Apply each group's ``gains`` in place, with the ufunc ``op`` (``np.multiply``
    folds, ``np.divide`` unfolds), to every array its gate sites have in
    ``weights``, along axis 0 and in the array's dtype."""
    for nid, g in gate_scales(coloring, gains).items():
        for arr in weights[nid].values():
            op(arr, g.astype(arr.dtype).reshape((-1,) + (1,) * (arr.ndim - 1)), out=arr)


def score_grads(coloring: Coloring, gates: GateSet, gains: dict, grads: dict) -> dict:
    """``grads`` with each gate site's ``("n", node)`` gradient replaced by
    its share of the ``("s", group)`` score gradient, at the ``gains``
    :func:`snapshot` took of ``gates``.

    The shares are added in the order ``grads`` lists them, which for a
    backward pass is the reverse order of the tape.
    """
    sites = gate_sites(coloring)
    out: dict = {}
    for key, g in grads.items():
        if key[0] == "n" and key[1] in sites:
            gid = sites[key[1]]
            g = (slope(gains[gid], gates.steepness) * g).astype(gates.values[gid].dtype)
            key = ("s", gid)
        out[key] = out[key] + g if key in out else g
    return out


def channel_totals(coloring: Coloring, gains: dict[int, np.ndarray]) -> np.ndarray:
    """Effective width per group, indexed by group id: the sum of its gains
    for gated groups, its full width for the rest."""
    return np.array([
        float(np.sum(gains[g.id])) if g.id in gains else float(g.width) for g in coloring.groups
    ])


def stiffening(gates: GateSet) -> tuple[float, dict[int, np.ndarray]]:
    """Mean Gaussian bump over all gate scores, ``mean(exp(-s^2 / (2 sd^2)))``,
    and its per-group gradient with respect to the scores.

    Maximal (1.0) when every score sits at zero, vanishing as scores
    polarise; adding it to a loss therefore pays for undecided gates. An
    empty gate set has no undecided gates, so its penalty is zero.
    """
    n = gates.total_size()
    if n == 0:
        return 0.0, {}
    sd2 = gates.stiffening_sd ** 2
    total = 0.0
    grads: dict[int, np.ndarray] = {}
    for gid, s in gates.values.items():
        x = np.asarray(s, dtype=np.float64)
        bump = np.exp(-np.square(x) / (2.0 * sd2))
        total += float(np.sum(bump))
        grads[gid] = bump * (-x / sd2) / n
    return total / n, grads


def snapshot(gates: GateSet) -> dict[int, np.ndarray]:
    """Current gain vector ``sigma(s)`` per group."""
    return {gid: sigma(s, gates.steepness) for gid, s in gates.values.items()}


def export_snapshot(gates: GateSet) -> str:
    """Render gains as structured text, one ``group`` record per line."""
    lines = [f"# gate snapshot: steepness={gates.steepness!r} stiffening_sd={gates.stiffening_sd!r}"]
    for gid, gains in sorted(snapshot(gates).items()):
        values = ",".join(f"{v:.6f}" for v in gains)
        lines.append(f"group {gid} width={gains.size} sigma={values}")
    return "\n".join(lines) + "\n"
