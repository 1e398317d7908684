"""prunekit: joint training and structured channel pruning for operator graphs.

The pipeline, bottom to top:

- :mod:`prunekit.graph` / :mod:`prunekit.graphio` — typed operator graphs,
  shape inference, validation, and a line-oriented text format.
- :mod:`prunekit.subgraph` — coupled-channel analysis: which output channels
  must be pruned together, and each operator's cost as a group-width polynomial.
- :mod:`prunekit.relax` — per-channel logistic gates and the polarization
  penalty that drives them toward 0/1.
- :mod:`prunekit.accounting` — differentiable parameter/compute totals.
- :mod:`prunekit.engine` — numpy forward/backward execution.
- :mod:`prunekit.objective` — task loss plus architecture pressure.
- :mod:`prunekit.pruner` — thresholding, masked models, graph rewriting,
  gain folding.
- :mod:`prunekit.workflow` — multi-step train/prune/recover orchestration,
  metrics and checkpoints.
- :mod:`prunekit.data` / :mod:`prunekit.models` — synthetic datasets,
  CIFAR-10 loading, and reference architectures.
"""
from .accounting import CostReport, structure_grads, structure_measures
from .data import LabeledDataset, batches, generate_synthetic, load_cifar10, split
from .engine import Run, forward, init_weights, trainable_params
from .errors import PrunekitError
from .graph import Graph, OpKind, OperatorNode, TensorShape, infer_shapes, validate
from .graphio import deserialize, serialize
from .models import build_reference_model
from .objective import ObjectiveConfig, cross_entropy, total_loss
from .optim import OptimConfig, Optimizer, load_checkpoint, save_checkpoint
from .pruner import fold_gates, rewrite, threshold_masks, verify_equivalence
from .relax import GateSet, MaskSet, init_gates, sigma, stiffening
from .subgraph import ChannelGroup, Coloring, identify_subgraphs
from .workflow import StepSpec, WorkflowConfig, WorkflowResult, evaluate, ramp_steps, run

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "structure_grads",
    "structure_measures",
    "LabeledDataset",
    "batches",
    "generate_synthetic",
    "load_cifar10",
    "split",
    "Run",
    "forward",
    "init_weights",
    "trainable_params",
    "PrunekitError",
    "Graph",
    "OpKind",
    "OperatorNode",
    "TensorShape",
    "infer_shapes",
    "validate",
    "deserialize",
    "serialize",
    "build_reference_model",
    "ObjectiveConfig",
    "cross_entropy",
    "total_loss",
    "OptimConfig",
    "Optimizer",
    "load_checkpoint",
    "save_checkpoint",
    "fold_gates",
    "rewrite",
    "threshold_masks",
    "verify_equivalence",
    "GateSet",
    "MaskSet",
    "init_gates",
    "sigma",
    "stiffening",
    "ChannelGroup",
    "Coloring",
    "identify_subgraphs",
    "StepSpec",
    "WorkflowConfig",
    "WorkflowResult",
    "evaluate",
    "ramp_steps",
    "run",
    "__version__",
]
