"""prunekit: joint training and structured channel pruning for operator graphs.

The pipeline, bottom to top:

- :mod:`prunekit.graph` / :mod:`prunekit.graphio` — typed operator graphs,
  shape inference, validation, and a line-oriented text format.
- :mod:`prunekit.subgraph` — coupled-channel analysis: which output channels
  must be pruned together, and each operator's cost as a group-width polynomial.
- :mod:`prunekit.relax` — per-channel logistic gates, their gains and
  effective group widths, and the polarization penalty that drives them
  toward 0/1.
- :mod:`prunekit.accounting` — differentiable parameter/compute totals as
  functions of the group widths.
- :mod:`prunekit.engine` — numpy forward/backward execution.
- :mod:`prunekit.objective` — task loss plus architecture pressure.
- :mod:`prunekit.pruner` — thresholding, masked models, graph rewriting,
  gain folding.
- :mod:`prunekit.workflow` — multi-step train/prune/recover orchestration,
  metrics and checkpoints.
- :mod:`prunekit.data` / :mod:`prunekit.models` — synthetic datasets,
  CIFAR-10 loading, and reference architectures.

The package root exports the workflow API; everything else is imported from
its own module.
"""
from .errors import PrunekitError
from .objective import ObjectiveConfig
from .optim import OptimConfig
from .workflow import StepSpec, WorkflowConfig, ramp_steps, run

__version__ = "0.1.0"

__all__ = [
    "run",
    "WorkflowConfig",
    "StepSpec",
    "ramp_steps",
    "ObjectiveConfig",
    "OptimConfig",
    "PrunekitError",
    "__version__",
]
