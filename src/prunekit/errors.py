"""Exception types shared across the toolkit.

Structural problems detected by :func:`prunekit.graph.validate` are reported
as diagnostics (plain data), not exceptions; the classes below cover misuse of
APIs, malformed external inputs, and states the pipeline cannot proceed from.
"""
from __future__ import annotations


class PrunekitError(Exception):
    """Base class for all toolkit errors."""


class GraphStructureError(PrunekitError):
    """Graph violates a structural precondition (bad slot, dangling edge...)."""


class ShapeMismatch(PrunekitError):
    """Tensor shapes are incompatible with an operator's requirements."""


class MissingAttribute(PrunekitError):
    """An operator node lacks an attribute its kind requires."""


class NonPositiveExtent(PrunekitError):
    """Shape arithmetic produced an extent below one."""


class ParseError(PrunekitError):
    """A graph document could not be parsed."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


class UnknownModel(PrunekitError):
    """Requested reference model name is not registered."""


class InconsistentWidths(PrunekitError):
    """Channel groups with different widths were asked to merge."""


class LengthMismatch(PrunekitError):
    """A per-channel vector does not match the channel count it is applied to."""


class ZeroTotal(PrunekitError):
    """A normalising total (parameter/FLOP denominator, gate count) is zero."""


class MissingWeights(PrunekitError):
    """A parametric node has no weight entry."""


class StaleTape(PrunekitError):
    """A tape was reused after it was consumed by a backward pass."""


class NonFiniteGradient(PrunekitError):
    """A gradient contained NaN or Inf."""


class NonFiniteTensor(PrunekitError):
    """An input tensor contained NaN or Inf."""


class EmptyNetwork(PrunekitError):
    """Pruning removed every path from the input to the output."""


class ShapeDrift(PrunekitError):
    """Two models expected to agree produce differently shaped outputs."""


class RewriteMismatch(PrunekitError):
    """A rewritten model does not reproduce the masked model it replaces."""


class EmptySchedule(PrunekitError):
    """A schedule list has no entries."""


class ScheduleUnresolved(PrunekitError):
    """A schedule has no entry at or before the requested step."""


class LabelOutOfRange(PrunekitError):
    """A dataset label lies outside the declared class range."""


class InvalidConfig(PrunekitError):
    """A configuration value is malformed or out of range."""


class CorruptFile(PrunekitError):
    """An on-disk artifact does not match its expected layout."""


class MissingFile(PrunekitError):
    """A referenced file does not exist."""


class EmptyDataset(PrunekitError):
    """A dataset with zero samples was passed where samples are required."""


class CheckpointError(PrunekitError):
    """A checkpoint is missing required entries or has a bad version."""


class ResumeMismatch(CheckpointError):
    """A run is resumed under a config other than the one its checkpoint records."""
