"""Reference network builders used by tests, demos and the workflow runner.

All builders return plain :class:`~prunekit.graph.Graph` objects; weights are
created separately by the engine. Channel widths are kept small so the models
train in seconds on a CPU.
"""
from __future__ import annotations

import inspect
from typing import Any, Callable

from .errors import InvalidConfig, UnknownModel
from .graph import Edge, Graph, OperatorNode, OpKind, conv_node, fc_node, simple_node


class _Builder:
    """Accumulates nodes/edges with a tiny fluent helper API."""

    def __init__(self) -> None:
        self.nodes: dict[str, OperatorNode] = {}
        self.edges: list[Edge] = []

    def add(self, node: OperatorNode, *inputs: str) -> str:
        if node.id in self.nodes:
            raise InvalidConfig(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        for slot, src in enumerate(inputs):
            self.edges.append((src, node.id, slot))
        return node.id

    def conv_bn_relu(self, prefix: str, src: str, cin: int, cout: int,
                     kernel: int = 3, stride: int = 1, padding: int = 1) -> str:
        c = self.add(conv_node(f"{prefix}.conv", cin, cout, kernel, stride, padding), src)
        b = self.add(simple_node(f"{prefix}.bn", OpKind.BATCH_NORM), c)
        return self.add(simple_node(f"{prefix}.relu", OpKind.RELU), b)

    def graph(self, entry: str, exit_: str) -> Graph:
        return Graph(nodes=self.nodes, edges=tuple(self.edges), entry=entry, exit=exit_)


def _residual_block(b: _Builder, prefix: str, src: str, cin: int, cout: int, stride: int = 1) -> str:
    """Two 3x3 convolutions with a skip connection; projection shortcut when
    the width or resolution changes."""
    c1 = b.add(conv_node(f"{prefix}.conv1", cin, cout, 3, stride, 1), src)
    n1 = b.add(simple_node(f"{prefix}.bn1", OpKind.BATCH_NORM), c1)
    r1 = b.add(simple_node(f"{prefix}.relu1", OpKind.RELU), n1)
    c2 = b.add(conv_node(f"{prefix}.conv2", cout, cout, 3, 1, 1), r1)
    n2 = b.add(simple_node(f"{prefix}.bn2", OpKind.BATCH_NORM), c2)
    shortcut = src
    if stride != 1 or cin != cout:
        p = b.add(conv_node(f"{prefix}.proj", cin, cout, 1, stride, 0), src)
        shortcut = b.add(simple_node(f"{prefix}.projbn", OpKind.BATCH_NORM), p)
    s = b.add(simple_node(f"{prefix}.sum", OpKind.SUM), shortcut, n2)
    return b.add(simple_node(f"{prefix}.relu2", OpKind.RELU), s)


def resnet8(width: int = 16, classes: int = 4, in_channels: int = 3, input_size: int = 32) -> Graph:
    """Constant-width residual classifier: stem + 3 residual blocks + linear head.

    Pooling halves the resolution before each block, so for a 32x32 input the
    blocks run at 16, 8 and 4 pixels and the head pools globally.
    """
    b = _Builder()
    inp = b.add(simple_node("in", OpKind.INPUT))
    x = b.conv_bn_relu("stem", inp, in_channels, width)
    size = input_size
    for i in range(1, 4):
        x = b.add(simple_node(f"pool{i}", OpKind.MAX_POOL, factor=2), x)
        size //= 2
        x = _residual_block(b, f"b{i}", x, width, width)
    x = b.add(simple_node("gpool", OpKind.MAX_POOL, factor=size), x)
    x = b.add(fc_node("head", width, classes), x)
    b.add(simple_node("out", OpKind.OUTPUT), x)
    return b.graph("in", "out")


def resnet18(width: int = 64, classes: int = 10, in_channels: int = 3, input_size: int = 32) -> Graph:
    """Standard 4-stage residual network (2 blocks per stage, 8 skip sums)."""
    b = _Builder()
    inp = b.add(simple_node("in", OpKind.INPUT))
    x = b.conv_bn_relu("stem", inp, in_channels, width)
    cin = width
    size = input_size
    for stage in range(4):
        cout = width * (2 ** stage)
        for block in range(2):
            stride = 2 if (stage > 0 and block == 0) else 1
            size //= stride
            x = _residual_block(b, f"s{stage + 1}.b{block + 1}", x, cin, cout, stride)
            cin = cout
    x = b.add(simple_node("gpool", OpKind.MAX_POOL, factor=size), x)
    x = b.add(fc_node("head", cin, classes), x)
    b.add(simple_node("out", OpKind.OUTPUT), x)
    return b.graph("in", "out")


def unet_small(width: int = 8, classes: int = 3, in_channels: int = 3, depth: int = 3) -> Graph:
    """Compact encoder/decoder segmenter with skip concatenations.

    ``depth`` pooling stages shrink the resolution by ``2**depth`` at the
    bottleneck; each decoder level upsamples and concatenates the matching
    encoder activation before a double convolution.
    """
    if depth < 1:
        raise InvalidConfig("unet depth must be >= 1")
    b = _Builder()
    inp = b.add(simple_node("in", OpKind.INPUT))

    def double_conv(prefix: str, src: str, cin: int, cout: int) -> str:
        x = b.conv_bn_relu(f"{prefix}.a", src, cin, cout)
        return b.conv_bn_relu(f"{prefix}.b", x, cout, cout)

    skips: list[tuple[str, int]] = []
    x = inp
    cin = in_channels
    for level in range(1, depth + 1):
        cout = width * (2 ** (level - 1))
        x = double_conv(f"enc{level}", x, cin, cout)
        skips.append((x, cout))
        x = b.add(simple_node(f"down{level}", OpKind.MAX_POOL, factor=2), x)
        cin = cout
    bottleneck_c = width * (2 ** depth)
    x = double_conv("mid", x, cin, bottleneck_c)
    cin = bottleneck_c
    for level in range(depth, 0, -1):
        skip, skip_c = skips[level - 1]
        x = b.add(simple_node(f"up{level}", OpKind.UPSAMPLE, factor=2), x)
        x = b.add(simple_node(f"cat{level}", OpKind.CONCAT), skip, x)
        cout = width * (2 ** (level - 1))
        x = double_conv(f"dec{level}", x, cin + skip_c, cout)
        cin = cout
    x = b.add(conv_node("head", cin, classes, 1, 1, 0), x)
    b.add(simple_node("out", OpKind.OUTPUT), x)
    return b.graph("in", "out")


_REGISTRY: dict[str, Callable[..., Graph]] = {
    "resnet8": resnet8,
    "resnet18": resnet18,
    "unet-small": unet_small,
}


def build_reference_model(name: str, **config: Any) -> Graph:
    """Build a registered reference model by name from integer arguments."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownModel(f"unknown model {name!r}; available: {sorted(_REGISTRY)}")
    takes = inspect.signature(builder).parameters
    for key, value in config.items():
        if key not in takes or type(value) is not int:
            raise InvalidConfig(f"model {name!r} takes integer arguments {list(takes)}, "
                                f"not {key}={value!r}")
    return builder(**config)
