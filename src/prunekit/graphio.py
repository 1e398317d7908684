"""Plain-text graph documents.

Format (version 1), UTF-8, one record per line::

    # optional comment
    version 1
    entry <node id>
    exit <node id>
    node <id> <kind> [inputs=<id>[,<id>...]] [<key>=<value> ...]

Node records are emitted sorted by id and attributes in a fixed per-kind
order, so serialisation is byte-deterministic. Attribute values are integers
(``3``), integer tuples (``3,3``), floats (``0.5``) or bare strings; the
``inputs`` list is ordered by input slot. A record whose kind token is not a
known operator parses as kind ``Unknown``; the original token is preserved in
the ``kind_name`` attribute and restored on output, so unknown operators
survive a round trip untouched. A document whose graph fails the structural
checks of :func:`~prunekit.graph.validate` does not load.
"""
from __future__ import annotations

from typing import Any

from .errors import ParseError
from .graph import KIND_NAME_ATTR, KIND_RULES, Edge, Graph, OperatorNode, OpKind, _as_tuple, validate

FORMAT_VERSION = 1

_KIND_TOKENS = {kind.value: kind for kind in OpKind}


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(int(v)) for v in value)
    text = str(value)
    if not text or any(ch.isspace() for ch in text) or "=" in text:
        raise ParseError(f"attribute value {text!r} cannot be serialised", field=text)
    return text


def _parse_value(token: str) -> Any:
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    if "," in token:
        parts = token.split(",")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            return token
    try:
        return float(token)
    except ValueError:
        return token


def serialize(graph: Graph) -> str:
    """Render a graph as a canonical version-1 document."""
    lines = [f"version {FORMAT_VERSION}", f"entry {graph.entry}", f"exit {graph.exit}"]
    for nid in sorted(graph.nodes):
        node = graph.nodes[nid]
        if node.kind == OpKind.UNKNOWN:
            kind_token = str(node.attrs.get(KIND_NAME_ATTR, OpKind.UNKNOWN.value))
            attr_order = sorted(k for k in node.attrs if k != KIND_NAME_ATTR)
        else:
            kind_token = node.kind.value
            declared = KIND_RULES[node.kind][0]
            attr_order = list(declared) + sorted(set(node.attrs) - set(declared))
        parts = ["node", nid, kind_token]
        producers = graph.inputs(nid)
        if producers:
            parts.append("inputs=" + ",".join(producers))
        for key in attr_order:
            if key in node.attrs:
                parts.append(f"{key}={_format_value(node.attrs[key])}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Graph:
    """Parse a version-1 graph document back into a :class:`Graph`."""
    entry: str | None = None
    exit_: str | None = None
    version: int | None = None
    nodes: dict[str, OperatorNode] = {}
    edges: list[Edge] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "version":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("malformed version record", line=lineno)
            version = int(tokens[1])
            if version != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {version}", line=lineno)
        elif head == "entry":
            if len(tokens) != 2:
                raise ParseError("entry record takes exactly one id", line=lineno)
            entry = tokens[1]
        elif head == "exit":
            if len(tokens) != 2:
                raise ParseError("exit record takes exactly one id", line=lineno)
            exit_ = tokens[1]
        elif head == "node":
            if len(tokens) < 3:
                raise ParseError("node record needs an id and a kind", line=lineno)
            nid, kind_token = tokens[1], tokens[2]
            if nid in nodes:
                raise ParseError(f"duplicate node id {nid!r}", line=lineno)
            attrs: dict[str, Any] = {}
            inputs: list[str] = []
            for token in tokens[3:]:
                if "=" not in token:
                    raise ParseError(f"expected key=value, got {token!r}", line=lineno, field=token)
                key, _, value = token.partition("=")
                if not key or not value:
                    raise ParseError(f"malformed key=value pair {token!r}", line=lineno, field=key or token)
                if key == "inputs":
                    inputs = value.split(",")
                else:
                    if key in attrs:
                        raise ParseError(f"duplicate attribute {key!r}", line=lineno, field=key)
                    attrs[key] = _parse_value(value)
            kind = _KIND_TOKENS.get(kind_token)
            if kind is None or kind == OpKind.UNKNOWN:
                attrs[KIND_NAME_ATTR] = kind_token
                kind = OpKind.UNKNOWN
            else:
                attrs = _coerce_known_attrs(kind, attrs)
            nodes[nid] = OperatorNode(nid, kind, attrs)
            for slot, src in enumerate(inputs):
                edges.append((src, nid, slot))
        else:
            raise ParseError(f"unrecognised record {head!r}", line=lineno, field=head)

    if version is None:
        raise ParseError("missing version record")
    if entry is None:
        raise ParseError("missing entry record")
    if exit_ is None:
        raise ParseError("missing exit record")
    for src, dst, _ in edges:
        if src not in nodes:
            raise ParseError(f"node {dst!r} references unknown input {src!r}")
    graph = Graph(nodes=nodes, edges=tuple(edges), entry=entry, exit=exit_)
    problems = [f"{d.code} {d.node or '-'}: {d.message}" for d in validate(graph)]
    if problems:
        raise ParseError("invalid graph: " + "; ".join(problems))
    return graph


def _coerce_known_attrs(kind: OpKind, attrs: dict[str, Any]) -> dict[str, Any]:
    """Read a convolution's scalar kernel, stride and padding as
    :func:`~prunekit.graph.conv_node` does: a scalar kernel is square, and a
    scalar stride or padding repeats to the kernel's rank."""
    if kind == OpKind.CONV:
        kernel = attrs.get("kernel")
        rank = len(kernel) if isinstance(kernel, tuple) else 2
        for name in ("kernel", "stride", "padding"):
            if isinstance(attrs.get(name), int):
                attrs[name] = _as_tuple(attrs[name], rank)
    return attrs


def save(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(graph))


def load(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
