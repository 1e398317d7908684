"""Command-line entry points.

``prunekit train`` runs a workflow from a YAML config; the remaining commands
inspect checkpoints produced along the way.
"""
from __future__ import annotations

import argparse
import sys

from .accounting import structure_measures
from .data import generate_synthetic, split
from .errors import CheckpointError, PrunekitError
from .graph import TensorShape, infer_shapes, validate
from .graphio import serialize
from .models import build_reference_model
from .optim import load_checkpoint
from .relax import channel_totals, check_gates, export_snapshot, gate_scales, snapshot
from .subgraph import identify_subgraphs
from .workflow import WorkflowConfig, evaluate, run


def _parse_shape(text: str) -> TensorShape:
    dims = [int(part) for part in text.split("x")]
    if len(dims) < 2:
        raise argparse.ArgumentTypeError("input shape needs at least channels and one extent")
    return TensorShape(1, dims[0], tuple(dims[1:]))


def _cmd_train(args: argparse.Namespace) -> int:
    config = WorkflowConfig.from_yaml(args.config)
    if args.out_dir is not None:
        config.out_dir = args.out_dir
    if args.seed is not None:
        config.seed = args.seed
    result = run(config, resume_from=args.resume)
    for step, score in result.scores:
        print(f"step {step}: score {score:.4f}")
    if result.out_dir is not None:
        print(f"artifacts in {result.out_dir}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    full = generate_synthetic(args.dataset, args.size, seed=args.seed)
    _, test_set = split(full, args.train_fraction, seed=args.seed)
    shape = TensorShape(1, test_set.inputs.shape[1], tuple(test_set.inputs.shape[2:]))
    coloring = identify_subgraphs(ckpt.graph, infer_shapes(ckpt.graph, shape))
    if ckpt.gates.values:  # a folded model has none
        check_gates(coloring, ckpt.gates, args.checkpoint)
    scales = gate_scales(coloring, snapshot(ckpt.gates))
    score = evaluate(ckpt.graph, ckpt.weights, test_set, node_scales=scales)
    print(f"score {score:.4f} on {len(test_set)} held-out samples")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    entry = args.input_shape
    if entry is None:
        dims = ckpt.meta.get("entry_shape")
        if dims is None:
            raise CheckpointError(f"{args.checkpoint} records no entry shape; pass --input-shape")
        entry = TensorShape(1, dims[0], tuple(dims[1:]))
    shapes = infer_shapes(ckpt.graph, entry)
    coloring = identify_subgraphs(ckpt.graph, shapes)
    if ckpt.gates.values:  # a folded model has none
        check_gates(coloring, ckpt.gates, args.checkpoint)
    widths = channel_totals(coloring, snapshot(ckpt.gates))
    report = structure_measures(ckpt.graph, coloring, widths, shapes)
    print(report.to_text(), end="")
    return 0


def _cmd_export_gates(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if not ckpt.gates.values:
        print("checkpoint holds no gates", file=sys.stderr)
        return 1
    text = export_snapshot(ckpt.gates)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    if args.checkpoint:
        graph = load_checkpoint(args.checkpoint).graph
    else:
        graph = build_reference_model(args.model)
    print(serialize(graph), end="")
    if args.input_shape is not None:
        for diag in validate(graph, args.input_shape):
            print(f"# {diag.code} {diag.node}: {diag.message}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="prunekit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a workflow from a YAML config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a synthetic test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default="blobs-classify")
    p.add_argument("--size", type=int, default=2000)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="print the cost breakdown of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input-shape", type=_parse_shape, default=None,
                   help="channels x spatial extents, e.g. 3x32x32 "
                        "(default: the entry shape the checkpoint was trained at)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("export-gates", help="dump the gate snapshot of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_export_gates)

    p = sub.add_parser("show-graph", help="print a graph document")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--model", default="resnet8")
    p.add_argument("--input-shape", type=_parse_shape, default=None)
    p.set_defaults(func=_cmd_show)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrunekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
