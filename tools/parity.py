"""Bitwise parity of two source checkouts on the benchmark's workloads.

    python3 tools/parity.py PARENT CHANGE [--seed 7]

Runs every workload of ``perfbench/workloads.py`` once at ``--seed`` in each
checkout (prunekit and the workload configs both come from that checkout),
in one subprocess per checkout with one BLAS thread, and prints one SHA-256
artifact digest per workload. A digest covers what the workflow writes and
returns: ``metrics.csv`` without its ``seconds`` column, every
``prune_step_NN.json``, ``final_graph.txt``, ``gates_snapshot.txt``, every
checkpoint's arrays and header, the final folded weights and the scores.
Exits 1 if a side fails or any workload's digests differ, 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest_file(h, path: Path) -> None:
    h.update(path.name.encode())
    if path.name == "metrics.csv":
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                row.pop("seconds")
                h.update(json.dumps(row, sort_keys=True).encode())
    elif path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as archive:
            for key in sorted(archive.files):
                _digest_array(h, key, archive[key])
    else:
        h.update(path.read_bytes())


def _digest_array(h, key: str, arr: np.ndarray) -> None:
    h.update(f"{key} {arr.dtype.str} {arr.shape}".encode())
    h.update(arr.tobytes())


def side_digests(checkout: Path, seed: int) -> dict[str, str]:
    """Child side: run each workload in ``checkout`` and digest its outputs."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import prunekit
    from prunekit import workflow
    from workloads import WORKLOADS

    if Path(prunekit.__file__).resolve().parent != (checkout / "src" / "prunekit").resolve():
        raise SystemExit(f"parity: imported prunekit from {prunekit.__file__}, not {checkout}")
    digests = {}
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        # The same relative output directory on both sides, so the config
        # that each checkpoint header records is the same too.
        os.chdir(tmp)
        for name, w in sorted(WORKLOADS.items()):
            train, test = w.make_data(seed)
            result = workflow.run(w.config(seed, name), train_set=train, test_set=test)
            h = hashlib.sha256()
            for path in sorted(Path(name).iterdir()):
                _digest_file(h, path)
            for nid in sorted(result.weights):
                for key in sorted(result.weights[nid]):
                    _digest_array(h, f"{nid}/{key}", result.weights[nid][key])
            h.update(json.dumps(result.scores).encode())
            digests[name] = h.hexdigest()
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:
        print(json.dumps(side_digests(args.side.resolve(), args.seed)))
        return 0
    if args.change is None:
        parser.error("give the PARENT and the CHANGE checkout")

    env = {**os.environ, **{var: "1" for var in BLAS_VARS}}
    procs = {
        side: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--side", str(path.resolve()),
             "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for side, path in (("parent", args.parent), ("change", args.change))
    }
    outs = {side: proc.communicate()[0] for side, proc in procs.items()}
    failed = [side for side, proc in procs.items() if proc.returncode != 0]
    if failed:
        print(f"parity: the {' and '.join(failed)} side failed", file=sys.stderr)
        return 1
    digests = {side: json.loads(out.splitlines()[-1]) for side, out in outs.items()}
    same = digests["parent"] == digests["change"]
    for name in sorted(digests["parent"].keys() | digests["change"].keys()):
        a, b = digests["parent"].get(name), digests["change"].get(name)
        print(f"{name:<18} {a}" if a == b else f"{name:<18} DIFFERENT parent {a} change {b}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
