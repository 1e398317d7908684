"""prunekit benchmark: train -> cut -> recover workflows, end to end and per layer.

    python3 perfbench/run.py --workload classify-ramp --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/`` of that checkout and nothing else. The workload's datasets are
generated from ``--seed``.

``--trace 0`` first times ``SETUP_PROBES`` fresh processes from start to
their first training batch (``setup_s``), then runs the workload's fixed
number of workflows back to back and reports the end-to-end metrics.
``--seconds`` is only a ceiling: a workflow due to start after it is not run
and counts as failed. ``--trace 1`` runs an
untraced, a traced and another untraced workflow of the same seed, checks
that they agree bit for bit, sweeps the engine operator by operator
(``sweep.py``), and reports the per-layer metrics.

Every workflow's outputs are checked (``workloads.check_outputs``). A run
that raises or fails a check counts in ``failed``. The second-to-last line
of output is a JSON record of the environment and of every workflow; the
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 21
# One BLAS thread: a second thread speeds a resnet8 step up by about 7% on
# two cores, but makes run-to-run times swing more when the other core is
# busy.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "workflow_s": "s",
    "train_samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "final_score": "ratio",
    "flops_kept": "ratio",
    "params_kept": "ratio",
    "peak_rss_mb": "MB",
}

KINDS = ("conv", "batch_norm", "max_pool", "relu", "sum", "concat", "upsample", "fully_connected")
PER_LAYER = {
    "engine.forward_ms": "ms",
    "engine.backward_ms": "ms",
    **{f"engine.{k}.{d}_ms": "ms" for k in KINDS for d in ("fwd", "bwd")},
    "engine.conv.gmacs_per_s": "GMAC/s",
    "engine.dispatch_ms": "ms",
    "engine.eval_forward_ms": "ms",
    "workflow.evaluate_ms": "ms",
    "objective.cross_entropy_ms": "ms",
    "objective.arch_terms_ms": "ms",
    "accounting.measures_ms": "ms",
    "accounting.grads_ms": "ms",
    "accounting.walks_per_step": "count",
    "optim.step_ms": "ms",
    "optim.elements_per_step": "count",
    "optim.checkpoint_ms": "ms",
    "optim.checkpoint_mb": "MB",
    "data.batch_wait_ms": "ms",
    "pruner.rewrite_ms": "ms",
    "pruner.verify_ms": "ms",
    "pruner.fold_ms": "ms",
    "pruner.residual_max": "ratio",
    "pruner.cuts_effective_frac": "ratio",
    "subgraph.identify_ms": "ms",
    "subgraph.identify_calls": "count",
    "workflow.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def _limit_blas_threads() -> int:
    """Pin BLAS/OpenMP threads to ``BLAS_THREADS``, at most the cores this
    process may use. Must run before NumPy is imported; child processes
    inherit the setting."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _import_program() -> None:
    if not (SRC / "prunekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prunekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import prunekit

    if Path(prunekit.__file__).resolve().parent != SRC / "prunekit":
        raise SystemExit(f"perfbench: imported prunekit from {prunekit.__file__}, not {SRC}")


@dataclass
class Outcome:
    seed: int
    workflow_s: float
    step_s: list[float]
    samples: list[int]
    scores: list[float]
    flops_kept: float
    params_kept: float
    problems: list[str]
    result: object = field(repr=False)
    instrument: object = field(repr=False)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "workflow_s": self.workflow_s,
            "steps": len(self.step_s),
            "step_ms_p50": 1e3 * statistics.median(self.step_s) if self.step_s else None,
            "scores": self.scores,
            "flops_kept": self.flops_kept,
            "params_kept": self.params_kept,
            "problems": self.problems,
        }


@contextlib.contextmanager
def _out_dir(prefix: str):
    """A fresh workflow output directory inside the checkout, removed
    afterwards together with ``OUT_ROOT`` once that is empty."""
    OUT_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # still in use by another run


def run_workflow(w, train, test, seed: int, points) -> Outcome:
    """One instrumented ``workflow.run`` with its outputs checked."""
    from prunekit import workflow
    from prunekit.accounting import structure_measures

    from instrument import Instrument, step_durations
    from workloads import check_outputs

    with _out_dir(f"{w.name}-") as out_dir, \
            Instrument(points) as inst:
        t0 = time.perf_counter()
        result = workflow.run(w.config(seed, out_dir), train_set=train, test_set=test)
        elapsed = time.perf_counter() - t0
    cost = structure_measures(result.graph, result.coloring, None, result.shapes)
    scores = [float(s) for _, s in result.scores]
    record = inst.record
    return Outcome(
        seed=seed,
        workflow_s=elapsed,
        step_s=step_durations(inst.tracer),
        samples=list(record.batch_samples),
        scores=scores,
        flops_kept=cost.total_flops / result.baseline[1],
        params_kept=cost.total_params / result.baseline[0],
        problems=check_outputs(w, scores, record.losses, record.residuals),
        result=result,
        instrument=inst,
    )


class Tally:
    """Attempts and failures of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.outcomes: list[Outcome] = []
        self.setup_s: list[float] = []

    def workflow(self, *args, **kwargs) -> Outcome | None:
        self.attempted += 1
        try:
            outcome = run_workflow(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        if outcome.problems:
            self.failed += 1
            print(f"perfbench: workflow seed {outcome.seed}: {outcome.problems}", file=sys.stderr)
        self.outcomes.append(outcome)
        return outcome


# -- set-up probes ------------------------------------------------------------------


class _FirstBatch(Exception):
    pass


def probe_setup(w, seed: int) -> int:
    """Child side: print the clock at the first training batch, then stop."""
    from prunekit import workflow

    train, test = w.make_data(seed)
    original = workflow.batches

    def batches(*args, **kwargs):
        if kwargs.get("shuffle", True):
            print(f"first-batch {time.monotonic()!r}", flush=True)
            raise _FirstBatch
        return original(*args, **kwargs)

    workflow.batches = batches
    try:
        with _out_dir(f"{w.name}-setup-") as out_dir:
            workflow.run(w.config(seed, out_dir), train_set=train, test_set=test)
    except _FirstBatch:
        return 0
    finally:
        workflow.batches = original
    print("perfbench: set-up probe never reached a training batch", file=sys.stderr)
    return 1


def setup_times(workload: str, seed: int, tally: Tally) -> list[float]:
    """Seconds from spawning a fresh process to its first training batch."""
    times = tally.setup_s
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        tally.attempted += 1
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        stamps = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("first-batch ")]
        if proc.returncode != 0 or len(stamps) != 1:
            tally.failed += 1
            sys.stderr.write(proc.stderr)
            continue
        times.append(float(stamps[0]) - t0)
    return times


# -- the two modes ---------------------------------------------------------------


def end_to_end(w, seed: int, seconds: float, tally: Tally) -> dict[str, float] | None:
    import numpy as np

    from instrument import CLOCK_POINTS
    from workloads import workflow_seed

    setups = setup_times(w.name, seed, tally)
    deadline = time.perf_counter() + seconds
    for repeat in range(w.repeats):
        if time.perf_counter() > deadline:
            tally.attempted += 1
            tally.failed += 1
            print(f"perfbench: workflow {repeat + 1} of {w.repeats} not started "
                  f"within {seconds} s", file=sys.stderr)
            continue
        sub_seed = workflow_seed(seed, repeat)
        train, test = w.make_data(sub_seed)
        tally.workflow(w, train, test, sub_seed, CLOCK_POINTS)
    good = [o for o in tally.outcomes if not o.problems]
    if not good or not setups:
        return None
    steps = np.concatenate([o.step_s for o in good])
    samples = sum(sum(o.samples) for o in good)
    return {
        "setup_s": statistics.median(setups),
        "workflow_s": statistics.median(o.workflow_s for o in good),
        "train_samples_per_s": samples / float(np.sum(steps)),
        "step_ms_p50": float(np.percentile(steps, 50)) * 1e3,
        "step_ms_p90": float(np.percentile(steps, 90)) * 1e3,
        "final_score": statistics.median(o.scores[-1] for o in good),
        "flops_kept": statistics.median(o.flops_kept for o in good),
        "params_kept": statistics.median(o.params_kept for o in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _identical(a: Outcome, b: Outcome) -> bool:
    import numpy as np

    wa, wb = a.result.weights, b.result.weights
    same_weights = sorted(wa) == sorted(wb) and all(
        sorted(wa[n]) == sorted(wb[n]) and all(np.array_equal(wa[n][k], wb[n][k]) for k in wa[n])
        for n in wa
    )
    return (same_weights and a.scores == b.scores
            and a.flops_kept == b.flops_kept and a.params_kept == b.params_kept)


def per_layer(w, seed: int, tally: Tally) -> dict[str, float] | None:
    from instrument import CLOCK_POINTS, TRACE_POINTS, layer_metrics
    from sweep import sweep

    train, test = w.make_data(seed)
    # The first workflow of a process runs slower than later ones, so the
    # traced run is compared with an untraced run after it; the one before
    # it takes the first-run cost and is the reference for bitwise equality.
    first = tally.workflow(w, train, test, seed, CLOCK_POINTS)
    traced = tally.workflow(w, train, test, seed, TRACE_POINTS)
    plain = tally.workflow(w, train, test, seed, CLOCK_POINTS)
    if first is None or traced is None or plain is None:
        return None
    if not (_identical(first, traced) and _identical(first, plain)):
        traced.problems.append("traced and untraced runs of the same seed differ")
        tally.failed += 1
    inst = traced.instrument
    metrics = layer_metrics(inst.tracer, inst.record)
    metrics["trace.overhead_frac"] = traced.workflow_s / plain.workflow_s - 1.0
    metrics.update(sweep(w.model, w.model_args, w.entry_shape(), seed=seed))
    return metrics


# -- reporting -------------------------------------------------------------------


def environment(seed: int, threads: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "prunekit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    threads = _limit_blas_threads()
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    if args.setup_probe:
        return probe_setup(w, args.seed)

    tally = Tally()
    if args.trace:
        metrics, units = per_layer(w, args.seed, tally), PER_LAYER
    else:
        metrics, units = end_to_end(w, args.seed, args.seconds, tally), END_TO_END
    info = environment(args.seed, threads)
    info.update(workload=w.name, trace=args.trace, setup_s=tally.setup_s,
                workflows=[o.summary() for o in tally.outcomes])
    print(json.dumps({"perfbench": info}))
    if metrics is None:
        print("perfbench: no workflow completed correctly; no metrics", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
