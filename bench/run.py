"""Benchmark of the motifroles command line on three seeded workloads.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload pipeline_dense --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``study``, ``pipeline_dense``, ``pipeline_wide``.

A run sets the workload up three times (generate and write the inputs, then
start an interpreter that imports motifroles, numpy and scipy) and reports
the median as ``setup_s``. It then makes one warm-up pass, excluded from
every figure, and passes in a closed loop, one child process at a time,
while a typical pass still ends within ``--seconds`` (at least three
passes). Each pass runs every CLI call of the workload through
``motifroles.cli.main`` in a fresh interpreter with BLAS/OpenMP threads
pinned to 1, and its outputs are checked after it ends. An operation is one
CLI call; it fails on a nonzero exit or a failed output check.

``--trace 0`` reports the end-to-end metrics of untraced passes: ``setup_s``
and ``wall_s``, the median time of one pass from the first CLI call's start
to the last call's end. ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics as means over the traced passes, so that
the layers' self times add up to ``trace.wall_s``, plus the median peak
resident memory of the untraced passes; the traced figures never feed
``wall_s``. The tracing overhead is the median traced pass time minus
``wall_s``. A human-readable report, with the failure share, the
pass-time tail, the peak memory and the study's accuracies, goes to
standard output; the last line is the JSON result. The full record
(environment, workload parameters, every pass, spans) is written under
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_REPS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "hawkes.simulate_s": "s",
    "hawkes.events": "count",
    "hawkes.us_per_event": "us",
    "counting.count_s": "s",
    "counting.window_triples": "count",
    "counting.instances": "count",
    "counting.yield": "ratio",
    "cluster.ward_s": "s",
    "cluster.ward_leaves": "count",
    "cluster.cut_s": "s",
    "cluster.score_s": "s",
    "cluster.centroids_s": "s",
    "graph.parse_s": "s",
    "graph.scc_s": "s",
    "graph.filter_s": "s",
    "graph.edges": "count",
    "graph.scc_nodes": "count",
    "profiles.build_s": "s",
    "profiles.nodes_profiled": "count",
    "profiles.nodes_dropped": "count",
    "render.svg_s": "s",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.wall_s": "s",
    "process.peak_rss_mb": "MB",
}


def _args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_openmp_threads": 1,
        "child_processes_at_once": 1,
        "load": "closed loop, one pass at a time",
        "warmup_passes_excluded": 1,
    }


class Runner:
    """Runs passes of one workload in child interpreters."""

    def __init__(self, workload, seed: int, root: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        self.dir = root / ".bench_work" / workload.name
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.ops = workload.ops(seed)
        self.edges = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, ops, trace: bool) -> dict:
        spec = json.dumps({"ops": ops, "trace": trace, "src": str(self.src)})
        proc = subprocess.run(
            [sys.executable, str(CHILD), spec],
            cwd=self.dir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(self.remaining(), 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self) -> float:
        """Generate and write the inputs, then time an import-only child."""
        from workloads import generate_edges, write_edges

        start = time.perf_counter()
        self.dir.mkdir(parents=True, exist_ok=True)
        net = self.workload.network
        if net is not None:
            self.edges = generate_edges(net, self.seed)
            write_edges(net, self.edges, self.dir / "edges.csv")
        self.child([], trace=False)
        return time.perf_counter() - start

    def run_pass(self, trace: bool) -> dict:
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        try:
            return self.child(self.ops, trace)
        except subprocess.TimeoutExpired:
            return {"codes": [], "error": "pass cut at the run's time limit"}
        except (RuntimeError, ValueError) as exc:
            return {"codes": [], "error": str(exc)}

    def input_size(self) -> dict:
        from workloads import STUDY_RUNS, study_base_seed

        if self.edges is None:
            return {"first_simulator_seed": study_base_seed(self.seed), "runs_per_scenario": STUDY_RUNS}
        return {
            "edges": len(self.edges),
            "nodes": len({u for u, _, _ in self.edges} | {v for _, v, _ in self.edges}),
        }

    def graph_slice(self, pass_no: int):
        """The pass's slice of the input, in file order, for the oracle."""
        from motifroles.graph import TemporalGraph
        from workloads import ORACLE_SLICE_EDGES, node_names

        names = node_names(self.workload.network)
        span = len(self.edges) - ORACLE_SLICE_EDGES
        lo = (pass_no * ORACLE_SLICE_EDGES) % span
        return TemporalGraph.from_named_edges(
            (names[u], names[v], t) for u, v, t in self.edges[lo : lo + ORACLE_SLICE_EDGES]
        )

    def check(self, result: dict, pass_no: int, reference: dict) -> tuple[list[str], list]:
        """Failure messages, one or more per failed call, and the study's
        accuracies."""
        import checks

        if "error" in result:
            return [result["error"]] * len(self.ops), []
        out = self.dir / "out"
        failed = {op: [f"exit code {code}"] for op, code in enumerate(result["codes"]) if code != 0}
        if self.workload.network is None:
            problems, accuracies = checks.check_study(out, reference)
        else:
            problems = checks.check_pipeline(
                self.workload, out, self.graph_slice(pass_no), reference
            )
            accuracies = []
        for op, messages in problems.items():
            failed.setdefault(op, []).extend(messages)
        messages = [f"{self.ops[op][0]}: {'; '.join(m)}" for op, m in sorted(failed.items())]
        return messages, accuracies


def layer_metrics(result: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass. The self times add up to the
    root span, which is the pass's wall time."""
    from spans import Span, layer_seconds

    seconds = layer_seconds([Span(**s) for s in result["spans"]])
    counters = result["counters"]
    metrics = {f"{name}_s": value for name, value in seconds.items()}
    for name, unit in LAYER_METRICS.items():
        if unit in ("count", "bytes"):
            metrics[name] = float(counters.get(name, 0))
    triples = metrics["counting.window_triples"]
    metrics["counting.yield"] = metrics["counting.instances"] / triples if triples else 0.0
    events = metrics["hawkes.events"]
    metrics["hawkes.us_per_event"] = (
        1e6 * metrics["hawkes.simulate_s"] / events if events else 0.0
    )
    metrics["cli.bytes_written"] = float(bytes_written)
    metrics["trace.wall_s"] = result["pass_s"]
    return metrics


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n/a: no percentile has ten of {n} samples beyond it (max {max(samples):.4f} s)"
    value = sorted(samples)[n - 11]
    return f"{value:.4f} s (p{100.0 * (n - 10) / n:.1f} of {n} passes)"


def main(argv=None) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(HERE))
    args = _args(argv)
    root = Path.cwd()
    if not (root / "src" / "motifroles" / "cli.py").is_file():
        print("bench: src/motifroles not found; run from the root of a motifroles checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, root, started)
    setups = [runner.setup() for _ in range(SETUP_REPS)]

    warmup = runner.run_pass(trace=False)
    import checks

    reference = checks.reference_files(workload, runner.dir / "out")
    # every pass must reproduce the warm-up's runs.csv, so its accuracies
    # stand for the run
    failures, accuracies = runner.check(warmup, 0, reference)

    passes, spans = [], []
    attempted = len(runner.ops)
    deadline = time.perf_counter() + args.seconds
    # start a pass only if a typical pass ends before the deadline
    typical = warmup.get("pass_s", 0.0)
    while runner.remaining() > typical and (
        len(passes) < MIN_PASSES or time.perf_counter() + typical < deadline
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = runner.run_pass(traced)
        pass_no = len(passes) + 1
        problems, _ = runner.check(result, pass_no, reference)
        attempted += len(runner.ops)
        failures.extend(problems)
        record = {"pass": pass_no, "traced": traced, **result}
        if traced and "spans" in result:
            out_bytes = sum(p.stat().st_size for p in (runner.dir / "out").rglob("*") if p.is_file())
            record["layers"] = layer_metrics(result, out_bytes)
            spans.extend(
                dict(s, workload=workload.name, pass_no=pass_no) for s in record.pop("spans")
            )
        passes.append(record)
        if "error" in result:
            break
        typical = statistics.median(p["pass_s"] for p in passes)

    untraced = [p for p in passes if not p["traced"] and "pass_s" in p]
    traced_passes = [p for p in passes if "layers" in p]
    if not untraced or (args.trace and not traced_passes):
        print("bench: no pass completed", file=sys.stderr)
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    wall = statistics.median(p["pass_s"] for p in untraced)
    peak_rss = statistics.median(p["peak_rss_mb"] for p in untraced)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
    }
    layers = {}
    if traced_passes:
        layers = {
            name: (statistics.fmean(p["layers"][name] for p in traced_passes), unit)
            for name, unit in LAYER_METRICS.items()
            if name != "process.peak_rss_mb"
        }
        layers["process.peak_rss_mb"] = (peak_rss, "MB")

    failed = len(failures)
    env = environment()
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: {workload.why}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"passes: {len(untraced)} untraced and {len(traced_passes)} traced after 1 warm-up")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    print(f"  {'wall_s_tail':<26} {tail([p['pass_s'] for p in untraced])}")
    print(f"  {'peak_rss_mb':<26} {peak_rss:.6g} MB (median over untraced passes)")
    print(f"  {'fail_share':<26} {failed}/{attempted} operations")
    if accuracies:
        pos = statistics.fmean(a for a, _ in accuracies)
        flat = statistics.fmean(b for _, b in accuracies)
        print(f"  {'acc_positioned':<26} {pos:.4f} (mean of {len(accuracies)} seed runs)")
        print(f"  {'acc_gap':<26} {pos - flat:.4f} (positioned minus positionless)")
    if layers:
        overhead = statistics.median(p["pass_s"] for p in traced_passes) - wall
        print(f"  {'tracing overhead':<26} {overhead:.4f} s (traced median minus untraced wall_s)")
        for name, (value, unit) in layers.items():
            print(f"  {name:<26} {value:.6g} {unit}")
    for message in failures:
        print(f"  FAILED {message}")

    metrics = layers if args.trace else end_to_end
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": {**asdict(workload), "ops": runner.ops},
        "input": runner.input_size(),
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "setup_s": setups,
        "passes": passes,
        "failures": failures,
        "summary": summary,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
