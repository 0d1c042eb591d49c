"""Multi-seed block-recovery evaluation for simulated scenarios."""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process  # loaded here, not inside a timed eval
import functools
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .catalog import CELL_MOTIF_INDEX, POSITIONED_CELL_NAMES, TWO_NODE_MOTIFS
from .cluster import centroids, cut, permutation_accuracy, usable_cpus, ward_linkage
from .counting import count_motifs
from .hawkes import BlockHawkesParams, simulate
from .profiles import build_positioned, build_positionless
from .table import table_text

# Positioned profile cells of the two-node motifs M5,1 M5,2 M6,1 M6,2, and
# the reply cells whose position-1 and position-2 halves tell the sender
# and the replier of a reciprocated exchange apart.
TWO_NODE_CELLS = np.flatnonzero(
    np.isin(CELL_MOTIF_INDEX, [m.index for m in TWO_NODE_MOTIFS])
)
REPLY_P1 = np.array([POSITIONED_CELL_NAMES.index(c) for c in ("M51_p1", "M52_p1", "M62_p1")])
REPLY_P2 = np.array([POSITIONED_CELL_NAMES.index(c) for c in ("M51_p2", "M52_p2", "M62_p2")])


@dataclass(frozen=True)
class RunResult:
    """One scored run. two_node_mass holds each positioned centroid's mass
    on the two-node cells; split_ok is true when the centroids do not all
    lean the same way on the position-1 reply cells against position 2.
    candidates counts the simulator's thinning candidates."""

    seed: int
    n_events: int
    candidates: int
    n_profiled: int
    accuracy_positioned: float
    accuracy_positionless: float
    two_node_mass: tuple[float, ...]
    split_ok: bool


@dataclass(frozen=True)
class EvalSummary:
    runs: tuple[RunResult, ...]

    def _column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.runs])

    def mean_accuracy(self, kind: str) -> float:
        return float(self._column(f"accuracy_{kind}").mean())

    def stderr_accuracy(self, kind: str) -> float | None:
        """Standard error of the mean; None for a single run."""
        col = self._column(f"accuracy_{kind}")
        if col.size < 2:
            return None
        return float(col.std(ddof=1) / math.sqrt(col.size))

    def report(self) -> str:
        rows = []
        for kind in ("positioned", "positionless"):
            se = self.stderr_accuracy(kind)
            se_text = "n/a" if se is None else f"{se:.4f}"
            rows.append((kind, f"{self.mean_accuracy(kind):.4f}", se_text))
        return table_text(("method", "mean_accuracy", "stderr"), rows)

    def gate_diagnostics(self) -> str:
        """One line on the runs.csv columns the acceptance gate checks: the
        worst and mean two_node_mass_min, and the runs with position_split 1."""
        masses = [min(r.two_node_mass) for r in self.runs]
        split = sum(r.split_ok for r in self.runs)
        return (f"two_node_mass_min worst {min(masses):.4f} mean "
                f"{sum(masses) / len(masses):.4f}; "
                f"position_split {split}/{len(self.runs)}")

    def runs_csv_text(self) -> str:
        """One row per run, `runs.csv`."""
        header = ("seed", "events", "profiled", "accuracy_positioned",
                  "accuracy_positionless", "two_node_mass_min", "position_split")
        rows = (
            (r.seed, r.n_events, r.n_profiled, r.accuracy_positioned,
             r.accuracy_positionless, min(r.two_node_mass), int(r.split_ok))
            for r in self.runs
        )
        return table_text(header, rows)


def evaluate_run(
    params: BlockHawkesParams,
    delta: float,
    seed: int,
    k: int = 2,
    min_motifs: int = 0,
) -> RunResult:
    """Simulate one network, score block recovery for both profile kinds
    and measure the positioned centroids. A ValueError or RuntimeError of
    the run carries the prefix "seed N: ", so a failing run can be re-run."""
    try:
        net = simulate(params, seed)
        counts = count_motifs(net.graph, delta)
        name_to_index = {name: i for i, name in enumerate(net.graph.node_names)}
        results = {}
        # positioned runs last: its profiles and clustering feed the centroids
        for kind, builder in (
            ("positionless", build_positionless),
            ("positioned", build_positioned),
        ):
            prof = builder(counts, min_motifs=min_motifs)
            if prof.n_profiled < 2:
                raise ValueError(
                    f"only {prof.n_profiled} nodes participate in motifs; "
                    "cannot cluster"
                )
            truth = net.labels[[name_to_index[nm] for nm in prof.node_names]]
            clustering = cut(ward_linkage(prof.vectors), k)
            results[kind] = permutation_accuracy(clustering, truth)
        means = centroids(prof.vectors, clustering)
        leans_p1 = {bool(m[REPLY_P1].sum() > m[REPLY_P2].sum()) for m in means}
        return RunResult(
            seed=seed,
            n_events=net.graph.n_edges,
            candidates=net.candidates,
            n_profiled=prof.n_profiled,
            accuracy_positioned=results["positioned"],
            accuracy_positionless=results["positionless"],
            two_node_mass=tuple(float(m[TWO_NODE_CELLS].sum()) for m in means),
            split_ok=len(leans_p1) > 1,
        )
    except (ValueError, RuntimeError) as exc:
        exc.args = (f"seed {seed}: {exc}",)
        raise


def evaluate_scenario(
    params: BlockHawkesParams,
    delta: float,
    seeds,
    k: int = 2,
    min_motifs: int = 0,
) -> EvalSummary:
    """evaluate_run on every seed, results in seed order.

    The seeds run in forked worker processes, one per usable CPU, where the
    platform can fork and more than one CPU and seed are at hand; otherwise
    in this process. Each run draws and computes the same either way, so
    the summary does not depend on the CPU count, and a failing run raises
    the error of the first failing seed in seed order.
    """
    seeds = [int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one run")
    run = functools.partial(evaluate_run, params, delta, k=k, min_motifs=min_motifs)
    workers = min(usable_cpus(), len(seeds))
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        runs = tuple(map(run, seeds))
    else:
        # fork, not spawn: a spawned worker imports numpy and the package
        # afresh, which costs more than a whole run
        context = multiprocessing.get_context("fork")
        pool = concurrent.futures.ProcessPoolExecutor(workers, mp_context=context)
        with pool:
            runs = tuple(pool.map(run, seeds))
    return EvalSummary(runs)
