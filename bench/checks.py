"""Output checks run after every pass, outside the timed region.

Each check names the CLI call (by its index in the pass) whose output it
judges, so a failed check counts as one failed operation. The reference
files come from the warm-up pass of the same run.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import ORACLE_SLICE_EDGES, Workload

# The out directory of each pipeline call, in pass order.
PIPELINE_DIRS = ("count", "profile", "cluster", "render")


def reference_files(workload: Workload, out: Path) -> dict[str, bytes]:
    """Files that must be byte-identical on every pass: each call's manifest
    for the pipelines, each scenario's runs.csv for the study."""
    if workload.network is None:
        names = ["eval1/runs.csv", "eval2/runs.csv"]
    else:
        names = [f"{d}/manifest.json" for d in PIPELINE_DIRS]
    return {name: (out / name).read_bytes() for name in names if (out / name).is_file()}


def check_study(out: Path, reference: dict[str, bytes]) -> tuple[dict, list]:
    """Problems by call index, and (positioned, positionless) accuracies of
    every seed run of both scenarios."""
    problems = defaultdict(list)
    accuracies = []
    for op, name in enumerate(("eval1/runs.csv", "eval2/runs.csv")):
        try:
            data = (out / name).read_bytes()
        except OSError as exc:
            problems[op].append(f"{name}: {exc}")
            continue
        if data != reference.get(name):
            problems[op].append(f"{name} differs from the warm-up pass")
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        pos = np.array([float(r["accuracy_positioned"]) for r in rows])
        flat = np.array([float(r["accuracy_positionless"]) for r in rows])
        if not rows or pos.mean() <= flat.mean():
            problems[op].append(
                f"{name}: positioned accuracy {pos.mean():.4f} is not above "
                f"positionless {flat.mean():.4f}"
            )
        accuracies.extend(zip(pos, flat))
    return problems, accuracies


def check_pipeline(
    workload: Workload, out: Path, graph_slice, reference: dict[str, bytes]
) -> dict:
    """Problems by call index for one pipeline pass. graph_slice is the
    pass's slice of the input graph for the counting oracle."""
    from motifroles.cli import _TIE_FLAG
    from motifroles.cluster import parse_dendrogram
    from motifroles.counting import brute_force_count, count_motifs
    from motifroles.profiles import read_profile_csv

    problems = defaultdict(list)

    tie_policy = _TIE_FLAG[workload.ties]
    fast = count_motifs(graph_slice, workload.delta, tie_policy)
    slow = brute_force_count(graph_slice, workload.delta, tie_policy)
    if not (
        np.array_equal(fast.counts, slow.counts)
        and np.array_equal(fast.motif_totals, slow.motif_totals)
    ):
        problems[0].append(
            f"count_motifs disagrees with brute_force_count on a {ORACLE_SLICE_EDGES}-edge slice"
        )

    try:
        # the reader rejects a row that does not sum to 1 within 1e-9
        profiles = read_profile_csv(out / "profile" / "profiles.csv")
    except (OSError, ValueError) as exc:
        problems[1].append(f"profiles.csv: {exc}")
        profiles = None

    try:
        text = (out / "cluster" / "dendrogram.txt").read_text(encoding="utf-8")
        dendro, _ = parse_dendrogram(text)
        n = profiles.n_profiled if profiles is not None else None
        if n is not None and (dendro.n_leaves != n or len(dendro.merges) != n - 1):
            problems[2].append(
                f"dendrogram has {dendro.n_leaves} leaves and {len(dendro.merges)} "
                f"merges for {n} profiles"
            )
        elif workload.scipy_check and profiles is not None:
            # the reader keeps the live columns only; the dead ones are
            # zero, so the distances scipy sees are the same
            mismatch = _compare_with_scipy(dendro, profiles.vectors)
            if mismatch:
                problems[2].append(mismatch)
    except (OSError, ValueError) as exc:
        problems[2].append(f"dendrogram.txt: {exc}")

    for op, d in enumerate(PIPELINE_DIRS):
        name = f"{d}/manifest.json"
        try:
            if (out / name).read_bytes() != reference.get(name):
                problems[op].append(f"{name} differs from the warm-up pass")
        except OSError as exc:
            problems[op].append(f"{name}: {exc}")
    return problems


def _compare_with_scipy(dendro, vectors: np.ndarray) -> str | None:
    """On tie-free profiles Ward's merges are unique, so they must match
    scipy's, whose distance d relates to the program's height as d**2 / 2."""
    from scipy.cluster.hierarchy import linkage

    for step, (merge, row) in enumerate(zip(dendro.merges, linkage(vectors, method="ward"))):
        pair = tuple(sorted((merge.left, merge.right)))
        scipy_pair = (int(row[0]), int(row[1]))
        if pair != scipy_pair or merge.size != int(row[3]):
            return f"merge {step} joins {pair}, scipy joins {scipy_pair}"
        height = float(row[2]) ** 2 / 2
        if not np.isclose(merge.height, height, rtol=1e-9, atol=1e-15):
            return f"merge {step} height {merge.height!r}, scipy d**2/2 {height!r}"
    return None
