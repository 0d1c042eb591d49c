"""The benchmark's workloads: seeded input generators and the CLI calls of one pass.

Each workload is built so that one layer of motifroles does most of its work:

- ``study`` runs the simulator (``hawkes``) through the paper's multi-seed
  recovery study;
- ``pipeline_dense`` is dominated by motif counting (``counting``);
- ``pipeline_wide`` is dominated by Ward linkage (``cluster``).

An optimisation of one layer should therefore move one workload and leave
the other two unchanged. The pipeline inputs come from a copy of the bursty
``mid_scale_network`` recipe in the test helpers, with an explicit horizon,
so the benchmark never imports the test suite.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The recipe's 10-day episodes need a horizon of 100 years at these edge
# counts: on the recipe's default 10-year horizon, 50k edges give 288M
# window triples instead of 5.3M and one count takes about 35 s.
HORIZON_DAYS = 36_500.0

# Study base seeds start past the acceptance test's seeds 0..99.
STUDY_FIRST_SEED = 100
STUDY_RUNS = 20

# The CLI's --k for the pipelines' cluster and render calls and for the
# study's eval calls, and --min-motifs for every workload.
PIPELINE_K = 4
STUDY_K = 2
MIN_MOTIFS = 10

# Pipeline check: each pass compares count_motifs with the brute-force
# oracle on a different slice of this many edges of the input, in file order.
ORACLE_SLICE_EDGES = 120


@dataclass(frozen=True)
class Network:
    """Parameters of the bursty episode generator."""

    n_nodes: int
    n_edges: int
    horizon: float = HORIZON_DAYS
    zipf_exponent: float = 0.8  # participation weight of node i is 1 / i**0.8
    episode_days: float = 10.0  # an episode's edges fall in [start, start + 10)
    party_sizes: tuple[int, int] = (2, 4)  # nodes per episode, inclusive
    episode_edges: tuple[int, int] = (3, 10)  # edges per episode, inclusive


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    network: Network | None  # None: the program simulates its own input
    delta: float | None = None
    scc: bool = False
    ties: str = "seq"  # the CLI's --ties value
    scipy_check: bool = False  # profiles are tie-free, so scipy's Ward agrees

    def ops(self, seed: int) -> list[list[str]]:
        """The CLI argument lists of one pass, with paths relative to the
        workload directory."""
        if self.network is None:
            base = str(study_base_seed(seed))
            return [
                ["eval", "--scenario", str(s), "--runs", str(STUDY_RUNS),
                 "--seed", base, "--min-motifs", str(MIN_MOTIFS),
                 "--k", str(STUDY_K), "--out", f"out/eval{s}"]
                for s in (1, 2)
            ]
        return [
            ["count", "--input", "edges.csv", "--delta", f"{self.delta:g}",
             "--ties", self.ties, *(["--scc"] if self.scc else []),
             "--out", "out/count"],
            ["profile", "--counts", "out/count/counts.csv",
             "--min-motifs", str(MIN_MOTIFS), "--out", "out/profile"],
            ["cluster", "--profiles", "out/profile/profiles.csv",
             "--k", str(PIPELINE_K), "--out", "out/cluster"],
            ["render", "--profiles", "out/profile/profiles.csv",
             "--dendrogram", "out/cluster/dendrogram.txt",
             "--k", str(PIPELINE_K), "--out", "out/render"],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study",
            "eval of scenarios 1 and 2, 20 seeds each, 20 nodes and about 1.4k "
            "events a run: the simulator does most of the work",
            network=None,
        ),
        Workload(
            "pipeline_dense",
            "count --scc --delta 7, profile, cluster, render on 156 nodes and "
            "50k edges over 36,500 days: motif counting does most of the work",
            network=Network(n_nodes=156, n_edges=50_000),
            delta=7.0,
            scc=True,
        ),
        Workload(
            "pipeline_wide",
            "count --delta 30 --ties exclude, profile, cluster, render on 800 "
            "nodes and 12k edges: Ward linkage over about 700 profiles does most "
            "of the work",
            network=Network(n_nodes=800, n_edges=12_000),
            delta=30.0,
            ties="exclude",
            scipy_check=True,
        ),
    )
}


def study_base_seed(seed: int) -> int:
    """First simulator seed of a study pass; runs use base .. base + 19."""
    return STUDY_FIRST_SEED + STUDY_RUNS * seed


def node_names(net: Network) -> list[str]:
    return [f"c{i:03d}" for i in range(net.n_nodes)]


def generate_edges(net: Network, seed: int) -> list[tuple[int, int, float]]:
    """Bursty multi-party episodes with heavy-tailed participation at daily
    resolution, as (source, target, day) in generation order."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    weights = 1.0 / np.arange(1, net.n_nodes + 1) ** net.zipf_exponent
    weights /= weights.sum()
    lo_party, hi_party = net.party_sizes
    lo_edges, hi_edges = net.episode_edges
    edges: list[tuple[int, int, float]] = []
    while len(edges) < net.n_edges:
        k = int(rng.integers(lo_party, hi_party + 1))
        party = rng.choice(net.n_nodes, size=k, replace=False, p=weights)
        start = rng.uniform(0.0, net.horizon - net.episode_days)
        for _ in range(int(rng.integers(lo_edges, hi_edges + 1))):
            u, v = rng.choice(k, size=2, replace=False)
            t = np.floor(start + rng.uniform(0.0, net.episode_days))
            edges.append((int(party[u]), int(party[v]), float(t)))
    return edges[: net.n_edges]


def write_edges(net: Network, edges, path: Path) -> None:
    names = node_names(net)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("source", "target", "timestamp"))
        for u, v, t in edges:
            writer.writerow((names[u], names[v], repr(t)))


def window_triples(time, delta: float) -> int:
    """Sum over first edges i of C(w_i, 2), where w_i counts the later edges
    k with time[k] - time[i] <= delta: the edge triples a windowed
    enumerator pairs up. Uses the subtraction predicate exactly."""
    time = np.sort(np.asarray(time, dtype=np.float64))
    m = time.shape[0]
    if m < 3:
        return 0
    idx = np.arange(m)
    end = np.searchsorted(time, time + delta, side="right") - 1
    # time + delta can round differently from time[k] - time[i]; step the
    # boundary until the subtraction predicate holds exactly
    while True:
        up = (end + 1 < m) & (time[np.minimum(end + 1, m - 1)] - time <= delta)
        down = (end > idx) & (time[end] - time > delta)
        if not (up.any() or down.any()):
            break
        end = end + up - down
    w = end - idx
    return int((w * (w - 1) // 2).sum())
