"""Synthetic network generators shared by the test modules."""

import numpy as np

import workloads
from motifroles.graph import TemporalGraph


def random_temporal_graph(rng, max_nodes=15, max_edges=60, integer_times=False):
    """Small random temporal digraph. Integer timestamps force many ties,
    exercising the tie policies."""
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(3, max_edges + 1))
    src = rng.integers(0, n, size=m)
    tgt = rng.integers(0, n, size=m)
    # resample self-loops
    while np.any(src == tgt):
        bad = src == tgt
        tgt[bad] = rng.integers(0, n, size=int(bad.sum()))
    if integer_times:
        time = rng.integers(0, max(m // 2, 2), size=m).astype(np.float64)
    else:
        time = rng.uniform(0.0, 100.0, size=m)
    names = [f"n{i}" for i in range(n)]
    edges = [(names[s], names[t], float(ts)) for s, t, ts in zip(src, tgt, time)]
    # no extra_nodes: isolated nodes do not survive an edge-list round trip
    return TemporalGraph.from_named_edges(edges)


def random_digraph_arcs(rng, max_nodes=12):
    n = int(rng.integers(1, max_nodes + 1))
    density = rng.uniform(0.05, 0.5)
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs.add((u, v))
    return n, arcs


def mid_scale_network(seed=0, n_nodes=156, n_edges=5000, horizon=3650.0):
    """Stand-in for a country-level dispute network: the benchmark's bursty
    multi-party episodes with heavy-tailed participation, daily timestamp
    resolution. Episode structure makes short windows motif-rich, like
    incident data."""
    net = workloads.Network(n_nodes=n_nodes, n_edges=n_edges, horizon=horizon)
    names = workloads.node_names(net)
    edges = [(names[u], names[v], t) for u, v, t in workloads.generate_edges(net, seed)]
    return TemporalGraph.from_named_edges(edges, extra_nodes=names)
