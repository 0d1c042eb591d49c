"""Tests of the benchmark's own helpers.

    python3 -m pytest -q bench/test_bench.py
"""

import types
from itertools import combinations

import numpy as np
import pytest

from spans import Span, Tracer, layer_seconds, self_times
from workloads import WORKLOADS, Network, generate_edges, window_triples


def test_generator_is_deterministic_per_seed():
    net = Network(n_nodes=30, n_edges=500)
    first = generate_edges(net, 7)
    assert first == generate_edges(net, 7)
    assert first != generate_edges(net, 8)
    assert len(first) == net.n_edges
    src, tgt, day = (np.array(col) for col in zip(*first))
    assert np.all(src != tgt)
    assert np.all((0 <= src) & (src < net.n_nodes) & (0 <= tgt) & (tgt < net.n_nodes))
    assert np.all((day == np.floor(day)) & (0 <= day) & (day < net.horizon))


def test_pipeline_ops_are_fixed_by_the_seed():
    for workload in WORKLOADS.values():
        assert workload.ops(3) == workload.ops(3)
    study = WORKLOADS["study"]
    assert study.ops(3) != study.ops(4)
    assert int(study.ops(0)[0][study.ops(0)[0].index("--seed") + 1]) >= 100


def _brute_window_triples(time, delta):
    t = sorted(time)
    return sum(1 for i, _, k in combinations(range(len(t)), 3) if t[k] - t[i] <= delta)


@pytest.mark.parametrize("seed", range(20))
def test_window_triples_matches_brute_count(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 40))
    if seed % 2:
        time = rng.integers(0, 15, size=m).astype(float)  # many ties
        delta = float(rng.integers(1, 5))
    else:
        time = np.round(rng.uniform(0.0, 3.0, size=m), 1)  # tenths round unevenly
        delta = 0.1 * int(rng.integers(1, 8))
    assert window_triples(time, delta) == _brute_window_triples(time, delta)


def test_self_times_subtract_direct_children():
    spans = [
        Span(0, "cli.pass", None, 0.0, 10.0),
        Span(1, "counting.count", 0, 1.0, 4.0),
        Span(2, "graph.parse", 1, 2.0, 3.0),
        Span(3, "cli.count", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    seconds = layer_seconds(spans)
    assert seconds["cli.self"] == 7.0
    assert seconds["counting.count"] == 2.0
    assert seconds["graph.parse"] == 1.0
    assert seconds["hawkes.simulate"] == 0.0
    assert sum(seconds.values()) == 10.0


def test_wrapped_calls_nest_and_add_up():
    module = types.SimpleNamespace(__name__="fake")
    module.filter_nodes = lambda x: x + 1
    module.cut = lambda x: module.filter_nodes(x) * 2
    tracer = Tracer()
    assert sorted(tracer.install([module])) == ["fake.cut", "fake.filter_nodes"]
    root = tracer.begin("cli.pass")
    assert module.cut(1) == 4
    tracer.end(root)
    names = {s.id: s.name for s in tracer.spans}
    parents = {s.name: names.get(s.parent) for s in tracer.spans}
    assert parents == {"cli.pass": None, "cluster.cut": "cli.pass", "graph.filter": "cluster.cut"}
    assert sum(layer_seconds(tracer.spans).values()) == pytest.approx(root.end - root.start)


def test_counters_are_filled_after_the_pass():
    module = types.SimpleNamespace(__name__="fake")
    module.ward_linkage = lambda vectors: types.SimpleNamespace(n_leaves=len(vectors))
    tracer = Tracer()
    tracer.install([module])
    module.ward_linkage([0.0, 1.0, 2.0])
    assert not tracer.counters
    assert tracer.fill_counters() == {"cluster.ward_leaves": 3}
    assert tracer.fill_counters() == {"cluster.ward_leaves": 3}
