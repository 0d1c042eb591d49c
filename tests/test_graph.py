import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifroles.graph import (
    EdgeListError,
    TemporalGraph,
    filter_nodes,
    largest_scc,
    parse_edge_list,
    serialize_edge_list,
    write_edge_list,
)
from synthdata import random_digraph_arcs, random_temporal_graph

TOY_CSV = "source,target,timestamp\nA,B,1\nA,C,2\nB,A,3\nA,B,4\n"


def test_parse_toy_network():
    g = parse_edge_list(io.StringIO(TOY_CSV))
    assert g.n_nodes == 3
    assert g.n_edges == 4
    assert g.named_edges() == [("A", "B", 1.0), ("A", "C", 2.0),
                               ("B", "A", 3.0), ("A", "B", 4.0)]


def test_parse_header_only():
    g = parse_edge_list(io.StringIO("source,target,timestamp\n"))
    assert g.n_nodes == 0
    assert g.n_edges == 0


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list(io.StringIO("source,target,timestamp\nA,A,1\n"))


def test_parse_rejects_bad_timestamp():
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list(io.StringIO("source,target,timestamp\nA,B,1\nB,A,xyz\n"))
    with pytest.raises(EdgeListError, match="non-finite"):
        parse_edge_list(io.StringIO("source,target,timestamp\nA,B,inf\n"))


def test_parse_rejects_wrong_field_count():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list(io.StringIO("source,target,timestamp\nA,B\n"))


def test_parse_rejects_missing_or_wrong_header():
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list(io.StringIO("src,dst,when\nA,B,1\n"))
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list(io.StringIO(""))


def test_sort_is_stable_on_equal_timestamps():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 5.0), ("B", "C", 5.0), ("C", "A", 5.0)]
    )
    # equal times keep input order via seq
    assert g.named_edges() == [("A", "B", 5.0), ("B", "C", 5.0), ("C", "A", 5.0)]
    assert list(g.seq) == [0, 1, 2]


def test_edges_sorted_by_time_then_seq():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 9.0), ("B", "C", 1.0), ("C", "A", 9.0), ("A", "C", 4.0)]
    )
    assert g.named_edges() == [("B", "C", 1.0), ("A", "C", 4.0),
                               ("A", "B", 9.0), ("C", "A", 9.0)]
    assert list(g.seq) == [1, 3, 0, 2]


def test_graph_validation_errors():
    with pytest.raises(ValueError, match="duplicate"):
        TemporalGraph(["A", "A"], [], [], [])
    with pytest.raises(ValueError, match="self-loop"):
        TemporalGraph(["A", "B"], [0], [0], [1.0])
    with pytest.raises(ValueError, match="outside"):
        TemporalGraph(["A", "B"], [0], [2], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        TemporalGraph(["A", "B"], [0], [1], [float("nan")])
    with pytest.raises(ValueError, match="unique"):
        TemporalGraph(["A", "B"], [0, 1], [1, 0], [1.0, 2.0], seq=[0, 0])


def test_round_trip_through_serializer(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_temporal_graph(rng)
        again = parse_edge_list(io.StringIO(serialize_edge_list(g)))
        assert again == g
    # and through a real file
    g = random_temporal_graph(rng)
    path = tmp_path / "edges.csv"
    write_edge_list(g, path)
    with open(path, newline="") as fh:
        assert parse_edge_list(fh) == g


def test_serializer_keeps_full_precision():
    t = 0.1 + 0.2  # not exactly 0.3
    g = TemporalGraph.from_named_edges([("A", "B", t)])
    again = parse_edge_list(io.StringIO(serialize_edge_list(g)))
    assert again.time[0] == t


def test_time_span():
    g = TemporalGraph.from_named_edges([("A", "B", 3.0), ("B", "A", 11.0)])
    assert g.time_span() == (3.0, 11.0)
    empty = TemporalGraph.from_named_edges([])
    with pytest.raises(ValueError):
        empty.time_span()


def _arc_graph(n, arcs):
    """Temporal graph on nodes 0..n-1 with one edge per arc, in arc order."""
    arcs = sorted(arcs)
    return TemporalGraph([f"n{i}" for i in range(n)], [u for u, _ in arcs],
                         [v for _, v in arcs], range(len(arcs)))


def test_largest_scc_examples():
    assert largest_scc(_arc_graph(3, {(0, 1), (1, 0), (1, 2)})) == {0, 1}
    assert largest_scc(_arc_graph(3, {(0, 1), (1, 2), (2, 0)})) == {0, 1, 2}
    # no arcs: every node is its own component, smallest index wins the tie
    assert largest_scc(_arc_graph(2, set())) == {0}
    assert largest_scc(_arc_graph(1, set())) == {0}
    assert largest_scc(_arc_graph(0, set())) == frozenset()


def test_largest_scc_counts_parallel_edges_once():
    # 256 copies of A->B must not cancel out in the adjacency
    g = TemporalGraph.from_named_edges(
        [("A", "B", float(t)) for t in range(256)] + [("B", "A", 300.0), ("B", "C", 301.0)]
    )
    assert {g.node_names[i] for i in largest_scc(g)} == {"A", "B"}


def _reachable(n, arcs, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for (a, b) in arcs:
            if a == u and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def _scc_oracle(n, arcs):
    """Mutual-reachability partition, quadratic and obviously correct."""
    reach = [_reachable(n, arcs, u) for u in range(n)]
    comps = []
    assigned = set()
    for u in range(n):
        if u in assigned:
            continue
        comp = {v for v in range(n) if v in reach[u] and u in reach[v]}
        comps.append(frozenset(comp))
        assigned |= comp
    return set(comps)


def test_scc_matches_reachability_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n, arcs = random_digraph_arcs(rng, max_nodes=12)
        want = min(_scc_oracle(n, arcs), key=lambda c: (-len(c), min(c)))
        assert largest_scc(_arc_graph(n, arcs)) == want


def test_largest_scc_tie_break_smallest_min_index():
    # two disjoint 2-cycles: {0,1} and {2,3}
    g = _arc_graph(4, {(0, 1), (1, 0), (2, 3), (3, 2)})
    assert largest_scc(g) == {0, 1}


def test_filter_nodes_toy():
    g = parse_edge_list(io.StringIO(TOY_CSV))
    kept = filter_nodes(g, {g.index_of("A"), g.index_of("B")})
    assert kept.named_edges() == [("A", "B", 1.0), ("B", "A", 3.0), ("A", "B", 4.0)]
    assert set(kept.node_names) == {"A", "B"}


def test_filter_nodes_identity_and_empty():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_temporal_graph(rng)
        assert filter_nodes(g, set(range(g.n_nodes))) == g
    g = random_temporal_graph(rng)
    empty = filter_nodes(g, set())
    assert empty.n_edges == 0 and empty.n_nodes == 0


def test_filter_nodes_rejects_bad_index():
    g = TemporalGraph.from_named_edges([("A", "B", 1.0)])
    with pytest.raises(ValueError):
        filter_nodes(g, {0, 9})


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_round_trip_property(seed):
    g = random_temporal_graph(np.random.default_rng(seed), max_edges=30)
    assert parse_edge_list(io.StringIO(serialize_edge_list(g))) == g


def test_isolated_nodes_do_not_survive_serialization():
    # the edge-list format has no way to carry a node with no edges
    g = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["Z"])
    assert g.n_nodes == 3
    again = parse_edge_list(io.StringIO(serialize_edge_list(g)))
    assert again.n_nodes == 2
    # and filter_nodes keeps only nodes that still have edges
    kept = filter_nodes(g, set(range(3)))
    assert set(kept.node_names) == {"A", "B"}


def test_graph_equality_ignores_name_table_order():
    g1 = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["C"])
    g2 = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["C"])
    assert g1 == g2
    g3 = TemporalGraph.from_named_edges([("A", "B", 2.0)], extra_nodes=["C"])
    assert g1 != g3
