import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from motifroles.graph import (
    TemporalGraph,
    edge_list_text,
    filter_nodes,
    largest_scc,
    parse_edge_list,
)
from conftest import TOY_CSV
from synthdata import random_digraph_arcs, random_temporal_graph


def test_parse_toy_network():
    g = parse_edge_list(TOY_CSV)
    assert g.n_nodes == 3
    assert g.n_edges == 4
    assert g.named_edges() == [("A", "B", 1.0), ("A", "C", 2.0),
                               ("B", "A", 3.0), ("A", "B", 4.0)]


def test_parse_header_only():
    g = parse_edge_list("source,target,timestamp\n")
    assert g.n_nodes == 0
    assert g.n_edges == 0


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("source,target,timestamp\nA,A,1\n")


def test_parse_rejects_bad_timestamp():
    with pytest.raises(ValueError, match="line 3"):
        parse_edge_list("source,target,timestamp\nA,B,1\nB,A,xyz\n")
    with pytest.raises(ValueError, match="non-finite"):
        parse_edge_list("source,target,timestamp\nA,B,inf\n")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("source,target,timestamp\nA,B\n")


def test_parse_rejects_missing_or_wrong_header():
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("src,dst,when\nA,B,1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("")


def test_sort_is_stable_on_equal_timestamps():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 5.0), ("B", "C", 5.0), ("C", "A", 5.0)]
    )
    # equal times keep input order
    assert g.named_edges() == [("A", "B", 5.0), ("B", "C", 5.0), ("C", "A", 5.0)]


def test_edges_sorted_by_time_then_seq():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 9.0), ("B", "C", 1.0), ("C", "A", 9.0), ("A", "C", 4.0)]
    )
    assert g.named_edges() == [("B", "C", 1.0), ("A", "C", 4.0),
                               ("A", "B", 9.0), ("C", "A", 9.0)]


def test_graph_validation_errors():
    with pytest.raises(ValueError, match="duplicate"):
        TemporalGraph(["A", "A"], [], [], [])
    with pytest.raises(ValueError, match="self-loop"):
        TemporalGraph(["A", "B"], [0], [0], [1.0])
    with pytest.raises(ValueError, match="outside"):
        TemporalGraph(["A", "B"], [0], [2], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        TemporalGraph(["A", "B"], [0], [1], [float("nan")])


def _round_trip(g):
    return parse_edge_list(edge_list_text(g))


def test_round_trip_through_serializer():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_temporal_graph(rng)
        assert _round_trip(g) == g


def test_serializer_keeps_full_precision():
    t = 0.1 + 0.2  # not exactly 0.3
    g = TemporalGraph.from_named_edges([("A", "B", t)])
    assert _round_trip(g).time[0] == t


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


def _scipy_largest_scc(n, arcs):
    """The largest strongly connected component under the tie rule, from
    scipy's connected_components."""
    if n == 0:
        return frozenset()
    src, tgt = np.array(sorted(arcs), dtype=np.int64).reshape(-1, 2).T
    adjacency = csr_matrix((np.ones(len(arcs), dtype=bool), (src, tgt)), shape=(n, n))
    _, labels = connected_components(adjacency, directed=True, connection="strong")
    comps = [frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]
    return min(comps, key=lambda c: (-len(c), min(c)))


@st.composite
def tied_digraphs(draw):
    """Equal-size cycles on shuffled nodes, joined by arcs that only run
    forward along a random order of the cycles, plus random arcs."""
    size = draw(st.integers(1, 4))
    count = draw(st.integers(1, 5))
    n = size * count + draw(st.integers(0, 3))
    nodes = draw(st.permutations(range(n)))
    cycles = [nodes[i * size:(i + 1) * size] for i in range(count)]
    arcs = {(c[i], c[(i + 1) % size]) for c in cycles if size > 1 for i in range(size)}
    for i in range(count):
        for j in range(i + 1, count):
            if draw(st.booleans()):
                u, v = draw(st.sampled_from(cycles[i])), draw(st.sampled_from(cycles[j]))
                arcs.add((u, v))
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        arcs |= {(u, v) for u, v in draw(st.lists(pairs, max_size=3 * n)) if u != v}
    return n, arcs


@settings(max_examples=300, deadline=None)
@given(tied_digraphs())
def test_largest_scc_matches_scipy(graph):
    n, arcs = graph
    assert largest_scc(_arc_graph(n, arcs)) == _scipy_largest_scc(n, arcs)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_largest_scc_on_a_long_path_and_cycle(closed):
    # deep enough that a recursive search would hit the recursion limit
    n = 100_000
    src = np.arange(n if closed else n - 1)
    g = TemporalGraph([f"n{i}" for i in range(n)], src, (src + 1) % n, src.astype(float))
    assert largest_scc(g) == (set(range(n)) if closed else {0})


def test_filter_nodes_toy():
    g = parse_edge_list(TOY_CSV)
    kept = filter_nodes(g, {g.node_names.index("A"), g.node_names.index("B")})
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
    assert _round_trip(g) == g


def test_isolated_nodes_do_not_survive_serialization():
    # the edge-list format has no way to carry a node with no edges
    g = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["Z"])
    assert g.n_nodes == 3
    assert _round_trip(g).n_nodes == 2
    # and filter_nodes keeps only nodes that still have edges
    kept = filter_nodes(g, set(range(3)))
    assert set(kept.node_names) == {"A", "B"}


def test_graph_equality_ignores_name_table_order():
    g1 = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["C"])
    g2 = TemporalGraph.from_named_edges([("A", "B", 1.0)], extra_nodes=["C"])
    assert g1 == g2
    g3 = TemporalGraph.from_named_edges([("A", "B", 2.0)], extra_nodes=["C"])
    assert g1 != g3


HEADER = "source,target,timestamp\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("A,B\n", "line 2: expected 3 fields, got 2"),
        ("A,B,1\nA,B,1,2\n", "line 3: expected 3 fields, got 4"),
        ("A,B,1\n\n", "line 3: expected 3 fields, got 0"),
        (" ,B,1\n", "line 2: empty node name"),
        ("A,,1\n", "line 2: empty node name"),
        ("A,B, xyz \n", "line 2: bad timestamp 'xyz'"),
        ("A,B,\n", "line 2: bad timestamp ''"),
        ("A,B,nan\n", "line 2: non-finite timestamp 'nan'"),
        ("A,B,1\nB,A,-inf\n", "line 3: non-finite timestamp '-inf'"),
        ("A, A ,1\n", "line 2: self-loop on node 'A'"),
    ],
)
def test_parse_error_messages(rows, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(HEADER + rows)
    assert str(info.value) == message


def test_parse_header_messages():
    with pytest.raises(ValueError) as info:
        parse_edge_list("")
    assert str(info.value) == "line 1: missing header"
    with pytest.raises(ValueError) as info:
        parse_edge_list("src,dst,when\n")
    assert str(info.value) == "line 1: expected header 'source,target,timestamp'"


@pytest.mark.parametrize(
    "row, message",
    [
        (",B,1,2\n", "expected 3 fields, got 4"),
        (",A,xyz\n", "empty node name"),
        ("A,A,xyz\n", "bad timestamp 'xyz'"),
        ("A,A,inf\n", "non-finite timestamp 'inf'"),
    ],
)
def test_parse_reports_the_first_fault_of_a_row(row, message):
    # checks run in order: width, empty name, bad and non-finite
    # timestamp, self-loop
    with pytest.raises(ValueError) as info:
        parse_edge_list(HEADER + row)
    assert str(info.value) == f"line 2: {message}"


def test_parse_line_numbers_count_physical_lines():
    # a quoted name spanning two lines moves every later line number down
    text = HEADER + '"A\nX",B,1\nB,C,2\nC,C,3\n'
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == "line 5: self-loop on node 'C'"
    g = parse_edge_list(HEADER + '"A\nX",B,1\n')
    assert g.node_names == ("A\nX", "B")


def test_parse_strips_names_and_timestamps():
    # str.strip removes the separators U+001C..U+001F, which float() refuses
    g = parse_edge_list(HEADER + " A , B C ,\t2.5 \nB C,A,\x1c1\x1f\n")
    assert g.node_names == ("A", "B C")
    assert g.named_edges() == [("B C", "A", 1.0), ("A", "B C", 2.5)]


def test_parse_interns_names_in_order_of_first_appearance():
    g = parse_edge_list(HEADER + "C,A,3\nB,C,1\nA,D,2\n")
    assert g.node_names == ("C", "A", "B", "D")
    assert g.src.tolist() == [2, 1, 0] and g.tgt.tolist() == [0, 3, 1]


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_stored_order_is_stable_time_sort_of_input(rows):
    # Python's sorted is stable: the stored rows are the input rows sorted
    # by time alone, equal times in input order
    arcs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    g = TemporalGraph(["a", "b", "c"], [arcs[k][0] for _, k in rows],
                      [arcs[k][1] for _, k in rows], [float(t) for t, _ in rows])
    expected = sorted(((float(t), arcs[k]) for t, k in rows), key=lambda r: r[0])
    assert list(zip(g.time.tolist(), zip(g.src.tolist(), g.tgt.tolist()))) == expected
    assert [e.seq for e in g.edges()] == list(range(len(rows)))
