import csv
import hashlib
import io
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motifroles import catalog, counting
from motifroles.catalog import MotifId
from motifroles.counting import (
    PositionCountMatrix,
    brute_force_count,
    classify_triple,
    count_motifs,
    read_count_csv,
)
from motifroles.graph import EDGE_LIST_HEADER, TemporalEdge, TemporalGraph, parse_edge_list
from motifroles.table import table_text
from conftest import TOY_DELTA, toy_expected_counts
from synthdata import mid_scale_network, random_temporal_graph


def e(s, t, time, seq):
    return TemporalEdge(s, t, float(time), seq)


class TestClassifyTriple:
    def test_repeated_pair_with_reply(self):
        m, pos = classify_triple(e(0, 1, 1, 0), e(1, 0, 2, 1), e(0, 1, 3, 2))
        assert m == MotifId(5, 1)
        assert pos == {1: 0, 2: 1}

    def test_third_node_attacks_then_is_hit_back(self):
        m, pos = classify_triple(e(0, 1, 1, 0), e(2, 0, 2, 1), e(0, 2, 3, 2))
        assert m == MotifId(3, 3)
        assert pos == {1: 0, 2: 1, 3: 2}

    def test_fan_out_then_repeat_first_target(self):
        m, pos = classify_triple(e(0, 1, 1, 0), e(0, 2, 2, 1), e(0, 1, 3, 2))
        assert m == MotifId(4, 1)
        assert pos == {1: 0, 2: 1, 3: 2}

    def test_fan_out_then_reply_from_first_target(self):
        m, pos = classify_triple(e(0, 1, 1, 0), e(0, 2, 2, 1), e(1, 0, 3, 2))
        assert m == MotifId(4, 2)
        assert pos == {1: 0, 2: 1, 3: 2}

    def test_triple_repeat(self):
        m, pos = classify_triple(e(3, 7, 1, 0), e(3, 7, 2, 1), e(3, 7, 3, 2))
        assert m == MotifId(6, 1)
        assert pos == {1: 3, 2: 7}

    def test_four_distinct_nodes_is_not_a_motif(self):
        assert classify_triple(e(0, 1, 1, 0), e(2, 3, 2, 1), e(0, 1, 3, 2)) is None

    def test_rejects_unordered_edges(self):
        with pytest.raises(ValueError):
            classify_triple(e(0, 1, 5, 0), e(1, 0, 2, 1), e(0, 1, 9, 2))
        # equal times must ascend in seq
        with pytest.raises(ValueError):
            classify_triple(e(0, 1, 5, 4), e(1, 0, 5, 2), e(0, 1, 9, 9))

    def test_equal_times_ordered_by_seq_are_fine(self):
        m, _ = classify_triple(e(0, 1, 5, 0), e(1, 0, 5, 1), e(0, 1, 5, 2))
        assert m == MotifId(5, 1)

    def test_every_signature_classifies_to_its_own_motif(self):
        node = {"a": 0, "b": 1, "c": 2}
        from motifroles.catalog import MOTIFS, SIGNATURE_OF
        for m in MOTIFS:
            sig = SIGNATURE_OF[m]
            edges = [e(node[s], node[t], i + 1, i) for i, (s, t) in enumerate(sig)]
            got, pos = classify_triple(*edges)
            assert got == m
            assert pos[1] == 0 and pos[2] == 1
            if m.n_nodes == 3:
                assert pos[3] == 2


class TestToyNetwork:
    def test_motif_totals(self, toy_counts):
        totals = {m: t for m, t in zip(range(36), toy_counts.motif_totals) if t}
        assert totals == {
            MotifId(3, 3).index: 1,
            MotifId(4, 1).index: 1,
            MotifId(4, 2).index: 1,
            MotifId(5, 1).index: 1,
        }

    def test_count_of_accessor(self, toy_counts):
        assert toy_counts.count_of("A", MotifId(5, 1), 1) == 1
        assert toy_counts.count_of("B", MotifId(3, 3), 3) == 1
        assert toy_counts.count_of("C", MotifId(5, 1), 2) == 0

    def test_brute_force_agrees(self, toy_graph):
        bf = brute_force_count(toy_graph, TOY_DELTA)
        assert np.array_equal(bf.counts, toy_expected_counts())

    def test_both_tie_policies_agree_without_ties(self, toy_graph):
        a = count_motifs(toy_graph, TOY_DELTA, tie_policy="seq-order")
        b = count_motifs(toy_graph, TOY_DELTA, tie_policy="exclude-ties")
        assert np.array_equal(a.counts, b.counts)

    def test_window_excludes_wide_triples(self, toy_graph):
        # span of the first three edges is 2, of any triple at least 2
        c = count_motifs(toy_graph, 1.9)
        assert c.total_instances() == 0
        c2 = count_motifs(toy_graph, 2.0)
        assert c2.total_instances() == 2  # e1,e2,e3 and e2,e3,e4 both span 2


def test_fewer_than_three_edges_is_all_zero():
    g = TemporalGraph.from_named_edges([("A", "B", 1.0), ("B", "A", 2.0)])
    assert count_motifs(g, 10.0).counts.sum() == 0
    empty = TemporalGraph.from_named_edges([])
    assert count_motifs(empty, 10.0).counts.shape == (0, 36, 3)


def test_non_positive_delta_rejected(toy_graph):
    with pytest.raises(ValueError):
        count_motifs(toy_graph, 0.0)
    with pytest.raises(ValueError):
        brute_force_count(toy_graph, -1.0)


def test_fractional_delta_on_integer_times():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 1.0), ("B", "A", 2.0), ("A", "B", 3.0)]
    )
    assert brute_force_count(g, 0.5).counts.sum() == 0
    assert count_motifs(g, 0.5).counts.sum() == 0


def test_window_boundary_is_inclusive():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 0.0), ("B", "A", 1.0), ("A", "B", 2.0)]
    )
    assert count_motifs(g, 2.0).total_instances() == 1
    assert count_motifs(g, 1.9999999).total_instances() == 0


def test_tie_policy_on_tied_data():
    g = TemporalGraph.from_named_edges(
        [("A", "B", 1.0), ("B", "A", 1.0), ("A", "B", 2.0), ("B", "A", 2.0)]
    )
    seq = count_motifs(g, 10.0, tie_policy="seq-order")
    excl = count_motifs(g, 10.0, tie_policy="exclude-ties")
    # seq-order: C(4,3)=4 triples, all on two nodes
    assert seq.total_instances() == 4
    # every triple here contains a tied pair
    assert excl.total_instances() == 0
    assert np.all(excl.counts <= seq.counts)


def test_unknown_tie_policy_rejected(toy_graph):
    with pytest.raises(ValueError):
        count_motifs(toy_graph, 1.0, tie_policy="whatever")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-1e6, 1e6, allow_nan=False))
def test_time_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    delta = 30.0
    shifted = TemporalGraph(list(g.node_names), g.src, g.tgt,
                            g.time + shift)
    a = count_motifs(g, delta)
    b = count_motifs(shifted, delta)
    assert np.array_equal(a.counts, b.counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([0.25, 0.5, 2.0, 4.0, 1024.0]))
def test_time_scale_invariance(seed, factor):
    # powers of two keep the arithmetic exact
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    delta = 30.0
    scaled = TemporalGraph(list(g.node_names), g.src, g.tgt,
                           g.time * factor)
    a = count_motifs(g, delta)
    b = count_motifs(scaled, delta * factor)
    assert np.array_equal(a.counts, b.counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delta_monotonicity(seed):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    lo, hi = g.time[0], g.time[-1]
    span = (hi - lo) or 1.0
    d1 = rng.uniform(0.0, span) + 1e-9
    d2 = d1 + rng.uniform(0.0, span)
    a = count_motifs(g, d1)
    b = count_motifs(g, d2)
    assert np.all(a.counts <= b.counts)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_node_relabel_equivariance(seed):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    perm = rng.permutation(g.n_nodes)
    renamed = [f"m{perm[i]}" for i in range(g.n_nodes)]
    g2 = TemporalGraph(renamed, g.src, g.tgt, g.time)
    a = count_motifs(g, 20.0)
    b = count_motifs(g2, 20.0)
    for i, name in enumerate(g.node_names):
        j = g2.node_names.index(f"m{perm[i]}")
        assert np.array_equal(a.counts[i], b.counts[j])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_counts_csv_rows_follow_a_renamed_and_reordered_edge_file(seed):
    # node indices follow first appearance in the file, so listing the edges
    # in another order also moves the rows; without ties nothing else changes
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng)
    assume(len(set(g.time.tolist())) == g.n_edges)
    rename = {name: f"x,{k}" for name, k in zip(g.node_names, rng.permutation(g.n_nodes))}
    edges = list(g.named_edges())
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    renamed = [(rename[s], rename[t], x) for s, t, x in shuffled]
    delta = float(rng.uniform(1.0, 100.0))

    def counts_rows(rows):
        text = table_text(EDGE_LIST_HEADER, rows)
        counts = count_motifs(parse_edge_list(text), delta)
        header, *body = csv.reader(io.StringIO(counts.csv_text(), newline=""))
        return header, {row[0]: row[1:] for row in body}

    header, before = counts_rows(edges)
    header_after, after = counts_rows(renamed)
    assert header_after == header and len(after) == len(before)
    assert after == {rename[name]: cells for name, cells in before.items()}


def _cell_permutation(transform):
    """perm[i] is the positioned cell that cell i of a graph's counts moves
    to when each instance's edge sequence goes through transform: the
    transformed signature, relabelled by first appearance, names the new
    motif, and the relabelling of each node label names its new position."""
    cells = list(zip(catalog.CELL_MOTIF_INDEX.tolist(), catalog.CELL_POSITION.tolist()))
    perm = np.empty(len(cells), dtype=np.int64)
    for i, (motif, position) in enumerate(cells):
        edges = transform(catalog.SIGNATURE_OF[catalog.MOTIFS[motif]])
        relabel = {}
        for node in (x for edge in edges for x in edge):
            if node not in relabel:
                relabel[node] = "abc"[len(relabel)]
        image = catalog.MOTIF_OF_SIGNATURE[tuple((relabel[s], relabel[t]) for s, t in edges)]
        perm[i] = cells.index((image.index, "abc".index(relabel["abc"[position - 1]]) + 1))
    return perm


# time reversal reverses the stored order, equal times included, because
# the stable sort keeps the reversed input order among ties
SYMMETRIES = {
    "time": (lambda g: TemporalGraph(g.node_names, g.src[::-1], g.tgt[::-1], -g.time[::-1]),
             _cell_permutation(lambda signature: signature[::-1])),
    "direction": (lambda g: TemporalGraph(g.node_names, g.tgt, g.src, g.time),
                  _cell_permutation(lambda signature: tuple((t, s) for s, t in signature))),
}


def _assert_equivariant(g, delta, policy):
    def live(graph):
        counts = count_motifs(graph, delta, tie_policy=policy).counts
        return counts.reshape(g.n_nodes, -1)[:, catalog.LIVE_FLAT]

    counts = live(g)
    for reverse, perm in SYMMETRIES.values():
        assert np.array_equal(live(reverse(g))[:, perm], counts)


@pytest.mark.parametrize("name", SYMMETRIES)
def test_symmetry_maps_cells_one_to_one_and_back(name):
    perm = SYMMETRIES[name][1]
    assert sorted(perm.tolist()) == list(range(catalog.N_POSITIONED_CELLS))
    assert np.array_equal(perm[perm], np.arange(catalog.N_POSITIONED_CELLS))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(counting.TIE_POLICIES))
def test_counts_are_equivariant_under_time_and_direction_reversal(
        seed, integer_times, policy):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=40,
                              integer_times=integer_times)
    lo, hi = g.time[0], g.time[-1]
    _assert_equivariant(g, rng.uniform(0.0, (hi - lo) or 1.0) + 1e-9, policy)


@pytest.mark.parametrize("policy", counting.TIE_POLICIES)
def test_mid_scale_counts_are_equivariant(policy):
    _assert_equivariant(mid_scale_network(seed=4), 7.0, policy)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_per_motif_accounting(seed):
    # every instance fills each of its motif's positions exactly once
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
    c = count_motifs(g, 25.0)
    from motifroles.catalog import MOTIFS
    position_sums = c.counts.sum(axis=0)
    for m in MOTIFS:
        for p in range(m.n_nodes):
            assert position_sums[m.index, p] == c.motif_totals[m.index]
        # dead position stays zero
        if m.n_nodes == 2:
            assert c.counts[:, m.index, 2].sum() == 0


def test_csv_round_trip(toy_counts):
    text = toy_counts.csv_text()
    back = read_count_csv(text)
    assert back.node_names == toy_counts.node_names
    assert np.array_equal(back.counts, toy_counts.counts)
    assert np.array_equal(back.motif_totals, toy_counts.motif_totals)
    header = text.splitlines()[0]
    assert header.startswith("node,M11_p1,M11_p2,M11_p3")
    assert header.endswith("M66_p1,M66_p2,M66_p3")
    assert len(header.split(",")) == 109


def test_csv_write_and_read_files(tmp_path, toy_counts):
    p = tmp_path / "counts.csv"
    p.write_text(toy_counts.csv_text(), encoding="utf-8")
    back = read_count_csv(p.read_text(encoding="utf-8"))
    assert np.array_equal(back.counts, toy_counts.counts)


def test_read_count_csv_rejects_bad_input(toy_counts):
    good = toy_counts.csv_text().splitlines()
    with pytest.raises(ValueError):
        read_count_csv("node,M11_p1\nA,1\n")
    # nonzero value in a dead two-node position-3 column
    cols = good[0].split(",")
    dead = cols.index("M51_p3")
    row = good[1].split(",")
    row[dead] = "1"
    with pytest.raises(ValueError, match="two-node"):
        read_count_csv(good[0] + "\n" + ",".join(row) + "\n")
    row = good[1].split(",")
    row[1] = "-2"
    with pytest.raises(ValueError):
        read_count_csv(good[0] + "\n" + ",".join(row) + "\n")
    row = good[1].split(",")
    row[1] = "0.5"
    with pytest.raises(ValueError):
        read_count_csv(good[0] + "\n" + ",".join(row) + "\n")
    row = good[1].split(",")
    row[1] = str(2**64)  # beyond int64
    with pytest.raises(ValueError, match="counts CSV: row 2: .*too large"):
        read_count_csv(good[0] + "\n" + ",".join(row) + "\n")
    # every cell fits in int64 and the three positions of M33 agree, but
    # each node's sum, 3 * 2**62, does not
    cols = good[0].split(",")
    row = ["0"] * len(cols)
    for column in ("M33_p1", "M33_p2", "M33_p3"):
        row[cols.index(column)] = str(2**62)
    body = "".join(",".join([name] + row[1:]) + "\n" for name in "AB")
    with pytest.raises(ValueError, match="counts CSV: a node's or a motif's sum is too "
                                         "large for 64 bits"):
        read_count_csv(good[0] + "\n" + body)


@pytest.mark.parametrize("cells, instances", [
    ({"M33_p1": 1, "M33_p2": 2, "M33_p3": 3}, None),
    ({"M51_p1": 1, "M51_p2": 3}, None),
    ({"M33_p1": 2, "M33_p2": 2, "M33_p3": 2, "M51_p1": 1, "M51_p2": 1}, 3),
], ids=["three-node-1-2-3", "two-node-1-3", "equal"])
def test_read_count_csv_checks_that_a_motifs_positions_agree(cells, instances):
    # every instance fills each position of its motif once; a divisibility
    # test on the cell sums alone would pass 1 + 2 + 3 = 6 as two instances
    header = ("node",) + catalog.CSV_COLUMNS
    row = [str(cells.get(column, 0)) for column in header[1:]]
    text = ",".join(header) + "\nA," + ",".join(row) + "\n"
    if instances is None:
        with pytest.raises(ValueError, match="unequal sums"):
            read_count_csv(text)
    else:
        assert read_count_csv(text).total_instances() == instances


def test_motif_totals_csv(toy_counts):
    lines = toy_counts.motif_totals_csv_text().strip().splitlines()
    assert lines[0] == "motif,instances"
    assert len(lines) == 37
    by_name = dict(line.split(",") for line in lines[1:])
    assert by_name["M33"] == "1"
    assert by_name["M11"] == "0"


def test_count_matrix_validation():
    with pytest.raises(ValueError):
        PositionCountMatrix(("A",), np.zeros((2, 36, 3), dtype=np.int64))


def test_count_matrix_freezes_a_copy_of_its_own_in_the_callers_layout():
    # the caller's array was once made read-only in place
    c = np.asfortranarray(np.zeros((2, 36, 3), dtype=np.int64))
    counts = PositionCountMatrix(("a", "b"), c)
    assert c.flags.writeable and not counts.counts.flags.writeable
    assert counts.counts.flags.f_contiguous and not counts.counts.flags.c_contiguous
    c[0, 0, 0] = 1
    assert counts.counts[0, 0, 0] == 0


def _assert_matches_oracle(g, delta):
    for policy in ("seq-order", "exclude-ties"):
        fast = count_motifs(g, delta, tie_policy=policy)
        slow = brute_force_count(g, delta, tie_policy=policy)
        assert np.array_equal(fast.counts, slow.counts)
        assert np.array_equal(fast.motif_totals, slow.motif_totals)


@pytest.mark.parametrize("seed", range(12))
def test_tiny_chunks_match_brute_force(monkeypatch, seed):
    # blocks of first edges and of pairs both split mid-window
    monkeypatch.setattr(counting, "_CHUNK", 5)
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=5, max_edges=30,
                              integer_times=bool(seed % 2))
    lo, hi = g.time[0], g.time[-1]
    _assert_matches_oracle(g, 0.5 * (hi - lo) + 1.0)


def test_repeated_pair_edges_are_paired_once():
    # A<->B edges sit in both endpoints' incidence lists
    rng = np.random.default_rng(3)
    edges = [("A", "B") if rng.random() < 0.5 else ("B", "A") for _ in range(30)]
    edges[5::7] = [("C", "A"), ("B", "C"), ("A", "C"), ("C", "B")]
    g = TemporalGraph.from_named_edges(
        [(s, t, float(rng.integers(0, 10))) for s, t in edges]
    )
    _assert_matches_oracle(g, 3.0)
    _assert_matches_oracle(g, 20.0)


def test_float_window_boundary_uses_subtraction():
    # 1.6 - 1.3 > 0.3 although 1.6 <= 1.3 + 0.3
    assert 1.6 - 1.3 > 0.3 and 1.6 <= 1.3 + 0.3
    g = TemporalGraph.from_named_edges(
        [("A", "B", 1.3), ("B", "A", 1.45), ("A", "B", 1.6)]
    )
    _assert_matches_oracle(g, 0.3)
    assert count_motifs(g, 0.3).total_instances() == 0


@pytest.mark.parametrize("delta", [1e308, 1.5e308, np.finfo(np.float64).max])
def test_windows_past_the_float_range_count_right_without_a_warning(delta):
    # time + delta and time[k] - time[i] overflow to inf here; each is
    # above delta exactly where its exact value is
    big = float(np.finfo(np.float64).max)
    g = TemporalGraph.from_named_edges(
        [("A", "B", -1e308), ("B", "A", 0.0), ("A", "B", 1e308), ("A", "C", 1e308),
         ("C", "A", big), ("B", "C", -big), ("C", "B", -big)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_matches_oracle(g, delta)
        assert count_motifs(g, delta).total_instances() > 0


def test_window_ends_match_subtraction_predicate():
    rng = np.random.default_rng(0)
    many_ties = np.concatenate(([1.3] * 5, [1.45] * 3, [1.6] * 40))
    for time in (many_ties, rng.uniform(0, 3, 200).round(1), rng.uniform(0, 5, 200)):
        time = np.sort(time)
        m = time.shape[0]
        for delta in (0.1, 0.15, 0.3, 0.7):
            expected = [max(k for k in range(i, m) if time[k] - time[i] <= delta)
                        for i in range(m)]
            assert counting._window_ends(time, delta).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_candidates_lie_between_instances_and_window_triples(seed, integer_times):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=10, max_edges=40,
                              integer_times=integer_times)
    lo, hi = g.time[0], g.time[-1]
    delta = rng.uniform(0.0, (hi - lo) or 1.0) + 1e-9
    t = g.time
    widths = [int(np.sum(t[i + 1:] - t[i] <= delta)) for i in range(g.n_edges)]
    window_triples = sum(w * (w - 1) // 2 for w in widths)
    for policy in ("seq-order", "exclude-ties"):
        counted = count_motifs(g, delta, tie_policy=policy)
        assert counted.total_instances() <= counted.candidates <= window_triples
        assert counted.candidates <= counted.candidate_bound


def test_candidates_are_none_when_not_counted(toy_counts):
    assert toy_counts.candidates == 4
    text = toy_counts.csv_text()
    loaded = read_count_csv(text)
    assert loaded.candidates is None
    assert loaded.candidate_bound is None


# Recorded from the counter before its per-member rewrite; counts_sha256 is
# the digest of the little-endian int64 counts array.
PINNED_MID_SCALE = {
    "seq-order": (
        12824,
        "a28d372f96810aef556dc88c7f4393e89133279b2e4f84f22b577c57486bd507",
        [232, 222, 140, 153, 227, 244, 210, 236, 184, 156, 232, 221, 224, 230,
         240, 244, 143, 172, 179, 194, 221, 224, 185, 171, 1108, 955, 239, 254,
         205, 248, 944, 1046, 258, 229, 195, 213],
    ),
    "exclude-ties": (
        12824,
        "e3b7e1a6d6bb90cbbadf2a42bf0a616f548bc4a0c1b8b757bd3f5d07778e2d47",
        [161, 171, 102, 107, 159, 172, 152, 174, 126, 107, 164, 170, 153, 167,
         178, 176, 109, 119, 130, 134, 162, 161, 136, 127, 795, 683, 170, 192,
         151, 181, 684, 727, 191, 152, 133, 156],
    ),
}


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("policy", counting.TIE_POLICIES)
def test_mid_scale_counts_are_pinned(monkeypatch, chunk, policy):
    if chunk is not None:
        monkeypatch.setattr(counting, "_CHUNK", chunk)
    g = mid_scale_network(seed=4, n_edges=2000)
    counted = count_motifs(g, 7.0, tie_policy=policy)
    candidates, digest, totals = PINNED_MID_SCALE[policy]
    le = np.ascontiguousarray(counted.counts, dtype="<i8")
    assert hashlib.sha256(le.tobytes()).hexdigest() == digest
    assert counted.motif_totals.tolist() == totals
    assert counted.candidates == candidates


def test_candidate_bound_is_cheap_where_counting_is_not():
    # 3 nodes, every edge at one timestamp: each first edge pairs with all
    # later edges, so counting would classify about 1.3e9 triples
    m = 2000
    src = np.arange(m) % 3
    g = TemporalGraph(["a", "b", "c"], src, (src + 1) % 3, np.zeros(m))
    # each of the L later edges touches an endpoint of edge i, and the
    # L // 3 on the same node pair sit in both endpoints' lists
    later = [m - 1 - i for i in range(m)]
    widths = [n + n // 3 for n in later]
    bound = sum(w * (w - 1) // 2 for w in widths)
    assert bound > 10**9
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"candidate bound of {bound}, above the "
                                         "limit of 100000000"):
        count_motifs(g, 1.0, max_candidates=10**8)
    assert time.perf_counter() - start < 0.5
