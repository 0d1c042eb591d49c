import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifroles import counting
from motifroles.catalog import MotifId
from motifroles.counting import (
    PositionCountMatrix,
    brute_force_count,
    classify_triple,
    count_motifs,
    read_count_csv,
)
from motifroles.graph import TemporalEdge, TemporalGraph
from conftest import TOY_DELTA, toy_expected_counts
from synthdata import random_temporal_graph


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
        from motifroles.catalog import MOTIFS, signature_of
        for m in MOTIFS:
            sig = signature_of(m)
            edges = [e(node[s], node[t], i + 1, i) for i, (s, t) in enumerate(sig)]
            got, pos = classify_triple(*edges)
            assert got == m
            assert pos[1] == 0 and pos[2] == 1
            if m.n_nodes == 3:
                assert pos[3] == 2


class TestToyNetwork:
    def test_exact_counts(self, toy_counts):
        assert np.array_equal(toy_counts.counts, toy_expected_counts())
        assert toy_counts.total_instances() == 4

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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_fast_counter_matches_brute_force(seed, integer_times, exclude):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25,
                              integer_times=integer_times)
    lo, hi = g.time_span()
    delta = rng.uniform(0.0, (hi - lo) or 1.0) + 1e-9
    policy = "exclude-ties" if exclude else "seq-order"
    fast = count_motifs(g, delta, tie_policy=policy)
    slow = brute_force_count(g, delta, tie_policy=policy)
    assert np.array_equal(fast.counts, slow.counts)
    assert np.array_equal(fast.motif_totals, slow.motif_totals)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-1e6, 1e6, allow_nan=False))
def test_time_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    delta = 30.0
    shifted = TemporalGraph(list(g.node_names), g.src, g.tgt,
                            g.time + shift, seq=g.seq)
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
                           g.time * factor, seq=g.seq)
    a = count_motifs(g, delta)
    b = count_motifs(scaled, delta * factor)
    assert np.array_equal(a.counts, b.counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delta_monotonicity(seed):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=25)
    lo, hi = g.time_span()
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
    g2 = TemporalGraph(renamed, g.src, g.tgt, g.time, seq=g.seq)
    a = count_motifs(g, 20.0)
    b = count_motifs(g2, 20.0)
    for i, name in enumerate(g.node_names):
        j = g2.index_of(f"m{perm[i]}")
        assert np.array_equal(a.counts[i], b.counts[j])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_per_motif_accounting(seed):
    # every instance contributes exactly n_positions increments to its motif
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
    c = count_motifs(g, 25.0)
    from motifroles.catalog import MOTIFS
    cell_sums = c.counts.sum(axis=(0, 2))
    for m in MOTIFS:
        assert cell_sums[m.index] == m.n_positions * c.motif_totals[m.index]
        # dead position stays zero
        if m.n_nodes == 2:
            assert c.counts[:, m.index, 2].sum() == 0


def test_csv_round_trip(toy_counts):
    text = toy_counts.to_csv()
    back = read_count_csv(io.StringIO(text))
    assert back.node_names == toy_counts.node_names
    assert np.array_equal(back.counts, toy_counts.counts)
    assert np.array_equal(back.motif_totals, toy_counts.motif_totals)
    header = text.splitlines()[0]
    assert header.startswith("node,M11_p1,M11_p2,M11_p3")
    assert header.endswith("M66_p1,M66_p2,M66_p3")
    assert len(header.split(",")) == 109


def test_csv_write_and_read_files(tmp_path, toy_counts):
    p = tmp_path / "counts.csv"
    toy_counts.write_csv(p)
    with open(p, newline="") as fh:
        back = read_count_csv(fh)
    assert np.array_equal(back.counts, toy_counts.counts)


def test_read_count_csv_rejects_bad_input(toy_counts):
    good = toy_counts.to_csv().splitlines()
    with pytest.raises(ValueError):
        read_count_csv(io.StringIO("node,M11_p1\nA,1\n"))
    # nonzero value in a dead two-node position-3 column
    cols = good[0].split(",")
    dead = cols.index("M51_p3")
    row = good[1].split(",")
    row[dead] = "1"
    with pytest.raises(ValueError, match="two-node"):
        read_count_csv(io.StringIO(good[0] + "\n" + ",".join(row) + "\n"))
    row = good[1].split(",")
    row[1] = "-2"
    with pytest.raises(ValueError):
        read_count_csv(io.StringIO(good[0] + "\n" + ",".join(row) + "\n"))
    row = good[1].split(",")
    row[1] = "0.5"
    with pytest.raises(ValueError):
        read_count_csv(io.StringIO(good[0] + "\n" + ",".join(row) + "\n"))


def test_motif_totals_csv(toy_counts):
    lines = toy_counts.motif_totals_csv().strip().splitlines()
    assert lines[0] == "motif,instances"
    assert len(lines) == 37
    by_name = dict(line.split(",") for line in lines[1:])
    assert by_name["M33"] == "1"
    assert by_name["M11"] == "0"


def test_count_matrix_validation():
    with pytest.raises(ValueError):
        PositionCountMatrix(("A",), np.zeros((2, 36, 3), dtype=np.int64),
                            np.zeros(36, dtype=np.int64), 1.0, "seq-order")


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
    lo, hi = g.time_span()
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
    lo, hi = g.time_span()
    delta = rng.uniform(0.0, (hi - lo) or 1.0) + 1e-9
    t = g.time
    widths = [int(np.sum(t[i + 1:] - t[i] <= delta)) for i in range(g.n_edges)]
    window_triples = sum(w * (w - 1) // 2 for w in widths)
    for policy in ("seq-order", "exclude-ties"):
        counted = count_motifs(g, delta, tie_policy=policy)
        assert counted.total_instances() <= counted.candidates <= window_triples


def test_candidates_are_none_when_not_counted(toy_counts):
    assert toy_counts.candidates == 4
    assert read_count_csv(io.StringIO(toy_counts.to_csv())).candidates is None
