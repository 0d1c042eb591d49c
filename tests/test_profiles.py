import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifroles.catalog import MotifId
from motifroles.counting import PositionCountMatrix, count_motifs
from motifroles.graph import TemporalGraph
from motifroles.profiles import (
    ProfileMatrix,
    build_positioned,
    build_positionless,
    read_profile_csv,
)
from synthdata import random_temporal_graph


def matrix_from_counts(names, counts):
    return PositionCountMatrix(tuple(names), np.asarray(counts, dtype=np.int64))


class TestToyProfiles:
    def test_positioned_values_are_exact(self, toy_counts):
        p = build_positioned(toy_counts, min_motifs=0)
        assert p.kind == "positioned"
        assert p.node_names == ("A", "B", "C")
        for motif in ("M33", "M41", "M42", "M51"):
            assert p.value_of("A", f"{motif}_p1") == 0.25
        assert p.value_of("B", "M33_p3") == 0.25
        assert p.value_of("B", "M41_p2") == 0.25
        assert p.value_of("B", "M42_p2") == 0.25
        assert p.value_of("B", "M51_p2") == 0.25
        assert p.value_of("C", "M33_p2") == 1 / 3
        assert p.value_of("C", "M41_p3") == 1 / 3
        assert p.value_of("C", "M42_p3") == 1 / 3
        # everything else is zero
        assert np.count_nonzero(p.vectors) == 11

    def test_positionless_marginal(self, toy_counts):
        p = build_positionless(toy_counts, min_motifs=0)
        assert p.kind == "positionless"
        for motif in ("M33", "M41", "M42", "M51"):
            assert p.value_of("A", motif) == 0.25
            assert p.value_of("B", motif) == 0.25
        # A and B become indistinguishable without positions
        a = p.vectors[list(p.node_names).index("A")]
        b = p.vectors[list(p.node_names).index("B")]
        assert np.array_equal(a, b)


def test_zero_count_node_is_dropped():
    counts = np.zeros((2, 36, 3), dtype=np.int64)
    counts[0, MotifId(6, 1).index, 0] = 2
    counts[0, MotifId(6, 1).index, 1] = 2
    m = matrix_from_counts(["A", "B"], counts)
    p = build_positioned(m, min_motifs=0)
    assert p.node_names == ("A",)
    assert p.dropped == (("B", 0),)


def test_min_motifs_threshold_boundary():
    counts = np.zeros((2, 36, 3), dtype=np.int64)
    counts[0, MotifId(6, 1).index, 0] = 9
    counts[1, MotifId(6, 1).index, 0] = 10
    m = matrix_from_counts(["nine", "ten"], counts)
    p = build_positioned(m, min_motifs=10)
    assert p.node_names == ("ten",)
    assert p.dropped == (("nine", 9),)
    assert p.n_profiled == 1


def test_min_motifs_negative_rejected(toy_counts):
    with pytest.raises(ValueError):
        build_positioned(toy_counts, min_motifs=-1)


def test_single_motif_node_gets_unit_entry():
    counts = np.zeros((1, 36, 3), dtype=np.int64)
    counts[0, MotifId(6, 1).index, 0] = 3
    counts[0, MotifId(6, 1).index, 1] = 5
    m = matrix_from_counts(["A"], counts)
    p = build_positionless(m, min_motifs=0)
    assert p.value_of("A", "M61") == 1.0
    assert p.vectors.sum() == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_marginalization_property(seed):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
    c = count_motifs(g, 25.0)
    pos = build_positioned(c, min_motifs=0)
    nopos = build_positionless(c, min_motifs=0)
    assert pos.node_names == nopos.node_names
    for i, name in enumerate(pos.node_names):
        raw = c.counts[c.node_names.index(name)].astype(np.float64)
        total = raw.sum()
        # positionless vector equals per-motif sums of the positioned counts
        assert np.allclose(nopos.vectors[i] * total, raw.sum(axis=1), atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_profiles_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
    c = count_motifs(g, 25.0)
    for build in (build_positioned, build_positionless):
        p = build(c, min_motifs=0)
        if p.n_profiled:
            assert np.allclose(p.vectors.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p.vectors >= 0.0)
            assert np.all(p.vectors <= 1.0)


def test_scale_invariance():
    counts = np.zeros((1, 36, 3), dtype=np.int64)
    counts[0, MotifId(1, 1).index, 0] = 2
    counts[0, MotifId(2, 5).index, 2] = 6
    m1 = matrix_from_counts(["A"], counts)
    m7 = matrix_from_counts(["A"], counts * 7)
    p1 = build_positioned(m1, min_motifs=0)
    p7 = build_positioned(m7, min_motifs=0)
    assert np.array_equal(p1.vectors, p7.vectors)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 6))
def test_filter_monotonicity(seed, lo, extra):
    rng = np.random.default_rng(seed)
    g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
    c = count_motifs(g, 25.0)
    small = build_positioned(c, min_motifs=lo)
    big = build_positioned(c, min_motifs=lo + extra)
    assert set(big.node_names) <= set(small.node_names)


def test_csv_round_trip(toy_counts):
    for build, width in ((build_positioned, 104), (build_positionless, 36)):
        p = build(toy_counts, min_motifs=0)
        assert p.vectors.shape[1] == width
        back = read_profile_csv(p.csv_text())
        assert back.kind == p.kind
        assert back.node_names == p.node_names
        assert np.array_equal(back.vectors, p.vectors)


def test_read_profile_csv_reads_a_path_too(tmp_path, toy_counts):
    # the benchmark's checks read profiles.csv by path
    text = build_positioned(toy_counts).csv_text()
    path = tmp_path / "profiles.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_profile_csv(path).csv_text() == text


def test_positioned_csv_has_dead_columns(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    lines = p.csv_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 109
    dead = header.index("M51_p3")
    for line in lines[1:]:
        assert line.split(",")[dead] == "0.0"


def test_read_profile_csv_rejects_bad_input(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    lines = p.csv_text().splitlines()
    header = lines[0].split(",")
    dead = header.index("M61_p3")
    row = lines[1].split(",")
    row[dead] = "0.5"
    with pytest.raises(ValueError):
        read_profile_csv(lines[0] + "\n" + ",".join(row) + "\n")
    # a row that does not sum to 1
    row = lines[1].split(",")
    live = header.index("M33_p1")
    row[live] = "0.9"
    with pytest.raises(ValueError, match="sum"):
        read_profile_csv(lines[0] + "\n" + ",".join(row) + "\n")
    # a NaN cell, which only the ProfileMatrix constructor catches
    row = lines[1].split(",")
    row[live] = "nan"
    with pytest.raises(ValueError, match="sum"):
        read_profile_csv(lines[0] + "\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError):
        read_profile_csv("node,bogus\nA,1.0\n")


def test_dropped_csv(toy_counts):
    counts = np.array(toy_counts.counts)
    m = matrix_from_counts(toy_counts.node_names, counts)
    p = build_positioned(m, min_motifs=4)
    lines = p.dropped_csv_text().strip().splitlines()
    assert lines[0] == "node,total_participation"
    assert lines[1] == "C,3"
    assert p.node_names == ("A", "B")


def test_value_of_unknown_column(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    with pytest.raises(KeyError):
        p.value_of("A", "M51_p3")  # dead cell is not addressable
    with pytest.raises(KeyError):
        p.value_of("A", "nope")


def test_profile_matrix_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ProfileMatrix(("A",), np.full((1, 104), 0.5))
    # the width sets the kind: 104 positioned cells or 36 motifs, no other
    for bad in (np.full((1, 35), 1 / 35), np.full((1, 108), 1 / 108),
                np.full(36, 1 / 36)):
        with pytest.raises(ValueError, match="bad vectors shape"):
            ProfileMatrix(("A",), bad)


def test_profile_matrix_freezes_a_copy_of_its_own_in_the_callers_layout():
    # the caller's array was once made read-only in place
    v = np.full((1, 104), 1 / 104)
    prof = ProfileMatrix(("A",), v)
    assert v.flags.writeable and not prof.vectors.flags.writeable
    v[0, :2] = (2 / 104, 0.0)
    assert prof.vectors[0, 0] == 1 / 104
    # a Fortran-ordered input, as read_profile_csv gives, stays so
    f = np.asfortranarray(np.full((2, 36), 1 / 36))
    prof = ProfileMatrix(("A", "B"), f)
    assert f.flags.writeable and not prof.vectors.flags.writeable
    assert prof.vectors.flags.f_contiguous and not prof.vectors.flags.c_contiguous
