import itertools
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.optimize import linear_sum_assignment

from motifroles import cluster
from motifroles.cluster import (
    MAX_WARD_LEAVES,
    Dendrogram,
    Merge,
    _max_assignment,
    centroids,
    cut,
    labels_csv_text,
    parse_dendrogram,
    permutation_accuracy,
    serialize_dendrogram,
    ward_linkage,
)
from motifroles.counting import count_motifs
from motifroles.profiles import build_positioned
from motifroles.table import read_table
from synthdata import mid_scale_network


def test_two_points_merge_at_squared_gap_over_two_times_sizes():
    d = ward_linkage(np.array([[0.0], [2.0]]))
    assert d.n_leaves == 2
    assert len(d.merges) == 1
    assert d.merges[0].height == 2.0  # (1*1/2) * 2^2


def test_three_point_line_heights():
    d = ward_linkage(np.array([[0.0], [2.0], [10.0]]))
    assert list(d.heights()) == [2.0, 54.0]
    m0, m1 = d.merges
    assert {m0.left, m0.right} == {0, 1}
    assert m1.size == 3
    labels = cut(d, 2)
    assert labels[0] == labels[1] != labels[2]


def test_identical_points_merge_at_zero():
    d = ward_linkage(np.zeros((5, 3)))
    assert list(d.heights()) == [0.0] * 4


def test_cut_extremes():
    pts = np.array([[0.0], [2.0], [10.0], [11.0]])
    d = ward_linkage(pts)
    assert list(cut(d, 1)) == [0, 0, 0, 0]
    assert cut(d, 4).max() == 3
    assert sorted(cut(d, 4)) == [0, 1, 2, 3]
    labels = cut(d, 2)
    assert labels.dtype == np.int64 and not labels.flags.writeable
    with pytest.raises(ValueError):
        cut(d, 0)
    with pytest.raises(ValueError):
        cut(d, 5)


def test_cluster_numbering_follows_leaf_order():
    # cluster 0 must be the leftmost subtree in the drawing order
    pts = np.array([[10.0], [0.0], [10.5], [0.5]])
    d = ward_linkage(pts)
    labels = cut(d, 2)
    order = d.leaf_order()
    first_cluster_seen = [labels[i] for i in order]
    assert first_cluster_seen[0] == 0
    # labels change at most k-1 times along the leaf order
    changes = sum(
        1 for a, b in zip(first_cluster_seen, first_cluster_seen[1:]) if a != b
    )
    assert changes == 1


def test_ward_requires_two_rows():
    with pytest.raises(ValueError):
        ward_linkage(np.array([[1.0]]))


def test_tie_break_is_deterministic():
    # four corners of a square: all nearest pairs tie
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d1 = ward_linkage(pts)
    d2 = ward_linkage(pts)
    assert [(m.left, m.right, m.height) for m in d1.merges] == \
           [(m.left, m.right, m.height) for m in d2.merges]
    assert (d1.merges[0].left, d1.merges[0].right) == (0, 1)


def ward_oracle(points):
    """Rebuild the merge sequence recomputing every pairwise increase from
    the raw member lists at each step. No recurrence shortcuts."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    members = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        best = None
        for i in sorted(members):
            for j in sorted(members):
                if i >= j:
                    continue
                a, b = points[members[i]], points[members[j]]
                ca, cb = a.mean(axis=0), b.mean(axis=0)
                delta = (len(a) * len(b) / (len(a) + len(b))) * float(
                    ((ca - cb) ** 2).sum()
                )
                if best is None or delta < best[0] - 1e-12 or (
                    abs(delta - best[0]) <= 1e-12 and (i, j) < best[1:]
                ):
                    best = (delta, i, j)
        delta, i, j = best
        members[next_id] = members.pop(i) + members.pop(j)
        merges.append((i, j, delta, len(members[next_id])))
        next_id += 1
    return merges


def ward_reference(points, runner_up=None):
    """The O(n^3) linkage that ward_linkage replaced: a (2n-1)^2 matrix and,
    at every step, the first minimum of the live upper triangle in id
    order. It does the same float operations, so merges must match
    exactly, ties included. A runner_up list receives each step's second
    smallest live distance (inf at the last step)."""
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    total = 2 * n - 1
    dist = np.full((total, total), np.inf)
    diff = x[:, None, :] - x[None, :, :]
    dist[:n, :n] = 0.5 * np.einsum("ijk,ijk->ij", diff, diff)
    sizes = np.zeros(total, dtype=np.int64)
    sizes[:n] = 1
    active = list(range(n))
    merges = []
    for step in range(n - 1):
        act = np.array(active)
        sub = dist[np.ix_(act, act)]
        iu, ju = np.triu_indices(len(act), k=1)
        vals = sub[iu, ju]
        best = int(np.argmin(vals))
        if runner_up is not None:
            runner_up.append(np.partition(vals, 1)[1] if vals.size > 1 else np.inf)
        left, right = int(act[iu[best]]), int(act[ju[best]])
        height = float(vals[best])
        new = n + step
        si, sj = sizes[left], sizes[right]
        sizes[new] = si + sj
        for other in active:
            if other in (left, right):
                continue
            sk = sizes[other]
            dik = dist[min(left, other), max(left, other)]
            djk = dist[min(right, other), max(right, other)]
            d_new = (
                (si + sk) * dik + (sj + sk) * djk - sk * height
            ) / (si + sj + sk)
            dist[other, new] = dist[new, other] = d_new
        active = [a for a in active if a not in (left, right)]
        active.append(new)
        merges.append((left, right, height, int(sizes[new])))
    return merges


def merge_tuples(dendrogram):
    return [(m.left, m.right, m.height, m.size) for m in dendrogram.merges]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 3))
def test_linkage_equals_reference_on_tie_heavy_grids(seed, n, dim):
    pts = np.random.default_rng(seed).integers(0, 3, size=(n, dim)).astype(float)
    assert merge_tuples(ward_linkage(pts)) == ward_reference(pts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 3))
def test_linkage_equals_reference_on_normal_points(seed, n, dim):
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    assert merge_tuples(ward_linkage(pts)) == ward_reference(pts)


def test_linkage_equals_reference_on_profile_rows():
    pts = np.random.default_rng(11).dirichlet(np.full(24, 0.3), size=200)
    assert merge_tuples(ward_linkage(pts)) == ward_reference(pts)


@pytest.mark.parametrize("n, dim, seed", [(2, 3, 0), (3, 1, 1), (10, 2, 2),
                                          (60, 4, 3), (150, 6, 4), (300, 8, 5)])
def test_linkage_matches_scipy_on_tie_free_points(n, dim, seed):
    # Without ties Ward's merge order is unique; scipy's distance d is
    # sqrt(2 * height)
    pts = np.random.default_rng(seed).normal(size=(n, dim))
    got = ward_linkage(pts).merges
    ref = linkage(pts, method="ward")
    assert [(m.left, m.right, m.size) for m in got] == \
           [(int(a), int(b), int(s)) for a, b, _, s in ref]
    assert np.allclose([m.height for m in got], ref[:, 2] ** 2 / 2,
                       rtol=1e-9, atol=1e-15)


def test_linkage_equals_reference_when_distances_overflow():
    # finite points whose squared gaps overflow to inf still get a full tree
    pts = np.array([[0.0], [1.0], [1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        got, ref = merge_tuples(ward_linkage(pts)), ward_reference(pts)
    assert got == ref
    assert got[-1][:2] == (2, 3)


def test_ward_rejects_overflow_that_turns_a_height_nan():
    # the gaps overflow, and a Lance-Williams update then gives inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="NaN"):
            ward_linkage(np.array([[0.0], [1e200], [3e200], [-1e200]]))


def test_ward_rejects_nan_profiles():
    with pytest.raises(ValueError, match="finite"):
        ward_linkage(np.array([[0.0, 1.0], [np.nan, 0.5], [2.0, 0.0]]))


def test_ward_rejects_infinite_profiles():
    with pytest.raises(ValueError, match="finite"):
        ward_linkage(np.array([[0.0], [np.inf], [2.0]]))


def test_ward_size_limit_is_checked_before_allocating():
    # one leaf over the limit would need a 3.2 GB distance matrix; the
    # refusal costs only the input points
    n = MAX_WARD_LEAVES + 1
    points = np.zeros((n, 1))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"Ward linkage over {n} profiles needs a "
                                             f"distance matrix of {8 * n * n} bytes, "
                                             "above the limit of 20000 profiles"):
            ward_linkage(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 10**6


@pytest.fixture()
def started_threads(monkeypatch):
    """Counts the threads started while the test runs."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", CountingThread)
    return started


@pytest.mark.parametrize("layout", ["C", "F"])
def test_linkage_does_not_depend_on_the_cpu_count(monkeypatch, started_threads, layout):
    # 460 rows hold 105,570 distances, enough for three set-up threads
    rng = np.random.default_rng(7)
    pts = np.asarray(rng.integers(0, 4, size=(460, 12)) / 3.0, order=layout)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads interleave as often as they can
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(cluster, "usable_cpus", lambda cpus=cpus: cpus)
            before = threading.active_count()
            results.append(merge_tuples(ward_linkage(pts)))
            assert threading.active_count() == before  # every thread was joined
    finally:
        sys.setswitchinterval(interval)
    assert len(started_threads) == 0 + 1 + 2  # the caller computes one part itself
    assert results[1] == results[0] and results[2] == results[0]


def test_small_inputs_set_up_on_the_calling_thread(monkeypatch, started_threads):
    monkeypatch.setattr(cluster, "usable_cpus", lambda: 4)
    ward_linkage(np.random.default_rng(3).normal(size=(156, 104)))
    assert started_threads == []


def test_set_up_errors_reach_the_caller_from_every_thread(monkeypatch):
    # only the second thread's rows subtract 1e308 - (-1e308); the caller's
    # np.errstate holds in that thread, and its error is raised here
    monkeypatch.setattr(cluster, "usable_cpus", lambda: 2)
    pts = np.zeros((400, 2))
    pts[-2:, 0] = 1e308, -1e308
    before = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        ward_linkage(pts)
    assert threading.active_count() == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3))
def test_linkage_matches_from_scratch_oracle(seed, n, dim):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    d = ward_linkage(pts)
    expected = ward_oracle(pts)
    got = [(m.left, m.right, m.height, m.size) for m in d.merges]
    assert len(got) == len(expected)
    for (gl, gr, gh, gs), (el, er, eh, es) in zip(got, expected):
        assert (gl, gr, gs) == (el, er, es)
        assert gh == pytest.approx(eh, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20))
def test_heights_never_decrease(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 4))
    h = ward_linkage(pts).heights()
    assert all(b >= a - 1e-9 for a, b in zip(h, h[1:]))


def first_tied_step(points, ulps=4):
    """The first Ward step at which a second live pair lies within ulps
    units in the last place of the minimum; n - 1 if there is none."""
    runner_up = []
    merges = ward_reference(points, runner_up)
    for step, ((_, _, height, _), second) in enumerate(zip(merges, runner_up)):
        if second - height <= ulps * np.spacing(height):
            return step
    return len(merges)


def partition(labels, names):
    return {frozenset(names[labels == c]) for c in np.unique(labels)}


def assert_exact_under_row_permutation(points, perm):
    # a row-major einsum sums each distance in the same order, and a
    # Lance-Williams update is symmetric in the merged pair, so before the
    # first tie the heights keep their bits and the merged sets their members
    assert points.flags.c_contiguous
    n = len(points)
    stop = first_tied_step(points)
    d, dp = ward_linkage(points), ward_linkage(points[perm])
    assert d.heights()[:stop].tobytes() == dp.heights()[:stop].tobytes()
    for k in range(n - stop, n + 1):
        assert partition(cut(d, k), np.arange(n)) == partition(cut(dp, k), perm)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 3))
def test_linkage_is_exact_under_row_permutation(seed, n, dim):
    rng = np.random.default_rng(seed)
    assert_exact_under_row_permutation(rng.normal(size=(n, dim)), rng.permutation(n))


@pytest.fixture(scope="module")
def mid_scale_profiles():
    counts = count_motifs(mid_scale_network(seed=0), 7.0)
    return build_positioned(counts, min_motifs=10).vectors


@pytest.mark.parametrize("seed", range(3))
def test_linkage_of_profiles_is_exact_under_row_permutation(mid_scale_profiles, seed):
    perm = np.random.default_rng(seed).permutation(len(mid_scale_profiles))
    assert_exact_under_row_permutation(mid_scale_profiles, perm)


def test_centroids():
    pts = np.array([[0.25, 0.75], [0.75, 0.25], [0.0, 1.0]])
    c = centroids(pts, np.array([0, 0, 1]))
    assert np.allclose(c[0], [0.5, 0.5])
    assert np.allclose(c[1], [0.0, 1.0])
    # centroids of unit-sum rows stay unit-sum
    assert np.allclose(c.sum(axis=1), 1.0)


def test_centroids_validation():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        centroids(pts, np.array([0]))
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        centroids(pts, np.array([0, 2]))
    with pytest.raises(ValueError, match="negative"):
        centroids(pts, [-1, 0])


def test_permutation_accuracy_examples():
    assert permutation_accuracy(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])) == 1.0
    assert permutation_accuracy(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == 0.5
    assert permutation_accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0


def test_permutation_accuracy_validation():
    with pytest.raises(ValueError):
        permutation_accuracy(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        permutation_accuracy(np.array([], dtype=int), np.array([], dtype=int))


def test_non_integer_labels_are_rejected():
    # truncating would read these predictions as [0, 0, 1, 1] and score 0.5
    with pytest.raises(ValueError, match="labels must be integers"):
        permutation_accuracy([0.2, 0.7, 1.4, 1.9], [0, 1, 0, 1])
    for bad in ([0.0, np.nan, 1.0, 1.0], [0.0, np.inf, 1.0, 1.0], [0.0, 1e30, 1.0, 1.0]):
        with pytest.raises(ValueError, match="labels must be integers"):
            permutation_accuracy([0, 1, 0, 1], bad)
    with pytest.raises(ValueError, match="labels must be integers"):
        labels_csv_text(["a", "b"], [0.5, 1.0], "cluster")


def test_bool_integer_and_whole_float_labels_are_accepted():
    truth = np.array([0, 0, 1, 1])
    assert permutation_accuracy(np.array([True, True, False, False]), truth) == 1.0
    assert permutation_accuracy(np.array([5, 5, 9, 9], dtype=np.uint8), truth) == 1.0
    assert permutation_accuracy([0.0, 1.0, 1.0, 1.0], truth) == 0.75
    text = labels_csv_text(["a", "b"], np.array([True, False]), "cluster")
    assert read_table(text, "labels CSV", [("node", "cluster")], int)[2] == [
        [1], [0]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(4, 30))
def test_permutation_accuracy_symmetry(seed, k, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k, size=n)
    b = rng.integers(0, k, size=n)
    relabel = rng.permutation(k)
    assert permutation_accuracy(a, b) == permutation_accuracy(relabel[a], b)
    assert permutation_accuracy(a, b) == permutation_accuracy(a, relabel[b])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(6, 30))
def test_constant_prediction_scores_the_majority_class(seed, k, n):
    # a one-cluster prediction gets matched to the largest true class
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    pred = np.zeros(n, dtype=int)
    largest = max(np.bincount(truth))
    assert permutation_accuracy(pred, truth) == pytest.approx(largest / n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(6, 30))
def test_accuracy_pigeonhole_floor(seed, k, n):
    # some predicted label holds at least largest/k of the majority class
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, size=n)
    pred = rng.integers(0, k, size=n)
    largest = max(np.bincount(truth))
    acc = permutation_accuracy(pred, truth)
    assert largest / (n * k) - 1e-12 <= acc <= 1.0


def injective_map_accuracy(pred, truth) -> float:
    """Best accuracy over every injective map between the two label sets,
    from the smaller set into the larger one."""
    p_ids, t_ids = sorted(set(pred)), sorted(set(truth))
    hits = {(a, b): 0 for a in p_ids for b in t_ids}
    for a, b in zip(pred, truth):
        hits[a, b] += 1
    if len(p_ids) <= len(t_ids):
        best = max(sum(hits[a, b] for a, b in zip(p_ids, image))
                   for image in itertools.permutations(t_ids, len(p_ids)))
    else:
        best = max(sum(hits[a, b] for a, b in zip(image, t_ids))
                   for image in itertools.permutations(p_ids, len(t_ids)))
    return best / len(pred)


@st.composite
def label_pairs(draw):
    # label values are arbitrary ints, so neither side is 0..k-1
    p_vals = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=5, unique=True))
    t_vals = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(1, 40))
    pred = draw(st.lists(st.sampled_from(p_vals), min_size=n, max_size=n))
    truth = draw(st.lists(st.sampled_from(t_vals), min_size=n, max_size=n))
    return pred, truth


@settings(max_examples=400, deadline=None)
@given(label_pairs())
@example(([3, 3, 3, 3], [0, 1, 1, 2]))  # one predicted label
@example(([0, 1, 2, 1, 0], [7, 7, 7, 7, 7]))  # one true label
@example(([5], [-2]))
@example(([0, 1, 2, 3, 4, 0, 1], [4, 3, 2, 1, 0, 4, 4]))  # square, 5 per side
@example(([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1]))  # rectangular, 3 x 2
def test_permutation_accuracy_equals_the_best_injective_label_map(pair):
    pred, truth = pair
    expected = injective_map_accuracy(pred, truth)
    assert permutation_accuracy(np.array(pred), np.array(truth)) == expected
    assert permutation_accuracy(np.array(truth), np.array(pred)) == expected


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(rows, 9))
    high = draw(st.sampled_from([1, 4, 1000]))
    cells = draw(st.lists(st.integers(-high, high), min_size=rows * cols,
                          max_size=rows * cols))
    return np.array(cells, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=400, deadline=None)
@given(integer_matrices())
@example(np.zeros((3, 5), dtype=np.int64))
@example(np.array([[7]]))
def test_assignment_matches_scipy_linear_sum_assignment(weight):
    rows, cols = linear_sum_assignment(weight, maximize=True)
    assert _max_assignment(weight.tolist()) == int(weight[rows, cols].sum())


def test_dendrogram_validation():
    with pytest.raises(ValueError):
        Dendrogram(n_leaves=3, merges=(Merge(0, 1, 1.0, 2),))  # missing a merge
    with pytest.raises(ValueError):
        Dendrogram(
            n_leaves=3,
            merges=(Merge(0, 1, 1.0, 2), Merge(0, 3, 2.0, 3)),  # 0 used twice
        )
    with pytest.raises(ValueError):
        Dendrogram(
            n_leaves=3,
            merges=(Merge(0, 1, 1.0, 3), Merge(2, 3, 2.0, 3)),  # bad size
        )


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(9, 3))
    names = [f"node{i}" for i in range(9)]
    d = ward_linkage(pts)
    text = serialize_dendrogram(d, names)
    back, back_names = parse_dendrogram(text)
    assert back_names == tuple(names)
    assert back.n_leaves == d.n_leaves
    assert [(m.left, m.right, m.size) for m in back.merges] == \
           [(m.left, m.right, m.size) for m in d.merges]
    # repr round-trips floats exactly
    assert list(back.heights()) == list(d.heights())


def test_parse_dendrogram_rejects_garbage():
    with pytest.raises(ValueError, match="line"):
        parse_dendrogram("n_leaves 2\nleaf 0 A\nleaf 1 B\nmerge 0\n")
    with pytest.raises(ValueError):
        parse_dendrogram("n_leaves 2\nleaf 0 A\nmerge 0 1 1.0 2\n")
    # a finite height after an infinite one
    with pytest.raises(ValueError, match="non-decreasing"):
        parse_dendrogram("n_leaves 3\nleaf 0 A\nleaf 1 B\nleaf 2 C\n"
                         "merge 0 1 inf 2\nmerge 2 3 1.0 3\n")


def test_parse_dendrogram_rejects_a_nan_height():
    with pytest.raises(ValueError, match="NaN"):
        parse_dendrogram("n_leaves 3\nleaf 0 A\nleaf 1 B\nleaf 2 C\n"
                         "merge 0 1 nan 2\nmerge 2 3 1.0 3\n")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.text(st.characters(exclude_characters="\n\r")), min_size=2, max_size=30))
@example(0, ["", "x ", "# y", "z\x0c", "w\x85 ", "v\u2028"])
def test_parse_dendrogram_inverts_serialize(seed, names):
    n = len(names)
    rng = np.random.default_rng(seed)
    shape = random_dendrogram(rng, n)
    heights = np.sort(rng.exponential(size=n - 1)).tolist()
    d = Dendrogram(n, tuple(
        Merge(m.left, m.right, h, m.size) for m, h in zip(shape.merges, heights)))
    text = serialize_dendrogram(d, names)
    assert parse_dendrogram(text) == (d, tuple(names))
    assert parse_dendrogram(text.replace("\n", "\r\n")) == (d, tuple(names))


def test_parse_dendrogram_does_not_size_anything_from_the_header():
    # the header alone once sized a 10**10-element list
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="^dendrogram file: missing n_leaves or leaf"):
            parse_dendrogram("n_leaves 10000000000\nleaf 0 a\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 10**6


@pytest.mark.parametrize("text, lineno, line", [
    ("n_leaves 2\nleaf 0 a\nleaf 0 b\nleaf 1 c\nmerge 0 1 1.0 2\n", 3, "leaf 0 b"),
    ("n_leaves 2\nn_leaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 1.0 2\n", 2, "n_leaves 2"),
    ("n_leaves 2\nleaf 1 b\nleaf 0 a\nmerge 0 1 1.0 2\n", 2, "leaf 1 b"),
    ("n_leaves 3\nleaf 0 a\nleaf 2 c\nmerge 0 1 1.0 2\nmerge 2 3 2.0 3\n", 3, "leaf 2 c"),
    ("leaf 0 a\nn_leaves 2\nleaf 1 b\nmerge 0 1 1.0 2\n", 1, "leaf 0 a"),
    ("n_leaves 2\nleaf 0 a\nmerge 0 1 1.0 2\nleaf 1 b\n", 3, "merge 0 1 1.0 2"),
    ("n_leaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 1.0 2\nleaf 1 c\n", 5, "leaf 1 c"),
    ("# c\n\nn_leaves 2\nleaf 0 a\nleaf 1\nmerge 0 1 1.0 2\n", 5, "leaf 1"),
    ("n_leaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 1.0 2 \n", 4, "merge 0 1 1.0 2 "),
])
def test_parse_dendrogram_refuses_a_record_out_of_order(text, lineno, line):
    # a repeated leaf record once replaced the name read before it
    with pytest.raises(ValueError, match=f"^dendrogram file: bad line {lineno}: "
                                         f"{re.escape(repr(line))}$"):
        parse_dendrogram(text)


def test_labels_csv_round_trip():
    text = labels_csv_text(("A", "B", "C"), np.array([0, 1, 0]), "cluster")
    _, names, rows = read_table(text, "labels CSV", [("node", "cluster")], int)
    assert names == ("A", "B", "C")
    assert rows == [[0], [1], [0]]


def test_leaf_order_is_a_permutation():
    rng = np.random.default_rng(2)
    d = ward_linkage(rng.normal(size=(12, 2)))
    order = d.leaf_order()
    assert sorted(order) == list(range(12))
    # cut labels are non-decreasing along the leaf order for any k
    for k in (1, 2, 3, 5, 12):
        labels = cut(d, k)
        seq = [labels[i] for i in order]
        assert seq == sorted(seq)


def random_dendrogram(rng, n):
    live = list(range(n))
    sizes = [1] * n
    merges = []
    for step in range(n - 1):
        i, j = rng.choice(len(live), size=2, replace=False)
        left, right = live[i], live[j]
        live = [c for c in live if c not in (left, right)] + [n + step]
        sizes.append(sizes[left] + sizes[right])
        merges.append(Merge(left, right, float(step), sizes[-1]))
    return Dendrogram(n_leaves=n, merges=tuple(merges))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
def test_cut_labels_are_runs_of_leaf_order_numbered_left_to_right(seed, n):
    d = random_dendrogram(np.random.default_rng(seed), n)
    order = d.leaf_order()
    for k in range(1, n + 1):
        labels = cut(d, k)
        seq = labels[order]
        # runs 0, 1, ..., k-1 along the leaf order, each one contiguous
        assert seq[0] == 0 and set(np.diff(seq)) <= {0, 1} and seq[-1] == k - 1
        # and each run is the leaf set of a subtree left after n-k merges
        groups = {i: {i} for i in range(n)}
        for step, m in enumerate(d.merges[: n - k]):
            groups[n + step] = groups.pop(m.left) | groups.pop(m.right)
        assert {frozenset(g) for g in groups.values()} == \
               {frozenset(np.flatnonzero(labels == c)) for c in range(k)}
