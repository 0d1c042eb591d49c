"""Acceptance gate: one test per shipped guarantee, each a single
pass/fail line under `pytest -v`. The heavy fixtures (100-seed studies)
are shared between the accuracy and centroid-structure checks."""

import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import motifroles
from motifroles.cli import main
from motifroles.cluster import permutation_accuracy, ward_linkage
from motifroles.counting import brute_force_count, count_motifs
from motifroles.evaluation import evaluate_scenario
from motifroles.graph import TemporalGraph, edge_list_text
from motifroles.hawkes import (
    BlockHawkesParams,
    SCENARIO_DELTAS,
    scenario_params,
    simulate,
)
from motifroles.profiles import build_positioned, build_positionless
from conftest import TOY_DELTA, check_manifest, toy_expected_counts
from synthdata import mid_scale_network, random_temporal_graph
from test_cluster import ward_oracle


def _study(which: int):
    """The library's 100-seed study of one scenario, and its wall time."""
    t0 = time.perf_counter()
    summary = evaluate_scenario(scenario_params(which), SCENARIO_DELTAS[which],
                                range(100), k=2, min_motifs=10)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scenario1_study():
    return _study(1)


@pytest.fixture(scope="module")
def scenario2_study():
    return _study(2)


def test_criterion_1_toy_network_golden_counts_and_profiles(toy_graph):
    t0 = time.perf_counter()
    counts = count_motifs(toy_graph, TOY_DELTA)
    assert np.array_equal(counts.counts, toy_expected_counts())
    assert counts.total_instances() == 4
    pos = build_positioned(counts, min_motifs=0)
    a = pos.vectors[0]
    b = pos.vectors[1]
    c = pos.vectors[2]
    assert sorted(a[a != 0]) == [0.25] * 4
    assert sorted(b[b != 0]) == [0.25] * 4
    assert sorted(c[c != 0]) == [1 / 3] * 3
    for motif in ("M33", "M41", "M42", "M51"):
        assert pos.value_of("A", f"{motif}_p1") == 0.25
    assert pos.value_of("B", "M33_p3") == 0.25
    assert pos.value_of("C", "M33_p2") == 1 / 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[criterion 1] PASS: exact toy counts and profiles in {elapsed:.3f}s")


def test_criterion_2_windowed_counter_matches_oracle_on_200_graphs():
    rng = np.random.default_rng(20260817)
    t0 = time.perf_counter()
    checked = 0
    for i in range(200):
        g = random_temporal_graph(rng, max_nodes=15, max_edges=60,
                                  integer_times=bool(i % 2))
        lo, hi = g.time[0], g.time[-1]
        delta = rng.uniform(0.0, (hi - lo) or 1.0) + 1e-9
        for policy in ("seq-order", "exclude-ties"):
            fast = count_motifs(g, delta, tie_policy=policy)
            slow = brute_force_count(g, delta, tie_policy=policy)
            assert np.array_equal(fast.counts, slow.counts), (
                f"graph {i} ({g.n_nodes} nodes, {g.n_edges} edges, "
                f"delta={delta:g}, {policy}) disagrees with the oracle"
            )
            checked += int(fast.counts.sum())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[criterion 2] PASS: 200 graphs x 2 tie policies, "
          f"{checked} cell increments matched in {elapsed:.1f}s")


def test_criterion_3_block_recovery_margins(scenario1_study, scenario2_study):
    (s1, s1_elapsed), (s2, s2_elapsed) = scenario1_study, scenario2_study
    s1_pos = s1.mean_accuracy("positioned")
    s1_nopos = s1.mean_accuracy("positionless")
    s2_pos = s2.mean_accuracy("positioned")
    s2_nopos = s2.mean_accuracy("positionless")
    assert s1_pos >= 0.80, f"scenario 1 positioned mean {s1_pos:.3f} < 0.80"
    assert s1_pos - s1_nopos >= 0.15, (
        f"scenario 1 margin {s1_pos - s1_nopos:.3f} < 0.15"
    )
    assert s2_pos >= 0.85, f"scenario 2 positioned mean {s2_pos:.3f} < 0.85"
    assert s2_pos - s2_nopos >= 0.10, (
        f"scenario 2 margin {s2_pos - s2_nopos:.3f} < 0.10"
    )
    total = s1_elapsed + s2_elapsed
    assert total < 600.0
    print(f"[criterion 3] PASS: scenario 1 {s1_pos:.3f} vs {s1_nopos:.3f}, "
          f"scenario 2 {s2_pos:.3f} vs {s2_nopos:.3f}, "
          f"200 runs in {total:.0f}s")


def test_criterion_4_scenario_1_centroid_structure(scenario1_study):
    worst = 1.0
    summary, _ = scenario1_study
    for run in summary.runs:
        lo = min(run.two_node_mass)
        worst = min(worst, lo)
        assert lo >= 0.60, (
            f"seed {run.seed}: centroid two-node mass {run.two_node_mass} "
            "drops below 0.60"
        )
        assert run.split_ok, (
            f"seed {run.seed}: clusters do not separate by position in the "
            "repeat/reply motifs"
        )
    print(f"[criterion 4] PASS: all 100 runs concentrate >= 60% centroid "
          f"mass on two-node motifs (worst {worst:.3f}) and split by position")


def test_criterion_5_invariant_battery():
    rng = np.random.default_rng(55)
    # counting invariances
    for _ in range(12):
        g = random_temporal_graph(rng, max_nodes=8, max_edges=30)
        base = count_motifs(g, 20.0)
        shifted = TemporalGraph(list(g.node_names), g.src, g.tgt,
                                g.time + 37.5)
        assert np.array_equal(count_motifs(shifted, 20.0).counts, base.counts)
        scaled = TemporalGraph(list(g.node_names), g.src, g.tgt,
                               g.time * 4.0)
        assert np.array_equal(count_motifs(scaled, 80.0).counts, base.counts)
        wider = count_motifs(g, 35.0)
        assert np.all(base.counts <= wider.counts)
        # profile marginalization and unit sums
        pos = build_positioned(base, min_motifs=0)
        nopos = build_positionless(base, min_motifs=0)
        if pos.n_profiled:
            assert np.allclose(pos.vectors.sum(axis=1), 1.0, atol=1e-12)
            assert np.allclose(nopos.vectors.sum(axis=1), 1.0, atol=1e-12)
            for i, name in enumerate(pos.node_names):
                raw = base.counts[base.node_names.index(name)]
                total = raw.sum()
                assert np.allclose(nopos.vectors[i] * total,
                                   raw.sum(axis=1), atol=1e-9)
    # ward monotonicity and the from-scratch oracle
    for _ in range(12):
        pts = rng.normal(size=(int(rng.integers(2, 8)), 3))
        d = ward_linkage(pts)
        h = list(d.heights())
        assert all(b >= a - 1e-9 for a, b in zip(h, h[1:]))
        expected = ward_oracle(pts)
        for m, (el, er, eh, es) in zip(d.merges, expected):
            assert (m.left, m.right, m.size) == (el, er, es)
            assert m.height == pytest.approx(eh, rel=1e-9, abs=1e-12)
    # permutation accuracy pinned cases
    assert permutation_accuracy(np.array([0, 0, 1, 1]),
                                np.array([1, 1, 0, 0])) == 1.0
    assert permutation_accuracy(np.array([0, 1, 0, 1]),
                                np.array([0, 0, 1, 1])) == 0.5
    assert permutation_accuracy(np.array([0, 1, 2]),
                                np.array([0, 1, 2])) == 1.0
    print("[criterion 5] PASS: shift/scale, delta-monotonicity, "
          "marginalization, unit-sum, ward monotonicity + oracle, "
          "accuracy trivial cases")


def test_criterion_6_degenerate_hawkes_is_poisson(tmp_path):
    # two nodes, one block, no excitation: each directed pair is a
    # homogeneous Poisson stream with mu*T = 5
    params = BlockHawkesParams(
        n_nodes=2,
        block_probs=(1.0,),
        horizon=100.0,
        baseline=((0.05,),),
        block_assignment=(0, 0),
    )
    counts = []
    for seed in range(2000):
        net = simulate(params, seed)
        n01 = sum(
            1 for e in net.graph.edges() if net.graph.node_names[e.source] == "0"
        )
        counts.append(n01)
    counts = np.array(counts)
    mean, var = counts.mean(), counts.var(ddof=1)
    assert abs(mean - 5.0) < 0.25, f"sample mean {mean:.3f} outside 5 +/- 0.25"
    assert abs(var - 5.0) < 0.7, f"sample variance {var:.3f} outside 5 +/- 0.7"

    # goodness of fit against Poisson(5), upper tail merged at >= 12 so
    # every expected bin count stays above 5
    edges = np.arange(13)
    observed = np.array([(counts == v).sum() for v in edges[:-1]]
                        + [(counts >= 12).sum()])
    probs = scipy.stats.poisson.pmf(edges[:-1], 5.0)
    probs = np.append(probs, 1.0 - probs.sum())
    expected = probs * len(counts)
    assert expected.min() > 5.0
    gof = scipy.stats.chisquare(observed, expected)
    assert gof.pvalue > 0.01, f"chi-squared GOF p={gof.pvalue:.4f}"

    # same-seed determinism down to bytes
    s1 = scenario_params(1)
    texts = [edge_list_text(simulate(s1, seed=0).graph) for _ in ("one", "two")]
    assert texts[0] == texts[1]
    print(f"[criterion 6] PASS: mean {mean:.3f}, variance {var:.3f}, "
          f"GOF p={gof.pvalue:.3f} over 2000 fixed seeds; byte-identical reruns")


# criterion 7's chain, run from the directory that holds its edges.csv
CRITERION_7_CHAIN = [
    ["count", "--input", "edges.csv", "--delta", "7", "--scc", "--out", "c"],
    ["profile", "--counts", "c/counts.csv", "--min-motifs", "10", "--out", "p"],
    ["cluster", "--profiles", "p/profiles.csv", "--k", "10", "--out", "k"],
    ["render", "--profiles", "p/profiles.csv", "--dendrogram", "k/dendrogram.txt",
     "--k", "10", "--out", "r"],
]


# sha256 of each SVG the chain's render writes
CRITERION_7_SVGS = {
    "centroid_0.svg": "9bb787c3e60a8ae75d8e9b4969b121c15c0199c86ec8ff40912381a7460a57ff",
    "centroid_1.svg": "bb3654b0770b93c286470aac0ccb0624ae41425d13746ff1fecf591a56f0aedc",
    "centroid_2.svg": "764f3c9acdcb2072de72d6eb107d976122a1d9c009650bad9358029c72c8f50e",
    "centroid_3.svg": "2fdfd5b21ccee029ba406ea0b3b15e28acb9c411bfea45093b53be641bd922a3",
    "centroid_4.svg": "c24c51a1a0e98a3f953eb865529ebd5a72a8e6e5199a4d14fff9261c96183039",
    "centroid_5.svg": "7c5477409fcc84ca1a7c555a9079e29af4ed8b90364d28422c0a5ede77782d83",
    "centroid_6.svg": "a4e879a4ba2a0cd4f8cc7857ce758b7b3b6489b933e775097e4357dc8bfc002f",
    "centroid_7.svg": "7b93c02f77ce21b1a6e3f1b4f9c8e1877f9e5aa0338ea54450a8b3194ade6cfe",
    "centroid_8.svg": "3a514c69ef2f415885abe691b92b1bf321d7b6067fdfec3213250736af482eb2",
    "centroid_9.svg": "365a805a1386e6d9a2c8333990ea339d27006dcd635ff758edb5d6fe6dd76950",
    "dendrogram.svg": "babc1dc8d073e49459433ae4ad896ef9d71b9b76afc0340a0ab9911c18aa33de",
}


def _criterion_7_edges() -> str:
    return edge_list_text(mid_scale_network(seed=0, n_nodes=156, n_edges=5000))


def test_criterion_7_mid_scale_pipeline(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    (tmp_path / "edges.csv").write_text(_criterion_7_edges(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in CRITERION_7_CHAIN:
        assert main(argv) == 0, argv
    cdir, pdir, kdir, rdir = (tmp_path / s for s in "cpkr")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    for stage, cmd in ((cdir, "count"), (pdir, "profile"),
                       (kdir, "cluster"), (rdir, "render")):
        check_manifest(stage, cmd)
    svgs = sorted(p.name for p in rdir.glob("*.svg"))
    assert "dendrogram.svg" in svgs
    assert sum(1 for s in svgs if s.startswith("centroid_")) == 10
    for svg in svgs:
        ET.fromstring((rdir / svg).read_text())
    assert {svg: hashlib.sha256((rdir / svg).read_bytes()).hexdigest()
            for svg in svgs} == CRITERION_7_SVGS
    clusters = (kdir / "clusters.csv").read_text().strip().splitlines()
    assert len(clusters) > 100  # most of the 156 nodes survive the filters
    print(f"[criterion 7] PASS: 156-node / 5000-edge pipeline "
          f"(count -> profile -> cluster -> render) in {elapsed:.1f}s, "
          f"{len(svgs)} valid SVGs, manifests complete")


def test_criterion_7_chain_writes_the_same_bytes_under_python_dash_o(tmp_path):
    # -O strips assert statements, so no check may rest on one; both runs
    # use the same relative paths, so their manifests must match too
    code = """
import json, sys
print(__debug__)
from motifroles.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(1)
"""
    src = Path(motifroles.__file__).resolve().parents[1]
    edges = _criterion_7_edges()
    runs = []
    for flags in ([], ["-O"]):
        run = tmp_path / ("optimized" if flags else "plain")
        run.mkdir()
        (run / "edges.csv").write_text(edges, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, *flags, "-c", code, json.dumps(CRITERION_7_CHAIN)],
            cwd=run, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        files = {p.relative_to(run): p.read_bytes() for p in run.rglob("*") if p.is_file()}
        runs.append((result.stdout.splitlines(), files))
    (plain_out, plain), (opt_out, opt) = runs
    assert (plain_out[0], opt_out[0]) == ("True", "False")
    assert plain_out[1:] == opt_out[1:]
    assert len(plain) == 22 and plain.keys() == opt.keys()  # edges.csv and 21 written
    assert [name for name in plain if plain[name] != opt[name]] == []
