import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import motifroles
from motifroles.cli import main
from motifroles.counting import read_count_csv
from motifroles.graph import parse_edge_list
from motifroles.hawkes import read_params, scenario_params
from conftest import TOY_EDGES

TOY_CSV = "source,target,timestamp\n" + "".join(
    f"{s},{t},{x:g}\n" for s, t, x in TOY_EDGES
)


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(TOY_CSV)
    return path


def check_manifest(out_dir, command):
    """Manifest lists every output file with its true digest."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["tool"] == "motifroles"
    assert manifest["command"] == command
    on_disk = {p.name for p in out_dir.iterdir() if p.name != "manifest.json"}
    assert set(manifest["outputs"]) == on_disk
    for name, digest in manifest["outputs"].items():
        data = (out_dir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    return manifest


def run_pipeline(tmp_path, toy_csv, min_motifs=0, positionless=False, k=3):
    """count -> profile -> cluster on the toy network; returns stage dirs."""
    cdir, pdir, kdir = tmp_path / "c", tmp_path / "p", tmp_path / "k"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(cdir)]) == 0
    argv = ["profile", "--counts", str(cdir / "counts.csv"),
            "--min-motifs", str(min_motifs), "--out", str(pdir)]
    if positionless:
        argv.append("--positionless")
    assert main(argv) == 0
    assert main(["cluster", "--profiles", str(pdir / "profiles.csv"),
                 "--k", str(k), "--out", str(kdir)]) == 0
    return cdir, pdir, kdir


def test_count_toy(tmp_path, toy_csv, capsys, toy_counts):
    out = tmp_path / "out"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "counted 4 motif instances" in printed
    assert "r1" in printed and "c1" in printed
    with open(out / "counts.csv", newline="") as fh:
        back = read_count_csv(fh)
    assert np.array_equal(back.counts, toy_counts.counts)
    totals = (out / "motif_totals.csv").read_text()
    assert "M33,1" in totals
    manifest = check_manifest(out, "count")
    assert manifest["config"]["delta"] == 10.0
    assert manifest["config"]["ties"] == "seq-order"
    assert "edges" in manifest["inputs"]


def test_full_pipeline_separates_all_three_nodes(tmp_path, toy_csv):
    cdir, pdir, kdir = run_pipeline(tmp_path, toy_csv, k=3)
    check_manifest(pdir, "profile")
    check_manifest(kdir, "cluster")
    lines = (kdir / "clusters.csv").read_text().strip().splitlines()
    assert lines[0] == "node,cluster"
    rows = dict(line.split(",") for line in lines[1:])
    # positioned profiles are pairwise distinct, so k=3 gives singletons
    assert sorted(rows.values()) == ["0", "1", "2"]


def test_cluster_k1_groups_everything(tmp_path, toy_csv):
    _, _, kdir = run_pipeline(tmp_path, toy_csv, k=1)
    lines = (kdir / "clusters.csv").read_text().strip().splitlines()
    assert {line.split(",")[1] for line in lines[1:]} == {"0"}


def test_positionless_profiles_merge_a_and_b_first(tmp_path, toy_csv):
    # without positions A and B have identical profiles; their merge
    # height is exactly zero and they land in the same flat cluster
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv, positionless=True, k=2)
    dendro_text = (kdir / "dendrogram.txt").read_text()
    merge_lines = [l for l in dendro_text.splitlines() if l.startswith("merge")]
    assert merge_lines[0].split()[3] == "0.0"
    lines = (kdir / "clusters.csv").read_text().strip().splitlines()
    rows = dict(line.split(",") for line in lines[1:])
    assert rows["A"] == rows["B"] != rows["C"]


def test_render_outputs_valid_svgs(tmp_path, toy_csv):
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv, k=3)
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--dendrogram", str(kdir / "dendrogram.txt"),
                 "--k", "3", "--node", "A", "--out", str(rdir)]) == 0
    expected = {"dendrogram.svg", "centroid_0.svg", "centroid_1.svg",
                "centroid_2.svg", "node_A.svg"}
    assert {p.name for p in rdir.iterdir()} == expected | {"manifest.json"}
    for name in expected:
        ET.fromstring((rdir / name).read_text())
    check_manifest(rdir, "render")
    # a node name holding a path separator still maps to one flat file
    slash_csv = tmp_path / "slash.csv"
    slash_csv.write_text(TOY_CSV.replace("A,", "A/B,"))
    _, pdir2, _ = run_pipeline(tmp_path / "slash", slash_csv, k=3)
    rdir2 = tmp_path / "r2"
    assert main(["render", "--profiles", str(pdir2 / "profiles.csv"),
                 "--node", "A/B", "--out", str(rdir2)]) == 0
    assert {p.name for p in rdir2.iterdir()} == {"node_A%2FB.svg", "manifest.json"}
    check_manifest(rdir2, "render")


def test_render_node_only(tmp_path, toy_csv):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", "B", "--node", "C", "--out", str(rdir)]) == 0
    names = {p.name for p in rdir.iterdir()}
    assert "node_B.svg" in names and "node_C.svg" in names


def test_render_with_nothing_to_do(tmp_path, toy_csv, capsys):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    rc = main(["render", "--profiles", str(pdir / "profiles.csv"),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "nothing to render" in capsys.readouterr().err


def test_render_unknown_node(tmp_path, toy_csv, capsys):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    rc = main(["render", "--profiles", str(pdir / "profiles.csv"),
               "--node", "Z", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_render_rejects_mismatched_dendrogram(tmp_path, toy_csv, capsys):
    # dendrogram built from filtered profiles, rendered against unfiltered
    _, pdir_all, _ = run_pipeline(tmp_path, toy_csv, k=2)
    pdir2, kdir2 = tmp_path / "p2", tmp_path / "k2"
    assert main(["profile", "--counts", str(tmp_path / "c" / "counts.csv"),
                 "--min-motifs", "4", "--out", str(pdir2)]) == 0
    assert main(["cluster", "--profiles", str(pdir2 / "profiles.csv"),
                 "--k", "2", "--out", str(kdir2)]) == 0
    rc = main(["render", "--profiles", str(pdir_all / "profiles.csv"),
               "--dendrogram", str(kdir2 / "dendrogram.txt"),
               "--k", "2", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "different nodes" in capsys.readouterr().err


def test_delta_zero_is_a_usage_error(tmp_path, toy_csv, capsys):
    rc = main(["count", "--input", str(toy_csv), "--delta", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, and main maps only ValueError,
    # RuntimeError and OSError to exit codes; runtime checks must raise
    package = Path(motifroles.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_missing_input_is_an_io_error(tmp_path, capsys):
    rc = main(["count", "--input", str(tmp_path / "nope.csv"),
               "--delta", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("i/o error:")


def test_scc_flag_restricts_counts(tmp_path, toy_csv, capsys):
    out = tmp_path / "out"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--scc", "--out", str(out)]) == 0
    # C only receives, so the largest SCC is {A, B}: one M5,1 instance
    assert "counted 1 motif instances" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scc_nodes"] == ["A", "B"]
    with open(out / "counts.csv", newline="") as fh:
        counts = read_count_csv(fh)
    assert counts.node_names == ("A", "B")
    assert counts.total_instances() == 1


def test_ties_exclude_flag(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    path.write_text("source,target,timestamp\nA,B,1\nB,A,1\nA,B,1\n")
    out = tmp_path / "out"
    assert main(["count", "--input", str(path), "--delta", "5",
                 "--ties", "exclude", "--out", str(out)]) == 0
    assert "counted 0 motif instances" in capsys.readouterr().out


def test_profile_filter_can_reject_everything(tmp_path, toy_csv, capsys):
    cdir = tmp_path / "c"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(cdir)]) == 0
    rc = main(["profile", "--counts", str(cdir / "counts.csv"),
               "--min-motifs", "99", "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "no node passes" in capsys.readouterr().err


def test_cluster_k_out_of_range(tmp_path, toy_csv, capsys):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    rc = main(["cluster", "--profiles", str(pdir / "profiles.csv"),
               "--k", "7", "--out", str(tmp_path / "k7")])
    assert rc == 1
    assert "--k must be in 1..3" in capsys.readouterr().err


def test_outputs_are_byte_reproducible(tmp_path, toy_csv):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main(["count", "--input", str(toy_csv), "--delta", "10",
                     "--out", str(out)]) == 0
    for name in ("counts.csv", "motif_totals.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # manifests differ only in the recorded --out-free config, which is
    # identical here except for input path (same), so full equality holds
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_simulate_writes_edges_and_labels(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "2", "--seed", "11",
                 "--out", str(out)]) == 0
    with open(out / "edges.csv", newline="") as fh:
        g = parse_edge_list(fh)
    assert g.n_edges > 50
    labels = (out / "labels.csv").read_text().strip().splitlines()
    assert labels[0] == "node,block"
    assert len(labels) == 21
    check_manifest(out, "simulate")
    # determinism: a second run produces identical bytes
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--scenario", "2", "--seed", "11",
                 "--out", str(out2)]) == 0
    assert (out / "edges.csv").read_bytes() == (out2 / "edges.csv").read_bytes()
    assert (out / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()


def test_simulate_emit_params_round_trips(tmp_path):
    out = tmp_path / "sim"
    pfile = tmp_path / "params.json"
    assert main(["simulate", "--scenario", "1", "--emit-params", str(pfile),
                 "--out", str(out)]) == 0
    assert read_params(pfile) == scenario_params(1)


def test_simulate_needs_exactly_one_source(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err
    pfile = tmp_path / "p.json"
    pfile.write_text(scenario_params(1).to_json())
    rc = main(["simulate", "--scenario", "1", "--params", str(pfile),
               "--out", str(tmp_path / "s")])
    assert rc == 1


def test_eval_smoke(tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", "--scenario", "2", "--runs", "2",
                 "--min-motifs", "10", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "positioned" in printed and "positionless" in printed
    runs = (out / "runs.csv").read_text().strip().splitlines()
    assert runs[0].startswith("seed,")
    assert len(runs) == 3
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0] == "method,mean_accuracy,stderr"
    assert len(summary) == 3
    check_manifest(out, "eval")


def test_eval_with_params_file_requires_delta(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(scenario_params(2).to_json())
    rc = main(["eval", "--params", str(pfile), "--runs", "1",
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "--delta is required" in capsys.readouterr().err
    assert main(["eval", "--params", str(pfile), "--runs", "1", "--delta", "5",
                 "--min-motifs", "10", "--out", str(tmp_path / "e2")]) == 0


def test_catalog_to_stdout(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("motif,row,col,nodes,edge1,edge2,edge3")
    assert len(out.strip().splitlines()) == 37


def test_catalog_to_directory(tmp_path):
    out = tmp_path / "cat"
    assert main(["catalog", "--out", str(out)]) == 0
    assert (out / "catalog.csv").exists()
    check_manifest(out, "catalog")


def _renamed_toy_pipeline(tmp_path, name):
    """count -> profile -> cluster on the toy network with node A renamed;
    returns the exit codes and the stage directories."""
    edges = tmp_path / "edges.csv"
    with open(edges, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("source", "target", "timestamp"))
        for s, t, x in TOY_EDGES:
            writer.writerow([name if v == "A" else v for v in (s, t)] + [repr(x)])
    cdir, pdir, kdir = tmp_path / "c", tmp_path / "p", tmp_path / "k"
    codes = [
        main(["count", "--input", str(edges), "--delta", "10", "--out", str(cdir)]),
        main(["profile", "--counts", str(cdir / "counts.csv"), "--out", str(pdir)]),
        main(["cluster", "--profiles", str(pdir / "profiles.csv"), "--k", "2",
              "--out", str(kdir)]),
    ]
    return codes, pdir, kdir


def test_unicode_line_separator_name_survives_the_pipeline(tmp_path):
    name = "A\u2028X"  # U+2028 LINE SEPARATOR
    codes, pdir, kdir = _renamed_toy_pipeline(tmp_path, name)
    assert codes == [0, 0, 0]
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--dendrogram", str(kdir / "dendrogram.txt"), "--k", "2",
                 "--node", name, "--out", str(rdir)]) == 0
    assert (rdir / "dendrogram.svg").exists()


def test_line_feed_name_is_rejected_by_cluster(tmp_path, capsys):
    name = "A\nX"
    codes, pdir, kdir = _renamed_toy_pipeline(tmp_path, name)
    assert codes == [0, 0, 1]
    assert repr(name) in capsys.readouterr().err
    assert not (kdir / "dendrogram.txt").exists()
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", name, "--out", str(rdir)]) == 0


@pytest.mark.parametrize("module", ["motifroles", "motifroles.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = Path(motifroles.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", module, "catalog"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("motif,row,col,nodes,edge1,edge2,edge3")


def test_count_reports_candidate_triples(tmp_path, toy_csv, capsys):
    out = tmp_path / "out"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(out)]) == 0
    assert "(4 candidate triples)" in capsys.readouterr().out
    assert check_manifest(out, "count")["config"]["candidate_triples"] == 4
