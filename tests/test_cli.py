import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import motifroles
from motifroles import catalog, cluster, counting
from motifroles.cli import main
from motifroles.counting import read_count_csv
from motifroles.graph import parse_edge_list
from motifroles.hawkes import (
    SCENARIO_DELTAS,
    BlockHawkesParams,
    scenario_params,
)
from motifroles.profiles import ProfileMatrix
from conftest import (
    NON_FINITE_PARAMS,
    TOY_CSV,
    TOY_EDGES,
    check_manifest,
    one_block_params_json,
)


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(TOY_CSV)
    return path


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
    back = read_count_csv((out / "counts.csv").read_text(encoding="utf-8"))
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



NODE_A_SVG = "858ef393a0b62ca7b923311eb5ef0844c55c2e7f4e960b2c5fe40f5f4c36a23b"


@pytest.mark.parametrize("k, digests", [
    ("1", {"dendrogram.svg": "3ec872b096d4fe5ddceda2368ed440e1b4208010fe1dd6a7f3d136b1cc180ad9",
           "centroid_0.svg": "e7bfeb11bd0d3919e50e66c91c945413c1bbef241feb4f09e7a855a3dc39eb6b"}),
    ("2", {"dendrogram.svg": "0ef809a64547a0efdad1a2d3602dbc823fa7a5134e091bc86ed4777ee9988f32",
           "centroid_0.svg": "b67a8b06eae92980b86d75703b54847b00718977fcd07561024b47df78e452cc",
           "centroid_1.svg": "d1a43c60e7dd1a3bd7aa38f118142622d4b9c43a62d96ae30998f995d791ec76"}),
    ("3", {"dendrogram.svg": "1208891b5ecd0fb34854401a6b6ff315a8b768709b4c0240bfc40309c57edcc1",
           "centroid_0.svg": "b67a8b06eae92980b86d75703b54847b00718977fcd07561024b47df78e452cc",
           "centroid_1.svg": "0819e5d1350d9c937248ead28e2d94fb074362c7662015ece367d44ba9ffc28b",
           "centroid_2.svg": "7ab8977b00a60e000d03b271f833d2fe1f7b7992df0dcafbb186004de6280cd5"}),
])
def test_render_svgs_are_pinned(tmp_path, toy_csv, k, digests):
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv)
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--dendrogram", str(kdir / "dendrogram.txt"),
                 "--k", k, "--node", "A", "--out", str(rdir)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in rdir.glob("*.svg")} == {**digests, "node_A.svg": NODE_A_SVG}


POSITIONLESS_NODE_A_SVG = "76114411723d38a26ed77a679c603f5486acd09a7bc40decec784898a8f8287e"


@pytest.mark.parametrize("k, digests", [
    ("1", {"dendrogram.svg": "4cb6ef951f052916f20525e7b5a073a6f5024ffab867417e199ecaf21b42c3b2",
           "centroid_0.svg": "8afabaf2eec6f8eb620f076379e08684f3efea15de4e89911c3eba070009a67e"}),
    ("2", {"dendrogram.svg": "60c824ffe28f2027ef67cc8113ae078d6212be79d5c745f16dcac94cb129ce33",
           "centroid_0.svg": "c355492f92d6219b6f22f1135069027a215e66200f7fae9021858912583369ad",
           "centroid_1.svg": "5ad9a9b9531d8eb326a3afd0ad99868bee0793592d4256d792a4c1a05f38f5a5"}),
])
def test_positionless_render_svgs_are_pinned(tmp_path, toy_csv, k, digests):
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv, positionless=True)
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--dendrogram", str(kdir / "dendrogram.txt"),
                 "--k", k, "--node", "A", "--out", str(rdir)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in rdir.glob("*.svg")} == {**digests, "node_A.svg": POSITIONLESS_NODE_A_SVG}


def test_render_node_only(tmp_path, toy_csv):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", "B", "--node", "C", "--out", str(rdir)]) == 0
    names = {p.name for p in rdir.iterdir()}
    assert "node_B.svg" in names and "node_C.svg" in names


def test_render_manifest_lists_only_this_runs_files(tmp_path, toy_csv, capsys):
    # a second render into the same --out leaves the first run's centroids
    # on disk; the manifest names only the files the second run wrote
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv, k=3)
    rdir = tmp_path / "r"
    for k in ("3", "1"):
        assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                     "--dendrogram", str(kdir / "dendrogram.txt"),
                     "--k", k, "--out", str(rdir)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote 2 SVG file(s) to {rdir}"
    assert (rdir / "centroid_2.svg").exists()
    manifest = json.loads((rdir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"dendrogram.svg", "centroid_0.svg"}


def test_profile_manifest_in_the_count_directory_omits_the_counts(tmp_path, toy_csv):
    cdir = tmp_path / "c"
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(cdir)]) == 0
    assert main(["profile", "--counts", str(cdir / "counts.csv"),
                 "--out", str(cdir)]) == 0
    manifest = json.loads((cdir / "manifest.json").read_text())
    assert manifest["command"] == "profile"
    assert set(manifest["outputs"]) == {"profiles.csv", "dropped.csv"}
    assert set(manifest["inputs"]) == {"counts"}


RUN_OUTPUTS = {
    "count": {"counts.csv", "motif_totals.csv"},
    "profile": {"profiles.csv", "dropped.csv"},
    "cluster": {"dendrogram.txt", "clusters.csv"},
    "render": {"dendrogram.svg", "centroid_0.svg", "centroid_1.svg", "node_A.svg"},
    "simulate": {"edges.csv", "labels.csv", "params.json"},
    "eval": {"runs.csv", "summary.csv"},
    "catalog": {"catalog.csv"},
}


@pytest.mark.parametrize("command", [*RUN_OUTPUTS, "catalog-stdout"])
def test_a_run_writes_exactly_its_manifest_files(tmp_path, toy_csv, monkeypatch,
                                                 capsys, command):
    # --out already holds a file from an earlier run; the run adds its
    # outputs and manifest there and nothing anywhere else
    cdir, pdir, kdir = run_pipeline(tmp_path / "in", toy_csv, k=2)
    argv = {
        "count": ["count", "--input", str(toy_csv), "--delta", "10"],
        "profile": ["profile", "--counts", str(cdir / "counts.csv")],
        "cluster": ["cluster", "--profiles", str(pdir / "profiles.csv"), "--k", "2"],
        "render": ["render", "--profiles", str(pdir / "profiles.csv"),
                   "--dendrogram", str(kdir / "dendrogram.txt"), "--k", "2",
                   "--node", "A"],
        "simulate": ["simulate", "--scenario", "1"],
        "eval": ["eval", "--scenario", "2", "--runs", "1", "--min-motifs", "10"],
        "catalog": ["catalog"],
    }[command.removesuffix("-stdout")]
    out = tmp_path / "out"
    out.mkdir()
    (out / "stale.txt").write_text("left by an earlier run\n")
    if command != "catalog-stdout":
        argv += ["--out", str(out)]
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 0
    new = set(tmp_path.rglob("*")) - before
    if command == "catalog-stdout":
        assert new == set()
        assert capsys.readouterr().out == catalog.catalog_table_csv()
        return
    assert new == {out / name for name in RUN_OUTPUTS[command] | {"manifest.json"}}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in RUN_OUTPUTS[command]
    }


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


# argv (with {edges}, {counts}, {profiles} from the toy pipeline) and a
# fragment of the message each rejected run prints
USAGE_ERRORS = {
    "count-delta-0": (["count", "--input", "{edges}", "--delta", "0"],
                      "delta must be a positive finite number"),
    "profile-min-motifs-negative": (
        ["profile", "--counts", "{counts}", "--min-motifs", "-1"],
        "min_motifs must be non-negative"),
    "profile-min-motifs-99": (["profile", "--counts", "{counts}", "--min-motifs", "99"],
                              "no node passes"),
    "cluster-k-7": (["cluster", "--profiles", "{profiles}", "--k", "7"],
                    "--k must be in 1..3"),
    "render-nothing": (["render", "--profiles", "{profiles}"], "nothing to render"),
    "render-k-without-dendrogram": (
        ["render", "--profiles", "{profiles}", "--node", "A", "--k", "5"],
        "--k needs --dendrogram"),
    "simulate-no-source": (["simulate"], "exactly one of --scenario or --params"),
    "eval-runs-0": (["eval", "--scenario", "2", "--runs", "0"], "at least one run"),
    "eval-k-0": (["eval", "--scenario", "2", "--runs", "1", "--k", "0"],
                 "k must be in 1.."),
    "eval-min-motifs-negative": (
        ["eval", "--scenario", "2", "--runs", "1", "--min-motifs", "-1"],
        "min_motifs must be non-negative"),
    "eval-no-source": (["eval", "--runs", "1"], "exactly one of --scenario or --params"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_writes_no_out_directory(tmp_path, toy_csv, capsys, case):
    cdir, pdir, _ = run_pipeline(tmp_path, toy_csv)
    argv, message = USAGE_ERRORS[case]
    paths = {"edges": toy_csv, "counts": cdir / "counts.csv",
             "profiles": pdir / "profiles.csv"}
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


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


def test_csv_format_lives_in_the_table_module():
    # table.py alone writes CSV; graph.py may read it, for the edge list's
    # own line-numbered errors
    package = Path(motifroles.__file__).parent
    importers, writers = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"):
                importers.add(path.name)
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"):
                writers.add(path.name)
    assert importers <= {"table.py", "graph.py"}
    assert writers == {"table.py"}


def test_no_module_imports_another_modules_private_name():
    # a private name stays inside its module; dunders such as __version__
    # are public
    package = Path(motifroles.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "motifroles"):
                found += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
    assert found == []


def test_only_the_cli_writes_files():
    # the library returns text; main alone writes it, so a manifest digests
    # the very bytes that were written
    package = Path(motifroles.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            mode = [k.value for k in node.keywords if k.arg == "mode"]
            if name == "open":  # open(file, mode) or path.open(mode)
                mode += node.args[1 if isinstance(func, ast.Name) else 0:][:1]
            writes = name == "open" and any(
                not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                for m in mode)
            if name in ("write_text", "write_bytes") or writes:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_importing_the_cli_leaves_evaluation_unloaded():
    # evaluation loads multiprocessing and concurrent.futures.process, which
    # only `eval` uses
    src = Path(motifroles.__file__).resolve().parents[1]
    code = ("import sys, motifroles.cli\n"
            "print([m for m in ('motifroles.evaluation', 'multiprocessing',\n"
            "                   'concurrent.futures.process') if m in sys.modules])")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_the_package_root_imports_nothing():
    # each name has one import path, its module; `import motifroles` loads
    # no module of the package and no numpy, and the cli loads only what
    # its commands other than eval need
    src = Path(motifroles.__file__).resolve().parents[1]
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import motifroles\n"
            "root = sorted(set(sys.modules) - before)\n"
            "import motifroles.cli\n"
            "print(json.dumps([root, sorted(m for m in sys.modules\n"
            "                               if m.startswith('motifroles.'))]))")
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    root, cli = json.loads(result.stdout.splitlines()[-1])
    assert [m for m in root if m.startswith("motifroles.") or m == "numpy"] == []
    assert cli == [f"motifroles.{m}" for m in (
        "catalog", "cli", "cluster", "counting", "graph", "hawkes", "profiles",
        "render", "table")]


def test_the_package_version_matches_pyproject():
    # every manifest records motifroles.__version__
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(motifroles.__file__).resolve().parents[2] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == motifroles.__version__


def test_render_rejects_a_nan_merge_height(tmp_path, toy_csv, capsys):
    _, pdir, kdir = run_pipeline(tmp_path, toy_csv, k=2)
    text = (kdir / "dendrogram.txt").read_text(encoding="utf-8")
    merge = next(line for line in text.splitlines() if line.startswith("merge "))
    left, right, _, size = merge.split()[1:]
    bad = tmp_path / "nan.txt"
    bad.write_text(text.replace(merge, f"merge {left} {right} nan {size}"),
                   encoding="utf-8")
    out = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--dendrogram", str(bad), "--k", "2", "--out", str(out)]) == 1
    assert "NaN" in capsys.readouterr().err
    assert not out.exists()


def test_no_module_imports_scipy():
    # scipy's import chain cost every command about 0.35 s of start-up;
    # it stays a test-time oracle only
    package = Path(motifroles.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(path.name, m) for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_commands_and_scoring_load_no_scipy_or_numpy_ma(tmp_path, toy_csv):
    # a bare np.unique or np.setdiff1d imports numpy.ma (about 13 ms), and
    # xml.sax.saxutils pulls in urllib.request, http, ssl and email (about 25 ms)
    src = Path(motifroles.__file__).resolve().parents[1]
    c, p, k, r, e = (str(tmp_path / d) for d in "cpkre")
    code = f"""
import sys, motifroles.cli, motifroles.evaluation
assert "concurrent.futures.process" in sys.modules  # not imported inside eval
from motifroles.cli import main
from motifroles.cluster import permutation_accuracy
for argv in (
    ["count", "--input", {str(toy_csv)!r}, "--delta", "10", "--scc", "--out", {c!r}],
    ["profile", "--counts", {c!r} + "/counts.csv", "--out", {p!r}],
    ["cluster", "--profiles", {p!r} + "/profiles.csv", "--k", "2", "--out", {k!r}],
    ["render", "--profiles", {p!r} + "/profiles.csv",
     "--dendrogram", {k!r} + "/dendrogram.txt", "--k", "2", "--out", {r!r}],
    ["eval", "--scenario", "2", "--runs", "2", "--min-motifs", "10", "--out", {e!r}],
):
    assert main(argv) == 0, argv
assert permutation_accuracy([0, 0, 1, 2], [1, 1, 0, 0]) == 0.75
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "xml", "http", "ssl", "email")
             or m.split(".")[:2] in (["numpy", "ma"], ["urllib", "request"])))
"""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_repeated_profile_row_is_rejected(tmp_path, toy_csv, capsys):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    lines = (pdir / "profiles.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].startswith("A,")
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("".join(lines + lines[1:2]), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["cluster", "--profiles", str(repeated), "--k", "2", "--out", str(out)])
    assert rc == 1
    assert "profile CSV: row 5: node 'A' repeats" in capsys.readouterr().err
    assert not out.exists()


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
    counts = read_count_csv((out / "counts.csv").read_text(encoding="utf-8"))
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


def test_cluster_and_eval_refuse_more_profiles_than_the_ward_limit(
        tmp_path, toy_csv, capsys, monkeypatch):
    _, pdir, _ = run_pipeline(tmp_path, toy_csv)
    capsys.readouterr()
    monkeypatch.setattr(cluster, "MAX_WARD_LEAVES", 2)
    out = tmp_path / "k2"
    assert main(["cluster", "--profiles", str(pdir / "profiles.csv"),
                 "--k", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: Ward linkage over 3 profiles needs a distance matrix of 72 "
        "bytes, above the limit of 2 profiles\n"
    )
    assert not out.exists()
    out = tmp_path / "eval"
    assert main(["eval", "--scenario", "1", "--runs", "1", "--min-motifs", "10",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed 0: Ward linkage over ")
    assert "bytes, above the limit of 2 profiles" in err
    assert not out.exists()


def test_simulate_and_eval_refuse_more_nodes_than_the_limit(tmp_path, capsys):
    # no excitations: only the node bound stands between this file and
    # numpy's own allocation error
    n = 1_000_000
    params = BlockHawkesParams(
        n_nodes=n, block_probs=(1.0,), horizon=1.0, baseline=((0.1,),))
    pfile = tmp_path / "big.json"
    pfile.write_text(params.to_json(), encoding="utf-8")
    message = (f"simulating 1000000 nodes needs n*n rate arrays of {8 * n * n} bytes "
               "each, above the limit of 5000 nodes")
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    out = tmp_path / "eval"
    assert main(["eval", "--params", str(pfile), "--delta", "1", "--runs", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: seed 0: {message}\n"
    assert not out.exists()


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


def test_simulate_writes_edges_and_labels(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "2", "--seed", "11",
                 "--out", str(out)]) == 0
    g = parse_edge_list((out / "edges.csv").read_text(encoding="utf-8"))
    assert g.n_edges > 50
    labels = (out / "labels.csv").read_text().strip().splitlines()
    assert labels[0] == "node,block"
    assert len(labels) == 21
    config = check_manifest(out, "simulate")["config"]
    assert config["events"] == g.n_edges
    assert config["candidates"] >= g.n_edges
    assert config["stability_margin"] == scenario_params(2).stability_margin()
    printed = capsys.readouterr().out
    assert f"simulated {g.n_edges} events ({config['candidates']} candidates)" in printed
    # determinism: a second run produces identical bytes
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--scenario", "2", "--seed", "11",
                 "--out", str(out2)]) == 0
    assert (out / "edges.csv").read_bytes() == (out2 / "edges.csv").read_bytes()
    assert (out / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()


def test_simulate_emit_params_round_trips(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "1", "--out", str(out)]) == 0
    text = (out / "params.json").read_text(encoding="utf-8")
    assert BlockHawkesParams.from_json(text) == scenario_params(1)


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
    config = check_manifest(out, "eval")["config"]
    events = [int(row.split(",")[1]) for row in runs[1:]]
    assert config["events"] == sum(events)
    # thinning draws at least one candidate per accepted event
    assert config["candidates"] >= config["events"]


def test_eval_with_params_file_requires_delta(tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(scenario_params(2).to_json())
    rc = main(["eval", "--params", str(pfile), "--runs", "1",
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "--delta is required" in capsys.readouterr().err
    assert main(["eval", "--params", str(pfile), "--runs", "1", "--delta", "5",
                 "--min-motifs", "10", "--out", str(tmp_path / "e2")]) == 0


@pytest.mark.parametrize("which", [1, 2])
def test_eval_of_emitted_params_matches_the_scenario(tmp_path, which):
    pfile = tmp_path / "sim" / "params.json"
    assert main(["simulate", "--scenario", str(which),
                 "--out", str(tmp_path / "sim")]) == 0
    flags = ["--runs", "2", "--min-motifs", "10", "--k", "2"]
    by_file, by_name = tmp_path / "file", tmp_path / "name"
    assert main(["eval", "--params", str(pfile), "--delta",
                 str(SCENARIO_DELTAS[which]), *flags, "--out", str(by_file)]) == 0
    assert main(["eval", "--scenario", str(which), *flags, "--out", str(by_name)]) == 0
    for name in ("runs.csv", "summary.csv"):
        assert (by_file / name).read_bytes() == (by_name / name).read_bytes()


def test_eval_prints_the_gate_diagnostics_of_runs_csv(tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["eval", "--scenario", "1", "--runs", "3", "--min-motifs", "10",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(out / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    masses = [float(r["two_node_mass_min"]) for r in rows]
    split = sum(int(r["position_split"]) for r in rows)
    assert printed[-1] == (
        f"two_node_mass_min worst {min(masses):.4f} mean "
        f"{sum(masses) / len(masses):.4f}; position_split {split}/3"
    )
    # the line follows the summary table, which stdout still carries whole
    assert "\n".join(printed[:-1]) + "\n" == (out / "summary.csv").read_text()


@pytest.mark.parametrize("which, digest", [
    (1, "38325a0d7023dcba379951cb8303a57ea2275ce38788854828df86e96d4f1ccc"),
    (2, "d4138e559de9b508e1f14a4abef1191c8bedebbd68ff15046f60c9b98de24f78"),
])
def test_eval_runs_csv_is_pinned(tmp_path, which, digest):
    # recorded with the same-floats sampler that per-beta scales replaced:
    # the scales keep every draw and decision, so runs.csv keeps its bytes
    out = tmp_path / "eval"
    assert main(["eval", "--scenario", str(which), "--runs", "8", "--seed", "0",
                 "--k", "2", "--min-motifs", "10", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "runs.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("which, edges_digest", [
    (1, "b7d89d7f22fff46382852421fc7e34e1e799d062c7c52eaa4e1e1b14e908bbe3"),
    (2, "7bb553edb1850b295fd2244c622585b1e8bd0d10be0ba659c533df31cf9c44a9"),
])
def test_simulate_outputs_are_pinned(tmp_path, which, edges_digest):
    # runs.csv above checks rounded counts and accuracies only; these pins
    # catch a drift in the last bit of any event time
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(which), "--seed", "7",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "edges.csv").read_bytes()).hexdigest() == edges_digest
    assert hashlib.sha256((out / "labels.csv").read_bytes()).hexdigest() == (
        "9dd5213eff14147fa03122d70b8408596b6aa08dbd329d1054711a1f95a98990"
    )


def sparse_count_profiles(n_rows, seed, draws=5, copies=0):
    """Positioned profiles from small integer counts on a few cells each,
    drawn with a fixed 64-bit LCG so that the input does not depend on
    numpy's generators; many rows and distances tie exactly. A row sums
    `draws` increments of 1 to 3 on every fourth of the first 96 cells;
    with copies c, each row after the first repeats an earlier row with
    chance c / 16."""
    x, rows = seed, []

    def step():
        nonlocal x
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        return x

    for _ in range(n_rows):
        if copies and rows and step() >> 60 < copies:
            rows.append(rows[(x >> 33) % len(rows)])
            continue
        row = [0] * catalog.N_POSITIONED_CELLS
        for _ in range(draws):
            row[(step() >> 33) % 24 * 4] += 1 + (x >> 20) % 3
        rows.append(row)
    counts = np.array(rows, dtype=np.float64)
    return ProfileMatrix(tuple(f"n{i}" for i in range(n_rows)),
                         counts / counts.sum(axis=1, keepdims=True))


def test_cluster_dendrograms_are_pinned(tmp_path, toy_csv):
    *_, kdir = run_pipeline(tmp_path / "toy", toy_csv)
    pfile = tmp_path / "profiles.csv"
    pfile.write_text(sparse_count_profiles(700, seed=5).csv_text(), encoding="utf-8")
    wide = tmp_path / "wide"
    assert main(["cluster", "--profiles", str(pfile), "--k", "4",
                 "--out", str(wide)]) == 0
    digests = [hashlib.sha256((d / "dendrogram.txt").read_bytes()).hexdigest()
               for d in (kdir, wide)]
    assert digests == [
        "6d0e6f1004bdd7b702ea673d826ee3a6009f4c5250d3ebb1c5249a3900251fdf",
        "82bebad93dfe3528f2ec2b6e39a6b74f67897aacc995b09b53e8dd0b226b0de2",
    ]


@pytest.mark.parametrize("n_rows, seed, draws, copies, digest", [
    # tie-heavy: three increments a row and most rows copies of earlier ones
    (300, 11, 3, 10, "1729b2473cc0076a1eaa41240e9c0b43cdbcb32f1aafda602bc272b4fbf9c1c4"),
    # large enough for the Ward set-up to run on several threads
    (1000, 13, 60, 0, "25e4d714d03e03cbdc7d11676ee7debfe094f4db8debb8996339f1e04ea3f2d3"),
])
def test_cluster_dendrograms_of_csv_profiles_are_pinned(tmp_path, n_rows, seed, draws,
                                                        copies, digest):
    # read_profile_csv returns column-major vectors, whose einsum rounding
    # the in-memory test references never see; these pins guard it
    pfile = tmp_path / "profiles.csv"
    pfile.write_text(sparse_count_profiles(n_rows, seed, draws, copies).csv_text(),
                     encoding="utf-8")
    assert main(["cluster", "--profiles", str(pfile), "--k", "4",
                 "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "dendrogram.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest


def test_emitted_scenario_2_params_are_pinned(tmp_path):
    pfile = tmp_path / "sim" / "params.json"
    assert main(["simulate", "--scenario", "2", "--out", str(tmp_path / "sim")]) == 0
    assert hashlib.sha256(pfile.read_bytes()).hexdigest() == (
        "5f4fd03d482e1ea9dec9590f852f86e7db3c31ba67588b7a8ed8799266b8201b"
    )


@pytest.mark.parametrize("field, value, message", [
    ("alpha", float("nan"), "alpha must be non-negative"),
    ("block_probs", [float("nan"), 1.0], "block_probs must be non-negative"),
])
def test_simulate_rejects_nan_params(tmp_path, capsys, field, value, message):
    # before, a NaN alpha ended in "thinning bound violated", and a NaN
    # block probability with fixed labels simulated and emitted NaN
    payload = json.loads(scenario_params(1).to_json())
    payload["block_assignment"] = [i % 2 for i in range(payload["n_nodes"])]
    if field == "alpha":
        payload["excitations"][0]["alpha"] = value
    else:
        payload["block_probs"] = value
    pfile = tmp_path / "nan.json"
    pfile.write_text(json.dumps(payload))
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta, horizon, message", NON_FINITE_PARAMS)
def test_simulate_refuses_an_infinite_beta_or_horizon(tmp_path, capsys, alpha, beta,
                                                     horizon, message):
    pfile = tmp_path / "params.json"
    pfile.write_text(one_block_params_json(alpha, beta, horizon))
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--seed", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_refuses_an_infinite_baseline_total(tmp_path, capsys):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps({"n_nodes": 6, "block_probs": [1.0], "horizon": 10.0,
                                 "baseline": [[1e308]]}))
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the baseline's total rate over the ordered pairs is inf; "
        "it must be finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("field, value, kind", [
    ("n_nodes", "20", "str"),
    ("max_events", True, "bool"),
    ("block_assignment", [True, False] * 10, "bool"),
])
def test_simulate_refuses_a_boolean_or_string_for_a_number(tmp_path, capsys, field,
                                                          value, kind):
    # these once loaded as 20 nodes, one event and the labels 1 and 0
    payload = json.loads(scenario_params(1).to_json())
    payload[field] = value
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(payload))
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {field} must be a JSON number, not {kind}\n"
    assert not out.exists()


def test_params_file_may_start_with_a_byte_order_mark(tmp_path):
    pfile = tmp_path / "params.json"
    pfile.write_text("\ufeff" + scenario_params(1).to_json(), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 0
    assert (out / "params.json").read_text(encoding="utf-8") == scenario_params(1).to_json()


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


def _renamed_toy_pipeline(tmp_path, name, node="A", min_motifs=0):
    """count -> profile -> cluster on the toy network with `node` renamed;
    returns the exit codes and the stage directories."""
    edges = tmp_path / "edges.csv"
    with open(edges, "w", encoding="utf-8", newline="") as fh:
        # quoting every cell keeps a carriage return inside its name
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(("source", "target", "timestamp"))
        for s, t, x in TOY_EDGES:
            writer.writerow([name if v == node else v for v in (s, t)] + [repr(x)])
    cdir, pdir, kdir = tmp_path / "c", tmp_path / "p", tmp_path / "k"
    codes = [
        main(["count", "--input", str(edges), "--delta", "10", "--out", str(cdir)]),
        main(["profile", "--counts", str(cdir / "counts.csv"),
              "--min-motifs", str(min_motifs), "--out", str(pdir)]),
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


def test_names_with_trailing_or_odd_whitespace_survive_the_pipeline(tmp_path):
    # the dendrogram reader once stripped "x " to "x" and refused an empty name
    names = ["", "x ", "y\t", "z\x0c", "w\u2028"]
    motif = next(m for m in catalog.MOTIFS if m.n_nodes == 3)
    first = catalog.CSV_COLUMNS.index(f"{motif.short}_p1")
    # each live position of a motif sums to the same total over the nodes
    cells = [(1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 2, 2)]
    counts = tmp_path / "counts.csv"
    with open(counts, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("node",) + catalog.CSV_COLUMNS)
        for name, row in zip(names, cells):
            values = [0] * len(catalog.CSV_COLUMNS)
            values[first:first + 3] = row
            writer.writerow([name] + values)
    pdir, kdir, rdir = tmp_path / "p", tmp_path / "k", tmp_path / "r"
    assert main(["profile", "--counts", str(counts), "--out", str(pdir)]) == 0
    assert main(["cluster", "--profiles", str(pdir / "profiles.csv"), "--k", "2",
                 "--out", str(kdir)]) == 0
    argv = ["render", "--profiles", str(pdir / "profiles.csv"),
            "--dendrogram", str(kdir / "dendrogram.txt"), "--k", "2", "--out", str(rdir)]
    for name in names:
        argv += ["--node", name]
    assert main(argv) == 0
    assert len(list(rdir.glob("node_*.svg"))) == len(names)


def test_line_feed_name_is_rejected_by_cluster(tmp_path, capsys):
    name = "A\nX"
    codes, pdir, kdir = _renamed_toy_pipeline(tmp_path, name)
    assert codes == [0, 0, 1]
    assert repr(name) in capsys.readouterr().err
    assert not (kdir / "dendrogram.txt").exists()
    rdir = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", name, "--out", str(rdir)]) == 0


def test_carriage_return_name_is_rejected_by_cluster(tmp_path, capsys):
    # minimal quoting alone would leave the carriage return bare in the CSVs
    name = "A\rX"
    codes, pdir, kdir = _renamed_toy_pipeline(tmp_path, name)
    assert codes == [0, 0, 1]
    assert repr(name) in capsys.readouterr().err
    with open(pdir / "profiles.csv", encoding="utf-8", newline="") as fh:
        assert [row[0] for row in csv.reader(fh)] == ["node", name, "B", "C"]


@pytest.mark.parametrize("name", ["X,Y", 'Q"R'])
def test_dropped_name_with_comma_or_quote_reads_back(tmp_path, name):
    # C takes part in 3 toy instances, A and B in 4 each
    codes, pdir, _ = _renamed_toy_pipeline(tmp_path, name, node="C", min_motifs=4)
    assert codes == [0, 0, 0]
    with open(pdir / "dropped.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["node", "total_participation"], [name, "3"]]


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
    printed = capsys.readouterr()
    assert "(4 candidate triples of at most 12)" in printed.out
    assert printed.err == ""
    config = check_manifest(out, "count")["config"]
    assert config["candidate_triples"] == 4
    assert config["candidate_bound"] == 12
    assert config["instances"] == 4


def test_count_refuses_a_candidate_bound_over_the_limit(tmp_path, capsys):
    # 3 nodes, every edge at one timestamp: counting would classify about
    # 1.3e9 triples, while the bound takes milliseconds
    edges = tmp_path / "tied.csv"
    edges.write_text("source,target,timestamp\n" + "".join(
        f"{'abc'[i % 3]},{'abc'[(i + 1) % 3]},0\n" for i in range(2000)))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["count", "--input", str(edges), "--delta", "1",
                 "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        "error: delta=1 gives a candidate bound of 2366372592, above the limit "
        "of 100000000; use a smaller delta or raise the limit (--max-candidates "
        "on the command line)"
    )
    assert not out.exists()


def test_max_candidates_flag_sets_the_limit(tmp_path, toy_csv, capsys):
    # the toy network's bound is 12
    argv = ["count", "--input", str(toy_csv), "--delta", "10"]
    assert main([*argv, "--max-candidates", "11", "--out", str(tmp_path / "a")]) == 1
    assert "bound of 12, above the limit of 11" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert main([*argv, "--max-candidates", "12", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "counts.csv").exists()


def test_count_builds_the_incidence_index_once(tmp_path, toy_csv, monkeypatch):
    calls = []
    build = counting._incidence
    monkeypatch.setattr(counting, "_incidence", lambda *a: calls.append(1) or build(*a))
    assert main(["count", "--input", str(toy_csv), "--delta", "10",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_count_rejects_an_oversized_field(tmp_path, capsys):
    # the csv module refuses fields over 131,072 characters
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,timestamp\n" + "A" * 200_000 + ",B,1\n")
    out = tmp_path / "out"
    assert main(["count", "--input", str(edges), "--delta", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: field larger than field limit")
    assert not out.exists()


def test_edge_list_may_start_with_a_byte_order_mark(tmp_path, toy_csv):
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + toy_csv.read_bytes())
    for edges, out in ((toy_csv, "plain"), (bom_csv, "bom")):
        assert main(["count", "--input", str(edges), "--delta", "10",
                     "--out", str(tmp_path / out)]) == 0
    for name in ("counts.csv", "motif_totals.csv"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "bom" / name).read_bytes())


def test_every_input_file_may_start_with_a_byte_order_mark(tmp_path, toy_csv):
    cdir, pdir, kdir = run_pipeline(tmp_path, toy_csv)
    plain = {p.name: p for p in (cdir / "counts.csv", pdir / "profiles.csv",
                                 kdir / "dendrogram.txt")}
    (tmp_path / "bom").mkdir()
    bom = {name: tmp_path / "bom" / name for name in plain}
    for name, path in plain.items():
        bom[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    for src, out in ((plain, tmp_path / "plain"), (bom, tmp_path / "bom_out")):
        profiles = str(src["profiles.csv"])
        assert main(["profile", "--counts", str(src["counts.csv"]),
                     "--out", str(out / "p")]) == 0
        assert main(["cluster", "--profiles", profiles, "--k", "3",
                     "--out", str(out / "k")]) == 0
        assert main(["render", "--profiles", profiles, "--k", "3",
                     "--dendrogram", str(src["dendrogram.txt"]),
                     "--out", str(out / "r")]) == 0
    written = sorted(p.relative_to(tmp_path / "plain")
                     for p in (tmp_path / "plain").rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    assert len(written) == 8
    for rel in written:
        assert ((tmp_path / "plain" / rel).read_bytes()
                == (tmp_path / "bom_out" / rel).read_bytes())


def test_render_rejects_a_node_file_name_over_255_bytes(tmp_path, capsys):
    # "Ä" quotes to the six bytes %C3%84, so node_<name>.svg is 369 bytes
    name = "\u00c4" * 60
    codes, pdir, _ = _renamed_toy_pipeline(tmp_path, name)
    assert codes == [0, 0, 0]
    capsys.readouterr()
    out = tmp_path / "r"
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", name, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(name) in err and "369-byte" in err
    assert not out.exists()
    # 246 ASCII characters make a file name of exactly 255 bytes, which is kept
    name = "A" * 246
    (tmp_path / "edge").mkdir()
    codes, pdir, _ = _renamed_toy_pipeline(tmp_path / "edge", name)
    assert codes == [0, 0, 0]
    assert main(["render", "--profiles", str(pdir / "profiles.csv"),
                 "--node", name, "--out", str(out)]) == 0
    assert (out / f"node_{name}.svg").exists()


@pytest.mark.parametrize("command", ["count", "profile", "cluster", "render", "simulate"])
def test_a_non_utf8_input_names_the_file_and_its_byte_offset(tmp_path, toy_csv, capsys,
                                                             command):
    # the offset counts from the start of the file, byte-order mark included,
    # and lies past the first 8 KB that a streaming decoder reads at once
    cdir, pdir, kdir = run_pipeline(tmp_path, toy_csv)
    pfile = tmp_path / "params.json"
    pfile.write_text(scenario_params(1).to_json(), encoding="utf-8")
    valid = {"count": toy_csv, "profile": cdir / "counts.csv",
             "cluster": pdir / "profiles.csv", "render": kdir / "dendrogram.txt",
             "simulate": pfile}[command]
    bad = tmp_path / f"bad_{valid.name}"
    data = b"\xef\xbb\xbf" + valid.read_bytes() + b" " * 10_000
    bad.write_bytes(data + b"\xff\n")
    argv = {
        "count": ["count", "--input", str(bad), "--delta", "10"],
        "profile": ["profile", "--counts", str(bad)],
        "cluster": ["cluster", "--profiles", str(bad), "--k", "2"],
        "render": ["render", "--profiles", str(pdir / "profiles.csv"),
                   "--dendrogram", str(bad)],
        "simulate": ["simulate", "--params", str(bad)],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert f"not UTF-8 at byte offset {len(data)} " in err
    assert not out.exists()


def test_each_command_opens_each_input_file_once(tmp_path, toy_csv):
    # the manifest digests the bytes that were parsed, so no input is read twice
    cdir, pdir, kdir = run_pipeline(tmp_path, toy_csv, k=2)
    pfile = tmp_path / "params.json"
    pfile.write_text(scenario_params(2).to_json(), encoding="utf-8")
    out = str(tmp_path / "out")
    runs = [
        ["count", "--input", str(toy_csv), "--delta", "10", "--out", out],
        ["profile", "--counts", str(cdir / "counts.csv"), "--out", out],
        ["cluster", "--profiles", str(pdir / "profiles.csv"), "--k", "2", "--out", out],
        ["render", "--profiles", str(pdir / "profiles.csv"), "--node", "A",
         "--dendrogram", str(kdir / "dendrogram.txt"), "--k", "2", "--out", out],
        ["simulate", "--params", str(pfile), "--out", out],
        ["eval", "--params", str(pfile), "--delta", "10", "--runs", "1",
         "--min-motifs", "10", "--out", out],
    ]
    # an audit hook sees every open in the process; it cannot be removed,
    # so it runs in a child
    code = """
import json, sys
from motifroles.cli import main
opened = []
sys.addaudithook(lambda event, args: event == "open" and opened.append(str(args[0])))
calls = []
for argv in json.loads(sys.argv[1]):
    opened.clear()
    rc = main(argv)
    calls.append([rc, opened.copy()])
print(json.dumps(calls))
"""
    src = Path(motifroles.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    inputs_of = {"--input", "--counts", "--profiles", "--dendrogram", "--params"}
    for argv, (rc, opened) in zip(runs, json.loads(result.stdout.splitlines()[-1])):
        assert rc == 0, argv
        inputs = [v for flag, v in zip(argv, argv[1:]) if flag in inputs_of]
        assert inputs and sorted(p for p in opened if p in inputs) == sorted(inputs), argv


def test_manifest_digests_the_input_bytes_the_run_read(tmp_path):
    # simulate writes params.json over its own --params input; the manifest
    # keeps the digest of what was read, not of what replaced it
    out = tmp_path / "sim"
    out.mkdir()
    pfile = out / "params.json"
    data = b"\xef\xbb\xbf" + scenario_params(1).to_json().encode("utf-8")
    pfile.write_bytes(data)
    assert main(["simulate", "--params", str(pfile), "--out", str(out)]) == 0
    manifest = check_manifest(out, "simulate")
    assert manifest["inputs"] == {"params": hashlib.sha256(data).hexdigest()}
    assert pfile.read_bytes() == data[3:]
