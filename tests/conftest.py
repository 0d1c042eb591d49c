import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from motifroles.catalog import MotifId
from motifroles.counting import count_motifs
from motifroles.graph import TemporalGraph

# synthdata builds its mid-scale network with the benchmark's generator
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

# Four-edge worked example used throughout: A messages B, A messages C,
# B replies to A, A messages B again. With a window covering the whole
# span this yields exactly four motif instances, one each of
# M3,3 / M4,1 / M4,2 / M5,1.
TOY_EDGES = [("A", "B", 1.0), ("A", "C", 2.0), ("B", "A", 3.0), ("A", "B", 4.0)]
TOY_CSV = "source,target,timestamp\n" + "".join(
    f"{s},{t},{x:g}\n" for s, t, x in TOY_EDGES
)
TOY_DELTA = 10.0

# (node, motif, position) -> 1 for every live cell of the toy network.
TOY_CELLS = [
    ("A", (3, 3), 1),
    ("A", (4, 1), 1),
    ("A", (4, 2), 1),
    ("A", (5, 1), 1),
    ("B", (3, 3), 3),
    ("B", (4, 1), 2),
    ("B", (4, 2), 2),
    ("B", (5, 1), 2),
    ("C", (3, 3), 2),
    ("C", (4, 1), 3),
    ("C", (4, 2), 3),
]


def toy_expected_counts() -> np.ndarray:
    out = np.zeros((3, 36, 3), dtype=np.int64)
    order = {"A": 0, "B": 1, "C": 2}
    for name, (row, col), pos in TOY_CELLS:
        out[order[name], MotifId(row, col).index, pos - 1] += 1
    return out


@pytest.fixture(scope="session")
def toy_graph() -> TemporalGraph:
    return TemporalGraph.from_named_edges(TOY_EDGES)


@pytest.fixture(scope="session")
def toy_counts(toy_graph):
    return count_motifs(toy_graph, TOY_DELTA)


# (alpha, beta, horizon, message) for a params file that JSON's Infinity once
# broke: with alpha 0 the jump alpha * beta was NaN and simulate stopped after
# one event, with alpha 0.5 it failed in the thinning bound, and an infinite
# horizon ran until max_events
NON_FINITE_PARAMS = [
    (0.0, float("inf"), 50.0, "beta must be positive and finite, got inf"),
    (0.5, float("inf"), 50.0, "beta must be positive and finite, got inf"),
    (0.5, 1.0, float("inf"), "horizon must be positive and finite, got inf"),
]


def one_block_params_json(alpha, beta, horizon):
    """Params text for 6 nodes in one block with one self-excitation."""
    return json.dumps({
        "n_nodes": 6, "block_probs": [1.0], "horizon": horizon,
        "baseline": [[0.05]], "max_events": 1000,
        "excitations": [{"kind": "self", "block_pair": [0, 0],
                         "alpha": alpha, "beta": beta}],
    })


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
