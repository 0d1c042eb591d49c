import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifroles.cluster import cut, ward_linkage
from motifroles.profiles import build_positioned, build_positionless
from motifroles.render import _LINK, _PALETTE, dendrogram_svg, heatmap_svg
from test_cluster import random_dendrogram

SVG_NS = "{http://www.w3.org/2000/svg}"


def cell_fills(svg_text):
    """Fills of the 24x24 motif-cell rectangles, in document order."""
    root = ET.fromstring(svg_text)
    return [
        r.get("fill")
        for r in root.iter(f"{SVG_NS}rect")
        if r.get("width") == "24" and r.get("height") == "24"
    ]


def test_heatmap_is_valid_xml_and_deterministic(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    a = heatmap_svg(p.vectors[0], "node A")
    b = heatmap_svg(p.vectors[0], "node A")
    assert a == b
    ET.fromstring(a)  # raises on malformed markup


def test_positioned_heatmap_has_three_grids(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    svg = heatmap_svg(p.vectors[0], "node A")
    fills = cell_fills(svg)
    assert len(fills) == 3 * 36
    assert "position 1" in svg and "position 2" in svg and "position 3" in svg


def test_node_a_shades_exactly_its_four_position1_cells(toy_counts):
    p = build_positioned(toy_counts, min_motifs=0)
    a_vec = p.vectors[list(p.node_names).index("A")]
    fills = cell_fills(heatmap_svg(a_vec, "node A"))
    pos1, pos2, pos3 = fills[:36], fills[36:72], fills[72:]
    shaded = [f for f in pos1 if f != "#ffffff"]
    assert len(shaded) == 4
    # equal values get identical shades, at the top of the ramp
    assert len(set(shaded)) == 1
    assert all(f == "#ffffff" for f in pos2)
    assert all(f == "#ffffff" for f in pos3)
    # grid order is motif-major: M3,3 sits at row 3, col 3
    grid = np.array(pos1).reshape(6, 6)
    assert grid[2, 2] != "#ffffff"
    assert grid[4, 0] != "#ffffff"  # M5,1
    assert grid[3, 0] != "#ffffff" and grid[3, 1] != "#ffffff"  # M4,1 M4,2


def test_positionless_heatmap_single_grid(toy_counts):
    p = build_positionless(toy_counts, min_motifs=0)
    svg = heatmap_svg(p.vectors[0], "node A, positionless")
    fills = cell_fills(svg)
    assert len(fills) == 36
    assert "all positions" in svg


def test_uniform_profile_renders_uniformly():
    vec = np.full(36, 1.0 / 36)
    fills = cell_fills(heatmap_svg(vec, "uniform"))
    assert len(set(fills)) == 1
    assert fills[0] != "#ffffff"


def test_all_zero_vector_renders_blank():
    # degenerate input: stays white rather than dividing by zero
    fills = cell_fills(heatmap_svg(np.zeros(36), "empty"))
    assert set(fills) == {"#ffffff"}


def test_heatmap_rejects_bad_input():
    # the length sets the layout: 104 positioned cells or 36 motifs
    for bad in (np.zeros(35), np.zeros(108), np.zeros((1, 36))):
        with pytest.raises(ValueError, match="length 104 or 36"):
            heatmap_svg(bad, "wrong shape")


def test_heatmap_title_is_escaped():
    svg = heatmap_svg(np.full(36, 1.0 / 36), "a <b> & c")
    ET.fromstring(svg)
    assert "a &lt;b&gt; &amp; c" in svg


def test_dendrogram_svg_basics():
    d = ward_linkage(np.array([[0.0], [2.0], [10.0]]))
    svg = dendrogram_svg(d, ["x", "y", "z"], cut(d, 2))
    ET.fromstring(svg)
    assert svg == dendrogram_svg(d, ["x", "y", "z"], cut(d, 2))
    # merge heights surface in the header note
    assert "54" in svg
    for name in ("x", "y", "z"):
        assert name in svg


def test_dendrogram_single_color_when_not_cut():
    d = ward_linkage(np.array([[0.0], [1.0]]))
    svg = dendrogram_svg(d, ["a", "b"], cut(d, 1))
    root = ET.fromstring(svg)
    strokes = {
        p.get("stroke")
        for p in root.iter(f"{SVG_NS}path")
    }
    assert len(strokes) == 1


def test_dendrogram_highlight_uses_distinct_colors():
    pts = np.array([[0.0], [0.5], [10.0], [10.5]])
    d = ward_linkage(pts)
    svg = dendrogram_svg(d, ["a", "b", "c", "d"], cut(d, 2))
    root = ET.fromstring(svg)
    strokes = {p.get("stroke") for p in root.iter(f"{SVG_NS}path")}
    # two cluster colors plus the grey of the joining arch
    assert len(strokes) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 25))
def test_dendrogram_colors_each_merge_by_the_cut_labels_under_it(seed, n):
    # merge i is drawn as the i-th path; its leaves come from d.merges alone
    d = random_dendrogram(np.random.default_rng(seed), n)
    leaves = [{i} for i in range(n)]
    for m in d.merges:
        leaves.append(leaves[m.left] | leaves[m.right])
    names = [f"n{i}" for i in range(n)]
    for k in range(1, n + 1):
        labels = cut(d, k)
        root = ET.fromstring(dendrogram_svg(d, names, labels))
        strokes = [p.get("stroke") for p in root.iter(f"{SVG_NS}path")]
        expected = []
        for under in leaves[n:]:
            c, *others = {int(labels[leaf]) for leaf in under}
            expected.append(_LINK if others else _PALETTE[c % len(_PALETTE)])
        assert strokes == expected
        # leaf circles are drawn along the leaf order
        fills = [c.get("fill") for c in root.iter(f"{SVG_NS}circle")]
        assert fills == [_PALETTE[labels[leaf] % len(_PALETTE)] for leaf in d.leaf_order()]


def test_dendrogram_name_count_must_match():
    d = ward_linkage(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        dendrogram_svg(d, ["only one"], cut(d, 1))


def test_node_name_with_markup_characters_is_escaped_like_saxutils():
    name = "a&b<c>\"d'e"
    d = ward_linkage(np.array([[0.0], [1.0]]))
    svg = dendrogram_svg(d, [name, "plain"], cut(d, 1))
    assert f">{saxutils.escape(name)}</text>" in svg
    assert ">a&amp;b&lt;c&gt;\"d'e</text>" in svg
    texts = [t.text for t in ET.fromstring(svg).iter(f"{SVG_NS}text")]
    assert name in texts
