"""A property test of `main`'s contract on generated edge lists.

Each example writes one edge list and runs count -> profile -> cluster ->
render in process, each stage on the files of the one before, up to the
first stage that does not exit 0. The laws hold for every stage:

- the exit code is 0, 1 or 2, and no exception or warning escapes;
- on 1 or 2, stderr is one line starting "error: " or "i/o error: ", and
  --out does not exist;
- on 0, stderr is empty, and every digest of the manifest is the sha256
  of its file on disk;
- on 0, counts.csv and profiles.csv read back to values whose csv_text()
  gives the same bytes.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from motifroles.cli import main
from motifroles.counting import read_count_csv
from motifroles.profiles import read_profile_csv

# Most names are plain and most times small, so that most files get past
# the parser and hold motifs.
PLAIN_NAMES = st.sampled_from(["a", "b", "c", "d", "é", "中"])
ODD_NAMES = st.text(st.sampled_from('ab ,"\r\n\t\ufeffé中'), min_size=1, max_size=3)
SMALL_TIMES = st.sampled_from(["1", "2", "3"])
TIMESTAMPS = st.sampled_from(["-0", "1e15", "1e308", "-1e308", "5e-324", "1_0",
                              " 2 ", "003", "+1"])
DELTAS = st.sampled_from(["3", "3", "10", "10", "0.5", "1e15", "1e308", "0"])
# One file in five has one flaw that the parser refuses.
FLAWS = {1: ("a", "a", "1"), 2: (" ", "a", "1"), 3: ("a", "b", "x"), 4: ("a", "b")}


def _field(draw, text):
    if any(c in text for c in ',"\r\n') or draw(st.integers(0, 9)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def cases(draw):
    """(edge list bytes, count flags, profile flags, k, --node names)."""
    names = draw(st.lists(st.one_of(PLAIN_NAMES, PLAIN_NAMES, ODD_NAMES),
                          min_size=2, max_size=5, unique_by=str.strip))
    rows = []
    for _ in range(draw(st.integers(3, 10))):
        s = draw(st.integers(0, len(names) - 1))
        t = (s + draw(st.integers(1, len(names) - 1))) % len(names)
        ts = draw(SMALL_TIMES | SMALL_TIMES | TIMESTAMPS)
        rows.append((names[s], names[t], ts))
    flaw = FLAWS.get(draw(st.integers(0, 19)))
    if flaw:
        rows.insert(draw(st.integers(0, len(rows))), flaw)
    lines = [draw(st.sampled_from(["source,target,timestamp",
                                   " Source,TARGET ,timestamp"]))]
    lines += [",".join(_field(draw, cell) for cell in row) for row in rows]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    count = ["--delta", draw(DELTAS),
             "--ties", draw(st.sampled_from(["seq", "exclude"]))]
    count += ["--scc"] * draw(st.booleans())
    profile = ["--min-motifs", str(draw(st.integers(0, 2)))]
    profile += ["--positionless"] * draw(st.booleans())
    k = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.sampled_from(names).map(str.strip), max_size=2))
    return (bom + text).encode("utf-8"), count, profile, k, nodes


def _run(argv):
    """main(argv)'s exit code and stderr, with any warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def _stage(argv, out, inputs):
    """Run one stage and check its laws; True if it exited 0."""
    code, err = _run([*argv, "--out", str(out)])
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.startswith(("error: ", "i/o error: ")), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert not out.exists()
        return False
    assert err == ""
    manifest = json.loads((out / "manifest.json").read_bytes())
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == on_disk
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert set(manifest["inputs"]) == set(inputs)
    for name, path in inputs.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == manifest["inputs"][name]
    return True


def _reads_back(reader, path):
    data = path.read_bytes()
    assert reader(data.decode("utf-8")).csv_text().encode("utf-8") == data


@settings(max_examples=200, deadline=None)
@given(cases())
# count once printed numpy overflow warnings when time + delta left the
# float range, with right counts
@example((b"source,target,timestamp\na,b,-1e308\nb,a,0\na,b,1e308\n",
          ["--delta", "1e308", "--ties", "seq"], ["--min-motifs", "0"], 1, ["a"]))
def test_main_keeps_its_contract_on_generated_edge_lists(case):
    data, count, profile, k, nodes = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edges = tmp / "edges.csv"
        edges.write_bytes(data)
        c, p, d, r = (tmp / name for name in ("c", "p", "d", "r"))
        if not _stage(["count", "--input", str(edges), *count], c, {"edges": edges}):
            return
        counts = c / "counts.csv"
        _reads_back(read_count_csv, counts)
        if not _stage(["profile", "--counts", str(counts), *profile], p,
                      {"counts": counts}):
            return
        profiles = p / "profiles.csv"
        _reads_back(read_profile_csv, profiles)
        if not _stage(["cluster", "--profiles", str(profiles), "--k", str(k)], d,
                      {"profiles": profiles}):
            return
        dendrogram = d / "dendrogram.txt"
        _stage(["render", "--profiles", str(profiles), "--dendrogram", str(dendrogram),
                "--k", str(k), *(arg for name in nodes for arg in ("--node", name))], r,
               {"profiles": profiles, "dendrogram": dendrogram})
