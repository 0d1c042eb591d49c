"""Command-line pipeline: count, profile, cluster, render, simulate, eval.

Every subcommand only computes. It gets the text of each input file from
`main`, which reads the file once and digests the bytes it read, and it
returns the files of its run as a dict from file name to text, its config
and the text it prints. `main` alone then creates --out, writes each file
as UTF-8 bytes, writes a manifest.json with the digests of exactly the
bytes read and written and prints the text. So a run that fails leaves no
directory behind, no command writes outside --out, and a manifest never
lists a file that an earlier run left in --out. Input values are checked
once, by the library. Runs are reproducible: identical configuration and
inputs give byte-identical outputs. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import urllib.parse
from pathlib import Path

import numpy as np

from . import __version__, catalog
from .cluster import (
    cut,
    centroids,
    labels_csv_text,
    parse_dendrogram,
    serialize_dendrogram,
    ward_linkage,
)
from .counting import count_motifs, read_count_csv
from .graph import edge_list_text, filter_nodes, largest_scc, parse_edge_list
from .hawkes import SCENARIO_DELTAS, BlockHawkesParams, scenario_params, simulate
from .profiles import build_positioned, build_positionless, read_profile_csv
from .render import dendrogram_svg, heatmap_svg

_TIE_FLAG = {"seq": "seq-order", "exclude": "exclude-ties"}
# count refuses a window whose candidate bound exceeds this, unless
# --max-candidates raises it: counting classifies about 14 M candidates/s
# on a 2-core host, so 10^8 take at most about 7 s
MAX_CANDIDATES = 10**8


def _cmd_count(args, read):
    graph = parse_edge_list(read("edges", args.input))
    scc_kept = None
    if args.scc:
        component = largest_scc(graph)
        scc_kept = sorted(graph.node_names[i] for i in component)
        graph = filter_nodes(graph, component)
    counts = count_motifs(graph, args.delta, _TIE_FLAG[args.ties],
                          max_candidates=args.max_candidates)
    files = {"counts.csv": counts.csv_text(),
             "motif_totals.csv": counts.motif_totals_csv_text()}
    config = {
        "input": args.input,
        "delta": args.delta,
        "ties": _TIE_FLAG[args.ties],
        "scc": bool(args.scc),
        "scc_nodes": scc_kept,
        "candidate_triples": counts.candidates,
        "candidate_bound": counts.candidate_bound,
        "instances": counts.total_instances(),
    }
    grid = counts.motif_totals.reshape(6, 6)
    lines = [
        f"counted {config['instances']} motif instances "
        f"({counts.candidates} candidate triples of at most "
        f"{counts.candidate_bound}) over "
        f"{graph.n_edges} edges, {graph.n_nodes} nodes (delta={args.delta:g})",
        "instances by motif cell (rows 1-6, columns 1-6):",
        "      " + "".join(f"c{c + 1:<9}" for c in range(6)),
        *(f"  r{r + 1}  " + "".join(f"{int(v):<10}" for v in grid[r]) for r in range(6)),
    ]
    return files, config, "\n".join(lines) + "\n"


def _cmd_profile(args, read):
    counts = read_count_csv(read("counts", args.counts))
    builder = build_positionless if args.positionless else build_positioned
    prof = builder(counts, min_motifs=args.min_motifs)
    if prof.n_profiled == 0:
        raise ValueError("no node passes the participation filter")
    files = {"profiles.csv": prof.csv_text(), "dropped.csv": prof.dropped_csv_text()}
    config = {"counts": args.counts, "min_motifs": args.min_motifs, "kind": prof.kind}
    text = f"profiled {prof.n_profiled} nodes ({prof.kind}); dropped {len(prof.dropped)}\n"
    return files, config, text


def _cmd_cluster(args, read):
    prof = read_profile_csv(read("profiles", args.profiles))
    if args.k < 1 or args.k > max(prof.n_profiled, 1):
        raise ValueError(
            f"--k must be in 1..{prof.n_profiled} for {prof.n_profiled} profiled nodes"
        )
    dendro = ward_linkage(prof.vectors)
    labels = cut(dendro, args.k)
    files = {
        "dendrogram.txt": serialize_dendrogram(dendro, prof.node_names),
        "clusters.csv": labels_csv_text(prof.node_names, labels, "cluster"),
    }
    config = {"profiles": args.profiles, "k": args.k, "kind": prof.kind}
    sizes = ", ".join(str(int(s)) for s in np.bincount(labels))
    text = f"cut {prof.n_profiled} profiles into k={args.k} clusters (sizes {sizes})\n"
    return files, config, text


def _cmd_render(args, read):
    if args.k is not None and not args.dendrogram:
        raise ValueError("--k needs --dendrogram: it sets the dendrogram's cut")
    prof = read_profile_csv(read("profiles", args.profiles))
    files = {}
    if args.dendrogram:
        dendro, names = parse_dendrogram(read("dendrogram", args.dendrogram))
        if names != prof.node_names:
            raise ValueError("dendrogram and profile files cover different nodes")
        k = args.k if args.k is not None else 1
        labels = cut(dendro, k)
        files["dendrogram.svg"] = dendrogram_svg(dendro, names, labels)
        means = centroids(prof.vectors, labels)
        for c in range(k):
            files[f"centroid_{c}.svg"] = heatmap_svg(
                means[c], f"cluster {c} centroid ({prof.kind})"
            )
    for name in args.node or []:
        if name not in prof.node_names:
            raise ValueError(f"node {name!r} is not in the profile file")
        row = prof.node_names.index(name)
        fname = f"node_{urllib.parse.quote(name, safe='')}.svg"
        if len(fname) > 255:  # quoted names are ASCII: one byte per character
            raise ValueError(
                f"node {name!r} needs a {len(fname)}-byte file name; "
                "the limit is 255 bytes"
            )
        files[fname] = heatmap_svg(
            prof.vectors[row], f"node {name} ({prof.kind})"
        )
    if not files:
        raise ValueError("nothing to render: pass --dendrogram and/or --node")
    config = {
        "profiles": args.profiles,
        "dendrogram": args.dendrogram,
        "k": args.k,
        "nodes": list(args.node or []),
    }
    return files, config, f"wrote {len(files)} SVG file(s) to {Path(args.out)}\n"


def _load_scenario(args, read):
    if (args.scenario is None) == (args.params is None):
        raise ValueError("pass exactly one of --scenario or --params")
    if args.scenario is not None:
        return scenario_params(args.scenario), f"scenario {args.scenario}"
    return BlockHawkesParams.from_json(read("params", args.params)), args.params


def _cmd_simulate(args, read):
    params, source = _load_scenario(args, read)
    net = simulate(params, args.seed)
    files = {
        "edges.csv": edge_list_text(net.graph),
        "labels.csv": labels_csv_text(net.graph.node_names, net.labels, "block"),
        "params.json": params.to_json(),
    }
    config = {
        "source": source,
        "seed": args.seed,
        "n_nodes": params.n_nodes,
        "horizon": params.horizon,
        "events": net.graph.n_edges,
        "candidates": net.candidates,
        "stability_margin": params.stability_margin(),
    }
    text = (
        f"simulated {net.graph.n_edges} events ({net.candidates} candidates) "
        f"on {params.n_nodes} nodes (seed {args.seed})\n"
    )
    return files, config, text


def _cmd_eval(args, read):
    from .evaluation import evaluate_scenario  # loads multiprocessing: eval only

    params, source = _load_scenario(args, read)
    delta = args.delta
    if delta is None:
        if args.scenario is None:
            raise ValueError("--delta is required with --params")
        delta = SCENARIO_DELTAS[args.scenario]
    seeds = range(args.seed, args.seed + args.runs)
    summary = evaluate_scenario(
        params, delta, seeds, k=args.k, min_motifs=args.min_motifs
    )
    files = {"runs.csv": summary.runs_csv_text(), "summary.csv": summary.report()}
    config = {
        "source": source,
        "delta": delta,
        "runs": args.runs,
        "base_seed": args.seed,
        "k": args.k,
        "min_motifs": args.min_motifs,
        "events": sum(r.n_events for r in summary.runs),
        "candidates": sum(r.candidates for r in summary.runs),
    }
    return files, config, summary.report() + summary.gate_diagnostics() + "\n"


def _cmd_catalog(args, read):
    text = catalog.catalog_table_csv()
    if args.out is None:
        return {}, {}, text
    return ({"catalog.csv": text}, {},
            f"wrote catalog table to {Path(args.out) / 'catalog.csv'}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifroles",
        description="Temporal motif participation profiles and role clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count motif instances in an edge list")
    count.add_argument("--input", required=True, help="edge list CSV")
    count.add_argument("--delta", type=float, required=True, help="window length")
    count.add_argument("--ties", choices=sorted(_TIE_FLAG), default="seq",
                       help="equal-timestamp policy (default seq)")
    count.add_argument("--scc", action="store_true",
                       help="restrict to the largest strongly connected component")
    count.add_argument("--max-candidates", type=int, default=MAX_CANDIDATES,
                       help="refuse a larger candidate bound "
                            f"(default {MAX_CANDIDATES})")
    count.add_argument("--out", required=True)
    count.set_defaults(func=_cmd_count)

    profile = sub.add_parser("profile", help="build participation profiles from counts")
    profile.add_argument("--counts", required=True, help="counts CSV from `count`")
    profile.add_argument("--min-motifs", type=int, default=0,
                         help="drop nodes participating in fewer motifs")
    profile.add_argument("--positionless", action="store_true",
                         help="sum positions within each motif")
    profile.add_argument("--out", required=True)
    profile.set_defaults(func=_cmd_profile)

    clus = sub.add_parser("cluster", help="ward-cluster profiles")
    clus.add_argument("--profiles", required=True, help="profile CSV from `profile`")
    clus.add_argument("--k", type=int, required=True, help="number of flat clusters")
    clus.add_argument("--out", required=True)
    clus.set_defaults(func=_cmd_cluster)

    rend = sub.add_parser("render", help="render SVG heatmaps and dendrograms")
    rend.add_argument("--profiles", required=True)
    rend.add_argument("--dendrogram", help="dendrogram file from `cluster`")
    rend.add_argument("--k", type=int, help="clusters to color / centroids to draw")
    rend.add_argument("--node", action="append",
                      help="also render this node's profile (repeatable)")
    rend.add_argument("--out", required=True)
    rend.set_defaults(func=_cmd_render)

    sim = sub.add_parser("simulate", help="sample a block-structured network")
    sim.add_argument("--scenario", type=int, choices=(1, 2))
    sim.add_argument("--params", help="custom parameter JSON")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ev = sub.add_parser("eval", help="multi-seed block-recovery study")
    ev.add_argument("--scenario", type=int, choices=(1, 2))
    ev.add_argument("--params", help="custom parameter JSON")
    ev.add_argument("--delta", type=float,
                    help="window length (defaults to the scenario's)")
    ev.add_argument("--runs", type=int, default=10)
    ev.add_argument("--seed", type=int, default=0, help="base seed")
    ev.add_argument("--k", type=int, default=2)
    ev.add_argument("--min-motifs", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=_cmd_eval)

    cat = sub.add_parser("catalog", help="dump the motif signature table")
    cat.add_argument("--out", help="write catalog.csv here instead of stdout")
    cat.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    inputs = {}  # input name -> digest of the bytes read

    def read(name: str, path: str) -> str:
        """The text of input file `path`, less a leading byte-order mark;
        the digest of the bytes read goes into the manifest as `name`."""
        data = Path(path).read_bytes()
        inputs[name] = hashlib.sha256(data).hexdigest()
        try:
            return data.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name} file {path}: not UTF-8 at byte offset "
                             f"{exc.start} ({exc.reason})") from None

    try:
        files, config, text = args.func(args, read)
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            outputs = {}
            for name, content in files.items():
                data = content.encode("utf-8")
                (out / name).write_bytes(data)
                outputs[name] = hashlib.sha256(data).hexdigest()
            manifest = {"tool": "motifroles", "version": __version__,
                        "command": args.command, "config": config,
                        "inputs": inputs, "outputs": outputs}
            (out / "manifest.json").write_bytes(
                (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
        print(text, end="")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
