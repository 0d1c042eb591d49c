"""Command-line pipeline: count, profile, cluster, render, simulate, eval.

Every subcommand validates its inputs, writes its outputs plus a
manifest.json into --out, and is reproducible: identical configuration
and inputs give byte-identical outputs. Exit codes: 0 success, 1
validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import urllib.parse
from pathlib import Path

from . import __version__, catalog
from .cluster import (
    cut,
    centroids,
    parse_dendrogram,
    serialize_dendrogram,
    ward_linkage,
    write_labels_csv,
)
from .counting import _check_delta, count_motifs, read_count_csv
from .evaluation import evaluate_scenario
from .graph import aggregate_static, filter_nodes, largest_scc, parse_edge_list, write_edge_list
from .hawkes import (
    read_params,
    scenario_delta,
    scenario_params,
    simulate,
    write_params,
)
from .profiles import build_positioned, build_positionless, read_profile_csv
from .render import dendrogram_svg, heatmap_svg

_TIE_FLAG = {"seq": "seq-order", "exclude": "exclude-ties"}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> None:
    outputs = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        outputs[p.name] = _sha256(p)
    manifest = {
        "tool": "motifroles",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {name: _sha256(Path(path)) for name, path in inputs.items()},
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _prepare_out(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_count(args) -> None:
    delta = _check_delta(args.delta)
    tie_policy = _TIE_FLAG[args.ties]
    out = _prepare_out(args.out)
    graph = parse_edge_list(args.input)
    scc_kept = None
    if args.scc:
        component = largest_scc(aggregate_static(graph))
        scc_kept = sorted(graph.node_names[i] for i in component)
        graph = filter_nodes(graph, component)
    counts = count_motifs(graph, delta, tie_policy)
    counts.write_csv(out / "counts.csv")
    counts.write_motif_totals_csv(out / "motif_totals.csv")
    config = {
        "input": args.input,
        "delta": delta,
        "ties": tie_policy,
        "scc": bool(args.scc),
        "scc_nodes": scc_kept,
        "candidate_triples": counts.candidates,
    }
    _write_manifest(out, "count", config, {"edges": args.input})
    print(f"counted {counts.total_instances()} motif instances "
          f"({counts.candidates} candidate triples) over "
          f"{graph.n_edges} edges, {graph.n_nodes} nodes (delta={delta:g})")
    print("instances by motif cell (rows 1-6, columns 1-6):")
    grid = counts.motif_totals.reshape(6, 6)
    print("      " + "".join(f"c{c + 1:<9}" for c in range(6)))
    for r in range(6):
        print(f"  r{r + 1}  " + "".join(f"{int(v):<10}" for v in grid[r]))


def _cmd_profile(args) -> None:
    if args.min_motifs < 0:
        raise ValueError(f"--min-motifs must be non-negative, got {args.min_motifs}")
    out = _prepare_out(args.out)
    counts = read_count_csv(args.counts)
    builder = build_positionless if args.positionless else build_positioned
    prof = builder(counts, min_motifs=args.min_motifs)
    if prof.n_profiled == 0:
        raise ValueError("no node passes the participation filter")
    prof.write_csv(out / "profiles.csv")
    prof.write_dropped_csv(out / "dropped.csv")
    config = {
        "counts": args.counts,
        "min_motifs": args.min_motifs,
        "kind": prof.kind,
    }
    _write_manifest(out, "profile", config, {"counts": args.counts})
    print(f"profiled {prof.n_profiled} nodes ({prof.kind}); dropped {len(prof.dropped)}")


def _cmd_cluster(args) -> None:
    out = _prepare_out(args.out)
    prof = read_profile_csv(args.profiles)
    if args.k < 1 or args.k > max(prof.n_profiled, 1):
        raise ValueError(
            f"--k must be in 1..{prof.n_profiled} for {prof.n_profiled} profiled nodes"
        )
    dendro = ward_linkage(prof)
    clustering = cut(dendro, args.k)
    (out / "dendrogram.txt").write_text(
        serialize_dendrogram(dendro, prof.node_names), encoding="utf-8"
    )
    write_labels_csv(prof.node_names, clustering, out / "clusters.csv", "cluster")
    config = {"profiles": args.profiles, "k": args.k, "kind": prof.kind}
    _write_manifest(out, "cluster", config, {"profiles": args.profiles})
    sizes = ", ".join(str(int(s)) for s in clustering.sizes())
    print(f"cut {prof.n_profiled} profiles into k={args.k} clusters (sizes {sizes})")


def _cmd_render(args) -> None:
    out = _prepare_out(args.out)
    prof = read_profile_csv(args.profiles)
    inputs = {"profiles": args.profiles}
    wrote = []
    if args.dendrogram:
        dendro, names = parse_dendrogram(
            Path(args.dendrogram).read_text(encoding="utf-8")
        )
        if names != prof.node_names:
            raise ValueError("dendrogram and profile files cover different nodes")
        k = args.k if args.k is not None else 1
        if k < 1 or k > dendro.n_leaves:
            raise ValueError(f"--k must be in 1..{dendro.n_leaves}")
        (out / "dendrogram.svg").write_text(
            dendrogram_svg(dendro, names, k_highlight=k), encoding="utf-8"
        )
        wrote.append("dendrogram.svg")
        clustering = cut(dendro, k)
        means = centroids(prof, clustering)
        for c in range(k):
            svg = heatmap_svg(
                means[c], prof.kind, f"cluster {c} centroid ({prof.kind})"
            )
            (out / f"centroid_{c}.svg").write_text(svg, encoding="utf-8")
            wrote.append(f"centroid_{c}.svg")
        inputs["dendrogram"] = args.dendrogram
    for name in args.node or []:
        if name not in prof.node_names:
            raise ValueError(f"node {name!r} is not in the profile file")
        row = prof.node_names.index(name)
        svg = heatmap_svg(prof.vectors[row], prof.kind, f"node {name} ({prof.kind})")
        fname = f"node_{urllib.parse.quote(name, safe='')}.svg"
        (out / fname).write_text(svg, encoding="utf-8")
        wrote.append(fname)
    if not wrote:
        raise ValueError("nothing to render: pass --dendrogram and/or --node")
    config = {
        "profiles": args.profiles,
        "dendrogram": args.dendrogram,
        "k": args.k,
        "nodes": list(args.node or []),
    }
    _write_manifest(out, "render", config, inputs)
    print(f"wrote {len(wrote)} SVG file(s) to {out}")


def _load_scenario(args):
    if (args.scenario is None) == (args.params is None):
        raise ValueError("pass exactly one of --scenario or --params")
    if args.scenario is not None:
        return scenario_params(args.scenario), f"scenario {args.scenario}"
    return read_params(args.params), args.params


def _cmd_simulate(args) -> None:
    out = _prepare_out(args.out)
    params, source = _load_scenario(args)
    if args.emit_params:
        write_params(params, args.emit_params)
    net = simulate(params, args.seed)
    write_edge_list(net.graph, out / "edges.csv")
    write_labels_csv(net.graph.node_names, net.labels, out / "labels.csv", "block")
    config = {
        "source": source,
        "seed": args.seed,
        "n_nodes": params.n_nodes,
        "horizon": params.horizon,
    }
    inputs = {} if args.params is None else {"params": args.params}
    _write_manifest(out, "simulate", config, inputs)
    print(f"simulated {net.graph.n_edges} events on {params.n_nodes} nodes (seed {args.seed})")


def _cmd_eval(args) -> None:
    delta = (
        _check_delta(args.delta)
        if args.delta is not None
        else (scenario_delta(args.scenario) if args.scenario is not None else None)
    )
    if delta is None:
        raise ValueError("--delta is required with --params")
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    if args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")
    if args.min_motifs < 0:
        raise ValueError(f"--min-motifs must be non-negative, got {args.min_motifs}")
    out = _prepare_out(args.out)
    params, source = _load_scenario(args)
    seeds = range(args.seed, args.seed + args.runs)
    summary = evaluate_scenario(
        params, delta, seeds, k=args.k, min_motifs=args.min_motifs
    )
    summary.write_runs_csv(out / "runs.csv")
    (out / "summary.csv").write_text(summary.report(), encoding="utf-8")
    config = {
        "source": source,
        "delta": delta,
        "runs": args.runs,
        "base_seed": args.seed,
        "k": args.k,
        "min_motifs": args.min_motifs,
    }
    inputs = {} if args.params is None else {"params": args.params}
    _write_manifest(out, "eval", config, inputs)
    print(summary.report(), end="")


def _cmd_catalog(args) -> None:
    text = catalog.catalog_table_csv()
    if args.out:
        out = _prepare_out(args.out)
        (out / "catalog.csv").write_text(text, encoding="utf-8")
        _write_manifest(out, "catalog", {}, {})
        print(f"wrote catalog table to {out / 'catalog.csv'}")
    else:
        print(text, end="")


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
    sim.add_argument("--emit-params", help="also write the resolved parameters here")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
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
