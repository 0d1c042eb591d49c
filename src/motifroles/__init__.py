"""Role analysis of directed continuous-time networks.

The toolkit counts short ordered-edge motifs inside a sliding time
window, records which position each node occupies in every instance,
normalizes the per-node counts into participation profiles, and
clusters the profiles to recover node roles. A block-structured
self-exciting simulator with known ground truth closes the loop.
"""

from .catalog import (
    MotifId,
    catalog_table,
    catalog_table_csv,
    motif_catalog,
    motif_of_signature,
    signature_of,
)
from .cluster import (
    Dendrogram,
    FlatClustering,
    Merge,
    centroids,
    cut,
    parse_dendrogram,
    permutation_accuracy,
    serialize_dendrogram,
    ward_linkage,
)
from .counting import (
    PositionCountMatrix,
    brute_force_count,
    classify_triple,
    count_motifs,
    read_count_csv,
)
from .graph import (
    TemporalEdge,
    TemporalGraph,
    edge_list_text,
    filter_nodes,
    largest_scc,
    parse_edge_list,
)
from .hawkes import (
    BlockHawkesParams,
    Excitation,
    SimulatedNetwork,
    intensity,
    read_params,
    scenario_delta,
    scenario_params,
    simulate,
)
from .profiles import (
    ProfileMatrix,
    build_positioned,
    build_positionless,
    read_profile_csv,
)
from .render import dendrogram_svg, heatmap_svg

__version__ = "0.1.0"

__all__ = [
    "BlockHawkesParams",
    "Dendrogram",
    "EvalSummary",
    "Excitation",
    "FlatClustering",
    "Merge",
    "MotifId",
    "PositionCountMatrix",
    "ProfileMatrix",
    "RunResult",
    "SimulatedNetwork",
    "TemporalEdge",
    "TemporalGraph",
    "brute_force_count",
    "build_positioned",
    "build_positionless",
    "catalog_table",
    "catalog_table_csv",
    "centroids",
    "classify_triple",
    "count_motifs",
    "cut",
    "dendrogram_svg",
    "edge_list_text",
    "evaluate_run",
    "evaluate_scenario",
    "filter_nodes",
    "heatmap_svg",
    "intensity",
    "largest_scc",
    "motif_catalog",
    "motif_of_signature",
    "parse_dendrogram",
    "parse_edge_list",
    "permutation_accuracy",
    "read_count_csv",
    "read_params",
    "read_profile_csv",
    "scenario_delta",
    "scenario_params",
    "serialize_dendrogram",
    "signature_of",
    "simulate",
    "ward_linkage",
]


def __getattr__(name):
    # evaluation loads multiprocessing, which only `eval` needs, so it is
    # imported on first use
    if name in ("EvalSummary", "RunResult", "evaluate_run", "evaluate_scenario"):
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
