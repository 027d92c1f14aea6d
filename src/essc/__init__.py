"""Extraction of statistically significant communities in networks.

The detection core scores how strongly each vertex connects to a
candidate set under a degree-preserving random-graph null model, keeps
the significant vertices by false-discovery-rate control, and iterates
to a fixed point. Everything not captured by a stable community is
background. Benchmark generators and evaluation metrics round out the
package; see the ``essc`` command-line tool for end-to-end runs.
"""

from .bench import (
    BenchmarkSpec,
    GroundTruth,
    gen_configuration,
    gen_erdos_renyi,
    gen_lfr,
    gen_lfr_background,
    gen_single_embedded,
    generate,
    sample_powerlaw_degrees,
    single_embedded_theta,
)
from .detect import (
    DetectionResult,
    SearchOutcome,
    SeedRecord,
    SummaryStats,
    background_of,
    community_search,
    essc,
    read_communities,
    summarize,
    write_communities,
)
from .errors import (
    DegenerateGraphError,
    EdgeListParseError,
    EsscError,
    GenerationError,
    ParameterError,
)
from .graph import MultiGraph, VertexSet, parse_edge_list, write_edge_list
from .metrics import (
    DiscretePMF,
    best_match_score,
    binomial_pmf,
    empirical_boundary_distribution,
    gnmi_cover,
    jaccard,
    nmi_partition,
    tv_distance,
)
from .significance import (
    bh_select,
    binomial_survival,
    block_probability,
    pvalue_table,
    select_by_fdr,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "DegenerateGraphError",
    "DetectionResult",
    "DiscretePMF",
    "EdgeListParseError",
    "EsscError",
    "GenerationError",
    "GroundTruth",
    "MultiGraph",
    "ParameterError",
    "SearchOutcome",
    "SeedRecord",
    "SummaryStats",
    "VertexSet",
    "background_of",
    "best_match_score",
    "bh_select",
    "binomial_pmf",
    "binomial_survival",
    "block_probability",
    "community_search",
    "empirical_boundary_distribution",
    "essc",
    "gen_configuration",
    "gen_erdos_renyi",
    "gen_lfr",
    "gen_lfr_background",
    "gen_single_embedded",
    "generate",
    "gnmi_cover",
    "jaccard",
    "nmi_partition",
    "parse_edge_list",
    "pvalue_table",
    "read_communities",
    "sample_powerlaw_degrees",
    "select_by_fdr",
    "single_embedded_theta",
    "summarize",
    "tv_distance",
    "write_communities",
    "write_edge_list",
]
