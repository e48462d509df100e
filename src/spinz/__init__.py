"""spinz: exact partition functions of weighted spin systems on graphs,
complete-bipartite upper bounds, and a randomized blow-up lab."""

from .util import ParseError
from .values import Backend, NonNegValue, PowerProduct, compare_product
from .graphs import (
    Bipartition,
    BiregularCert,
    Graph,
    GraphError,
    GraphParseError,
    NotBipartiteError,
    NotBiregularError,
    bipartition,
    certify_biregular,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hypercube_graph,
    parse_graph,
    path_graph,
)
from .weights import (
    WeightError,
    WeightParseError,
    WeightSystem,
    make_hardcore,
    make_ising,
    parse_weights,
)
from .counting import (
    DEFAULT_BUDGET,
    BudgetError,
    CoverFamilyPair,
    ListAssignment,
    count_list_homs,
    independent_set_count,
    parse_cover_family,
    parse_lists,
    partition_function,
    weight_of,
)
from .bounds import (
    BOUND_NAMES,
    BoundReport,
    FreeEnergyReport,
    Verdict,
    cover_family_report,
    cover_family_value,
    edge_restriction_bound,
    independent_set_edge_bound,
    independent_set_regular_bound,
    ising_free_energy_check,
    list_edge_restriction_bound,
    list_vertex_restriction_bound,
    vertex_restriction_bound,
)
from .blowup import (
    BlowupHost,
    BlowupStats,
    build_blowup_host,
    concentration_experiment,
    count_block_homs,
    sample_subgraph,
    scale_edge_weights,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    canonical_form,
    enumerate_graphs,
    parse_campaign_config,
    recheck_witness,
    run_campaign,
    sample_list_assignment,
    sample_target_graph,
    sample_weights,
)

__version__ = "0.1.0"
