"""Exact counting of derangements, permutations, and perfect matchings on
small graphs, with machine checks of the structural statements behind the
counts (the 1/2 ratio bound, matching intersection bounds, the bipartite
extremal family, and the cycle-breaking injection that proves them)."""

from .errors import (
    BadParamsError,
    CounterexampleError,
    GraphSyntaxError,
    NotDerangementError,
    NotInImageError,
    NotOnGraphError,
    OutOfRangeError,
    PermatchError,
    SelfLoopError,
    TooLargeError,
)
from .graphs import (
    BipartiteGraph,
    Digraph,
    Matching,
    UndirectedGraph,
    blowup,
    canonical_matching,
    complete_bipartite,
    complete_graph,
    directed_cycle,
    graph_from_json_dict,
    graph_to_json_dict,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    parse_graph,
    serialize_graph,
)
from .permanent import (
    permanent_ryser,
    permanent_zero_one,
    subpermanent_sides,
)
from .counting import (
    count_derangements,
    count_perfect_matchings,
    count_perfect_matchings_general,
    count_permutations,
    dp_counts,
    dp_counts_many,
    dp_ratio,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    is_directed_cycle,
    permutations_by_fixed_points,
)
from .injection import (
    HamiltonCensus,
    apply_injection,
    hamilton_census,
    invert_injection,
)
from .random_models import (
    ModelSpec,
    expected_counts,
    ratio_target,
)
from .verify import (
    TheoremReport,
    check_bipartite_extremal,
    check_blowup_formulas,
    check_cycle_doubling,
    check_half_hitting,
    check_injection,
    check_matching_lower_bound,
    check_ratio_half,
    check_subpermanent,
    digraph_from_arc_index,
    format_12sig,
    knn_ratio_sum,
    mc_dp_ratio,
    scan,
)

__version__ = "0.1.0"
