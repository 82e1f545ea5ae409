"""Exact counting of derangements, permutations, and perfect matchings on
small graphs, with machine checks of the structural statements behind the
counts (the 1/2 ratio bound, matching intersection bounds, the bipartite
extremal family, and the cycle-breaking injection that proves them)."""

from .errors import (
    BadParamsError,
    CounterexampleError,
    GraphSyntaxError,
    IsDirectedCycleError,
    NotDerangementError,
    NotHamiltonError,
    NotInImageError,
    NotOnGraphError,
    NotPerfectMatchingError,
    OutOfRangeError,
    PermatchError,
    SelfLoopError,
    TooLargeError,
)
from .graphs import (
    BipartiteGraph,
    Bipartition,
    Digraph,
    Matching,
    UndirectedGraph,
    bipartitions_over_matching,
    blowup,
    canonical_matching,
    complete_bipartite,
    complete_graph,
    construct,
    derangement_model,
    directed_cycle,
    graph_from_json_dict,
    graph_to_json_dict,
    is_perfect_matching,
    lonely_matching_ring,
    new_bipartite,
    new_digraph,
    new_graph,
    parse_graph,
    permutation_model,
    serialize_graph,
)
from .permanent import (
    log_bounds,
    permanent_naive,
    permanent_ryser,
    permanent_zero_one,
    subpermanent_sides,
)
from .counting import (
    bipartite_permutation_sum,
    count_derangements,
    count_perfect_matchings,
    count_perfect_matchings_general,
    count_permutations,
    dp_counts,
    dp_ratio,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_general,
    enumerate_permutations,
    is_directed_cycle,
    permutations_by_fixed_points,
)
from .injection import (
    ChordRecord,
    CycleDecomposition,
    HamiltonCensus,
    apply_injection,
    choose_special_vertex,
    cycle_decomposition,
    first_minimal_forward_chord,
    forward_chords,
    hamilton_census,
    hamilton_cycles,
    invert_injection,
)
from .random_models import (
    McSummary,
    ModelSpec,
    derangement_number,
    expected_counts,
    mc_dp_ratio,
    ratio_target,
    sample,
)
from .verify import (
    SurveyRecord,
    TheoremReport,
    check_bipartite_extremal,
    check_blowup_formulas,
    check_cycle_doubling,
    check_half_hitting,
    check_injection,
    check_matching_lower_bound,
    check_ratio_half,
    check_subpermanent,
    cycle_doubling_sweep,
    digraph_from_arc_index,
    format_12sig,
    knn_ratio_sum,
    scan,
)

__version__ = "0.1.0"
