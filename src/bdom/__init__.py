"""Domination and broadcast-domination invariants of finite simple graphs.

Exact solvers, closed-form evaluators for the published formulas, and a
structural classifier for diametrical trees, each cross-checkable against
the others.
"""

from .broadcasts import (
    Broadcast,
    cost,
    is_dominating,
    is_dominating_set,
    is_minimal_dominating_broadcast,
    is_minimal_dominating_set,
)
from .diametrical import (
    Limb,
    LimbDecomposition,
    Verdict,
    Violation,
    check_spacing,
    classify_tree,
    decompose,
    is_diametrical_exact,
    longest_path,
)
from .errors import CapabilityError, InputError
from .graphs import (
    Graph,
    LobsterSpec,
    Metrics,
    UNREACHABLE,
    build_graph,
    gen_cycle,
    gen_grid,
    gen_lobster,
    gen_path,
    gen_star,
    gen_torus,
    graph_from_json,
    graph_to_json,
    is_connected,
    metrics,
    parse_edge_list,
    serialize,
)
from .solvers import (
    InvariantReport,
    beats_diameter,
    solve_gamma,
    solve_gamma_b,
    solve_upper_gamma,
    solve_upper_gamma_b,
)
from .trees import (
    canonical_form,
    enumerate_trees,
    is_tree,
    prufer_to_graph,
    random_tree,
    tree_centers,
)

__version__ = "0.1.0"
