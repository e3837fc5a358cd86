"""Exact counting and extremal search for leaf-induced subtree densities.

The package answers three kinds of questions about rooted d-ary trees:

* counting: how many leaf subsets of a host tree induce a given pattern
  (exact integers, via brute force or a memoized branch recursion);
* closed forms: copy counts and limiting densities of stars and caterpillars
  in complete trees, plus the leading coefficient of the minimum count;
* extremal search: which trees minimize caterpillar counts (exhaustive scans
  and a Pareto-frontier dynamic program), and numerical verification of the
  simplex-functional bounds that govern the limiting behavior.
"""

from .counting import (
    CopyEngine,
    CountVector,
    brute_copy_profile,
    caterpillar_counts,
    combine_caterpillar_counts,
    count_copies,
    count_copies_brute,
    count_report,
    density,
    induced_subtree,
)
from .errors import (
    BudgetError,
    CacheError,
    ConsistencyError,
    ParseError,
    PreconditionError,
    SingularityError,
    StructureError,
    TreeDensityError,
)
from .formulas import (
    bk_coefficient,
    bk_lower_bound,
    caterpillar_copies_complete,
    liminf_density,
    limit_density_complete,
    limits_report,
    star_copies,
)
from .frontier import FrontierEntry, ParetoDP, ParetoFrontiers, cache_report, pareto_min_counts
from .reporting import SearchReport, render_report
from .search import (
    count_trees,
    enumerate_report,
    enumerate_trees,
    search_min_report,
    verify_even_conjecture,
    verify_monotone_min,
)
from .simplex import (
    MinimizeResult,
    SimplexPoint,
    eval_F,
    minimize_F,
    muirhead_check,
    majorization_pair,
    simplex_bound_sample_report,
    simplex_min_report,
    simplex_muirhead_report,
    simplex_point,
    simplex_sup_report,
    sup_boundary_scan,
    uniform_min_value,
)
from .trees import (
    Tree,
    is_d_ary,
    is_strictly_d_ary,
    leaf,
    make_caterpillar,
    make_complete,
    make_even_binary,
    node,
    parse_tree,
)

__version__ = "0.1.0"

__all__ = [
    "Tree",
    "leaf",
    "node",
    "parse_tree",
    "is_d_ary",
    "is_strictly_d_ary",
    "make_caterpillar",
    "make_complete",
    "make_even_binary",
    "induced_subtree",
    "count_copies",
    "count_copies_brute",
    "brute_copy_profile",
    "density",
    "count_report",
    "caterpillar_counts",
    "combine_caterpillar_counts",
    "CopyEngine",
    "CountVector",
    "star_copies",
    "caterpillar_copies_complete",
    "limit_density_complete",
    "liminf_density",
    "bk_coefficient",
    "bk_lower_bound",
    "limits_report",
    "count_trees",
    "enumerate_trees",
    "enumerate_report",
    "search_min_report",
    "verify_even_conjecture",
    "verify_monotone_min",
    "FrontierEntry",
    "ParetoDP",
    "ParetoFrontiers",
    "pareto_min_counts",
    "cache_report",
    "SimplexPoint",
    "simplex_point",
    "eval_F",
    "minimize_F",
    "MinimizeResult",
    "sup_boundary_scan",
    "uniform_min_value",
    "muirhead_check",
    "majorization_pair",
    "simplex_min_report",
    "simplex_sup_report",
    "simplex_bound_sample_report",
    "simplex_muirhead_report",
    "SearchReport",
    "render_report",
    "TreeDensityError",
    "ParseError",
    "StructureError",
    "PreconditionError",
    "BudgetError",
    "SingularityError",
    "CacheError",
    "ConsistencyError",
    "__version__",
]
