"""Exact counting and extremal search for leaf-induced subtree densities.

The package answers three kinds of questions about rooted d-ary trees:

* counting: how many leaf subsets of a host tree induce a given pattern
  (exact integers, via brute force or a bottom-up pass over the host's
  distinct subtrees);
* closed forms: copy counts and limiting densities of stars and caterpillars
  in complete trees, plus the leading coefficient of the minimum count;
* extremal search: which trees minimize caterpillar counts (exhaustive scans
  and a minimum-count dynamic program), and exact checks of the
  simplex-functional bounds that govern the limiting behavior.

``import treedensity`` runs none of these modules: each module loads when one
of its names is first used, such as ``treedensity.count_copies``.
"""

__version__ = "0.1.0"

# every public name and the library module whose __all__ lists it, in the
# order of those lists, so a name is found, or refused, without loading any
# module; tests/test_source_rules.py checks this against the modules' lists
_HOME = {
    name: module
    for module, names in (
        ("counting", "induced_subtree count_copies_brute brute_copy_profile CopyEngine count_copies"
                     " density count_report caterpillar_counts combine_caterpillar_counts"),
        ("errors", "TreeDensityError ParseError PreconditionError BudgetError ConsistencyError"),
        ("formulas", "star_copies caterpillar_copies_complete limit_density_complete"
                     " liminf_density bk_coefficient bk_lower_bound limits_report"),
        ("frontier", "ParetoDP"),
        ("reporting", "SearchReport render_report"),
        ("search", "count_trees enumerate_trees enumerate_report search_min_report"
                   " verify_even_conjecture verify_monotone_min"),
        ("simplex", "simplex_point eval_F MinimizeResult minimize_F sup_boundary_scan"
                    " uniform_min_value majorization_pair muirhead_check bound_certificate"
                    " simplex_min_report simplex_certify_report simplex_sup_report"
                    " simplex_bound_sample_report simplex_muirhead_report"),
        ("trees", "Tree leaf node parse_tree read_tree is_d_ary is_strictly_d_ary"
                  " make_caterpillar make_complete make_even_binary"),
    )
    for name in names.split()
}
_MODULES = tuple(dict.fromkeys(_HOME.values()))
__all__ = [*_HOME, "__version__"]


def _load(module: str):
    # __import__, unlike importlib.import_module, is what -X importtime reports
    return getattr(__import__(f"{__name__}.{module}"), module)


def __getattr__(name: str):
    # PEP 562; nothing is cached, so a replaced module attribute is the one
    # returned. Any other name, such as the submodule cli, is refused at once,
    # and `from treedensity import cli` then imports that submodule alone.
    if name in _MODULES:
        return _load(name)
    if name in _HOME:
        return getattr(_load(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
