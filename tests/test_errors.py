"""Precondition messages: one call per integer check, text pinned."""

import pytest

from treedensity import (
    ParetoDP,
    PreconditionError,
    bk_lower_bound,
    brute_copy_profile,
    caterpillar_copies_complete,
    caterpillar_counts,
    combine_caterpillar_counts,
    count_trees,
    enumerate_trees,
    eval_F,
    induced_subtree,
    is_d_ary,
    leaf,
    limit_density_complete,
    liminf_density,
    majorization_pair,
    make_caterpillar,
    make_complete,
    make_even_binary,
    minimize_F,
    parse_tree,
    search_min_report,
    simplex_bound_sample_report,
    simplex_muirhead_report,
    simplex_sup_report,
    star_copies,
    sup_boundary_scan,
    uniform_min_value,
    verify_even_conjecture,
    verify_monotone_min,
)
from treedensity import errors
from treedensity.errors import require_int


def _case(site, call, message):
    return pytest.param(call, message, id=site)


# (call, exact message) for each integer precondition in the package
_INTEGER_CHECKS = [
    _case("star_copies-r", lambda: star_copies(1, 3, 2),
          "pattern arity must be an integer >= 2, got 1"),
    _case("star_copies-d", lambda: star_copies(3, 2.0, 2),
          "host arity must be an integer >= 3, got 2.0"),
    _case("star_copies-h", lambda: star_copies(2, 2, -1),
          "height must be an integer >= 0, got -1"),
    _case("caterpillar_copies_complete-h", lambda: caterpillar_copies_complete(2, 3, 2, 0),
          "height must be an integer >= 1, got 0"),
    _case("liminf_density-k", lambda: liminf_density(2, "4"),
          "caterpillar size must be an integer >= 2, got '4'"),
    _case("bk_lower_bound-n", lambda: bk_lower_bound(2, 3, -1),
          "leaf count must be an integer >= 0, got -1"),
    _case("ParetoDP-k", lambda: ParetoDP(2),
          "caterpillar size must be an integer >= 3, got 2"),
    _case("ParetoDP-d", lambda: ParetoDP(3, 1),
          "arity bound must be an integer >= 2, got 1"),
    _case("ParetoDP.run-n_max", lambda: ParetoDP(3).run(0),
          "n_max must be an integer >= 1, got 0"),
    _case("count_trees-n", lambda: count_trees(0, 2),
          "leaf count must be an integer >= 1, got 0"),
    _case("count_trees-d", lambda: count_trees(3, None),
          "arity bound must be an integer >= 2, got None"),
    _case("search_min_report-k", lambda: search_min_report(2, 1, 2, 3),
          "caterpillar size must be an integer >= 2, got 1"),
    _case("search_min_report-n_min", lambda: search_min_report(2, 4, 3, 10),
          "n_min must be an integer >= 4, got 3"),
    _case("search_min_report-n_min-float", lambda: search_min_report(2, 4, 4.5, 10),
          "n_min must be an integer >= 4, got 4.5"),
    _case("search_min_report-max_trees-exhaustive",
          lambda: search_min_report(2, 4, 4, 10, method="exhaustive", max_trees=-1),
          "max_trees must be an integer >= 1, got -1"),
    _case("search_min_report-max_trees-pareto",
          lambda: search_min_report(2, 4, 4, 10, method="pareto", max_trees=0),
          "max_trees must be an integer >= 1, got 0"),
    _case("enumerate_trees-max_trees", lambda: enumerate_trees(5, 2, max_trees=-1),
          "max_trees must be an integer >= 1, got -1"),
    _case("verify_even_conjecture-k", lambda: verify_even_conjecture(2, 5),
          "caterpillar size must be an integer >= 3, got 2"),
    _case("verify_even_conjecture-n_max", lambda: verify_even_conjecture(4, 3),
          "n_max must be an integer >= 4, got 3"),
    _case("verify_even_conjecture-n_max-float", lambda: verify_even_conjecture(4, 9.0),
          "n_max must be an integer >= 4, got 9.0"),
    _case("verify_monotone_min-k", lambda: verify_monotone_min(2, 2.5, 5),
          "caterpillar size must be an integer >= 3, got 2.5"),
    _case("verify_monotone_min-n_max", lambda: verify_monotone_min(2, 5, None),
          "n_max must be an integer >= 5, got None"),
    _case("is_d_ary-d", lambda: is_d_ary(leaf(), 1),
          "arity bound must be an integer >= 2, got 1"),
    _case("make_even_binary-n", lambda: make_even_binary(0),
          "leaf count must be an integer >= 1, got 0"),
    _case("make_complete-h", lambda: make_complete(2, -1),
          "height must be an integer >= 0, got -1"),
    _case("caterpillar_counts-k", lambda: caterpillar_counts(leaf(), 1),
          "caterpillar size must be an integer >= 2, got 1"),
    _case("combine_caterpillar_counts-k",
          lambda: combine_caterpillar_counts([(1, ()), (1, ())], 1),
          "caterpillar size must be an integer >= 2, got 1"),
    _case("brute_copy_profile-k", lambda: brute_copy_profile(leaf(), 0),
          "subset size must be an integer >= 1, got 0"),
    _case("eval_F-d", lambda: eval_F(2.0, 3, (1, 0)),
          "arity bound must be an integer >= 2, got 2.0"),
    _case("eval_F-k", lambda: eval_F(2, 1.5, (1, 0)),
          "caterpillar size must be an integer >= 2, got 1.5"),
    _case("uniform_min_value-d", lambda: uniform_min_value(1, 3),
          "arity bound must be an integer >= 2, got 1"),
    _case("uniform_min_value-k", lambda: uniform_min_value(2, 1),
          "caterpillar size must be an integer >= 2, got 1"),
    _case("sup_boundary_scan-d", lambda: sup_boundary_scan(1, 4, [1]),
          "arity bound must be an integer >= 2, got 1"),
    _case("minimize_F-d", lambda: minimize_F(1, 3),
          "arity bound must be an integer >= 2, got 1"),
    _case("minimize_F-k", lambda: minimize_F(2, 2),
          "caterpillar size must be an integer >= 3, got 2"),
    _case("minimize_F-starts", lambda: minimize_F(3, 4, starts=0),
          "starts must be an integer >= 1, got 0"),
    _case("minimize_F-starts-float", lambda: minimize_F(3, 4, starts=2.5),
          "starts must be an integer >= 1, got 2.5"),
    _case("minimize_F-budget", lambda: minimize_F(3, 4, starts=8, budget=10),
          "budget must be an integer >= 36, got 10"),
    # a verdict over zero checks would pass vacuously
    _case("simplex_sup_report-eps_steps", lambda: simplex_sup_report(3, 4, 2.5),
          "--eps-steps must be an integer >= 1, got 2.5"),
    _case("simplex_bound_sample_report-samples",
          lambda: simplex_bound_sample_report(3, 4, samples=2.5),
          "--samples must be an integer >= 1, got 2.5"),
    _case("simplex_muirhead_report-samples", lambda: simplex_muirhead_report(3, 4, samples=2.5),
          "--samples must be an integer >= 1, got 2.5"),
    _case("majorization_pair-negative", lambda: majorization_pair((3, -1), (1, 1)),
          "exponent must be an integer >= 0, got -1"),
    _case("majorization_pair-float", lambda: majorization_pair((1.5, 0.5), (1, 1)),
          "exponent must be an integer >= 0, got 1.5"),
    _case("induced_subtree-float", lambda: induced_subtree(parse_tree("(*(**))"), [0.5, 2.5]),
          "leaf index must be an integer >= 0, got 0.5"),
    # one rule, in trees.caterpillar_spine, says which caterpillar sizes exist
    _case("make_caterpillar-r2", lambda: make_caterpillar(2, 0),
          "no 2-ary caterpillar with 0 leaves (need k >= 2 and (k - 1) % 1 == 0)"),
    _case("make_caterpillar-r3", lambda: make_caterpillar(3, 4),
          "no 3-ary caterpillar with 4 leaves (need k >= 3 and (k - 1) % 2 == 0)"),
    _case("limit_density_complete-r2", lambda: limit_density_complete(2, 1, 2),
          "no 2-ary caterpillar with 1 leaves (need k >= 2 and (k - 1) % 1 == 0)"),
    _case("caterpillar_copies_complete-r3", lambda: caterpillar_copies_complete(3, 6, 3, 2),
          "no 3-ary caterpillar with 6 leaves (need k >= 3 and (k - 1) % 2 == 0)"),
]


@pytest.mark.parametrize("call, message", _INTEGER_CHECKS)
def test_integer_precondition_messages(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


def test_require_int_passes_values_at_or_above_the_minimum():
    require_int(3, 3, "x")
    require_int(10**30, 0, "x")
    with pytest.raises(PreconditionError, match=r"^x must be an integer >= 3, got 3\.0$"):
        require_int(3.0, 3, "x")


def test_each_error_class_falls_under_one_exit_code():
    # cli.main catches ConsistencyError for exit 1, PreconditionError for 2
    # and BudgetError for 3, so every error class of the package must derive
    # from exactly one of them
    exits = (errors.ConsistencyError, errors.PreconditionError, errors.BudgetError)
    classes = [getattr(errors, name) for name in errors.__all__]
    for cls in classes:
        if cls is not errors.TreeDensityError:
            assert sum(issubclass(cls, e) for e in exits) == 1, cls.__name__
