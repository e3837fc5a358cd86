"""Precondition messages: one call per integer check, text pinned."""

import pytest

from treedensity import (
    ParetoDP,
    PreconditionError,
    bk_lower_bound,
    caterpillar_copies_complete,
    count_trees,
    is_d_ary,
    leaf,
    liminf_density,
    make_even_binary,
    search_min_report,
    star_copies,
    verify_even_conjecture,
    verify_monotone_min,
)
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
    _case("verify_even_conjecture-k", lambda: verify_even_conjecture(2, 5),
          "caterpillar size must be an integer >= 3, got 2"),
    _case("verify_monotone_min-k", lambda: verify_monotone_min(2, 2.5, 5),
          "caterpillar size must be an integer >= 3, got 2.5"),
    _case("is_d_ary-d", lambda: is_d_ary(leaf(), 1),
          "arity bound must be an integer >= 2, got 1"),
    _case("make_even_binary-n", lambda: make_even_binary(0),
          "leaf count must be an integer >= 1, got 0"),
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
