"""Exact counting and extremal search for leaf-induced subtree densities.

The package answers three kinds of questions about rooted d-ary trees:

* counting: how many leaf subsets of a host tree induce a given pattern
  (exact integers, via brute force or a bottom-up pass over the host's
  distinct subtrees);
* closed forms: copy counts and limiting densities of stars and caterpillars
  in complete trees, plus the leading coefficient of the minimum count;
* extremal search: which trees minimize caterpillar counts (exhaustive scans
  and a minimum-count dynamic program), and numerical verification of the
  simplex-functional bounds that govern the limiting behavior.
"""

from . import counting, errors, formulas, frontier, reporting, search, simplex, trees
from .counting import *
from .errors import *
from .formulas import *
from .frontier import *
from .reporting import *
from .search import *
from .simplex import *
from .trees import *

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
__all__ = [
    *counting.__all__,
    *errors.__all__,
    *formulas.__all__,
    *frontier.__all__,
    *reporting.__all__,
    *search.__all__,
    *simplex.__all__,
    *trees.__all__,
    "__version__",
]
