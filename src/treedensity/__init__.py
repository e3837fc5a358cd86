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

``import treedensity`` runs none of these modules: each module loads when one
of its names is first used, such as ``treedensity.count_copies``.
"""

__version__ = "0.1.0"

# each public name is in one module's __all__; __all__ joins them in this order
_MODULES = ("counting", "errors", "formulas", "frontier", "reporting", "search", "simplex", "trees")


def _load(module: str):
    # __import__, unlike importlib.import_module, is what -X importtime reports
    return getattr(__import__(f"{__name__}.{module}"), module)


def __getattr__(name: str):
    # PEP 562; nothing is cached, so a replaced module attribute is the one returned
    if name == "__all__":
        return [n for m in _MODULES for n in _load(m).__all__] + ["__version__"]
    if name in _MODULES:
        return _load(name)
    for module in map(_load, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
