"""Rooted trees with unordered children, kept in a canonical form.

A tree here is either a single leaf or an internal vertex with at least two
children; vertices of outdegree one never occur. Children are stored sorted
by their canonical code (shorter codes first, ties broken lexicographically),
which makes the code of a tree a complete isomorphism invariant: two Tree
objects describe isomorphic rooted trees exactly when their codes are equal.

Codes use a bracket grammar: a leaf is ``*`` and an internal vertex is
``(`` followed by the codes of its children in canonical order and ``)``.
For example ``(*(**))`` is the three-leaf tree whose root has a leaf child
and a cherry child.

The builders at the bottom construct the recurring families used elsewhere:
caterpillars (make_caterpillar), complete trees (make_complete) and the
recursively even-split binary tree (make_even_binary).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BudgetError, ParseError, PreconditionError, StructureError

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
    "DEFAULT_LEAF_CAP",
]

DEFAULT_LEAF_CAP = 10**7


def _code_key(code: str):
    # Children are ordered by length first so that small subtrees sort in
    # front of large ones regardless of bracket/star byte values.
    return (len(code), code)


class Tree:
    """Immutable rooted tree in canonical child order.

    Instances should be obtained through :func:`leaf`, :func:`node`,
    :func:`parse_tree` or one of the family builders rather than by calling
    the class directly; those entry points enforce the structural
    invariants (no outdegree-one vertices, children sorted).
    """

    __slots__ = ("children", "leaf_count", "code", "_max_out", "_min_internal_out", "_hash")

    def __init__(self, children: tuple["Tree", ...]):
        self.children = children
        if not children:
            self.leaf_count = 1
            self.code = "*"
            self._max_out = 0
            self._min_internal_out = 0  # sentinel: no internal vertex below
        else:
            self.leaf_count = sum(c.leaf_count for c in children)
            self.code = "(" + "".join(c.code for c in children) + ")"
            out = len(children)
            self._max_out = max(out, max(c._max_out for c in children))
            mins = [c._min_internal_out for c in children if c._min_internal_out]
            self._min_internal_out = min([out] + mins)
        self._hash = hash(self.code)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def outdegree(self) -> int:
        return len(self.children)

    def subtrees(self) -> Iterator["Tree"]:
        """Yield every vertex of the tree (as a subtree), root first."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Tree({self.code!r})"


_LEAF = Tree(())


def leaf() -> Tree:
    """The single-leaf tree."""
    return _LEAF


def node(children: Iterable[Tree]) -> Tree:
    """Internal vertex over the given children (two or more), canonicalized."""
    kids = tuple(sorted(children, key=lambda t: _code_key(t.code)))
    if len(kids) < 2:
        raise PreconditionError("an internal vertex needs at least two children")
    return Tree(kids)


def parse_tree(text: str) -> Tree:
    """Parse bracket notation into a canonical Tree.

    The input may list children in any order; the result is canonicalized,
    so ``parse_tree("((**)*)").code == "(*(**))"``. Raises ParseError for
    malformed text and StructureError for well-bracketed text that describes
    an invalid vertex (no children or a single child); both carry the byte
    offset of the offending character.
    """
    stack: list[list[Tree]] = []
    root: Tree | None = None
    for i, ch in enumerate(text):
        if root is not None:
            raise ParseError("trailing input after a complete tree", i)
        if ch == "(":
            stack.append([])
        elif ch == "*":
            if stack:
                stack[-1].append(_LEAF)
            else:
                root = _LEAF
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            kids = stack.pop()
            if len(kids) == 0:
                raise StructureError("internal vertex with no children", i)
            if len(kids) == 1:
                raise StructureError("internal vertex with exactly one child", i)
            t = node(kids)
            if stack:
                stack[-1].append(t)
            else:
                root = t
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if stack:
        raise ParseError("unbalanced '(': input ended inside a group", len(text))
    if root is None:
        raise ParseError("empty input", 0)
    return root


def _check_degree(d: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise PreconditionError(f"arity bound must be an integer >= 2, got {d!r}")


def is_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree between 2 and d."""
    _check_degree(d)
    return t._max_out <= d


def is_strictly_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree exactly d."""
    _check_degree(d)
    if t.is_leaf:
        return True
    return t._max_out == d and t._min_internal_out == d


def make_caterpillar(r: int, k: int) -> Tree:
    """The r-ary caterpillar with k leaves.

    Starting from a single vertex with r leaf children, each growth step
    replaces one leaf of the deepest vertex with another r-leaf vertex, so
    internal vertices form a path. Such a tree exists exactly when k == 1 or
    k >= r with k congruent to 1 modulo r - 1; anything else raises
    PreconditionError.
    """
    _check_degree(r)
    if k == 1:
        return _LEAF
    if k < r or (k - 1) % (r - 1) != 0:
        raise PreconditionError(
            f"no {r}-ary caterpillar with {k} leaves: k must be 1 or satisfy "
            f"k >= {r} and k % {r - 1} == 1"
        )
    t = Tree((_LEAF,) * r)
    pad = (_LEAF,) * (r - 1)
    for _ in range((k - r) // (r - 1)):
        t = node((t,) + pad)
    return t


def make_complete(d: int, h: int, leaf_cap: int = DEFAULT_LEAF_CAP) -> Tree:
    """The complete d-ary tree of height h (d**h leaves, all at depth h).

    Refuses with BudgetError when d**h exceeds ``leaf_cap``; children at each
    level share one Tree object, so the cap bounds leaf count as seen by
    counting routines, not memory.
    """
    _check_degree(d)
    if h < 0:
        raise PreconditionError(f"height must be >= 0, got {h}")
    n = d**h
    if n > leaf_cap:
        raise BudgetError(
            f"complete tree would have {n} leaves, above the cap of {leaf_cap}"
        )
    t = _LEAF
    for _ in range(h):
        t = Tree((t,) * d)
    return t


def make_even_binary(n: int) -> Tree:
    """The n-leaf binary tree that splits as evenly as possible at every vertex.

    The root separates the leaves into ceil(n/2) and floor(n/2), and both
    branches are themselves even-split trees. For n a power of two this is
    the complete binary tree.
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"leaf count must be an integer >= 1, got {n!r}")
    # halving n yields at most two sizes per level, so 2 log2(n) in all
    sizes = set()
    level = {n}
    while level:
        sizes |= level
        level = {h for s in level if s > 1 for h in ((s + 1) // 2, s // 2)}
    built: dict[int, Tree] = {}
    for s in sorted(sizes):
        built[s] = _LEAF if s == 1 else node([built[(s + 1) // 2], built[s // 2]])
    return built[n]
