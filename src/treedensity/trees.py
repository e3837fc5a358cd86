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

Every builder closes a vertex the same way: it sorts the children's
(length, code, tree) items, joins their codes once and hands both to the
constructor, so no key function runs per child. :func:`join_codes` closes a
vertex from its children's codes alone, in the same order. A builder keeps
a dict of the codes it has built, local to the call, and returns the same
object for a repeated shape; nothing is kept between calls, and equality and
hashing go by code, so trees from different calls compare as before.

The builders at the bottom construct the recurring families used elsewhere:
caterpillars (make_caterpillar), complete trees (make_complete) and the
recursively even-split binary tree (make_even_binary).
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import BudgetError, ParseError, PreconditionError, StructureError, require_int

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
]

# the most leaves make_complete, make_even_binary and make_caterpillar build
LEAF_CAP = 10**7
# the most code characters make_caterpillar builds (r = 2, k = 12,001 needs
# 2.16 * 10^8) and the most parse_tree builds for a text's vertices
CATERPILLAR_CODE_CAP = 25 * 10**7
_LEAF_COUNT = attrgetter("leaf_count")


class Tree:
    """Immutable rooted tree in canonical child order.

    Instances should be obtained through :func:`leaf`, :func:`node`,
    :func:`parse_tree` or one of the family builders rather than by calling
    the class directly; those entry points enforce the structural
    invariants (no outdegree-one vertices, children sorted) and pass the
    vertex's code, which the constructor stores unchecked.
    """

    __slots__ = ("children", "leaf_count", "code")

    def __init__(self, children: tuple["Tree", ...], code: str):
        self.children = children
        self.code = code
        self.leaf_count = sum(map(_LEAF_COUNT, children)) or 1  # 0 only for a leaf

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def outdegree(self) -> int:
        return len(self.children)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)  # a str caches its hash

    def __repr__(self) -> str:
        return f"Tree({self.code!r})"


_LEAF = Tree((), "*")
_LEAF_ITEM = (1, "*", _LEAF)
_CODE = itemgetter(1)
_TREE = itemgetter(2)


def _vertex(items: list[tuple[int, str, Tree]], built: dict) -> tuple[int, str, Tree]:
    """The (len(code), code, tree) item of the internal vertex over the
    children's items, taken from ``built`` when its code is there already.

    Sorting the items puts the children in canonical order: shorter codes
    first, so small subtrees lead whatever the byte values of brackets and
    stars, ties broken by the code. The sort runs in C with no key function;
    items with equal codes compare equal, since their trees are one object
    or equal by code, so Tree needs no ordering.
    """
    items.sort()
    code = "(" + "".join(map(_CODE, items)) + ")"
    item = built.get(code)
    if item is None:
        item = built[code] = (len(code), code, Tree(tuple(map(_TREE, items)), code))
    return item


def leaf() -> Tree:
    """The single-leaf tree."""
    return _LEAF


def node(children: Iterable[Tree]) -> Tree:
    """Internal vertex over the given children (two or more), canonicalized."""
    items = [(len(c.code), c.code, c) for c in children]
    if len(items) < 2:
        raise PreconditionError("an internal vertex needs at least two children")
    return _vertex(items, {})[2]


def parse_tree(text: str) -> Tree:
    """Parse bracket notation into a canonical Tree.

    The input may list children in any order; the result is canonicalized,
    so ``parse_tree("((**)*)").code == "(*(**))"``. Raises ParseError for
    malformed text and StructureError for well-bracketed text that describes
    an invalid vertex (no children or a single child); both carry the byte
    offset of the offending character.

    One pass over the text closes each vertex by sorting its children's
    (length, code, tree) items and joining their codes once. Within one call
    equal subtrees are one object: a dict local to the call maps each code to
    its item, so a repeated shape is built once. Nothing outlives the call,
    and trees from different calls are still equal exactly when their codes
    are.

    Each vertex's code is a string of its own, so every character of the
    text is held once by each vertex open around it, and the codes together
    grow as the square of the depth. The pass adds up those counts as it
    reads and refuses with BudgetError, before closing the next vertex, once
    the sum exceeds :data:`CATERPILLAR_CODE_CAP`.
    """
    built: dict[str, tuple[int, str, Tree]] = {}
    stack: list[list[tuple[int, str, Tree]]] = []
    root = None
    chars = 0
    for i, ch in enumerate(text):
        if ch == "*":
            if not stack:
                root = _LEAF_ITEM
                break
            stack[-1].append(_LEAF_ITEM)
            chars += len(stack)
        elif ch == "(":
            stack.append([])
            # this bracket and its match sit in the code of every open vertex
            chars += 2 * len(stack)
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            if chars > CATERPILLAR_CODE_CAP:
                raise BudgetError(
                    f"tree text would hold at least {chars} code characters (by offset {i}), "
                    f"above the cap of {CATERPILLAR_CODE_CAP}"
                )
            items = stack.pop()
            if len(items) < 2:
                if items:
                    raise StructureError("internal vertex with exactly one child", i)
                raise StructureError("internal vertex with no children", i)
            item = _vertex(items, built)
            if not stack:
                root = item
                break
            stack[-1].append(item)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if root is None:
        if stack:
            raise ParseError("unbalanced '(': input ended inside a group", len(text))
        raise ParseError("empty input", 0)
    if i + 1 < len(text):
        raise ParseError("trailing input after a complete tree", i + 1)
    return root[2]


def join_codes(codes: list[str]) -> str:
    """Code of the vertex whose children have ``codes``: sorts the list in
    place into canonical order (shortest first, ties by code) and brackets
    the joined codes."""
    # a stable sort by length after one by code leaves (length, code) order
    codes.sort()
    codes.sort(key=len)
    return "(" + "".join(codes) + ")"


def internal_subtrees(t: Tree, known=()) -> list[Tree]:
    """The distinct internal subtrees of ``t`` whose codes ``known`` lacks,
    fewest leaves first. Each is walked once, so a tree of shared shapes
    costs its shapes, not its size; memos filled in this order need not be
    walked below a known code."""
    found: dict[str, Tree] = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if u.children and u.code not in known and u.code not in found:
            found[u.code] = u
            stack.extend(u.children)
    return sorted(found.values(), key=_LEAF_COUNT)


def is_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree between 2 and d."""
    require_int(d, 2, "arity bound")
    return all(u.outdegree <= d for u in internal_subtrees(t))


def is_strictly_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree exactly d."""
    require_int(d, 2, "arity bound")
    return all(u.outdegree == d for u in internal_subtrees(t))


def caterpillar_spine(r: int, k: int) -> int:
    """The number (k - 1) / (r - 1) of internal vertices of the r-ary
    caterpillar with k leaves. It exists exactly when k >= r and r - 1
    divides k - 1; anything else raises PreconditionError."""
    if not isinstance(k, int) or k < r or (k - 1) % (r - 1) != 0:
        raise PreconditionError(
            f"no {r}-ary caterpillar with {k!r} leaves "
            f"(need k >= {r} and (k - 1) % {r - 1} == 0)"
        )
    return (k - 1) // (r - 1)


def make_caterpillar(r: int, k: int) -> Tree:
    """The r-ary caterpillar with k leaves.

    Starting from a single vertex with r leaf children, each growth step
    replaces one leaf of the deepest vertex with another r-leaf vertex, so
    internal vertices form a path. k == 1 gives the single leaf; otherwise
    :func:`caterpillar_spine` states which k exist.

    Each spine vertex keeps its own code, so a spine of q vertices holds
    q (r + 2) + (r + 1) q (q - 1) / 2 characters; above
    :data:`CATERPILLAR_CODE_CAP` this refuses with BudgetError before building,
    as it does above :data:`LEAF_CAP` leaves, since the build holds a list
    item per leaf.
    """
    require_int(r, 2, "arity bound")
    if k == 1:
        return _LEAF
    q = caterpillar_spine(r, k)
    if k > LEAF_CAP:
        raise BudgetError(
            f"{r}-ary caterpillar would have {k} leaves, above the cap of {LEAF_CAP}"
        )
    chars = q * (r + 2) + (r + 1) * q * (q - 1) // 2
    if chars > CATERPILLAR_CODE_CAP:
        raise BudgetError(
            f"{r}-ary caterpillar with {k} leaves would hold {chars} code characters, "
            f"above the cap of {CATERPILLAR_CODE_CAP}"
        )
    built: dict = {}
    item = _LEAF_ITEM
    for _ in range(q):
        item = _vertex([item] + [_LEAF_ITEM] * (r - 1), built)
    return item[2]


def make_complete(d: int, h: int) -> Tree:
    """The complete d-ary tree of height h (d**h leaves, all at depth h).

    Refuses with BudgetError when d**h exceeds :data:`LEAF_CAP`; children at
    each level share one Tree object, so the cap bounds leaf count as seen by
    counting routines, not memory.
    """
    require_int(d, 2, "arity bound")
    require_int(h, 0, "height")
    n = d**h
    if n > LEAF_CAP:
        raise BudgetError(f"complete tree would have {n} leaves, above the cap of {LEAF_CAP}")
    built: dict = {}
    item = _LEAF_ITEM
    for _ in range(h):
        item = _vertex([item] * d, built)
    return item[2]


def make_even_binary(n: int) -> Tree:
    """The n-leaf binary tree that splits as evenly as possible at every vertex.

    The root separates the leaves into ceil(n/2) and floor(n/2), and both
    branches are themselves even-split trees. For n a power of two this is
    the complete binary tree. Refuses with BudgetError when n exceeds
    :data:`LEAF_CAP`; its codes take about 9 bytes per leaf.
    """
    require_int(n, 1, "leaf count")
    if n > LEAF_CAP:
        raise BudgetError(f"even-split tree would have {n} leaves, above the cap of {LEAF_CAP}")
    # halving n yields at most two sizes per level, so 2 log2(n) in all
    sizes = set()
    level = {n}
    while level:
        sizes |= level
        level = {h for s in level if s > 1 for h in ((s + 1) // 2, s // 2)}
    built: dict = {}
    items = {1: _LEAF_ITEM}
    for s in sorted(sizes - {1}):
        items[s] = _vertex([items[(s + 1) // 2], items[s // 2]], built)
    return items[n][2]
