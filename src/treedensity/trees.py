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

A Tree stores no code, only its children, leaf count, code length and a hash
built from its children's, so a spine of q vertices takes memory linear in
q; ``t.code`` writes the code on each access, in time linear in its length,
by the private one-tree writer :func:`_code`. Trees compare, hash and order
by structure, in code order, so two parses of one shape are equal; a
comparison that needs codes writes each tree's code once. Builders sort
children by (code length, tree), so only ties of distinct objects write
codes; :func:`parse_tree` returns one object for each repeated shape of one
call. The builders at the bottom construct caterpillars, complete trees and
the even-split binary tree.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable

from .errors import BudgetError, ParseError, PreconditionError, require_int
from .reporting import int_str

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
# the most internal vertices make_caterpillar builds and parse_tree reads; a
# count costs about 13 us a spine vertex as host, 16 us as pattern (README)
VERTEX_CAP = 25 * 10**4
_LEAF_COUNT = attrgetter("leaf_count")
_CODE_LENGTH = attrgetter("code_length")
_HASH = attrgetter("_hash")


class Tree:
    """Immutable rooted tree in canonical child order.

    Obtain instances from :func:`leaf`, :func:`node`, :func:`parse_tree` or a
    family builder: they enforce the invariants (no outdegree-one vertices,
    children sorted) and pass the structural hash, stored unchecked.
    """

    __slots__ = ("children", "leaf_count", "code_length", "_hash")

    def __init__(self, children: tuple["Tree", ...], hash_: int):
        self.children = children
        self._hash = hash_
        self.leaf_count = sum(map(_LEAF_COUNT, children)) or 1  # 0 only for a leaf
        self.code_length = sum(map(_CODE_LENGTH, children), 2) if children else 1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def outdegree(self) -> int:
        return len(self.children)

    @property
    def code(self) -> str:
        """The canonical code, written afresh by :func:`_code`."""
        return _code(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or self._hash == other._hash and _code(self) == _code(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        """Canonical order: the shorter code first, then the smaller code."""
        if not isinstance(other, Tree):
            return NotImplemented
        if self.code_length != other.code_length:
            return self.code_length < other.code_length
        return _code(self) < _code(other)

    def __repr__(self) -> str:
        return f"Tree({self.code!r})"


def _code(t: Tree) -> str:
    """The code of ``t``, in one pass over its vertices. An object met again
    is written once, by joining the pieces of its first occurrence, so shared
    shapes cost joins, not a walk per leaf."""
    pieces: list[str] = []
    spans: dict[int, tuple[int, int] | str] = {}  # by id: (start, end) in pieces, or code
    stack: list = [t]
    while stack:
        u = stack.pop()
        if type(u) is tuple:  # (id, start) of a vertex whose children are written
            pieces.append(")")
            spans[u[0]] = (u[1], len(pieces))
        elif not u.children:
            pieces.append("*")
        elif id(u) not in spans:
            stack += [(id(u), len(pieces)), *reversed(u.children)]
            pieces.append("(")
        else:
            span = spans[id(u)]
            if type(span) is tuple:
                span = spans[id(u)] = "".join(pieces[span[0] : span[1]])
            pieces.append(span)
    return "".join(pieces)


_LEAF = Tree((), hash(()))
_LEAF_ITEM = (1, _LEAF)
_TREE = itemgetter(1)


def _vertex(items: list[tuple[int, Tree]], built: dict) -> tuple[int, Tree]:
    """The (code length, tree) item of the vertex over the children's items,
    sorted in C, so only ties of distinct objects reach the comparator.
    ``built`` maps the hash of each vertex built to its item; a hit is the
    same shape when its children are the same objects."""
    items.sort()
    kids = tuple(map(_TREE, items))
    h = hash(tuple(map(_HASH, kids)))
    item = built.get(h)
    if item is None or item[1].children != kids:
        t = Tree(kids, h)
        item = (t.code_length, t)
        built.setdefault(h, item)
    return item


def _in_order(children: tuple[Tree, ...]) -> Tree:
    """The internal vertex over ``children``, already in canonical order."""
    return Tree(children, hash(tuple(map(_HASH, children))))


def leaf() -> Tree:
    """The single-leaf tree."""
    return _LEAF


def node(children: Iterable[Tree]) -> Tree:
    """Internal vertex over the given children (two or more), canonicalized."""
    items = [(c.code_length, c) for c in children]
    if len(items) < 2:
        raise PreconditionError("an internal vertex needs at least two children")
    return _vertex(items, {})[1]


def parse_tree(text: str) -> Tree:
    """Parse bracket notation into a canonical Tree.

    The input may list children in any order; the result is canonicalized,
    so ``parse_tree("((**)*)").code == "(*(**))"``. Raises ParseError for
    malformed text, including well-bracketed text that describes an invalid
    vertex (no children or a single child), with the byte offset of the
    offending character. Text with more than :data:`VERTEX_CAP` ``(`` is
    refused with BudgetError before it is read.

    Within one call equal subtrees are one object, built once by
    :func:`_vertex`; trees from different calls are equal when codes are.
    """
    if text.count("(") > VERTEX_CAP:
        raise BudgetError(f"tree text would have {text.count('(')} internal vertices, "
                          f"above the cap of {VERTEX_CAP}")
    built: dict[int, tuple[int, Tree]] = {}
    stack: list[list[tuple[int, Tree]]] = []
    root = None
    for i, ch in enumerate(text):
        if ch == "*":
            if not stack:
                root = _LEAF_ITEM
                break
            stack[-1].append(_LEAF_ITEM)
        elif ch == "(":
            stack.append([])
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            items = stack.pop()
            if len(items) < 2:
                if items:
                    raise ParseError("internal vertex with exactly one child", i)
                raise ParseError("internal vertex with no children", i)
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
    return root[1]


def join_codes(codes: list[str]) -> str:
    """Code of the vertex whose children have ``codes``: sorts the list in
    place into canonical order (shortest first, ties by code) and brackets
    the joined codes."""
    # a stable sort by length after one by code leaves (length, code) order
    codes.sort()
    codes.sort(key=len)
    return "(" + "".join(codes) + ")"


def internal_subtrees(t: Tree, known=()) -> list[Tree]:
    """The distinct internal subtrees of ``t`` that ``known`` lacks, fewest
    leaves first. Each is walked once, so a tree of shared shapes costs its
    shapes, not its size; memos filled in this order need not be walked
    below a known tree."""
    found: dict[int, Tree] = {}  # by id: one build makes one object of each shape
    stack = [t]
    while stack:
        u = stack.pop()
        if u.children and id(u) not in found and u not in known:
            found[id(u)] = u
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

    Refuses with BudgetError, before building, above :data:`LEAF_CAP`
    leaves (the root of a star holds one child per leaf) or :data:`VERTEX_CAP`
    spine vertices.
    """
    require_int(r, 2, "arity bound")
    if k == 1:
        return _LEAF
    q = caterpillar_spine(r, k)
    if k > LEAF_CAP:
        raise BudgetError(
            f"{r}-ary caterpillar would have {k} leaves, above the cap of {LEAF_CAP}"
        )
    if q > VERTEX_CAP:
        raise BudgetError(
            f"{r}-ary caterpillar with {k} leaves would have {q} internal vertices, "
            f"above the cap of {VERTEX_CAP}"
        )
    t = _LEAF
    for _ in range(q):
        t = _in_order((_LEAF,) * (r - 1) + (t,))  # the leaves lead
    return t


def make_complete(d: int, h: int) -> Tree:
    """The complete d-ary tree of height h (d**h leaves, all at depth h).

    Refuses with BudgetError when d**h exceeds :data:`LEAF_CAP`; children at
    each level share one Tree object, so the cap bounds leaf count as seen by
    counting routines, not memory. d**h is built only when it is small.
    """
    require_int(d, 2, "arity bound")
    require_int(h, 0, "height")
    # d >= 2, so any h >= 24 has at least 2**24 > LEAF_CAP leaves
    if h >= 24 or (h and d > LEAF_CAP) or d**h > LEAF_CAP:
        raise BudgetError(
            f"complete tree would have {int_str(d)}^{int_str(h)} leaves, "
            f"above the cap of {LEAF_CAP}"
        )
    t = _LEAF
    for _ in range(h):
        t = _in_order((t,) * d)
    return t


def make_even_binary(n: int) -> Tree:
    """The n-leaf binary tree that splits as evenly as possible at every vertex.

    The root separates the leaves into ceil(n/2) and floor(n/2), and both
    branches are themselves even-split trees. For n a power of two this is
    the complete binary tree. Refuses with BudgetError when n exceeds
    :data:`LEAF_CAP`.
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
    built = {1: _LEAF}
    for s in sorted(sizes - {1}):
        built[s] = _in_order((built[s // 2], built[(s + 1) // 2]))  # the smaller half leads
    return built[n]
