"""Rooted trees with unordered children, interned by shape.

A tree here is either a single leaf or an internal vertex with at least two
children; vertices of outdegree one never occur. Children are kept sorted by
their canonical code (shorter codes first, ties broken lexicographically),
which makes the code of a tree a complete isomorphism invariant: two trees
are isomorphic exactly when their codes are equal.

Codes use a bracket grammar: a leaf is ``*`` and an internal vertex is
``(`` followed by the codes of its children in canonical order and ``)``.
For example ``(*(**))`` is the three-leaf tree whose root has a leaf child
and a cherry child.

Shapes live in a table, one per parse or build, and are numbered by int ids
in the manner of the Aho-Hopcroft-Ullman labelling: id 0 is the leaf, and a
vertex gets the id of its children's ids in canonical order, a new one the
first time that tuple is met, so equal shapes share one id. The table stores
each shape's children, leaf count and code length. Ids are given children
first, so per-shape results kept by id can be filled in ascending id order;
the counting routines fill theirs only for the shapes under the tree they
are asked about, and keep every one of them in that tree's table, so the
trees of one table share them. Only the call that builds a table, or a
read into it, appends to it.

A :class:`Tree` is a plain (table, id) value: its children are new values
over the same table. Trees compare, hash and order by code, across tables
too; in one table equal trees have one id. Code-length ties between
distinct siblings are broken by their codes, written once per table and
cached there; ``t.code`` is written afresh on each access, in time linear
in its length. The builders at the bottom append caterpillars, complete
trees and the even-split binary tree in canonical order.

A table reads text a character at a time (:meth:`_Shapes.parse`, behind
:func:`parse_tree`), or keeps in ``texts`` each text it has read and skips
those in new ones, such as a search's witnesses (:meth:`_Shapes.read`).
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from itertools import accumulate
from operator import indexOf
from typing import Iterable

from .errors import (BudgetError, ConsistencyError, ParseError, PreconditionError, int_str,
                     require_int)

__all__ = [
    "Tree",
    "leaf",
    "node",
    "parse_tree",
    "read_tree",
    "is_d_ary",
    "is_strictly_d_ary",
    "make_caterpillar",
    "make_complete",
    "make_even_binary",
]

# the most leaves make_complete, make_even_binary and make_caterpillar build
LEAF_CAP = 10**7
# the most internal vertices make_caterpillar builds and parse_tree reads; a
# count costs about 5 us a spine vertex as host, 11 us as pattern (README)
VERTEX_CAP = 25 * 10**4
# the most characters parse_tree reads: a tree within both caps above has
# at most 2 VERTEX_CAP + LEAF_CAP
TEXT_CAP = 2 * VERTEX_CAP + LEAF_CAP
# _Shapes.read splits this many times its text's length in characters, then
# parses; _STEPS holds its depth step of each byte: 1 at "(", -1 at ")", else 0
_SCAN_MULTIPLE = 4
_STEPS = bytes(1 if c == 40 else 255 if c == 41 else 0 for c in range(256))


class _Shapes:
    """An append-only table of tree shapes, numbered children first.

    Id 0 is the leaf. ``kids[i]`` holds the ids of shape i's children in
    canonical order, ``leaves[i]`` and ``lengths[i]`` its leaf count and code
    length, and ``ids`` maps a children tuple to its id. ``codes`` holds the
    codes written to break ties, by id, and ``results`` the counting
    routines' per-shape results, by id under a key of their own: a k for
    caterpillar vectors, a pattern's code for copy-count rows. ``texts`` maps
    each text that :meth:`read` has read, exactly as written, to its id.
    """

    __slots__ = ("kids", "leaves", "lengths", "ids", "codes", "results", "texts")

    def __init__(self):
        self.kids: list[tuple[int, ...]] = [()]
        self.leaves = [1]
        self.lengths = [1]
        self.ids = {(): 0}
        self.codes: dict[int, str] = {}
        self.results: dict[int | str, dict[int, tuple | list]] = {}
        self.texts = {"*": 0}

    def add(self, kids: tuple[int, ...]) -> int:
        """The id of the vertex over ``kids``, already in canonical order."""
        ids = self.ids
        i = ids.get(kids)
        if i is None:
            i = ids[kids] = len(ids)
            self.kids.append(kids)
            leaves, lengths = self.leaves, self.lengths
            if len(kids) == 2:  # most vertices: two lookups, not a map
                a, b = kids
                leaves.append(leaves[a] + leaves[b])
                lengths.append(lengths[a] + lengths[b] + 2)
            else:
                leaves.append(sum(map(leaves.__getitem__, kids)))
                lengths.append(sum(map(lengths.__getitem__, kids), 2))
        return i

    def vertex(self, kids: list[int]) -> int:
        """The id of the vertex over ``kids``, in any order: sorted by code
        length in place, and by code where distinct children tie on it."""
        lengths = self.lengths
        if len(kids) == 2:  # most vertices: one comparison and no sort
            a, b = kids
            if lengths[a] > lengths[b] or (
                lengths[a] == lengths[b] and a != b and self._shortlex(a) > self._shortlex(b)
            ):
                kids.reverse()
        else:
            kids.sort(key=lengths.__getitem__)
            if len(set(map(lengths.__getitem__, kids))) < len(set(kids)):
                kids.sort(key=self._shortlex)
        return self.add(tuple(kids))

    def parse(self, text: str) -> int:
        """The id of the tree that ``text`` writes, children in any order, read
        a character at a time; children ids written alike are sorted once.
        Malformed text raises ParseError with the offset of the fault."""
        written: dict[tuple[int, ...], int] = {}
        stack: list[list[int]] = []
        root = None
        for i, ch in enumerate(text):
            if ch == "*":
                if not stack:
                    root = 0
                    break
                stack[-1].append(0)
            elif ch == "(":
                stack.append([])
            elif ch == ")":
                if not stack:
                    raise ParseError("unbalanced ')'", i)
                kids = stack.pop()
                u = written.get(key := tuple(kids))
                if u is None:
                    if len(kids) < 2:
                        if kids:
                            raise ParseError("internal vertex with exactly one child", i)
                        raise ParseError("internal vertex with no children", i)
                    u = written[key] = self.vertex(kids)
                if not stack:
                    root = u
                    break
                stack[-1].append(u)
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        if root is None:
            if stack:
                raise ParseError("unbalanced '(': input ended inside a group", len(text))
            raise ParseError("empty input", 0)
        if i + 1 < len(text):
            raise ParseError("trailing input after a complete tree", i + 1)
        return root

    def read(self, text: str) -> int:
        """:meth:`parse`'s id of ``text``, skipping the texts read before: a
        text is split where its first child ends, and if the rest was read
        before it is the one other child, else the rest is split where each
        child ends. Pieces left after :data:`_SCAN_MULTIPLE` times the text's
        length is split are parsed, so reads are linear. What was read enters
        ``texts`` once all is; malformed text raises :meth:`parse`'s error."""
        texts, new, budget = self.texts, {}, _SCAN_MULTIPLE * len(text)
        if text in texts:
            return texts[text]
        steps = memoryview(text.encode("latin-1", "replace").translate(_STEPS)).cast("b")
        stack: list = [(text, 0)]  # (text, offset), or [text, pieces] of a vertex
        try:
            if not (text.startswith("(") and text.endswith(")")):
                raise ValueError(text)  # each piece split below is a group or a character
            while stack:
                sub, a = top = stack.pop()
                if type(top) is list:  # a vertex whose pieces, a, are read
                    new[sub] = self.vertex([texts[p] if p in texts else new[p] for p, _ in a])
                elif sub in texts or sub in new:
                    continue
                elif budget <= 0:
                    new[sub] = self.parse(sub)
                else:
                    end, p, piece, pieces = a + len(sub) - 1, a + 1, "*", []
                    while p < end:
                        if text.startswith(piece, p, end):  # the piece before, again
                            q = p + len(piece)
                        elif text[p] != "(":  # "*", or a fault that its own split meets
                            piece, q = text[p], p + 1
                        else:  # a group ends where its steps sum to 0
                            q = p + 1 + indexOf(accumulate(steps[p:end]), 0)
                            piece = text[p:q]
                        budget -= q - p
                        pieces.append((piece, p))
                        if p == a + 1 and ((rest := text[q:end]) in texts or rest in new):
                            pieces.append((rest, q))  # the only other child
                            break
                        p = q
                    if len(pieces) < 2:
                        raise ValueError(sub)
                    stack += [[sub, pieces], *pieces]
        except (ParseError, ValueError):  # indexOf's, where a group stays open
            self.parse(text)  # raises the ParseError naming the first fault
            raise ConsistencyError(f"the parser accepts {text!r}, which the code reader refused")
        texts.update(new)
        return new[text]

    def _shortlex(self, i: int) -> tuple[int, str]:
        code = self.codes.get(i)
        if code is None:
            code = self.codes[i] = self.code(i)
        return self.lengths[i], code

    def code(self, i: int) -> str:
        """The code of shape i, in one pass over its vertices. A shape met
        again is written once, by joining the pieces of its first occurrence,
        and a cached code is copied, so shared shapes cost joins."""
        if not i:
            return "*"
        kids, codes = self.kids, self.codes
        pieces: list[str] = []
        spans: dict[int, tuple[int, int] | str] = {}  # (start, end) in pieces, or code
        stack: list = [i]
        while stack:
            u = stack.pop()
            if type(u) is tuple:  # (id, start) of a vertex whose children are written
                pieces.append(")")
                spans[u[0]] = (u[1], len(pieces))
            elif u in spans:
                span = spans[u]
                if type(span) is tuple:
                    span = spans[u] = "".join(pieces[span[0] : span[1]])
                pieces.append(span)
            elif u in codes:
                pieces.append(codes[u])
            else:
                # the leaves lead, being the shortest children: write them here
                below = kids[u]
                leaves = below.count(0)
                stack.append((u, len(pieces)))
                stack += reversed(below[leaves:])
                pieces.append("(" + "*" * leaves)
        return "".join(pieces)

    def below(self, i: int, known=()) -> list[int]:
        """The ids of shape i and of every shape under it that ``known``
        lacks, ascending, so each after its children. The walk stops at a
        known shape, so memos filled in this order cost only new shapes."""
        if i in known:
            return []
        kids, todo, seen = self.kids, [i], {i}
        for u in todo:
            for c in kids[u]:
                if c not in seen and c not in known:
                    seen.add(c)
                    todo.append(c)
        return sorted(seen)

    def tree(self, i: int) -> Tree:
        """Shape i as a Tree."""
        return Tree(self, i)


class Tree:
    """Immutable rooted tree in canonical child order: shape ``_id`` of the
    table ``_table``.

    Obtain instances from :func:`leaf`, :func:`node`, :func:`parse_tree` or a
    family builder, which enforce the invariants (no outdegree-one vertices,
    children sorted).
    """

    __slots__ = ("_table", "_id", "leaf_count", "code_length")

    def __init__(self, table: _Shapes, id_: int):
        self._table = table
        self._id = id_
        self.leaf_count = table.leaves[id_]
        self.code_length = table.lengths[id_]

    @property
    def children(self) -> tuple[Tree, ...]:
        return tuple(map(self._table.tree, self._table.kids[self._id]))

    @property
    def is_leaf(self) -> bool:
        return not self._id

    @property
    def outdegree(self) -> int:
        return len(self._table.kids[self._id])

    @property
    def code(self) -> str:
        """The canonical code, written afresh."""
        return self._table.code(self._id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        if self._table is other._table:
            return self._id == other._id
        return self.code_length == other.code_length and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other) -> bool:
        """Canonical order: the shorter code first, then the smaller code."""
        if not isinstance(other, Tree):
            return NotImplemented
        if self.code_length != other.code_length:
            return self.code_length < other.code_length
        return self.code < other.code

    def __repr__(self) -> str:
        return f"Tree({self.code!r})"


def leaf() -> Tree:
    """The single-leaf tree, in a table of its own, so the results counted
    for it are dropped with it, as for any other tree."""
    return Tree(_Shapes(), 0)


def node(children: Iterable[Tree]) -> Tree:
    """Internal vertex over the given children (two or more), canonicalized,
    in a table of its own that takes in the shapes under each child."""
    children = list(children)
    if len(children) < 2:
        raise PreconditionError("an internal vertex needs at least two children")
    table, ids = _Shapes(), []
    for c in children:
        src, new = c._table, {}
        for u in src.below(c._id):
            new[u] = table.add(tuple(map(new.__getitem__, src.kids[u])))
        ids.append(new[c._id])
    return Tree(table, table.vertex(ids))


def parse_tree(text: str) -> Tree:
    """Parse bracket notation into a canonical Tree.

    The input may list children in any order; the result is canonicalized,
    so ``parse_tree("((**)*)").code == "(*(**))"``. Raises ParseError for
    malformed text, including well-bracketed text that describes an invalid
    vertex (no children or a single child), with the byte offset of the
    offending character. Text longer than :data:`TEXT_CAP` characters, or
    with more than :data:`VERTEX_CAP` ``(``, is refused with BudgetError
    before it is read. :meth:`_Shapes.parse` reads it into a table of its own.
    """
    if len(text) > TEXT_CAP:
        raise BudgetError(f"tree text is longer than the cap of {TEXT_CAP} characters")
    if text.count("(") > VERTEX_CAP:
        raise BudgetError(f"tree text would have {text.count('(')} internal vertices, "
                          f"above the cap of {VERTEX_CAP}")
    return (table := _Shapes()).tree(table.parse(text))


def read_tree(path: str) -> Tree:
    """:func:`parse_tree` of the text in the file ``path``, or on standard
    input for ``-``, without surrounding whitespace. Bytes are read as
    Latin-1, so a ParseError offset is a byte offset into the stripped text.
    At most :data:`TEXT_CAP` + 1 bytes are read: a longer file is refused
    without being held whole."""
    with open(path, "rb") if path != "-" else nullcontext(sys.stdin.buffer) as fh:
        data = fh.read(TEXT_CAP + 1)
    return parse_tree((data if len(data) > TEXT_CAP else data.strip()).decode("latin-1"))


def join_codes(codes: list[str]) -> str:
    """Code of the vertex whose children have ``codes``: sorts the list in
    place into canonical order (shortest first, ties by code) and brackets
    the joined codes."""
    # a stable sort by length after one by code leaves (length, code) order
    codes.sort()
    codes.sort(key=len)
    return "(" + "".join(codes) + ")"


def _outdegrees(t: Tree) -> set[int]:
    kids = t._table.kids
    return {len(kids[u]) for u in t._table.below(t._id) if u}


def is_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree between 2 and d."""
    require_int(d, 2, "arity bound")
    return max(_outdegrees(t), default=0) <= d


def is_strictly_d_ary(t: Tree, d: int) -> bool:
    """True when every internal vertex of ``t`` has outdegree exactly d."""
    require_int(d, 2, "arity bound")
    return _outdegrees(t) <= {d}


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
        return leaf()
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
    table = _Shapes()
    u = 0
    for _ in range(q):
        u = table.add((0,) * (r - 1) + (u,))  # the leaves lead
    return Tree(table, u)


def make_complete(d: int, h: int) -> Tree:
    """The complete d-ary tree of height h (d**h leaves, all at depth h).

    Refuses with BudgetError when d**h exceeds :data:`LEAF_CAP`; each level
    is one shape, so the cap bounds leaf count as seen by counting routines,
    not memory. d**h is built only when it is small.
    """
    require_int(d, 2, "arity bound")
    require_int(h, 0, "height")
    # d >= 2, so any h >= 24 has at least 2**24 > LEAF_CAP leaves
    if h >= 24 or (h and d > LEAF_CAP) or d**h > LEAF_CAP:
        raise BudgetError(
            f"complete tree would have {int_str(d)}^{int_str(h)} leaves, "
            f"above the cap of {LEAF_CAP}"
        )
    table = _Shapes()
    u = 0
    for _ in range(h):
        u = table.add((u,) * d)
    return Tree(table, u)


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
    table = _Shapes()
    built = {1: 0}
    for s in sorted(sizes - {1}):
        built[s] = table.add((built[s // 2], built[(s + 1) // 2]))  # the smaller half leads
    return Tree(table, built[n])
