"""Canonical tree representation: parsing, serialization, builders."""

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treedensity import (
    BudgetError,
    ParseError,
    PreconditionError,
    is_d_ary,
    is_strictly_d_ary,
    leaf,
    make_caterpillar,
    make_complete,
    make_even_binary,
    node,
    parse_tree,
)
from treedensity.search import enumerate_trees
from treedensity import trees


def test_parse_leaf():
    t = parse_tree("*")
    assert t.is_leaf and t.leaf_count == 1 and t.code == "*"


def test_parse_canonicalizes_child_order():
    a = parse_tree("((**)*)")
    b = parse_tree("(*(**))")
    assert a == b
    assert a.code == "(*(**))"  # length-first sort puts the bare leaf in front


def test_serialize_round_trip_examples():
    for code in ["*", "(**)", "(*(**))", "((**)(**))", "(*(*(**)))", "(**(***))"]:
        assert parse_tree(code).code == code


DEEP = "(*" * 2999 + "(**)" + ")" * 2999  # the 3000-leaf binary caterpillar


@pytest.mark.parametrize(
    "text, err, offset",
    [
        ("", ParseError, 0),
        ("(*", ParseError, 2),
        ("*)", ParseError, 1),
        ("(**)*", ParseError, 4),
        ("(a*)", ParseError, 1),
        ("**", ParseError, 1),
        ("(*)", ParseError, 2),
        ("()", ParseError, 1),
        ("((*)*)", ParseError, 3),
        pytest.param(DEEP[:-1], ParseError, len(DEEP) - 1, id="deep-tree-missing-its-last-close"),
        pytest.param("(" * 3000 + "**", ParseError, 3002, id="deep-open-run"),
        pytest.param("(*" * 3000 + "(*)" + ")" * 3000, ParseError, 6002,
                     id="single-child-under-a-deep-spine"),
        pytest.param(DEEP + "*", ParseError, len(DEEP), id="leaf-after-a-deep-tree"),
        pytest.param(DEEP + ")", ParseError, len(DEEP), id="close-after-a-deep-tree"),
        pytest.param(DEEP + "x", ParseError, len(DEEP), id="letter-after-a-deep-tree"),
        ("(*(**" + "x", ParseError, 5),
    ],
)
def test_parse_errors_carry_offsets(text, err, offset):
    with pytest.raises(err) as exc:
        parse_tree(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, message", [
    ("(*)", "internal vertex with exactly one child (offset 2)"),
    ("()", "internal vertex with no children (offset 1)"),
])
def test_an_invalid_vertex_is_a_parse_error_and_an_input_error(text, message):
    with pytest.raises(ParseError) as exc:
        parse_tree(text)
    assert str(exc.value) == message
    # one class per CLI exit code: exit 2 catches PreconditionError alone
    assert isinstance(exc.value, PreconditionError)


def _reference(text):
    """(code, leaves, internal outdegrees) of well-formed bracket text, by
    sorting the children's code strings at each closing bracket: strings
    only, no Tree, and an explicit stack, so any depth is fine."""
    stack = [[]]
    outdegrees = set()
    for ch in text:
        if ch == "(":
            stack.append([])
        elif ch == "*":
            stack[-1].append("*")
        else:
            kids = sorted(stack.pop(), key=lambda c: (len(c), c))
            outdegrees.add(len(kids))
            stack[-1].append("(" + "".join(kids) + ")")
    (code,) = stack[0]
    return code, text.count("*"), outdegrees


def _check_against_reference(text):
    t = parse_tree(text)
    code, leaves, outdegrees = _reference(text)
    assert t.code == code
    assert t.leaf_count == leaves
    for d in range(2, max(outdegrees, default=2) + 2):
        assert is_d_ary(t, d) == (max(outdegrees, default=0) <= d)
        assert is_strictly_d_ary(t, d) == (outdegrees <= {d})
    return t


def _random_text(rng, n, d):
    """Bracket text of a random tree with n leaves and outdegrees in 2..d,
    children in random order, written with an explicit stack."""
    out, stack = [], [n]
    while stack:
        item = stack.pop()
        if item == ")" or item == 1:
            out.append("*" if item == 1 else ")")
            continue
        m = rng.randint(2, min(d, item))
        cuts = sorted(rng.sample(range(1, item), m - 1))
        out.append("(")
        stack.append(")")
        stack.extend(b - a for a, b in zip([0] + cuts, cuts + [item]))
    return "".join(out)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=2, max_value=6),
       st.integers(min_value=0))
def test_parse_matches_the_string_reference(n, d, seed):
    _check_against_reference(_random_text(random.Random(seed), n, d))


def test_parse_matches_the_string_reference_on_a_deep_caterpillar():
    # a binary caterpillar 10**4 vertices deep, the leaf at each spine vertex
    # on a random side of the next one; every 1000th spine vertex carries a
    # second leaf, so the tree is 3-ary and not 2-ary
    rng = random.Random(9)
    head, tail = [], []
    for depth in range(10**4):
        extra = 2 if depth % 1000 == 500 else 1
        before = rng.randint(0, extra)
        head.append("(" + "*" * before)
        tail.append("*" * (extra - before) + ")")
    text = "".join(head) + "(**)" + "".join(reversed(tail))
    t = _check_against_reference(text)
    assert t.leaf_count == 10**4 + 12
    assert is_d_ary(t, 3) and not is_d_ary(t, 2) and not is_strictly_d_ary(t, 3)


def _vertices(t):
    """Every vertex of ``t``, repeated shapes included."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(u.children)


def _internal_shapes(t):
    """The distinct internal subtrees of ``t``."""
    return {u for u in _vertices(t) if not u.is_leaf}


def test_equal_subtrees_of_one_parse_share_one_id():
    rng = random.Random(4)
    for text in [_shuffled_text(make_complete(3, 4), rng), _random_text(rng, 400, 3)]:
        t = parse_tree(text)
        first = {}
        for u in _vertices(t):
            assert first.setdefault(u.code, (u._table, u._id)) == (t._table, u._id)
        assert len(first) < sum(1 for _ in _vertices(t))
    # interning is per call; equality stays by code across calls
    a, b = parse_tree("((**)(**))"), parse_tree("((**)(**))")
    assert a == b and hash(a) == hash(b) and a is not b


def _shortlex(code):
    return (len(code), code)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0), st.integers(min_value=0))
def test_equality_hash_and_order_agree_with_the_codes_across_builds(n, d, seed_a, seed_b):
    # two parses are two builds, so equal shapes are distinct objects; two
    # binary trees of one size have codes of one length, so their order is
    # decided by the codes, not by the length
    a = parse_tree(_random_text(random.Random(seed_a), n, d))
    b = parse_tree(_random_text(random.Random(seed_b), n, d))
    again = parse_tree(_shuffled_text(b, random.Random(seed_a)))
    assert again == b and hash(again) == hash(b) and again.code == b.code
    assert (a == b) == (a.code == b.code)
    assert (a.code == b.code) <= (hash(a) == hash(b))
    assert (a < b) == (_shortlex(a.code) < _shortlex(b.code))
    assert (b < a) == (_shortlex(b.code) < _shortlex(a.code))
    for u in [*_vertices(a), *_vertices(b)]:
        codes = [c.code for c in u.children]
        assert codes == sorted(codes, key=_shortlex)
        assert u.code_length == len(u.code)
    # a vertex over children of both builds sorts them like their codes
    if a.children and b.children:
        mixed = node([*a.children, *b.children])
        assert [c.code for c in mixed.children] == sorted(
            [c.code for c in (*a.children, *b.children)], key=_shortlex
        )


def test_trees_of_two_tables_compare_like_their_codes():
    # the 3-ary trees with 7 leaves share one table; their reparses each have
    # a table of their own; many of them tie on code length
    level = list(enumerate_trees(7, 3))
    again = [parse_tree(_shuffled_text(t, random.Random(i))) for i, t in enumerate(level)]
    assert len({t.code_length for t in level}) < len(level)
    for a in level + again[::7]:
        for b in level + again[::5]:
            assert (a == b) == (a.code == b.code)
            assert (a.code == b.code) <= (hash(a) == hash(b))
            assert (a < b) == (_shortlex(a.code) < _shortlex(b.code))
    assert sorted(again) == sorted(level) == sorted(level, key=lambda t: _shortlex(t.code))
    # a vertex over children of two tables sorts them like their codes
    kids = [*level[3].children, *again[40].children, level[9], again[9], again[2]]
    mixed = node(kids)
    assert [c.code for c in mixed.children] == sorted((c.code for c in kids), key=_shortlex)
    assert mixed == parse_tree("(" + "".join(c.code for c in reversed(kids)) + ")")


def test_a_tree_is_unequal_and_unordered_against_other_types():
    t = parse_tree("(**)")
    assert (t == "(**)") is False and t != "(**)"
    with pytest.raises(TypeError):
        t < 1
    assert repr(parse_tree("(*(**))")) == "Tree('(*(**))')"


def _child_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(trees.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_the_tree_module_loads_no_renderer():
    # a child process, since this one has loaded reporting: trees takes
    # int_str from errors, so its import leaves out reporting's csv, json
    # and decimal
    script = """
import json, sys
import treedensity.trees
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "treedensity")))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["treedensity", "treedensity.errors", "treedensity.trees"]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_parse_matches_the_string_reference_at_the_benchmark_size(d):
    # 3,000-3,600 leaves: many siblings tie on code length, so their order
    # is decided by codes written to break the tie
    rng = random.Random(100 + d)
    for n in (3000, 3600):
        t = _check_against_reference(_random_text(rng, n, d))
        assert t._table.codes


def test_parsed_trees_leave_no_memory_behind():
    # a tree holds its table, and the table holds no tree, so
    # dropping the tree frees the table without the cycle collector
    # 200 distinct hosts of 3,000 leaves, each ten branches out of twenty
    rng = random.Random(12)
    branches = [_random_text(rng, 300, 2 + i % 4) for i in range(20)]
    texts = ["(" + "".join(rng.sample(branches, 10)) + ")" for _ in range(200)]
    assert len(set(texts)) == 200
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for text in texts:
            t = parse_tree(text)
            assert t.leaf_count == 3000
            assert len(t.code) == t.code_length and hash(t) == hash(t)
            assert all(u.children[-1].leaf_count for u in t.children if not u.is_leaf)
            del t
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 2**20, grown


def test_node_rejects_single_child():
    with pytest.raises(PreconditionError):
        node([leaf()])


def _shuffled_text(t, rng):
    # Render the tree with children in random order, bypassing canonical sort.
    if t.is_leaf:
        return "*"
    kids = list(t.children)
    rng.shuffle(kids)
    return "(" + "".join(_shuffled_text(c, rng) for c in kids) + ")"


def test_codes_invariant_under_child_permutation():
    rng = random.Random(7)
    pool = [t for n in range(2, 9) for t in enumerate_trees(n, 3)]
    for t in pool:
        for _ in range(3):
            assert parse_tree(_shuffled_text(t, rng)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0))
def test_round_trip_random_trees(n, seed):
    rng = random.Random(seed)

    def build(m):
        if m == 1:
            return leaf()
        cut = rng.randint(1, m - 1)
        return node([build(cut), build(m - cut)])

    t = build(n)
    assert parse_tree(t.code) == t
    assert parse_tree(parse_tree(t.code).code).code == t.code


def test_is_d_ary_examples():
    assert is_d_ary(leaf(), 2) and is_strictly_d_ary(leaf(), 2)
    f23 = make_caterpillar(2, 3)
    assert is_d_ary(f23, 3) and not is_strictly_d_ary(f23, 3)
    cd32 = make_complete(3, 2)
    assert is_d_ary(cd32, 3) and is_strictly_d_ary(cd32, 3)
    # mixed outdegrees: 3-ary but not strictly so
    mixed = node([leaf(), leaf(), node([leaf(), leaf()])])
    assert is_d_ary(mixed, 3) and not is_strictly_d_ary(mixed, 3)
    assert not is_d_ary(mixed, 2)


def test_arity_predicates_match_enumeration_and_the_code_reader():
    # is_strictly_d_ary picks out exactly the strict enumeration, and is_d_ary
    # agrees with the largest outdegree the code reader finds
    hosts = [make_complete(3, 12)]
    for d in (2, 3, 4):
        for n in range(1, 10):
            level = list(enumerate_trees(n, d))
            strict = set(enumerate_trees(n, d, strict=True)) if (n - 1) % (d - 1) == 0 else set()
            assert {t for t in level if is_strictly_d_ary(t, d)} == strict
            hosts.extend(level)
    hosts.append(make_caterpillar(3, 2 * 10**4 + 1))
    table = trees._Shapes()  # one table, so reads skip the texts read before
    widest = []
    for t in hosts:
        i = table.read(t.code)
        widest.append((t, max((len(table.kids[u]) for u in table.below(i)), default=0)))
    assert widest[-1][1] == 3
    for t, top in widest:
        for e in range(2, 6):
            assert is_d_ary(t, e) == (top <= e), (t.leaf_count, e)
    assert is_strictly_d_ary(hosts[0], 3) and is_strictly_d_ary(widest[-1][0], 3)


def test_is_d_ary_validates_degree():
    with pytest.raises(PreconditionError):
        is_d_ary(leaf(), 1)


def test_make_caterpillar_shapes():
    assert make_caterpillar(2, 1) == leaf()
    assert make_caterpillar(2, 2).code == "(**)"
    assert make_caterpillar(2, 4).code == "(*(*(**)))"
    assert make_caterpillar(3, 3).code == "(***)"
    assert make_caterpillar(3, 5).code == "(**(***))"
    for r, k in [(3, 4), (3, 6), (4, 5), (2, 0), (4, 3)]:
        with pytest.raises(PreconditionError):
            make_caterpillar(r, k)


def test_caterpillar_vertex_budget_is_the_spine_length(monkeypatch):
    # make_caterpillar builds exactly when its q = (k - 1) / (r - 1) spine
    # vertices are at most the cap
    for r in range(2, 5):
        for k in range(r, 41, r - 1):
            q = (k - 1) // (r - 1)
            monkeypatch.setattr(trees, "VERTEX_CAP", q)
            assert len(_internal_shapes(make_caterpillar(r, k))) == q
            monkeypatch.setattr(trees, "VERTEX_CAP", q - 1)
            with pytest.raises(BudgetError):
                make_caterpillar(r, k)


def test_parse_budget_counts_every_open_bracket(monkeypatch):
    # repeated shapes are built once but read as often as they are written,
    # and the text parses exactly when its '(' are at most the cap
    texts = ["(**)", "((**)*)", "((**)(**))", "(*(**)(*(**))**)",
             make_caterpillar(3, 9).code, make_complete(3, 3).code]
    for text in texts:
        monkeypatch.setattr(trees, "VERTEX_CAP", text.count("("))
        parse_tree(text)
        monkeypatch.setattr(trees, "VERTEX_CAP", text.count("(") - 1)
        with pytest.raises(BudgetError):
            parse_tree(text)


def test_parse_refuses_a_deep_text_before_closing_a_vertex(monkeypatch):
    def no_vertex(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(trees._Shapes, "add", no_vertex)
    monkeypatch.setattr(trees, "VERTEX_CAP", 3)
    with pytest.raises(BudgetError) as info:
        parse_tree("(*(*(*(**))))")
    assert str(info.value) == "tree text would have 4 internal vertices, above the cap of 3"


def test_deep_caterpillar_builds_and_parses_in_linear_memory():
    # a child process, so that its peak memory is its own: a spine of 10^5
    # vertices whose codes, stored per vertex, would hold 1.5 * 10^10
    # characters. The child reads its VmHWM, which counts only the image
    # after exec; ru_maxrss, the fallback where /proc is absent, starts on
    # Linux at the peak of the process the child was forked from
    script = """
import json, resource, sys, time
from treedensity.trees import make_caterpillar, parse_tree
out = []
start = time.perf_counter()
t = make_caterpillar(2, 100001)
out.append(time.perf_counter() - start)
code = t.code
del t
start = time.perf_counter()
t = parse_tree(code)
out.append(time.perf_counter() - start)
try:
    with open("/proc/self/status", encoding="utf-8") as fh:
        peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except FileNotFoundError:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out.append(peak_kib / 1024)
out.append(t.leaf_count == 100001 and len(code) == 300001)
print(json.dumps(out))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    build_s, parse_s, peak_mib, ok = json.loads(proc.stdout)
    assert ok and build_s < 1 and parse_s < 1 and peak_mib < 100, (build_s, parse_s, peak_mib)


def test_caterpillar_internal_path():
    # Internal vertices form a path: at most one internal child anywhere,
    # and exactly k leaves.
    for k in range(2, 21):
        t = make_caterpillar(2, k)
        assert t.leaf_count == k
        u = t
        internals = 0
        while not u.is_leaf:
            internals += 1
            internal_kids = [c for c in u.children if not c.is_leaf]
            assert len(internal_kids) <= 1
            u = internal_kids[0] if internal_kids else u.children[0]
        assert internals == k - 1


def test_make_complete():
    assert make_complete(2, 0) == leaf()
    assert make_complete(2, 2).code == "((**)(**))"
    assert make_complete(4, 2).leaf_count == 16
    t = make_complete(2, 3)
    # all leaves at depth 3
    def depths(u, d=0):
        if u.is_leaf:
            yield d
        for c in u.children:
            yield from depths(c, d + 1)
    assert set(depths(t)) == {3}
    with pytest.raises(BudgetError):
        make_complete(10, 8)
    with pytest.raises(PreconditionError):
        make_complete(2, -1)


def test_make_even_binary_refuses_over_the_leaf_cap(monkeypatch):
    # the cap is checked before any vertex is built
    def no_vertex(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(trees._Shapes, "add", no_vertex)
    with pytest.raises(BudgetError) as info:
        make_even_binary(trees.LEAF_CAP + 1)
    assert str(info.value) == (
        f"even-split tree would have {trees.LEAF_CAP + 1} leaves, "
        f"above the cap of {trees.LEAF_CAP}"
    )


def test_make_caterpillar_refuses_over_the_leaf_cap(monkeypatch):
    # a star has one spine vertex, so only the leaf count can refuse it
    def no_vertex(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(trees._Shapes, "add", no_vertex)
    n = trees.LEAF_CAP + 1
    with pytest.raises(BudgetError) as info:
        make_caterpillar(n, n)
    assert str(info.value) == (
        f"{n}-ary caterpillar would have {n} leaves, above the cap of {trees.LEAF_CAP}"
    )


def test_make_even_binary():
    assert make_even_binary(1) == leaf()
    assert make_even_binary(4) == make_complete(2, 2)
    assert make_even_binary(8) == make_complete(2, 3)
    t11 = make_even_binary(11)
    assert sorted(c.leaf_count for c in t11.children) == [5, 6]


def test_even_binary_balance_up_to_200():
    for n in range(1, 201):
        t = make_even_binary(n)
        assert t.leaf_count == n
        for u in _internal_shapes(t):
            a, b = (c.leaf_count for c in u.children)
            assert abs(a - b) <= 1
