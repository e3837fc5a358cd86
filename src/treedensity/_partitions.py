"""Integer partitions, one generator and one counter, for the DP, the tree
enumeration and the simplex certificate. The generator walks heads, each
standing for the range of last pairs that completes it, so the DP sums a
whole range in one slice operation and the others take the tuples. A leaf:
it imports nothing from the package, so ``simplex`` loads no tree code.
"""

from __future__ import annotations

from itertools import accumulate, count


def partition_heads(n: int, m: int):
    """The m-part partitions of n (m >= 2) as ``(head, rest, low, top)``:
    the nondecreasing partitions whose first m - 2 parts are ``head`` are
    ``head + (p, rest - p)`` for p = low..top, with low <= top. Heads come in
    lexicographic order, so the partitions do too. After each head, the
    rightmost head part that can still grow does, and the head parts after
    it take its new value."""
    if n < m:
        return
    head = [1] * (m - 2)
    while True:
        rest = n - sum(head)
        yield tuple(head), rest, head[-1] if head else 1, rest // 2
        before = sum(head)  # sum(head[:i]) as i moves left
        for i in range(m - 3, -1, -1):
            before -= head[i]
            v = head[i] + 1
            if v * (m - i) <= n - before:  # room for the two last parts too
                head[i:] = [v] * (m - 2 - i)
                break
        else:
            return


def partitions_into_parts(n: int, m: int):
    """Nondecreasing positive integer m-tuples summing to n, in lexicographic
    order: :func:`partition_heads` with each head's last pairs spelled out."""
    if m == 1:
        yield from [(n,)] if n >= 1 else []
        return
    for head, rest, low, top in partition_heads(n, m):
        pairs = zip(range(low, top + 1), range(rest - low, rest - top - 1, -1))
        yield from map(head.__add__, pairs)


def partition_counts(n: int):
    """For m = 1, 2, ... in turn, the list ``ways`` whose entry s, for
    s = 0..n, counts the partitions of s into parts of at most m, as many as
    into at most m parts. One list is updated in place from m - 1 to m, by
    ways[s] += ways[s - m], so a caller copies what it keeps."""
    ways = [1] * (n + 1)
    yield ways
    for m in count(2):
        for r in range(m):
            ways[r::m] = accumulate(ways[r::m])
        yield ways
