"""Integer partitions, one generator and one counter, for the DP, the tree
enumeration and the simplex certificate. A leaf: it imports nothing from
the package, so ``simplex`` loads no tree code.
"""

from __future__ import annotations

from itertools import accumulate, count


def partitions_into_parts(n: int, m: int):
    """Nondecreasing positive integer m-tuples summing to n, in lexicographic
    order. For each head (the first m - 2 parts) the last two parts run
    through every split of what remains; then the rightmost head part that
    can still grow does, and the head parts after it take its new value."""
    if n < m:
        return
    if m == 1:
        yield (n,)
        return
    head = [1] * (m - 2)
    while True:
        rest = n - sum(head)
        low = head[-1] if head else 1
        top = rest // 2
        pairs = zip(range(low, top + 1), range(rest - low, rest - top - 1, -1))
        yield from map(tuple(head).__add__, pairs)
        before = sum(head)  # sum(head[:i]) as i moves left
        for i in range(m - 3, -1, -1):
            before -= head[i]
            v = head[i] + 1
            if v * (m - i) <= n - before:  # room for the two last parts too
                head[i:] = [v] * (m - 2 - i)
                break
        else:
            return


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
