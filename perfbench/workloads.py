"""Seeded operation lists for the benchmark workloads.

Every operation ("op") is one ``treedensity`` command line. The lists are
built from the workload seed alone, with the benchmark's own random tree
generator working on bracket codes, so the program receives only argv.

Ops come in rounds. A round holds a fixed number of ops of each class,
shuffled, and a run always executes whole rounds, so the class shares of a
run are exact whatever its length. Parameters that change an op's cost a lot
(arity, caterpillar size) cycle through fixed variants; the seed picks the
finer ones (sizes, seeds, tree shapes) and the order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# The workloads BENCHMARK.json gates on.
WORKLOADS = ("frontier-sweep", "exact-count", "simplex-verify")
# Runnable by hand but not gated: its runs spread more between seeds and
# spells of machine speed than a gate's bound allows (see README.md).
EXTRA_WORKLOADS = ("frontier-resume",)


@dataclass
class Op:
    """One command line plus what its check needs to know about the input."""

    id: int
    cls: str
    argv: list[str]
    expect_exit: int = 0
    info: dict = field(default_factory=dict)


# -- string-level tree generator ------------------------------------------------


def random_composition(rng: random.Random, n: int, m: int) -> list[int]:
    """n split into m positive parts, uniformly over compositions."""
    cuts = sorted(rng.sample(range(1, n), m - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def random_tree_code(rng: random.Random, n: int, d: int) -> str:
    """Bracket code of a random tree with n leaves and outdegrees in 2..d.

    Children are written in random order, so the program has to canonicalize.
    """
    out: list[str] = []
    stack: list[object] = [n]
    while stack:
        item = stack.pop()
        if item == ")":
            out.append(")")
        elif item == 1:
            out.append("*")
        else:
            m = rng.randint(2, min(d, item))
            out.append("(")
            stack.append(")")
            stack.extend(random_composition(rng, item, m))
    return "".join(out)


def caterpillar_code(r: int, k: int, rng: random.Random | None = None) -> str:
    """Bracket code of the r-ary caterpillar with k leaves.

    Without ``rng`` the code is canonical (leaves before the subtree at every
    spine vertex); with it, the subtree sits at a random child position.
    """
    q = (k - 1) // (r - 1)
    head: list[str] = []
    tail: list[str] = []
    for _ in range(q - 1):
        before = rng.randint(0, r - 1) if rng else r - 1
        head.append("(" + "*" * before)
        tail.append("*" * (r - 1 - before) + ")")
    return "".join(head) + "(" + "*" * r + ")" + "".join(reversed(tail))


# -- workloads ------------------------------------------------------------------


class _Round:
    """Collects one round of ops; parameters that set an op's cost cycle
    through fixed variants, so every run mixes them evenly."""

    def __init__(self, rng: random.Random, turn: dict):
        self.rng = rng
        self.turn = turn
        self.ops: list[Op] = []

    def variant(self, cls: str, variants: list):
        i = self.turn.get(cls, 0)
        self.turn[cls] = i + 1
        return variants[i % len(variants)]

    def add(self, cls: str, argv: list, expect_exit: int = 0, **info) -> None:
        self.ops.append(Op(-1, cls, [str(a) for a in argv], expect_exit, info))


# Stored levels for frontier-resume: (command prefix, stored n_max).
RESUME_STORE = (
    (("conjecture", "--k", 4), 160),
    (("conjecture", "--k", 5), 160),
    (("conjecture", "--k", 6), 160),
    (("search-min", "--d", 3, "--k", 4, "--method", "pareto", "--general-d"), 50),
    (("search-min", "--d", 3, "--k", 5, "--method", "pareto", "--general-d"), 50),
    (("monotone", "--d", 4, "--k", 4, "--method", "pareto"), 30),
)


def resume_setup_commands(cache_dir: str) -> list[list[str]]:
    """Commands that store the levels every frontier-resume run starts from."""
    return [
        [str(a) for a in prefix] + ["--n-max", str(n), "--cache-dir", cache_dir, "--format", "csv"]
        for prefix, n in RESUME_STORE
    ]


def _frontier_sweep(r: _Round, cache_dir: str | None) -> None:
    # 30% small d=3/d=4 sweeps (~25 ms), 40% conjecture (p50, ~40 ms), 30%
    # d=2 search-min that also re-parses a witness per row (p90, ~120 ms).
    for _ in range(2):
        k = r.variant("search-min-d3", [4, 5])
        r.add(
            "search-min-d3",
            ["search-min", "--d", 3, "--k", k, "--n-max", r.rng.randint(30, 36),
             "--method", "pareto", "--general-d"],
            d=3, k=k,
        )
    r.add(
        "monotone-d4",
        ["monotone", "--d", 4, "--k", 4, "--n-max", r.rng.randint(22, 26), "--method", "pareto"],
        d=4, k=4,
    )
    for _ in range(4):
        k = r.variant("conjecture", [4, 5, 6])
        r.add("conjecture", ["conjecture", "--k", k, "--n-max", r.rng.randint(90, 120)], d=2, k=k)
    for _ in range(3):
        k = r.variant("search-min-d2", [4, 5, 6])
        r.add(
            "search-min-d2",
            ["search-min", "--d", 2, "--k", k, "--n-min", r.rng.randint(k, 40),
             "--n-max", r.rng.randint(120, 140)],
            d=2, k=k,
        )


def _frontier_resume(r: _Round, cache_dir: str | None) -> None:
    # 70% pure loads (p50 inside them, ~12 ms), 10% extend
    # the stored range by a few levels, 20% d=2 search-min windows that
    # re-parse witnesses (p90, ~55 ms). Sizes come from small sets so the
    # uncached reference runs stay few.
    def cmd(i: int, n_max: int) -> list:
        return list(RESUME_STORE[i][0]) + ["--n-max", n_max, "--cache-dir", cache_dir]

    r.add("load-d4", cmd(5, r.rng.choice([24, 30])))
    for _ in range(2):
        r.add("load-d3", cmd(r.variant("load-d3", [3, 4]), r.rng.choice([40, 50])))
    for _ in range(4):
        r.add("load-conjecture", cmd(r.variant("load-conjecture", [0, 1, 2]),
                                     r.rng.choice([120, 140, 160])))
    i = r.variant("extend", [0, 3, 1, 5, 2, 4])
    r.add("extend", cmd(i, RESUME_STORE[i][1] + r.rng.choice([3, 6])))
    for _ in range(2):
        k = r.variant("window-d2", [4, 5, 6])
        lo = r.rng.choice([100, 110])
        r.add("window-d2", ["search-min", "--d", 2, "--k", k, "--n-min", lo, "--n-max", lo + 50,
                            "--cache-dir", cache_dir])


# Caterpillar hosts: spine depths each (host arity, pattern) pair cycles
# through. In a fresh engine, counting on a spine deeper than about 990
# raises RecursionError; a shallower host counted earlier with the same
# pattern masks it through the shared memo. With fixed depths and a fixed
# order, the same ops fail (the first 1500, 1800 and 2400 of each pair) on
# every seed.
CATERPILLAR_DEPTHS = (1500, 500, 1800, 1300, 2400)
CATERPILLAR_PAIRS = ((2, 3), (3, 4), (2, 5), (3, 6), (2, 4), (3, 3), (2, 6), (3, 5))


def _exact_count(r: _Round, cache_dir: str | None) -> None:
    # 35% fast (complete hosts, enumeration and refusals, caterpillar hosts),
    # 45% branch recursion on 3000-3600-leaf random hosts (p50 a third into
    # it, ~30 ms), 20% brute-force oracle on 14-15-leaf hosts (p90, ~90 ms).
    rng = r.rng
    for _ in range(2):
        d = r.variant("complete", [2, 3, 4, 5])
        h = {2: rng.randint(9, 13), 3: rng.randint(6, 8), 4: rng.randint(5, 6), 5: rng.randint(4, 5)}[d]
        pr = rng.randint(2, d)
        pk = rng.choice([pr, pr + (pr - 1), pr + 2 * (pr - 1)])
        r.add(
            "complete",
            ["density", "--pattern-caterpillar", f"{pr},{pk}", "--tree-complete", f"{d},{h}"],
            kind="complete", r=pr, k=pk, d=d, h=h,
        )
    for _ in range(2):
        kind = r.variant("enumerate", ["enum", "enum-refused", "exhaustive", "exhaustive-refused"])
        if kind == "enum":
            d, n = rng.choice([(2, 11), (2, 12), (3, 8), (4, 7)])
            r.add("enumerate", ["enumerate", "--n", n, "--d", d], kind=kind, n=n, d=d)
        elif kind == "enum-refused":
            d, n = rng.choice([(2, 16), (3, 10), (4, 9)])
            r.add("enumerate", ["enumerate", "--n", n, "--d", d, "--max-trees", 200], 3,
                  kind=kind, n=n, d=d)
        else:
            k = rng.choice([4, 5])
            n_max, cap = (rng.randint(8, 9), None) if kind == "exhaustive" else (12, 3000)
            argv = ["search-min", "--d", 3, "--k", k, "--n-min", k, "--n-max", n_max,
                    "--method", "exhaustive"]
            if cap:
                argv += ["--max-trees", cap]
            r.add("enumerate", argv, 3 if cap else 0, kind=kind, d=3, k=k)
    for _ in range(3):
        i = r.variant("caterpillar", list(range(len(CATERPILLAR_PAIRS) * len(CATERPILLAR_DEPTHS))))
        hr, pk = CATERPILLAR_PAIRS[i % len(CATERPILLAR_PAIRS)]
        size = CATERPILLAR_DEPTHS[i // len(CATERPILLAR_PAIRS)] * (hr - 1) + 1
        r.add(
            "caterpillar",
            [rng.choice(["count", "density"]), "--pattern-caterpillar", f"2,{pk}",
             "--tree-caterpillar", f"{hr},{size}"],
            kind="caterpillar", k=pk, r=hr, size=size,
        )
    for _ in range(9):
        d = r.variant("random", [2, 3, 4, 5])
        pk = rng.randint(3, 6)
        pattern = caterpillar_code(2, pk, rng)
        host = random_tree_code(rng, rng.randint(3000, 3600), d)
        r.add("random", ["count", "--pattern", pattern, "--tree", host], kind="random", k=pk)
    for _ in range(4):
        n, k = r.variant("brute", [(14, 5), (15, 5), (14, 6)])
        host = random_tree_code(rng, n, rng.randint(2, 4))
        pattern = random_tree_code(rng, k, 3)
        r.add("brute", ["count", "--brute", "--pattern", pattern, "--tree", host], kind="brute")


def _simplex_verify(r: _Round, cache_dir: str | None) -> None:
    # 20% fast scans, 60% exact bound sampling (p50 inside the d=3 half of
    # it, ~40 ms), 20% mpmath Nelder-Mead at d=3 (p90, ~140 ms).
    rng = r.rng
    d, k = r.variant("sup", [(2 + (i + i // 4) % 4, 3 + i % 4) for i in range(16)])
    r.add("sup", ["simplex", "--mode", "sup", "--d", d, "--k", k,
                  "--eps-steps", rng.randint(16, 24)], d=d, k=k)
    d, k = r.variant("muirhead", [(2, 3), (3, 4), (2, 5), (3, 6), (2, 4), (3, 3), (2, 6), (3, 5)])
    r.add("muirhead", ["simplex", "--mode", "muirhead", "--d", d, "--k", k,
                       "--samples", rng.randint(60, 100), "--seed", rng.randrange(10**6)], d=d, k=k)
    for _ in range(6):
        d, k = r.variant("bound-sample", [(d, k) for k in (3, 4, 5, 6) for d in (2, 3, 4, 3)])
        r.add("bound-sample", ["simplex", "--mode", "bound-sample", "--d", d, "--k", k,
                               "--samples", rng.randint(280, 320), "--seed", rng.randrange(10**6)],
              d=d, k=k)
    for _ in range(2):
        k = r.variant("min", [3, 4, 5, 6])
        r.add("min", ["simplex", "--mode", "min", "--d", 3, "--k", k, "--starts", 4,
                      "--budget", 4000, "--seed", rng.randrange(10**6)], d=3, k=k)


_ROUND_MAKERS = {
    "frontier-sweep": _frontier_sweep,
    "frontier-resume": _frontier_resume,
    "exact-count": _exact_count,
    "simplex-verify": _simplex_verify,
}

# Report format per workload: csv is parsed by the checks; the simplex ops
# are rendered as pretty tables, whose verdict line is part of the check.
FORMATS = {
    "frontier-sweep": "csv",
    "frontier-resume": "csv",
    "exact-count": "csv",
    "simplex-verify": "pretty",
}


def rounds(workload: str, seed: int, cache_dir: str | None = None):
    """Endless stream of rounds (lists of ops) for one workload and seed.

    Op ids number the ops in execution order across rounds.
    """
    rng = random.Random(f"{workload}:{seed}")
    turn: dict[str, int] = {}
    make = _ROUND_MAKERS[workload]
    next_id = 0
    while True:
        r = _Round(rng, turn)
        make(r, cache_dir)
        # Shuffle which class runs where, but keep each class's ops in the
        # order they were made, so variant cycles run in a fixed order.
        slots = [op.cls for op in r.ops]
        rng.shuffle(slots)
        queues: dict[str, list[Op]] = {}
        for op in reversed(r.ops):
            queues.setdefault(op.cls, []).append(op)
        ops = [queues[cls].pop() for cls in slots]
        for op in ops:
            op.id = next_id
            next_id += 1
        yield ops
