"""Report bytes pinned for a fixed command corpus.

Each command runs in-process through ``cli.main``, in order, in one fresh
working directory, which must stay empty. The SHA-256 of each command's exit
code, stdout and stderr must equal the digest recorded when the corpus was
added. A refactor that claims to keep every report byte-identical is thereby
checked, not trusted.
Every subcommand and every output format appears at least once, and each
command takes well under half a second. The corpus is also run in two child
interpreters, one under another hash seed and one under ``python -O``, since
a rerun in this interpreter cannot see a dependence on either.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import treedensity
from treedensity.cli import main

CORPUS = [
    ("count --pattern-caterpillar 2,3 --tree-complete 3,3 --format csv",
     "e3fd8d417ecca9716dc28aed94f477a8da2718a2c2d9bc5af651573c9d296812"),
    ("density --pattern ((**)(**)) --tree-even 40",
     "e697bdf7f05e6c80dd8d51205e4320feda15edce9d5bf5d2fc11d8cfaa6b26f9"),
    ("count --pattern-caterpillar 2,4 --tree ((**)(*(**))(***)) --brute --format jsonl",
     "9c673c03fcb45c3f81efddce2802923a9da727559ffee80771c3f30c2c5c34a9"),
    ("enumerate --n 7 --d 3 --format csv",
     "e0e13c478141a6c3fe453dfa2ed4bae175f09c0b1df3d345212762bc17d79be7"),
    ("enumerate --n 9 --d 2",
     "e34b21352726995a3b1a5a33a03a6dcf9eedd802ba1a0e8470426a82906ec80f"),
    ("enumerate --n 7 --d 3 --strict --format jsonl",
     "ee226ed93e4fdafa7a0ca38b19b08b58ee8ccda9e9a315850c2446d609ed5191"),
    # a spine 2,400 vertices deep
    ("count --pattern-caterpillar 2,5 --tree-caterpillar 3,4801",
     "5be6e76bb8aff0ce61ef15f3778aff853c2cc8d9f937dbd9c606634f2b6909f7"),
    # repeated shapes, written in both orders, and siblings of equal code length
    ("count --pattern ((**)(**)) --tree (((**)(**))(*(*(**)))(*(**)**(**))((***)*)(*(***))(**)"
     "(*(**))((**)*)) --format jsonl",
     "efe61d9568eaae1c3e891df6ff01666164bd6efe24e40f0cfe64dc43564fb651"),
    # the oracle on a 4-ary host: 6-subsets whose leaves meet at one depth
    # three and four times over
    ("count --pattern (*(**)(***)) --tree ((**)(*(**)*(**))(**(**))(***)) --brute",
     "0f05d00e4f54d6cef4bb21b308181d7648c86fd21d51cb6f39bdaf5a4713431d"),
    # a two-branch shape with equal classes at vertices of 3 to 5 children
    ("count --pattern ((**)(**)) --tree ((**)(**)(*(**)(**)**)(***)(**(**))) --format csv",
     "6f30f9116f271aa1ae2561058ee31248da20dfc5e7c2f59f3e8caccda6152be1"),
    # a ternary spine 600 vertices deep under a six-leaf binary caterpillar
    ("density --pattern-caterpillar 2,6 --tree-caterpillar 3,1201 --format jsonl",
     "343d06e12b4dc5d3e1c7f444cb1f3ff966e7fa17e2d16c6d04c77e2a6543a28d"),
    ("limits --d 3 --k 5 --format jsonl",
     "a968b0f012c24e68e08d3fbd8156abc3b203959fc0283f55e078e930683c46be"),
    ("search-min --d 2 --k 5 --n-max 40 --format csv",
     "4a3d5a8b88ce4b17e505c10da34195569d8b02970dfd24742585a80a90ac2f85"),
    ("search-min --d 3 --k 4 --n-max 30 --method pareto --general-d --format csv",
     "e9c053dec886040c7833e06db1013a802c9d7e68a59747f78c11d7a3a0147ad2"),
    ("search-min --d 3 --k 4 --n-min 4 --n-max 9 --method exhaustive --format jsonl",
     "a8ebc1f36456d3edaa4d06d0a57945bf32033fef4e4415a3ed46f264d1f85e08"),
    ("conjecture --k 5 --n-max 60",
     "a0d5afbbd12eca3414b853383442248fb10dfee90232d55ae5855551bc985e76"),
    ("conjecture --k 5 --n-max 70 --format csv",
     "f1ef6ce0c4d8edc187d5175f054a55029646c78f74a65aa6939cdf9a782c3a28"),
    ("monotone --d 4 --k 4 --n-max 26 --method pareto --format csv",
     "a6801b1ea9d67bd7bfe1f4df09122b5d42994834b719fd21af2d09f998f4ef3b"),
    ("monotone --d 2 --k 4 --n-max 30 --format jsonl",
     "c8555c87750975303a31419fbad21e0e0f55547d0138a4eee1a726f36a665c8e"),
    ("simplex --d 3 --k 4 --mode sup --eps-steps 6 --format csv",
     "72e70767dbfc0a0278f21c0e7ec1efbcd042f7b900493f7bd76201c27cb5690c"),
    ("simplex --d 2 --k 4 --mode bound-sample --samples 20 --seed 3 --format jsonl",
     "eb4aeb6e3c14f8f63e7fdc299ec705150d4b0303380b78ac609c7411b5f318b6"),
    ("simplex --d 3 --k 4 --mode muirhead --samples 40 --seed 5 --format csv",
     "703434cce7581dc0bfe35de94086bf18c56c5f16a23d7a323607352468fb4b98"),
    ("simplex --d 3 --k 5 --mode min --starts 4 --budget 4000 --seed 7 --format csv",
     "6151ef49f253a9c2ac008143a4600a183cfc77e60f11e2e54a84ed02aa22d748"),
    ("simplex --d 4 --k 3 --mode min --starts 2 --budget 3000 --seed 2 --format jsonl",
     "adb23253bc414fe4757f62a0b749f02629dbc9d20cb1fa9b2a8f9cb89e2c395e"),
    ("simplex --d 4 --k 6 --mode certify --format jsonl",
     "d5c0ffd49b5aa85d9802dda7e966d11465fcf92aeb41b163b07d7e37a79f65ab"),
]


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def test_report_bytes_match_the_recorded_corpus(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    got = []
    for line, _ in CORPUS:
        code = main(line.split())
        captured = capsys.readouterr()
        got.append((line, _digest(code, captured.out, captured.err)))
    assert got == CORPUS
    assert list(tmp_path.iterdir()) == []


# The corpus loop of the test above, for a child interpreter: argv holds the
# package's parent directory, this file's directory and the working directory.
# It prints its digests as JSON and asserts nothing, so -O cannot strip a check.
_CHILD = """
import contextlib, io, json, os, sys
sys.path[:0] = sys.argv[1:3]
import test_report_corpus as corpus
os.chdir(sys.argv[3])
got = []
for line, _ in corpus.CORPUS:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = corpus.main(line.split())
    got.append([line, corpus._digest(code, out.getvalue(), err.getvalue())])
print(json.dumps([got, os.listdir()]))
"""


def test_the_corpus_is_the_same_under_other_hash_seeds_and_under_O(tmp_path):
    package_parent = str(Path(treedensity.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    children = []
    for flags, seed in [((), "1"), (("-O",), "987654")]:
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        # no inherited PYTHON* setting, such as PYTHONOPTIMIZE, may blur the two runs
        env = {key: v for key, v in os.environ.items() if not key.startswith("PYTHON")}
        env.update(PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, *flags, "-c", _CHILD, package_parent, here, str(cwd)]
        children.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True))
    for child in children:
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        got, written = json.loads(out)
        assert [tuple(pair) for pair in got] == CORPUS
        assert written == []
