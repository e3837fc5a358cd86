"""Report bytes pinned for a fixed command corpus.

Each command runs in-process through ``cli.main``, in order, in one fresh
working directory: the later ``cache`` rows read what the ``--cache-dir
cache`` rows stored. The SHA-256 of each command's exit code, stdout and
stderr must equal the digest recorded when the corpus was added, and so must
the digest of the cache files the corpus leaves behind. A refactor that
claims to keep every report byte-identical is thereby checked, not trusted.
Every subcommand and every output format appears at least once, and each
command takes well under half a second.
"""

import hashlib

from treedensity.cli import ENV_CACHE_DIR, main

CORPUS = [
    ("count --pattern-caterpillar 2,3 --tree-complete 3,3 --format csv",
     "e3fd8d417ecca9716dc28aed94f477a8da2718a2c2d9bc5af651573c9d296812"),
    ("density --pattern ((**)(**)) --tree-even 40",
     "e697bdf7f05e6c80dd8d51205e4320feda15edce9d5bf5d2fc11d8cfaa6b26f9"),
    ("count --pattern-caterpillar 2,4 --tree ((**)(*(**))(***)) --brute --format jsonl",
     "9c673c03fcb45c3f81efddce2802923a9da727559ffee80771c3f30c2c5c34a9"),
    ("enumerate --n 7 --d 3 --format csv",
     "e0e13c478141a6c3fe453dfa2ed4bae175f09c0b1df3d345212762bc17d79be7"),
    ("limits --d 3 --k 5 --format jsonl",
     "a968b0f012c24e68e08d3fbd8156abc3b203959fc0283f55e078e930683c46be"),
    ("search-min --d 2 --k 5 --n-max 40 --format csv",
     "4a3d5a8b88ce4b17e505c10da34195569d8b02970dfd24742585a80a90ac2f85"),
    ("search-min --d 3 --k 4 --n-max 30 --method pareto --general-d --format csv --cache-dir cache",
     "e9c053dec886040c7833e06db1013a802c9d7e68a59747f78c11d7a3a0147ad2"),
    ("search-min --d 3 --k 4 --n-min 4 --n-max 9 --method exhaustive --format jsonl",
     "a8ebc1f36456d3edaa4d06d0a57945bf32033fef4e4415a3ed46f264d1f85e08"),
    ("conjecture --k 5 --n-max 60 --cache-dir cache",
     "a0d5afbbd12eca3414b853383442248fb10dfee90232d55ae5855551bc985e76"),
    ("conjecture --k 5 --n-max 70 --cache-dir cache --format csv",
     "f1ef6ce0c4d8edc187d5175f054a55029646c78f74a65aa6939cdf9a782c3a28"),
    ("monotone --d 4 --k 4 --n-max 26 --method pareto --format csv",
     "a6801b1ea9d67bd7bfe1f4df09122b5d42994834b719fd21af2d09f998f4ef3b"),
    ("monotone --d 2 --k 4 --n-max 30 --format jsonl",
     "c8555c87750975303a31419fbad21e0e0f55547d0138a4eee1a726f36a665c8e"),
    ("simplex --d 3 --k 4 --mode sup --eps-steps 6 --format csv",
     "72e70767dbfc0a0278f21c0e7ec1efbcd042f7b900493f7bd76201c27cb5690c"),
    ("simplex --d 2 --k 4 --mode bound-sample --samples 20 --seed 3 --format jsonl",
     "eb4aeb6e3c14f8f63e7fdc299ec705150d4b0303380b78ac609c7411b5f318b6"),
    ("cache --cache-dir cache",
     "b108b0427571d45b9f643f358df0677b51248b63a39584607c581d3bd3a80be9"),
]

# 100 files: levels 1..30 of (d, k) = (3, 4) and 1..70 of (2, 5)
CACHE_FILES = (100, "4f49d1e2dee2a463eb856beeb41f4a141894df328b8b69d4fb3cacfafd62b03a")


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def test_report_bytes_match_the_recorded_corpus(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    got = []
    for line, _ in CORPUS:
        code = main(line.split())
        captured = capsys.readouterr()
        got.append((line, _digest(code, captured.out, captured.err)))
    assert got == CORPUS
    files = sorted((tmp_path / "cache").iterdir())
    cached = hashlib.sha256()
    for path in files:
        cached.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert (len(files), cached.hexdigest()) == CACHE_FILES
