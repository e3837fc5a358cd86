"""Help and usage-error bytes pinned for a fixed argv corpus.

Each argv runs in-process through ``cli.main`` in a fresh working directory
with ``COLUMNS=80``, so argparse wraps its text the same way on any terminal.
The SHA-256 of each call's exit code, stdout and stderr must equal the digest
recorded when the corpus was added. The corpus covers the top-level parser
(``--help``, ``-h``, an empty argv, an unknown command, ``--``) and, for every
subcommand, its ``--help``, no flags, an unknown flag, a non-integer ``--d``
and a trailing argument after a valid command, which the top-level parser
reports. No argv runs a command, and none writes a file.

argparse's wording and wrapping change between Python minor versions, so the
digests hold for the version they were recorded under and the test skips on
any other.
"""

import hashlib
import sys

import pytest

from treedensity.cli import main

RECORDED_UNDER = (3, 11)

# one argv per subcommand that parses; the corpus appends "extra" to each
VALID = {
    "count": "count --pattern-caterpillar 2,3 --tree-even 8",
    "density": "density --pattern-caterpillar 2,3 --tree-even 8",
    "enumerate": "enumerate --n 4 --d 2",
    "limits": "limits --d 2 --k 3",
    "search-min": "search-min --d 2 --k 3 --n-max 5",
    "conjecture": "conjecture --k 3 --n-max 5",
    "monotone": "monotone --d 2 --k 3 --n-max 5",
    "simplex": "simplex --d 2 --k 3",
}

ARGV = [
    "--help", "-h", "", "frobnicate", "-- count",
    *(
        line
        for name, valid in VALID.items()
        for line in (f"{name} --help", name, f"{name} --bogus", f"{name} --d two", f"{valid} extra")
    ),
]

DIGESTS = {
    "--help":
        "45bba8c3eb35de5b03220e73e2a80716739583c75c4687c62cacf0a5892df77d",
    "-h":
        "45bba8c3eb35de5b03220e73e2a80716739583c75c4687c62cacf0a5892df77d",
    "":
        "18102a067a0b112ae0d3ceedcddd55ee7846bbaa26bbcb62eadea30efdac810a",
    "frobnicate":
        "ad742dfc9708b0686206633ef65e903e6a40099cae05cca9d37a23a5145e86aa",
    "-- count":
        "e7b59914bfc33b11cef104dacd4708bc985a1372788b3087458833aa57eb6439",
    "count --help":
        "5942e8c29b38514f635d18bdc9ae6e7bc4a31f21a0938f550e63fbbf7051ebf9",
    "count":
        "0bb6fcca425bf5b3448ef4e2cfe20794df3fca8776d54a2474621eac2b6f632a",
    "count --bogus":
        "0bb6fcca425bf5b3448ef4e2cfe20794df3fca8776d54a2474621eac2b6f632a",
    "count --d two":
        "0bb6fcca425bf5b3448ef4e2cfe20794df3fca8776d54a2474621eac2b6f632a",
    "count --pattern-caterpillar 2,3 --tree-even 8 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "density --help":
        "e231fece18d50ce1370076b6439441c946824f5ffff868a49ec37bfcffccbfc1",
    "density":
        "5edf49a30876a1122e16bb0ca38561321b705c137be65079378b1d8ce23a211d",
    "density --bogus":
        "5edf49a30876a1122e16bb0ca38561321b705c137be65079378b1d8ce23a211d",
    "density --d two":
        "5edf49a30876a1122e16bb0ca38561321b705c137be65079378b1d8ce23a211d",
    "density --pattern-caterpillar 2,3 --tree-even 8 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "enumerate --help":
        "94f3c37716ce3b764e165b0718db5e7e51864cd80f39f9b49a65dd9b7ae29032",
    "enumerate":
        "b59f7a0f4e1e496706243237c92a7e179b7f963f424162a8ff3a897c222c2dee",
    "enumerate --bogus":
        "b59f7a0f4e1e496706243237c92a7e179b7f963f424162a8ff3a897c222c2dee",
    "enumerate --d two":
        "d59e5fa0994eeb2d13fbfdb34b6ed2e190829f09b2c4a0e123ef4251b300bc09",
    "enumerate --n 4 --d 2 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "limits --help":
        "9fe74c4e75b8c44cf0e82cada52ecd8a6e231bb9efe7b539b12d2ef181faf7cd",
    "limits":
        "ac813725325780f3f160c1a337f1a3336f3fd87d19b6f0eed66159d0f3582102",
    "limits --bogus":
        "ac813725325780f3f160c1a337f1a3336f3fd87d19b6f0eed66159d0f3582102",
    "limits --d two":
        "e7ad026391b35880ce242a9a1fa129ae60e74b1aa6418370ecf9ea5b77bd39fe",
    "limits --d 2 --k 3 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "search-min --help":
        "43a74091898539133109e11d73807b949c9973fea90a6c7623eb58430aa53b54",
    "search-min":
        "412a420a7ae902bcccbf4da647ec8de31f5701c303fa1f6141d4a52987bed0f2",
    "search-min --bogus":
        "412a420a7ae902bcccbf4da647ec8de31f5701c303fa1f6141d4a52987bed0f2",
    "search-min --d two":
        "fe0d6da12808a9486eb1fde2833e7296bbd85b392b570869550eac203860fba2",
    "search-min --d 2 --k 3 --n-max 5 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "conjecture --help":
        "099fd18c6e39a20fc9c0638dfe28c1974c668722200b5be21bb107c3c7ed4810",
    "conjecture":
        "1d14952c1398e60265b81e3417a0bfe6052e67032998fe989fd8fd3255b58466",
    "conjecture --bogus":
        "1d14952c1398e60265b81e3417a0bfe6052e67032998fe989fd8fd3255b58466",
    "conjecture --d two":
        "1d14952c1398e60265b81e3417a0bfe6052e67032998fe989fd8fd3255b58466",
    "conjecture --k 3 --n-max 5 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "monotone --help":
        "9c00fcc975fa0dca096b60e93ad751ac67c59624f9471d39a11048027c9369d0",
    "monotone":
        "7f56a6316d2d921712e217cd18c5026d1793edda2734f8797465a345fc129951",
    "monotone --bogus":
        "7f56a6316d2d921712e217cd18c5026d1793edda2734f8797465a345fc129951",
    "monotone --d two":
        "dc24b5997aa4f7ed660b861f635622883480037bd114b0a830f072b929041904",
    "monotone --d 2 --k 3 --n-max 5 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
    "simplex --help":
        "589dbfe1968f4ffed8095c3752ac9e689ee2f699cb27b8b76ef106e18305f171",
    "simplex":
        "f3c5ada8cbd03a349fe4188c179269a71e2ad23e083bf4ceda515f8a9979de2f",
    "simplex --bogus":
        "f3c5ada8cbd03a349fe4188c179269a71e2ad23e083bf4ceda515f8a9979de2f",
    "simplex --d two":
        "c1d7a153098e23ec9a7686f7883d36e2647e1236e2c4ae0e8a2dd9ceeab4f25c",
    "simplex --d 2 --k 3 extra":
        "7b791b12d3174690148ddb56cc37461c776202f58182d36113059bde4ea14ca9",
}


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def _run_corpus(capsys) -> dict[str, str]:
    got = {}
    for line in ARGV:
        code = main(line.split())
        captured = capsys.readouterr()
        got[line] = _digest(code, captured.out, captured.err)
    return got


@pytest.mark.skipif(
    sys.version_info[:2] != RECORDED_UNDER, reason="help digests were recorded under Python 3.11"
)
def test_help_and_usage_bytes_match_the_recorded_corpus(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    assert _run_corpus(capsys) == DIGESTS
    assert list(tmp_path.iterdir()) == []
