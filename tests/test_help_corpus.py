"""Help and usage-error bytes pinned for a fixed argv corpus.

Each argv runs in-process through ``cli.main`` in a fresh working directory
with ``COLUMNS=80``, so argparse wraps its text the same way on any terminal.
The SHA-256 of each call's exit code, stdout and stderr must equal the digest
recorded when the corpus was added. The corpus covers the top-level parser
(``--help``, ``-h``, an empty argv, an unknown command, ``--``) and, for every
subcommand, its ``--help``, no flags, an unknown flag, a non-integer ``--d``
and a trailing argument after a valid command, which the top-level parser
reports. Only the bare ``cache`` runs a command: it reports the default
cache directory, which does not exist, and creates nothing.

argparse's wording and wrapping change between Python minor versions, so the
digests hold for the version they were recorded under and the test skips on
any other.
"""

import hashlib
import sys

import pytest

from treedensity.cli import ENV_CACHE_DIR, main

RECORDED_UNDER = (3, 11)

# one argv per subcommand that parses; the corpus appends "extra" to each
VALID = {
    "count": "count --pattern-caterpillar 2,3 --tree-even 8",
    "density": "density --pattern-caterpillar 2,3 --tree-even 8",
    "enumerate": "enumerate --n 4 --d 2",
    "limits": "limits --d 2 --k 3",
    "search-min": "search-min --d 2 --k 3 --n 5",
    "conjecture": "conjecture --k 3 --n-max 5",
    "monotone": "monotone --d 2 --k 3 --n-max 5",
    "simplex": "simplex --d 2 --k 3",
    "cache": "cache --cache-dir cache",
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
        "e6453735d038ac5aa1aa40ac6e313925aaa0043dc26e8aa79fa7543c14c87f6e",
    "-h":
        "e6453735d038ac5aa1aa40ac6e313925aaa0043dc26e8aa79fa7543c14c87f6e",
    "":
        "629461123f6a70e79c7b792d9a86b229ef8a7aa85541c07ad8f78d05126a01f4",
    "frobnicate":
        "9e4567954319b93931b67dbd6672c82dd958a76fad9c8e5dd4749afb5d983361",
    "-- count":
        "064bb445e4b05356edd8fe06282145d4f5d90b996049799edff976a7f7463ffd",
    "count --help":
        "3c4bcaa9836bcd495f779a7874c972aa3de0ca8866dfaa24b71631c46d76f353",
    "count":
        "767a763426553b40daca4203ac255161808c3589ba11a21946221bc0d66bd909",
    "count --bogus":
        "767a763426553b40daca4203ac255161808c3589ba11a21946221bc0d66bd909",
    "count --d two":
        "767a763426553b40daca4203ac255161808c3589ba11a21946221bc0d66bd909",
    "count --pattern-caterpillar 2,3 --tree-even 8 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "density --help":
        "ad3d35966204f2727504d082cd6fbb0e8be19cf997849b675304ac57d837b314",
    "density":
        "191ee959af38af6bc97d4e226c3b7f624c9a0a97174dec322a16d33c865aa01b",
    "density --bogus":
        "191ee959af38af6bc97d4e226c3b7f624c9a0a97174dec322a16d33c865aa01b",
    "density --d two":
        "191ee959af38af6bc97d4e226c3b7f624c9a0a97174dec322a16d33c865aa01b",
    "density --pattern-caterpillar 2,3 --tree-even 8 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "enumerate --help":
        "94f3c37716ce3b764e165b0718db5e7e51864cd80f39f9b49a65dd9b7ae29032",
    "enumerate":
        "b59f7a0f4e1e496706243237c92a7e179b7f963f424162a8ff3a897c222c2dee",
    "enumerate --bogus":
        "b59f7a0f4e1e496706243237c92a7e179b7f963f424162a8ff3a897c222c2dee",
    "enumerate --d two":
        "d59e5fa0994eeb2d13fbfdb34b6ed2e190829f09b2c4a0e123ef4251b300bc09",
    "enumerate --n 4 --d 2 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "limits --help":
        "9fe74c4e75b8c44cf0e82cada52ecd8a6e231bb9efe7b539b12d2ef181faf7cd",
    "limits":
        "ac813725325780f3f160c1a337f1a3336f3fd87d19b6f0eed66159d0f3582102",
    "limits --bogus":
        "ac813725325780f3f160c1a337f1a3336f3fd87d19b6f0eed66159d0f3582102",
    "limits --d two":
        "e7ad026391b35880ce242a9a1fa129ae60e74b1aa6418370ecf9ea5b77bd39fe",
    "limits --d 2 --k 3 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "search-min --help":
        "981bfb3eb7c9ba56745181ba1623c5a8f8207f6538756870de976b5d72c085e7",
    "search-min":
        "c26fe20cf3a4758d2540a65e66f8b5d794bf621254edfa5bbd24ef9b3965909f",
    "search-min --bogus":
        "c26fe20cf3a4758d2540a65e66f8b5d794bf621254edfa5bbd24ef9b3965909f",
    "search-min --d two":
        "41a990a62b62ac92a14853129c67f9815f9c0a470ffb9edaabc989776d592e12",
    "search-min --d 2 --k 3 --n 5 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "conjecture --help":
        "d307d77b6bfe8172393e7047c30f1d8f9ddd8d9b18eb093e176e124911fa5a6d",
    "conjecture":
        "d922431ca148f646a637e1cf3b2532249af68dd03816792883e5f9baa007d174",
    "conjecture --bogus":
        "d922431ca148f646a637e1cf3b2532249af68dd03816792883e5f9baa007d174",
    "conjecture --d two":
        "d922431ca148f646a637e1cf3b2532249af68dd03816792883e5f9baa007d174",
    "conjecture --k 3 --n-max 5 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "monotone --help":
        "60d20eb8c39fdf7326e1dc073ceba68c2faec1f32635062a5e0824ff5e6dd1a1",
    "monotone":
        "bede730cf616e01571ee82f349282f99431e112545c5c61d09505a1065d52e36",
    "monotone --bogus":
        "bede730cf616e01571ee82f349282f99431e112545c5c61d09505a1065d52e36",
    "monotone --d two":
        "8e4729e35119fc0386e6d4cca28793c151178e8aa026384b5ed319fe66e9528f",
    "monotone --d 2 --k 3 --n-max 5 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "simplex --help":
        "45ce56c5b72fa089fb096cb7f1a00edc78cf2684c44a6a65eb971e3287ef8315",
    "simplex":
        "451db52fc93fc134624e3a0e6027d930a60bd5eb2ed784b24349a799282a40af",
    "simplex --bogus":
        "451db52fc93fc134624e3a0e6027d930a60bd5eb2ed784b24349a799282a40af",
    "simplex --d two":
        "739b51a444892b521cce39f1a515b7572449d8577b2c5de886b007b2f5aebc73",
    "simplex --d 2 --k 3 extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
    "cache --help":
        "11db5a1527776fe4811095ea32ebdb84d0598d1ac1c3d83f9a994993de14f96b",
    "cache":
        "286aeb18dbbd0576b06f9ae13661330b40d3836b0289ad8325fed1f5eae09f9c",
    "cache --bogus":
        "8d15d14dd0951c6ae094a54537bcca38aabf08f2cf745d2f7a82e53594081f9b",
    "cache --d two":
        "edbe0c079385f749cf5c10ee48ee66ad3cda05bb9df728dde95222370db701e6",
    "cache --cache-dir cache extra":
        "d0d84bc07741c0bebaa14b13e850fa9bec6383e41f502757a37f340afbd22854",
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
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    assert _run_corpus(capsys) == DIGESTS
    assert list(tmp_path.iterdir()) == []
