#!/usr/bin/env python3
"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks that, for every workload,
* the same seed gives an identical op list and, run in two fresh
  interpreters, identical per-op report digests;
* a different seed gives a different op list;
* the single command prints every metric BENCHMARK.json names, with its
  unit, untraced and traced;
and that the command fails without printing a result when the program's
sources are missing. Takes about two minutes; exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPS = 20  # two rounds of every workload


def op_list(workload: str, seed: int, rounds: int = 3) -> list[list[str]]:
    stream = workloads.rounds(workload, seed, "CACHE")
    return [op.argv for _ in range(rounds) for op in next(stream)]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the gated workloads of run.py")
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        for name in workloads.WORKLOADS + workloads.EXTRA_WORKLOADS:
            check(op_list(name, 7) == op_list(name, 7), f"{name}: seed 7 twice, same op list")
            check(op_list(name, 7) != op_list(name, 8), f"{name}: seeds 7 and 8 differ")
            digests = []
            for i in range(2):
                path = scratch / f"{name}-{i}.json"
                result(bench("--workload", name, "--seed", "7", "--ops", str(OPS),
                             "--digests", str(path)))
                digests.append(json.loads(path.read_text(encoding="utf-8")))
            check(len(digests[0]) >= OPS and digests[0] == digests[1],
                  f"{name}: two fresh runs of seed 7 give identical per-op digests")
            for trace, units in expected.items():
                res = result(bench("--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", trace, "--ops", str(OPS)))
                printed = {m: v["unit"] for m, v in res["metrics"].items()}
                check(set(res) == {"correct", "attempted", "failed", "metrics"}
                      and printed == units and res["correct"],
                      f"{name}: --trace {trace} prints every metric of BENCHMARK.json with its unit")
        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "exact-count", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the program's sources the command fails and prints no result")
    except AssertionError as err:
        print(f"FAILED: {err}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
