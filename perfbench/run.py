#!/usr/bin/env python3
"""Benchmark of the treedensity command line, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One researcher at a time runs ``treedensity`` subcommands and waits for each
report, so a run is a closed loop with one client: every op is an in-process
``treedensity.cli.main(argv)`` call with ``--output`` into a scratch
directory, in the seeded order ``workloads.py`` builds, with no threads. A
fresh interpreter per run keeps module memos empty at the start and makes
``ru_maxrss`` belong to the run. A run executes a fixed number of whole
rounds of ops: as many as take ``--seconds`` of op time on the reference
machine (``OPS_PER_S``), and at least ``MIN_OPS`` ops, so the 90th
percentile has at least ten samples beyond it. The op list, and with it the
count of attempted and failed ops, therefore depends only on the workload,
the seed and ``--seconds``, not on how fast the machine is. Every report is checked
(``checks.py``); an op fails when it raises, exits with another code than
the one documented for its input, or its report is wrong.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer split (``spans.py``) with
``--trace 1``. ``correct`` is false only when a report holds a wrong value;
ops that raise or exit unexpectedly count in ``failed``, with their causes
printed above the JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr
from pathlib import Path

import workloads
from checks import Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # scratch space inside the checkout

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_frac", "fraction"),
]
# A run executes at least this many ops, and its peak RSS is read once this
# many have run, so memory reflects a fixed amount of work, not machine speed.
MIN_OPS = {"frontier-sweep": 200, "frontier-resume": 600, "exact-count": 300, "simplex-verify": 300}
# Ops per second of op time on the reference machine (a shared 2-vCPU Xeon VM,
# Python 3.11.7); sets how many ops a run of --seconds executes.
OPS_PER_S = {"frontier-sweep": 16, "frontier-resume": 40, "exact-count": 20, "simplex-verify": 19}
SETUP_SAMPLES = 5
LOOP_WALL_LIMIT_S = 120  # keeps a run inside 180 s even on a stalled machine
CALIBRATION_LOOPS = 1_000_000


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on the last CPU it may
    use, so a run never migrates between vCPUs that run at different speeds.
    On the reference machine CPU 0 was the less steady one. Returns the CPU,
    or None where the platform does not allow pinning."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; printed to show machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def import_cli():
    """treedensity.cli from this checkout's sources, or None if absent."""
    if not (SRC / "treedensity" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import treedensity.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        return None
    return cli


def prepare(cli, workload: str, tmp: Path) -> Path | None:
    """One-time preparation; returns the frontier cache directory, if any."""
    if workload != "frontier-resume":
        return None
    cache_dir = tmp / "cache"
    for argv in workloads.resume_setup_commands(str(cache_dir)):
        rc = cli.main(argv + ["--output", str(tmp / "setup.out")])
        if rc != 0:
            raise RuntimeError(f"setup command {argv} exited {rc}")
    return cache_dir


def setup_probe(workload: str) -> int:
    """Child process: time import plus preparation, print the seconds."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        start = time.perf_counter()
        cli = import_cli()
        if cli is None:
            return 2
        prepare(cli, workload, tmp)
        print(repr(time.perf_counter() - start))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def _child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def planned_ops(workload: str, seconds: float) -> int:
    """Ops a run of ``seconds`` executes, before rounding up to whole rounds."""
    return max(MIN_OPS[workload], round(seconds * OPS_PER_S[workload]))


def run_ops(cli, workload, seed, seconds, tmp, cache_dir, tracer=None, max_ops=None):
    """Execute whole rounds of ops; return the measurements and verdicts."""
    checker = Checker(workload)
    fmt = workloads.FORMATS[workload]
    out_path = tmp / "report.out"
    base_files = set(os.listdir(cache_dir)) if cache_dir else set()
    latencies: list[float] = []
    by_class: dict[str, list[float]] = defaultdict(list)
    failures: Counter = Counter()
    wrong: list[str] = []
    digests: list[list] = []
    op_time = 0.0
    peak_rss_mb = None
    min_ops = MIN_OPS[workload] if max_ops is None else max_ops
    target = planned_ops(workload, seconds) if max_ops is None else max_ops
    loop_start = time.perf_counter()
    for ops in workloads.rounds(workload, seed, str(cache_dir) if cache_dir else None):
        if peak_rss_mb is None and len(latencies) >= min_ops:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(latencies) >= target:
            break
        if time.perf_counter() - loop_start > LOOP_WALL_LIMIT_S:
            print(f"note: stopped after {LOOP_WALL_LIMIT_S} s of wall time")
            break
        for op in ops:
            argv = op.argv + ["--output", str(out_path), "--format", fmt]
            if out_path.exists():
                out_path.unlink()
            raised = None
            with redirect_stderr(io.StringIO()):
                if tracer is not None:
                    tracer.op_id = op.id
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash is a failed op, not a failed run
                    rc, raised = None, type(exc).__name__
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op_id = None
            op_time += elapsed
            latencies.append(elapsed)
            by_class[op.cls].append(elapsed)
            report = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
            if raised:
                failures[f"{op.cls}: raised {raised}"] += 1
            elif rc != op.expect_exit:
                failures[f"{op.cls}: exit {rc}, expected {op.expect_exit}"] += 1
            else:
                try:
                    problem = checker.check(op, report)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problem = f"unreadable report ({type(exc).__name__}: {exc})"
                if problem:
                    failures[f"{op.cls}: wrong report"] += 1
                    wrong.append(f"op {op.id} ({' '.join(op.argv)[:120]}): {problem}")
            command = " ".join(op.argv)
            if cache_dir:
                command = command.replace(str(cache_dir), "CACHE")
            digests.append([op.id, op.cls, _sha(command), raised or rc, _sha(report)])
            if cache_dir:  # every op starts from the stored levels of setup
                for name in set(os.listdir(cache_dir)) - base_files:
                    os.unlink(cache_dir / name)
    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload == "frontier-resume":
        def uncached(argv):
            ref = tmp / "reference.out"
            try:
                with redirect_stderr(io.StringIO()):
                    rc = cli.main(argv + ["--output", str(ref), "--format", fmt])
                return rc, ref.read_text(encoding="utf-8")
            except Exception as exc:  # reported as a mismatch below
                return type(exc).__name__, ""

        distinct, problem = checker.resume_references(uncached)
        print(f"resume check: {distinct} distinct commands compared with uncached runs")
        if problem:
            wrong.append(problem)
    return {
        "latencies": latencies,
        "by_class": by_class,
        "failures": failures,
        "wrong": wrong,
        "digests": digests,
        "op_time": op_time,
        "peak_rss_mb": peak_rss_mb,
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(res, setup_s: float) -> dict[str, float]:
    lat = sorted(res["latencies"])
    n = len(lat)
    failed = sum(res["failures"].values())
    return {
        "setup_s": setup_s,
        "ops_per_s": n / res["op_time"],
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": lat[math.ceil(0.9 * n) - 1] * 1000,
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": (n - failed) / n,
    }


def print_summary(args, res, setup_samples, calib, cpu) -> None:
    import mpmath

    n = len(res["latencies"])
    failed = sum(res["failures"].values())
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"python {platform.python_version()}  nproc {os.cpu_count()}  pinned to CPU {cpu}  "
        f"mpmath {mpmath.__version__} backend {mpmath.libmp.BACKEND}"
    )
    print("calibration loop s: before {:.4f}  after {:.4f}".format(*calib))
    print("setup samples s: " + " ".join(f"{s:.4f}" for s in setup_samples))
    print(f"ops: {n} in {res['op_time']:.3f} s of op time;"
          f" p90 has {n - math.ceil(0.9 * n)} samples beyond it")
    for cls, lat in sorted(res["by_class"].items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  class {cls:<16} ops {len(lat):>4}  share {len(lat) / n:.3f}"
              f"  median {statistics.median(lat) * 1000:9.3f} ms"
              f"  max {max(lat) * 1000:9.3f} ms")
    print(f"ops_failed_frac {failed / n:.6f} ({failed} of {n})")
    for cause, count in sorted(res["failures"].items()):
        print(f"  failed: {count:>4}  {cause}")
    for line in res["wrong"][:10]:
        print(f"  WRONG: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + workloads.EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops, set up once")
    parser.add_argument("--digests", help="write per-op argv and report digests here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("TREEDENSITY_CACHE_DIR", None)
    if args.setup_probe:
        return setup_probe(args.workload)

    if not (SRC / "treedensity" / "cli.py").is_file():
        print(f"error: no treedensity sources under {SRC}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    calib_before = calibrate()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        start = time.perf_counter()
        cli = import_cli()
        if cli is None:
            print(f"error: treedensity does not import from {SRC}", file=sys.stderr)
            return 2
        cache_dir = prepare(cli, args.workload, tmp)
        setup_samples = [time.perf_counter() - start]
        if args.ops is None:
            for _ in range(SETUP_SAMPLES - 1):
                probe = ["--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
                setup_samples.append(float(_child(probe)))
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        res = run_ops(cli, args.workload, args.seed, args.seconds, tmp, cache_dir,
                      tracer, args.ops)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calib = (calib_before, calibrate())

    print_summary(args, res, setup_samples, calib, cpu)
    if args.digests:
        Path(args.digests).write_text(json.dumps(res["digests"]) + "\n", encoding="utf-8")
    if tracer is None:
        metrics = end_to_end(res, statistics.median(setup_samples))
        units = dict(END_TO_END)
    else:
        n = len(res["latencies"])
        reference = json.loads(_child([
            "--workload", args.workload, "--seed", str(args.seed), "--trace", "0", "--ops", str(n),
        ]))
        untraced = reference["attempted"] / reference["metrics"]["ops_per_s"]["value"]
        metrics = tracer.metrics(res["op_time"] / untraced - 1)
        units = dict(spans.LAYER_METRICS)
        spans_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": len(res["latencies"]),
        "failed": sum(res["failures"].values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
