#!/usr/bin/env python3
"""CI-cycle benchmark for ranwatch.

    python3 cibench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Generates the workload's corpus from the seed, three times over, then runs
whole CI cycles (retrain on the history, gate every release) on the first
copy until ``--seconds`` have passed, at least one. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps ranwatch's
public functions and reports per-layer metrics instead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Output sha256s are printed before it. See cibench/README.md.
"""

from __future__ import annotations

import os

# One process, no more threads than cores: numpy's BLAS pool stays single.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import fcntl
import json
import resource
import shutil
import statistics
import struct
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up creates thousands of files, whose cost swings with the state of the
# file system; it is timed this many times per run and setup_s is the median.
SETUP_REPEATS = 3


def _process_age() -> float:
    """Seconds since this process started, interpreter start included."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # starttime, field 22
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ranwatch CI-cycle benchmark")
    parser.add_argument("--workload", required=True, choices=("fleet", "gate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def _spread_subdirectories(path: Path) -> None:
    """Ask ext4 to start each subdirectory of ``path`` in a little-used block group.

    On ext4 without a journal, a new inode may not reuse one deleted in
    the last one to six minutes, and each allocation scans past every such
    inode in its block group. Right after the previous run deleted its
    corpus in the same group, a fleet generation took 3.6-3.8 s instead
    of 0.7 s, almost all of it kernel time. Under a directory with the
    top-directory flag (``chattr +T``) ext4 searches for each new
    subdirectory's group from a hash of its name, taking the group with
    the fewest directories, so names that change from run to run land
    away from the previous runs' deleted inodes. Where the flag is not
    supported, nothing changes.
    """
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            (flags,) = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, struct.pack("i", 0)))
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
        finally:
            os.close(fd)


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles; the median of one value is itself."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "ranwatch" / "cli.py").is_file():
        print(f"ranwatch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from cibench import corpus as corpus_mod
    from cibench.cycle import run_cycle
    from cibench.trace import Tracer, additivity_problems, per_layer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    shape = corpus_mod.SHAPES[args.workload]
    run_dir = ROOT / "cibench" / ".runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.parent.mkdir(exist_ok=True)
    _spread_subdirectories(run_dir.parent)
    run_dir.mkdir()
    _spread_subdirectories(run_dir)
    try:
        started_s = _process_age()  # interpreter start and imports
        copies, generate_s = [], []
        for i in range(SETUP_REPEATS):
            span = tracer.open("setup") if tracer else None
            t0 = time.perf_counter()
            copy_dir = run_dir / f"corpus{i}-{os.getpid()}"  # a group of its own, see above
            copies.append(corpus_mod.generate(shape, args.seed, copy_dir))
            generate_s.append(time.perf_counter() - t0)
            if span is not None:
                tracer.close(span)
        corpus = copies[0]  # the copies are identical
        setup_s = started_s + statistics.median(generate_s)
        concurrency = min(2, os.cpu_count() or 1)
        cycles = []
        t0 = time.perf_counter()
        while not cycles or time.perf_counter() - t0 < args.seconds:
            cycles.append(run_cycle(corpus, run_dir / "work", concurrency, tracer))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            run_dir.parent.rmdir()

    problems = [p for c in cycles for p in c.problems]
    hashes = cycles[0].hashes
    problems += [f"cycle {i}: output hashes differ from cycle 0"
                 for i, c in enumerate(cycles) if c.hashes != hashes]
    if tracer:
        problems += additivity_problems(tracer)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, digest in hashes.items():
        print(f"sha256 {digest} {name}")

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    if tracer:
        values = per_layer(tracer, len(cycles))
    else:
        gates = [s for c in cycles for s in c.gate_s] or [0.0]

        def med(of_cycle) -> float:
            return statistics.median(of_cycle(c) for c in cycles)

        values = {
            "setup_s": setup_s,
            "tests_per_s": med(lambda c: c.n_tests / c.busy_s),
            "ingest_s": med(lambda c: c.ingest_s),
            "train_s": med(lambda c: c.stage_s.get("train-baseline", 0.0) + c.stage_s.get("train-risk", 0.0)),
            "analyze_s": med(lambda c: c.stage_s.get("analyze", 0.0)),
            "gate_p50_ms": 1000.0 * statistics.median(gates),
            "gate_p90_ms": 1000.0 * _quantile(gates, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(f"set-up: imports {started_s:.3f} s, generations "
          f"{', '.join(f'{g:.3f}' for g in generate_s)} s", file=sys.stderr)
    print(f"cycles {len(cycles)} attempted {attempted} failed {failed}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
