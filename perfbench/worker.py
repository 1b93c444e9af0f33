"""One measuring process: import optamp, build inputs, warm up, then run the closed loop.

Usage: python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --index K --result PATH

`run.py` starts several of these one after another and pools what they
write to PATH.  One client sends the next op only when the previous one
has finished.  The loop stops at the first op that completes once the
ops' summed time reaches T; the output checks run between ops and are
not timed.  With --trace 1 the first half of T runs untraced and the
second half traced, which gives the tracing overhead.
"""

import time

# Set-up time counts from here: it includes importing numpy and optamp.
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import provenance  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS_KEPT = 5
PROBE_REPEATS = 5


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_ERRORS_KEPT - len(self.errors)
            self.errors += [f"op {self.attempted - 1}: {e}" for e in errors[:room]]
        return not errors


def one_op(wl, i: int, stats: Stats, recorder=None, op: int = -1):
    """Run, time and check op ``i``; returns (seconds, n or 0 if it failed)."""
    if recorder is not None:
        recorder.current_op = op
    errors = None
    start = time.perf_counter()
    try:
        n, outputs = wl.run(i)
    except Exception:
        n, outputs, errors = 0, None, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.current_op = -1
    try:
        if errors is None:
            errors = wl.check(i, outputs)
        if recorder is not None:
            for path in wl.cli.take_span_files():
                recorder.merge(path, op)
    except Exception:
        errors = [traceback.format_exc(limit=3)]
    del outputs
    return elapsed, (n if stats.record(errors) else 0)


def closed_loop(wl, window: float, stats: Stats, recorder=None):
    durations: list[float] = []
    busy = 0.0
    total_n = 0
    while busy < window:
        elapsed, n = one_op(wl, stats.attempted, stats, recorder, len(durations))
        durations.append(elapsed)
        busy += elapsed
        total_n += n
    return durations, total_n


def median_wall(cli, args: list[str]) -> float:
    walls = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        cli.python(args).check_returncode()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def copy_gbps(n: int) -> float:
    """numpy.copyto between two preallocated n-element float64 arrays, read + write bytes."""
    src = np.ones(n)
    dst = np.empty(n)
    np.copyto(dst, src)
    walls = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        walls.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(walls) / 1e9


def trace_phase(args, wl, stats: Stats, tmp: str) -> dict:
    window = args.seconds / 2
    untraced, _ = closed_loop(wl, window, stats)
    wrapped_untraced = tracing.wrapped_callables()
    walls = {}
    if wl.cli_workload:
        for command, wall in wl.cli.walls:
            walls.setdefault(command, []).append(wall)
        wl.cli.span_dir = tmp
    recorder = tracing.Recorder()
    if not wl.cli_workload:
        recorder.install()
    try:
        traced, _ = closed_loop(wl, window, stats, recorder)
    finally:
        recorder.uninstall()
    spans = recorder.arrays()
    out_dir = os.path.dirname(args.result)
    recorder.save(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-w{args.index}.npz"))
    layers = tracing.summarize(spans, traced)
    result = {
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "missing": [name for name in tracing.EXPECTED[args.workload] if layers[name]["calls"] == 0],
        "wrapped_untraced": wrapped_untraced,
        "cli_wall_s": {cmd: statistics.median(v) for cmd, v in walls.items()},
    }
    if wl.cli_workload and args.index == 0:
        interp = median_wall(wl.cli, ["-c", "pass"])
        result["interp_s"] = interp
        result["import_s"] = median_wall(wl.cli, ["-c", "import optamp.cli"]) - interp
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    source = os.path.join(ROOT, "src", "optamp")
    if os.path.dirname(os.path.abspath(workloads.optamp.__file__)) != source:
        print(f"error: optamp imported from {workloads.optamp.__file__}, not {source}", file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        cli = workloads.Cli(ROOT)
        wl = workloads.WORKLOADS[args.workload](tmp, cli)
        wl.setup(np.random.default_rng(args.seed))
        stats = Stats()
        # The warm-up op counts towards set-up, its untimed output check does not.
        warmup_start = time.perf_counter()
        warmup_s, _ = one_op(wl, 0, stats)
        cli.walls.clear()
        result = {"setup_s": warmup_start - START + warmup_s}
        if args.index == 0:
            result["provenance"] = provenance.collect(ROOT, args.seed, wl.array_bytes)
        if args.trace:
            result["trace"] = trace_phase(args, wl, stats, tmp)
            if args.workload == "lib-large":
                n, wl = wl.n, None  # free the 512 MiB input before the probe allocates two more
                result["trace"]["copy_gbps"] = copy_gbps(n)
        else:
            result["durations"], result["total_n"] = closed_loop(wl, args.seconds, stats)
            result["wrapped"] = tracing.wrapped_callables()
        who = resource.RUSAGE_CHILDREN if workloads.WORKLOADS[args.workload].cli_workload else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        result.update(attempted=stats.attempted, failed=stats.failed, errors=stats.errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
