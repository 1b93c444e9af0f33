"""optamp benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; it needs nothing beyond the checkout's
``src`` and numpy.  The measured time T is split evenly over WORKERS fresh
processes started one after another, each of which imports optamp, builds
its inputs from the seed, warms up with one op and runs a closed loop with
one client.  Pooling the workers gives WORKERS set-up times, of which the
median is reported.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A full record, with the
tail percentile and sample counts, the provenance and any errors, goes to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import EXPECTED, SPANS  # noqa: E402

WORKLOADS = tuple(EXPECTED)
WORKERS = 3
# A worker may run this much longer than its share of --seconds: set-up, the
# op that overshoots the share, and the traced run's probes.
WORKER_MARGIN_S = 50
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "throughput_amps_per_s": "amps/s",
    "peak_rss_mb": "MB",
}

CLI_COMMANDS = ("amplify", "sweep", "grover", "compare", "verify", "search")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.self_s": "s", f"{span}.share": "frac"})
    units.update(
        {
            "state.loads_state_vector.bytes": "B",
            "state.dumps_state_vector.bytes": "B",
            "family.apply.bytes_computed": "B",
            "family.apply.gbps": "GB/s",
            "machine.copy_gbps": "GB/s",
            "family.apply.bw_frac": "frac",
            "cli.interp_s": "s",
            "cli.import_s": "s",
        }
    )
    units.update({f"cli.{cmd}.wall_s": "s" for cmd in CLI_COMMANDS})
    units["trace.overhead_frac"] = "frac"
    return units


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the op-time tail.

    Below 2 * TAIL_BEYOND + 1 samples the rule would put the tail under the
    median, so the tail then keeps (n - 1) // 2 samples beyond it and reads
    as the (upper) median: too few samples resolve no tail.
    """
    ordered = sorted(samples)
    count = len(ordered)
    beyond = min(TAIL_BEYOND, (count - 1) // 2)
    return ordered[count - beyond - 1], 100.0 * (count - beyond) / count, beyond


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    durations = [d for r in results for d in r["durations"]]
    value, percentile, beyond = tail(durations)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": value,
        "throughput_amps_per_s": sum(r["total_n"] for r in results) / sum(durations),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    notes = {
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "op_samples": len(durations),
        "setup_s_each": [r["setup_s"] for r in results],
    }
    return metrics, notes


def per_layer(results: list[dict]) -> tuple[dict, dict]:
    traces = [r["trace"] for r in results]
    ops = [len(t["traced"]) for t in traces]
    metrics = {}
    for span in SPANS:
        layers = [t["layers"][span] for t in traces]
        metrics[f"{span}.calls"] = sum(l["calls"] * k for l, k in zip(layers, ops)) / sum(ops)
        metrics[f"{span}.self_s"] = statistics.median(l["self_s"] for l in layers)
        metrics[f"{span}.share"] = sum(l["self_total_s"] for l in layers) / sum(sum(t["traced"]) for t in traces)

    def per_op(span: str, key: str) -> float:
        return sum(t["layers"][span][key] * k for t, k in zip(traces, ops)) / sum(ops)

    apply_self = sum(t["layers"]["family.apply"]["self_total_s"] for t in traces)
    apply_bytes = per_op("family.apply", "bytes")
    apply_gbps = apply_bytes * sum(ops) / apply_self / 1e9 if apply_self > 0 else 0.0
    copy = traces[0].get("copy_gbps", 0.0)
    metrics.update(
        {
            "state.loads_state_vector.bytes": per_op("state.loads_state_vector", "bytes"),
            "state.dumps_state_vector.bytes": per_op("state.dumps_state_vector", "bytes"),
            "family.apply.bytes_computed": apply_bytes,
            "family.apply.gbps": apply_gbps,
            "machine.copy_gbps": copy,
            "family.apply.bw_frac": apply_gbps / copy if copy > 0 else 0.0,
            "cli.interp_s": traces[0].get("interp_s", 0.0),
            "cli.import_s": traces[0].get("import_s", 0.0),
        }
    )
    for cmd in CLI_COMMANDS:
        walls = [t["cli_wall_s"][cmd] for t in traces if cmd in t["cli_wall_s"]]
        metrics[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0.0
    untraced = [d for t in traces for d in t["untraced"]]
    traced = [d for t in traces for d in t["traced"]]
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    notes = {
        "traced_ops": sum(ops),
        "untraced_ops": len(untraced),
        "missing_spans": sorted({m for t in traces for m in t["missing"]}),
        "wrapped_while_untraced": sorted({w for t in traces for w in t["wrapped_untraced"]}),
    }
    return metrics, notes


def run_worker(args, index: int, path: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / WORKERS),
        "--trace", str(args.trace),
        "--index", str(index),
        "--result", path,
    ]  # fmt: skip
    # A session of its own lets a timeout stop the worker's CLI children too.
    timeout = args.seconds / WORKERS + WORKER_MARGIN_S
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker {index} did not finish within {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"worker {index} exited with code {code}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "optamp", "__init__.py")):
        print(f"error: no optamp sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = []
    try:
        for index in range(WORKERS):
            path = os.path.join(out_dir, f"{stem}-w{index}.json")
            if os.path.exists(path):
                os.unlink(path)
            results.append(run_worker(args, index, path))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics, notes = per_layer(results)
        units = per_layer_units()
        problems = notes["missing_spans"] + notes["wrapped_while_untraced"]
    else:
        metrics, notes = end_to_end(results)
        units = END_TO_END_UNITS
        problems = sorted({w for r in results for w in r["wrapped"]})
    errors = [e for r in results for e in r["errors"]]
    notes.update(failed_frac=failed / attempted, problems=problems, errors=errors)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": results[0]["provenance"],
        "notes": notes,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("provenance " + json.dumps(record["provenance"]))
    print("notes " + json.dumps({k: v for k, v in notes.items() if k != "errors"}))
    for error in errors:
        print("failed " + error.replace("\n", " | "))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
