"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py prints, that
the layer map covers every traced span, that a span which no longer exists
in optamp makes tracing fail loudly, and then runs every workload briefly:
untraced (which asserts that no optamp callable is wrapped) and traced
(which asserts that every span mapped to the workload fired).  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

# Each workload runs this long, traced and untraced: enough for a few ops.
RUN_SECONDS = 1.0


def check_benchmark_json(failures: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END_UNITS:
        failures.append(f"end_to_end in BENCHMARK.json {declared} != run.py {run.END_TO_END_UNITS}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        failures.append("per_layer in BENCHMARK.json differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("workloads in BENCHMARK.json differ from run.py")


def check_layer_map(failures: list[str]) -> None:
    mapped = {span for spans in tracing.EXPECTED.values() for span in spans}
    if mapped != set(tracing.SPANS):
        failures.append(f"spans mapped to no workload: {sorted(set(tracing.SPANS) - mapped)}")


def check_rename_fails_loudly(failures: list[str]) -> None:
    import optamp.cli  # noqa: F401  (binds every module the spans live in)
    import optamp.family

    original = optamp.family.make_spec
    del optamp.family.make_spec
    try:
        tracing.Recorder().install()
        failures.append("install() accepted a span that no longer exists")
    except RuntimeError:
        pass
    finally:
        optamp.family.make_spec = original
    if tracing.wrapped_callables():
        failures.append(f"a failed install left wrappers behind: {tracing.wrapped_callables()}")
    recorder = tracing.Recorder()
    recorder.install()
    wrapped = tracing.wrapped_callables()
    recorder.uninstall()
    for name in ("optamp.cli.amplify_optimal", "optamp.search.amplify_optimal", "optamp.verify.amplify_optimal"):
        if name not in wrapped:
            failures.append(f"install() did not wrap {name}")
    if tracing.wrapped_callables():
        failures.append(f"uninstall() left wrappers behind: {tracing.wrapped_callables()}")


def check_runs(failures: list[str]) -> None:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )  # fmt: skip
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{workload} trace={trace}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                failures.append(f"{workload} trace={trace}: not correct: " + " / ".join(lines[:-1])[-1500:])
            print(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']}")


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    check_layer_map(failures)
    check_rename_fails_loudly(failures)
    check_runs(failures)
    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
