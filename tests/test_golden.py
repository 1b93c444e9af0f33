"""Golden digests of the CLI's artifacts.

Each case in `CASES` runs one argv through `optamp.cli.main` in process.  The
sha256 of every artifact the run writes (stdout, stderr, and for `amplify
--output` the report and its `.state.json`), together with the exit code,
must equal the case's entry in `golden.json`.  So a change that moves one
bit of one artifact fails here; a change that moves bits on purpose
regenerates the file and lists the changed digests.

A case tagged "ieee" uses only + - * / and sqrt, which IEEE 754 rounds the
same way on every host.  A case tagged "libm" also goes through np.cos,
np.sin or math.atan2, whose last bits may differ between hosts, or reads the
input file, whose values come from numpy's normal stream.  A case tagged
"text" writes a state file or a CSV, whose floats orjson spells; another
orjson version may spell the same digits differently, as ``1e16`` or
``1e+16``.  `golden.json` keeps a fingerprint of all of these; on a host
whose fingerprint differs, the cases that depend on it skip with a reason
that names the mismatch.

Regenerate the digests, and only then, with

    PYTHONPATH=src python tests/test_golden.py

which prints each fingerprint key and each case whose digests it changes,
naming the case's moved artifacts, before it writes the file.
"""

import hashlib
import io
import json
import math
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from reference import random_unit

from optamp import StateVector, dumps_state_vector, save_state_vector
from optamp.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

# The one input file: a seeded `random_unit` vector at n = 1000.
INPUT_SEED = 20000
INPUT_N = 1000

# Placeholders in an argv, filled with the input file and the report path.
IN, OUT = "{input}", "{output}"

CASES = {
    "sweep-file-777": ("libm text", ["sweep", "--input", IN, "--points", "777"]),
    "sweep-file-2000": ("libm text", ["sweep", "--input", IN, "--points", "2000"]),
    "grover-file-300": ("libm text", ["grover", "--input", IN, "--max-steps", "300"]),
    "grover-n-65536": ("ieee text", ["grover", "--n", "65536"]),
    "search-8": ("libm", ["search", "--n", "8", "--marked", "3"]),
    "search-1024": ("libm", ["search", "--n", "1024", "--marked", "700"]),
    "compare-8": ("libm", ["compare", "--n", "8", "--marked", "3"]),
    "compare-1024": ("libm", ["compare", "--n", "1024", "--marked", "700"]),
    **{
        f"verify-{seed}-{n}": ("libm", ["verify", "--seed", str(seed), "--n", str(n)])
        for seed in range(4)
        for n in (64, 4096)
    },
    "amplify-file-auto": ("libm text", ["amplify", "--input", IN, "--output", OUT]),
    "amplify-file-theta": (
        "libm text",
        ["amplify", "--input", IN, "--theta", "0.7", "--signs=-1,-1,+1,+1,+1", "--output", OUT],
    ),
    "amplify-n-1": ("ieee", ["amplify", "--n", "1"]),
}

# The fingerprint key a "text" case depends on; a "libm" case depends on the others.
FLOAT_TEXT = "float_text"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint() -> dict:
    """The host's bits for everything a "libm" case depends on beyond IEEE
    754: np.cos and np.sin on an array and on scalars, math.atan2, and the
    input vector (numpy's normal stream and the norm it is divided by).
    Then, under ``FLOAT_TEXT``, the state writer's text of a probe that
    holds every spelling: zeros, subnormals, both notations and the
    exponents where they switch."""
    angles = np.linspace(0.0, 7.0, 1001)
    scalars = [float(x) for x in angles]
    atan2 = [math.atan2(math.sin(x), math.cos(x) * 31.0) for x in scalars]
    vector = random_unit(np.random.default_rng(INPUT_SEED), INPUT_N).amplitudes
    probe = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1 / 3, 0.1, 1e308, 123.25]
    probe += [sign * 1.25 * 10.0**j for j in range(-30, 31) for sign in (1, -1)]
    probe += [2.0**j for j in range(-60, 61)]
    return {
        "numpy_major": int(np.__version__.split(".")[0]),
        "cos": _sha(np.cos(angles).tobytes() + np.array([np.cos(x) for x in scalars]).tobytes()),
        "sin": _sha(np.sin(angles).tobytes() + np.array([np.sin(x) for x in scalars]).tobytes()),
        "atan2": _sha(struct.pack(f"<{len(atan2)}d", *atan2)),
        "input": _sha(vector.tobytes()),
        FLOAT_TEXT: _sha(dumps_state_vector(StateVector.unnormalized(len(probe), probe)).encode()),
    }


def write_input(directory: Path) -> Path:
    path = directory / "input.json"
    save_state_vector(random_unit(np.random.default_rng(INPUT_SEED), INPUT_N), path)
    return path


def run_case(name: str, input_path: Path, directory: Path) -> dict:
    """Run one case and return its exit code and artifact digests."""
    report = directory / f"{name}.json"
    places = {IN: str(input_path), OUT: str(report)}
    argv = [places.get(arg, arg) for arg in CASES[name][1]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    result = {
        "exit": code,
        "stdout": _sha(out.getvalue().encode("utf-8")),
        "stderr": _sha(err.getvalue().encode("utf-8")),
    }
    if OUT in CASES[name][1]:
        result["report"] = _sha(report.read_bytes())
        result["state"] = _sha(report.with_name(f"{name}.state.json").read_bytes())
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return write_input(tmp_path_factory.mktemp("golden"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifact_digests_match_golden(name, golden, input_path, tmp_path):
    tags = CASES[name][0].split()
    host = fingerprint()
    mismatch = [
        key
        for key, value in golden["fingerprint"].items()
        if ("text" if key == FLOAT_TEXT else "libm") in tags and host.get(key) != value
    ]
    if mismatch:
        pytest.skip(f"fingerprint differs from golden.json in {', '.join(mismatch)}")
    assert run_case(name, input_path, tmp_path) == golden["cases"][name]


def changes(old: dict, new: dict) -> list[str]:
    """One line for each fingerprint key and each case whose digests differ
    between the ``old`` and ``new`` golden documents; a case's line names
    the artifacts that moved."""
    was, now = old.get("fingerprint", {}), new["fingerprint"]
    lines = [f"fingerprint {key}" for key in sorted({**was, **now}) if was.get(key) != now.get(key)]
    was, now = old.get("cases", {}), new["cases"]
    for name in sorted({**was, **now}):
        before, after = was.get(name, {}), now.get(name, {})
        moved = sorted(key for key in {**before, **after} if before.get(key) != after.get(key))
        if moved:
            lines.append(f"case {name}: {', '.join(moved)}")
    return lines


def test_changes_names_each_moved_fingerprint_key_and_artifact():
    old = {"fingerprint": {"cos": "a", "sin": "b"}, "cases": {"x": {"exit": 0, "stdout": "s"}}}
    new = {
        "fingerprint": {"cos": "a", "sin": "c"},
        "cases": {"x": {"exit": 0, "stdout": "t"}, "y": {"exit": 2}},
    }
    assert changes(old, new) == ["fingerprint sin", "case x: stdout", "case y: exit"]
    assert changes(new, new) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = write_input(directory)
        cases = {name: run_case(name, path, directory) for name in sorted(CASES)}
    document = {"fingerprint": fingerprint(), "cases": cases}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    print("\n".join(changes(old, document)) or "no case or fingerprint key changed")
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
