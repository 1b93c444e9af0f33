"""Command-line front end: amplify, sweep, grover, search, compare, verify."""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Optional

from .errors import ParameterOutOfRange
from .family import SignChoice, make_spec
from .family import apply as apply_spec
from .grover import dumps_trace_csv, grover_iterate
from .optimal import AmplifyReport, amplify_optimal, dumps_sweep_csv, theta_sweep
from .search import SearchProblem, compare_with_grover, one_step_search
from .state import StateVector, _dumps_json, _write_text, dumps_state_vector, load_state_vector
from .verify import dumps_verification, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _state_sibling(path: str) -> str:
    """Where `amplify` writes the post vector next to its report."""
    stem = path[:-5] if path.endswith(".json") else path
    return stem + ".state.json"


def _input_state(args: argparse.Namespace) -> StateVector:
    if args.input_path is not None:
        return load_state_vector(args.input_path)
    if args.n is None:
        raise ParameterOutOfRange("provide --input or --n")
    return StateVector.uniform(args.n)


def _default_steps(n: int) -> int:
    return math.ceil(2.0 * math.sqrt(n))


def _cmd_amplify(args: argparse.Namespace) -> int:
    state = _input_state(args)
    if args.theta == "auto":
        out, report = amplify_optimal(state, args.signs)
    else:
        spec = make_spec(state.n, float(args.theta), args.signs)
        out = apply_spec(spec, state)
        report = AmplifyReport.from_arrays(spec.theta, state.amplitudes, out.amplitudes)
    _emit(report.to_json(), args.output_path)
    if args.output_path is not None:
        _emit(dumps_state_vector(out), _state_sibling(args.output_path))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    state = _input_state(args)
    rows = theta_sweep(state, args.signs, args.points)
    _emit(dumps_sweep_csv(rows), args.output_path)
    return EXIT_OK


def _cmd_grover(args: argparse.Namespace) -> int:
    state = _input_state(args)
    steps = args.max_steps if args.max_steps is not None else _default_steps(state.n)
    rows = grover_iterate(state, steps)
    _emit(dumps_trace_csv(rows), args.output_path)
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    problem = SearchProblem(args.n, args.marked)
    found, amplitude = one_step_search(problem)
    obj = {
        "n": problem.n,
        "marked": problem.marked,
        "found_index": found,
        "amplitude": amplitude,
        "probability": amplitude**2,
    }
    _emit(_dumps_json(obj), args.output_path)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    problem = SearchProblem(args.n, args.marked)
    steps = args.max_steps if args.max_steps is not None else _default_steps(problem.n)
    report = compare_with_grover(problem, steps)
    _emit(report.to_json(), args.output_path)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verification(args.seed, args.n)
    _emit(dumps_verification(summary), args.output_path)
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


_COMMANDS = {
    "amplify": _cmd_amplify,
    "sweep": _cmd_sweep,
    "grover": _cmd_grover,
    "search": _cmd_search,
    "compare": _cmd_compare,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optamp",
        description="Amplitude amplification operators, optimal-angle selection, "
        "and one-step marked-item search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", dest="input_path", help="state-vector JSON file")
            p.add_argument("--n", type=int, help="dimension for the uniform start (when no --input)")
        p.add_argument("--output", dest="output_path", help="artifact file (stdout when omitted)")

    def add_signs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--signs",
            type=SignChoice.from_string,
            default=SignChoice.all_plus(),
            help="five comma-separated signs, e.g. '+1,-1,+1,+1,+1' (default all +1)",
        )

    p = sub.add_parser("amplify", help="amplify component 0 of a vector")
    add_io(p)
    add_signs(p)
    p.add_argument(
        "--theta",
        default="auto",
        help="mixing angle in radians, or 'auto' for the optimal one (default auto); "
        "with --output, the post vector lands next to the report as *.state.json",
    )
    # Else argparse, whose negative-number pattern has no exponent, reads "-1e-3" as an option.
    p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    p = sub.add_parser("sweep", help="post-amplitude of component 0 over a theta grid (CSV)")
    add_io(p)
    add_signs(p)
    p.add_argument("--points", type=int, default=1000, help="grid resolution (default 1000)")

    p = sub.add_parser("grover", help="iterate the classic search operator (CSV trace)")
    add_io(p)
    p.add_argument(
        "--max-steps",
        dest="max_steps",
        type=int,
        help="iterations to record (default ceil(2*sqrt(n)))",
    )

    p = sub.add_parser("search", help="one-step search for a marked index (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    add_io(p, with_input=False)

    p = sub.add_parser("compare", help="one-step search versus iterated classic search (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", type=int, required=True)
    p.add_argument("--max-steps", dest="max_steps", type=int, help="classic iteration cap")
    add_io(p, with_input=False)

    p = sub.add_parser("verify", help="seeded randomized invariant battery (JSON)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (numpy default_rng)")
    p.add_argument("--n", type=int, default=64, help="dimension of the checked vectors")
    add_io(p, with_input=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
