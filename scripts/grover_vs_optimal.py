#!/usr/bin/env python3
"""Single-application amplified search versus iterated classic search.

Prints one row per power-of-two dimension: the one-step success
probability, the classic peak step with its probability, and the first
step where the classic trace passes 1/2.
"""

import argparse

from optamp import SearchProblem, compare_with_grover


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=12, help="dimensions 2**1 .. 2**kmax")
    ap.add_argument("--marked", type=int, default=1, help="marked index (clamped to n-1)")
    ap.add_argument("--csv", help="also write the table to this CSV file")
    args = ap.parse_args()

    rows = []
    for k in range(1, args.kmax + 1):
        n = 2**k
        problem = SearchProblem(n, min(args.marked, n - 1))
        report = compare_with_grover(problem)
        rows.append(report)
        print(
            f"N={n:7d}  one-step P={report.one_step_probability:.12f}  "
            f"classic peak: step {report.grover_peak_step:4d} "
            f"(P={report.grover_peak_probability:.6f})  "
            f"first step >1/2: {report.grover_first_step_above_half}"
        )

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(
                "n,one_step_probability,grover_peak_step,"
                "grover_peak_probability,grover_first_step_above_half\n"
            )
            for r in rows:
                first = "" if r.grover_first_step_above_half is None else r.grover_first_step_above_half
                handle.write(
                    f"{r.n},{r.one_step_probability!r},{r.grover_peak_step},"
                    f"{r.grover_peak_probability!r},{first}\n"
                )
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
