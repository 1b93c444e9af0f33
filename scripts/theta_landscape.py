#!/usr/bin/env python3
"""Sweep the mixing angle for a seeded random unit vector and mark the optimum."""

import argparse

import numpy as np

from optamp import amplify_optimal, dumps_sweep_csv, theta_sweep
from optamp.optimal import SWEEP_POINTS
from optamp.verify import random_unit_vector


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=SWEEP_POINTS)
    ap.add_argument("--output", default="theta_landscape.csv")
    args = ap.parse_args()

    vec = random_unit_vector(np.random.default_rng(args.seed), args.n)

    rows = theta_sweep(vec, points=args.points)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(dumps_sweep_csv(rows))

    _, report = amplify_optimal(vec)
    sweep_best = rows[np.argmax(rows[:, 1])]
    print(f"wrote {args.output} ({args.points} points)")
    print(f"optimal theta = {report.theta_star:.12f}  amplitude = {report.post_amplitude0:.12f}")
    print(f"sweep best    = {sweep_best[0]:.12f}  amplitude = {sweep_best[1]:.12f}")
    print(f"pre amplitude |a0| = {abs(report.pre_amplitude0):.12f}  absolute = {report.absolute}")


if __name__ == "__main__":
    main()
