#!/usr/bin/env python3
"""Sweep the symmetrized quartic relaxation over random operator ensembles.

Writes a flat CSV of (dist, n, m, seed, a22, upper, iterations, witnesses,
oracle, oracle_floor, oracle_steps, oracle_newton_steps) to stdout or --out.
The `upper` column is the weak-duality bound of the solver's dual point, valid
for every feasible point whether or not the solver converged; `iterations`
counts the solver's loop iterations and `witnesses` the witnesses of a
certified stop (0 where the loop's own point is returned).  The last two
columns are the oracle's power steps over all starts and the Newton steps of
its finish.

Usage:
    python scripts/random_operator_sweep.py [--n 4 8] [--seeds 5] [--ratio 50]
"""

import argparse
import csv
import sys

from hypernorm.core import random_operator
from hypernorm.oracles import norm_2_to_q_lower
from hypernorm.sdp import SolveOptions
from hypernorm.tensorsdp import a22_value


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, nargs="+", default=[4, 8])
    ap.add_argument("--ratio", type=int, default=50, help="m = ratio * n^2")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--restarts", type=int, default=64)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(fh)
    w.writerow(["dist", "n", "m", "seed", "a22", "upper", "iterations", "witnesses", "oracle",
                "oracle_floor", "oracle_steps", "oracle_newton_steps"])
    for dist in ("sign", "gaussian", "unit"):
        for n in args.n:
            m = args.ratio * n * n
            for seed in range(args.seeds):
                inst = random_operator(dist, n, m, seed)
                res = a22_value(inst, SolveOptions(tol=1e-7, max_iter=20_000),
                                return_details=True)
                ora = norm_2_to_q_lower(inst, 4, restarts=args.restarts, seed=seed)
                floor = (3.0 / (1.0 + 2.0 / n)) ** 0.25
                w.writerow([dist, n, m, seed, f"{res.value:.6f}", f"{res.bound:.6f}",
                            res.iterations, res.witnesses, f"{ora.value:.6f}", f"{floor:.6f}",
                            ora.trace["steps"], ora.trace["newton_steps"]])
                fh.flush()
    if args.out:
        fh.close()


if __name__ == "__main__":
    main()
