#!/usr/bin/env python3
"""Measure what building and reading a moment relaxation costs.

For each case, writes one CSV row: the median seconds of the build
(``MomentRelaxation`` on the rows of sum_i <r_i, x>^4, objective included),
of the anchor's set-up (``tensorsdp._Anchor``) and of
``extract_pseudoexpectation`` on the rank-one moment matrix of a unit vector,
and the tracemalloc peak of one build, set-up and extraction together.  The
cases are a22 (level 4) on ``core.random_operator("gaussian", n, 4 n^2, 0)``
at the sizes given, and the (n, d, m) of the moment-cert benchmark
workload's items.  No solve runs.  Runs with one BLAS thread, as the
benchmark does.

Usage:
    python scripts/relaxation_build_cost.py [--a22-sizes 8 12 20 30] [--reps 5] [--out FILE]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import statistics
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

from hypernorm.core import random_operator
from hypernorm.tensorsdp import MomentRelaxation, _Anchor, low_degree_instance

A22_SIZES = [8, 12, 20, 30]
# the moment-cert items: (name, distribution, n, m, level); the last is the
# degree-<=2 cube projector on 4 bits, 11 Fourier coefficients
MOMENT_CERT = [("L4-gauss-n4-m800", "gaussian", 4, 800, 4), ("L4-sign-n8-m3200", "sign", 8, 3200, 4),
               ("L4-gauss-n8-m64", "gaussian", 8, 64, 4), ("L6-gauss-n6-m36", "gaussian", 6, 36, 6),
               ("L8-gauss-n4-m16", "gaussian", 4, 16, 8), ("L4-hyper-l4-d2", None, 11, 16, 4)]


def one_pass(rows, d):
    """Seconds of the build, the anchor's set-up and the extraction."""
    t0 = time.perf_counter()
    relax = MomentRelaxation(None, rows.shape[1], d, rows=rows)
    t1 = time.perf_counter()
    _Anchor(relax)
    t2 = time.perf_counter()
    x = np.ones(rows.shape[1]) / np.sqrt(rows.shape[1])
    z = relax._scale * np.prod(x ** relax._exps, axis=1)
    t3 = time.perf_counter()
    relax.extract_pseudoexpectation(SimpleNamespace(X=[np.outer(z, z)]))
    t4 = time.perf_counter()
    return t1 - t0, t2 - t1, t4 - t3


def peak_kib(rows, d):
    tracemalloc.start()
    one_pass(rows, d)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--a22-sizes", type=int, nargs="*", default=A22_SIZES)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cases = [(f"a22-gauss-n{n}-m{4 * n * n}", random_operator("gaussian", n, 4 * n * n, 0).quartic_rows(), 4)
             for n in args.a22_sizes]
    for name, dist, n, m, d in MOMENT_CERT:
        inst = low_degree_instance(4, 2) if dist is None else random_operator(dist, n, m, 0)
        cases.append((name, inst.quartic_rows(), d))
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(fh)
    w.writerow(["case", "n", "d", "m", "build_s", "anchor_s", "extract_s", "peak_kib"])
    for name, rows, d in cases:
        times = [one_pass(rows, d) for _ in range(args.reps)]
        build, anchor, extract = (statistics.median(t) for t in zip(*times))
        w.writerow([name, rows.shape[1], d, rows.shape[0], f"{build:.6f}", f"{anchor:.6f}", f"{extract:.6f}",
                    f"{peak_kib(rows, d):.0f}"])
        fh.flush()


if __name__ == "__main__":
    main()
