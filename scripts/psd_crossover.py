#!/usr/bin/env python3
"""Measure where the PSD step's one-sided eigensolves beat its full ``eigh``.

For each order N and count k, writes one CSV row: the median time of the
positive-side path (LAPACK ``evr`` on (0, inf)) on a matrix with k positive
eigenvalues, the full path on the same matrix, and the same pair for the
negative-side path (``evr`` on (-inf, 0]) on a matrix with k negative
eigenvalues.  A ratio below 1 means the one-sided path is faster; the gate
constant ``linalg.SUBSET_RATIO`` is read off this table.  It times
``linalg._psd_project``, the step the SDP loop calls on exactly symmetric
blocks, without the public function's check and symmetrization.  Runs with
one BLAS thread, as the benchmark does.

Usage:
    python scripts/psd_crossover.py [--sizes 12 15 22 ...] [--reps 200] [--out FILE]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import statistics
import sys
import time

import numpy as np

from hypernorm import linalg

SIZES = [12, 15, 22, 30, 36, 45, 70, 84]
FRACTIONS = (0.0, 1 / 16, 1 / 8, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2)


def with_spectrum(w, rng):
    q, _ = np.linalg.qr(rng.normal(size=(len(w), len(w))))
    m = (q * w) @ q.T
    return (m + m.T) / 2


def paired_us(m, hint, reps):
    """Median microseconds of the full path and of the path ``hint`` picks,
    timed alternately so that a change in machine speed hits both."""
    times = {None: [], hint: []}
    for _ in range(reps):
        for h in (None, hint):
            t = time.perf_counter()
            linalg._psd_project(m, h)
            times[h].append(time.perf_counter() - t)
    return 1e6 * statistics.median(times[None]), 1e6 * statistics.median(times[hint])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    # with ratio 2, hint 0 takes the positive side, hint N the negative side
    # and no hint the full eigh, whatever the spectrum
    linalg.SUBSET_RATIO = 2
    rng = np.random.default_rng(args.seed)
    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(fh)
    w.writerow(["n", "k", "full_pos_us", "pos_us", "pos_ratio", "full_neg_us", "neg_us", "neg_ratio"])
    for n in args.sizes:
        for k in sorted({max(1, round(n * f)) for f in FRACTIONS}):
            few = rng.uniform(0.1, 2.0, k)
            many = rng.uniform(0.1, 2.0, n - k)
            pos = with_spectrum(np.r_[few, -many], rng)     # k positive eigenvalues
            neg = with_spectrum(np.r_[many, -few], rng)     # k negative eigenvalues
            full_pos, sub_pos = paired_us(pos, 0, args.reps)
            full_neg, sub_neg = paired_us(neg, n, args.reps)
            w.writerow([n, k, f"{full_pos:.1f}", f"{sub_pos:.1f}", f"{sub_pos / full_pos:.2f}",
                        f"{full_neg:.1f}", f"{sub_neg:.1f}", f"{sub_neg / full_neg:.2f}"])
            fh.flush()
    if args.out:
        fh.close()


if __name__ == "__main__":
    main()
