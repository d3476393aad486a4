#!/usr/bin/env python3
"""Certified fourth-moment bounds for low-degree cube polynomials.

For each (cube dimension, degree) pair that ``certify_hypercontractivity``
takes, prints a CSV row with the relaxation value, the claimed bound 9^d, the
oracle lower bound, and the certificate residual; each pair it rejects as too
large is named on standard error and skipped.

Usage:
    python scripts/hyper_certificate_table.py [--max-l 6] [--max-d 2]
"""

import argparse
import csv
import math
import sys
import time

from hypernorm.tensorsdp import certify_hypercontractivity


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-l", type=int, default=6)
    ap.add_argument("--max-d", type=int, default=2)
    ap.add_argument("--restarts", type=int, default=32)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    fh = open(args.out, "w", newline="") if args.out else sys.stdout
    w = csv.writer(fh)
    w.writerow(["l", "d", "n_coeffs", "value", "bound_9d", "oracle_fourth",
                "certificate_bound", "sos_residual", "seconds"])
    for l in range(2, args.max_l + 1):
        for d in range(0, min(l, args.max_d) + 1):
            t0 = time.time()
            try:
                hc = certify_hypercontractivity(l, d, restarts=args.restarts)
            except ValueError as exc:
                print(f"skipped l={l} d={d}: {exc}", file=sys.stderr)
                continue
            ncoef = sum(math.comb(l, j) for j in range(d + 1))
            w.writerow([l, d, ncoef, f"{hc.value:.8f}", f"{hc.bound_claimed:.1f}",
                        f"{hc.oracle_fourth:.8f}", f"{hc.certificate.bound:.8f}",
                        f"{hc.certificate.residual:.2e}", f"{time.time() - t0:.2f}"])
            fh.flush()
    if args.out:
        fh.close()


if __name__ == "__main__":
    main()
